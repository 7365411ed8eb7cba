"""Plain-text syntax for terms, problem files and substitutions: the single
serialization used by the CLI, the tests and the golden files, and the one
JSON encoder, :func:`jsonable`, built on it.

The grammar is documented in docs/format.md.  In short: identifiers starting
with an uppercase letter or underscore are variables, lowercase identifiers
are constants, dotted numerals like ``2.1`` are tag constants (a bare
positive integer is a single-component tag), ``0`` is the xor unity,
``[t1, t2]`` is a sequence, and ``xor(a, b)`` / infix ``a + b`` both denote
xor.  ``#`` starts a line comment.
"""

from __future__ import annotations

import re

from .terms import (
    SIGNATURE,
    ZERO,
    Const,
    Problem,
    Record,
    Seq,
    TagConst,
    Term,
    Theory,
    Var,
    Xor,
    Zero,
    children,
)
from .unify import Substitution


class ParseError(Exception):
    """Syntax error with a position annotation."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {col}" if col is not None else "")
        super().__init__(message + where)


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<num>\d+(?:\.\d+)*)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>[()\[\]+,])
    """,
    re.VERBOSE,
)

# every compound constructor is written name(args...), except sequences
_CALLS = {sig.op: cls for cls, sig in SIGNATURE.items() if sig.op and cls is not Seq}


def _tokenize(src: str, line: int | None = None) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", line, pos + 1)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos + 1))
        pos = m.end()
    tokens.append(("eof", "", len(src) + 1))
    return tokens


class _Parser:
    def __init__(self, src: str, line: int | None = None):
        self.tokens = _tokenize(src, line)
        self.line = line
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str) -> None:
        kind, val, col = self.take()
        if val != value:
            shown = val if kind != "eof" else "end of input"
            raise ParseError(f"expected {value!r}, found {shown!r}", self.line, col)

    def term(self) -> Term:
        parts = [self.primary()]
        while self.peek()[1] == "+":
            self.take()
            parts.append(self.primary())
        if len(parts) == 1:
            return parts[0]
        # an infix chain flattens into a single variadic xor node
        return Xor(tuple(parts))

    def primary(self) -> Term:
        kind, val, col = self.take()
        if val == "(":
            t = self.term()
            self.expect(")")
            return t
        if val == "[":
            return Seq(tuple(self._term_list("]")))
        if kind == "num":
            return self._numeral(val, col)
        if kind == "ident":
            if val in _CALLS:
                return self._call(val, col)
            if val[0].isupper() or val[0] == "_":
                return Var(val)
            return Const(val)
        shown = val if kind != "eof" else "end of input"
        raise ParseError(f"expected a term, found {shown!r}", self.line, col)

    def _numeral(self, text: str, col: int) -> Term:
        if text == "0":
            return ZERO
        parts = tuple(int(p) for p in text.split("."))
        if any(p < 1 for p in parts):
            raise ParseError(f"tag components must be positive: {text!r}", self.line, col)
        return TagConst(parts)

    def _term_list(self, close: str) -> list[Term]:
        items = [self.term()]
        while self.peek()[1] == ",":
            self.take()
            items.append(self.term())
        self.expect(close)
        return items

    def _call(self, name: str, col: int) -> Term:
        self.expect("(")
        args = self._term_list(")")
        cls = _CALLS[name]
        sig = SIGNATURE[cls]
        if sig.variadic:
            if len(args) < sig.arity:
                raise ParseError(
                    f"{name} needs at least {sig.arity} arguments", self.line, col
                )
            return cls(tuple(args))
        if len(args) != sig.arity:
            raise ParseError(
                f"{name} takes {sig.arity} argument(s), got {len(args)}", self.line, col
            )
        return cls(*args)

    def end(self) -> None:
        kind, val, col = self.peek()
        if kind != "eof":
            raise ParseError(f"trailing input {val!r}", self.line, col)


def parse_term(src: str, line: int | None = None) -> Term:
    p = _Parser(src, line)
    t = p.term()
    p.end()
    return t


def render_term(t: Term) -> str:
    """Canonical text for a term; ``parse_term(render_term(t)) == t``."""
    if isinstance(t, Var) or isinstance(t, Const):
        return t.name
    if isinstance(t, TagConst):
        return ".".join(str(p) for p in t.path)
    if isinstance(t, Zero):
        return "0"
    sig = SIGNATURE.get(type(t))
    if sig is None:
        raise TypeError(f"cannot render {t!r}")
    inner = ", ".join(render_term(c) for c in children(t))
    return f"[{inner}]" if type(t) is Seq else f"{sig.op}({inner})"


def rendered_length(t: Term, memo: dict[int, int]) -> int:
    """``len(render_term(t))``, measured on the term's DAG: ``memo`` maps
    the id of each node already measured to its length, so a shared node
    is measured once and a term whose text is exponential in its number of
    nodes is measured in time linear in that number."""
    known = memo.get(id(t))
    if known is None:
        args = children(t)
        if not args:
            known = len(render_term(t))
        else:
            head = 0 if type(t) is Seq else len(SIGNATURE[type(t)].op)
            # the brackets or parentheses and a ", " between arguments
            known = head + 2 * len(args) + sum(rendered_length(c, memo) for c in args)
        memo[id(t)] = known
    return known


def render_substitution(s: Substitution) -> str:
    if not s.bindings:
        return "{}"
    inner = ", ".join(f"{render_term(t)}/{v}" for v, t in sorted(s.bindings.items()))
    return "{ " + inner + " }"


class Entry(Record):
    """One ``lhs ~? rhs @theory`` line of a problem file."""

    lhs: Term
    rhs: Term
    theory: Theory

    @property
    def problem(self) -> Problem:
        return Problem(self.lhs, self.rhs)


class ProblemFile(Record):
    entries: list[Entry] = []
    sets: dict[str, list[Term]] = {}
    terms: list[Term] = []
    default_theory: Theory | None = None


_HEADER_RE = re.compile(r"^theory\s*:\s*(\S+)$")
_SET_RE = re.compile(r"^set\s+([A-Za-z_][A-Za-z0-9_]*)\s*\{$")


def _parse_theory_name(name: str, lineno: int) -> Theory:
    try:
        return Theory(name)
    except ValueError:
        raise ParseError(f"unknown theory {name!r}", lineno) from None


def parse_problem_file(src: str) -> ProblemFile:
    pf = ProblemFile()
    current: str | None = None
    for lineno, raw in enumerate(src.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if current is not None:
            if line == "}":
                current = None
            else:
                pf.sets[current].append(parse_term(line, lineno))
            continue
        m = _HEADER_RE.match(line)
        if m:
            pf.default_theory = _parse_theory_name(m.group(1), lineno)
            continue
        m = _SET_RE.match(line)
        if m:
            name = m.group(1)
            if name in pf.sets:
                raise ParseError(f"duplicate set {name!r}", lineno)
            pf.sets[name] = []
            current = name
            continue
        if "~?" in line:
            lhs_txt, rest = line.split("~?", 1)
            if "@" in rest:
                rhs_txt, theory_name = rest.rsplit("@", 1)
                theory = _parse_theory_name(theory_name.strip(), lineno)
            else:
                rhs_txt = rest
                theory = pf.default_theory or Theory.COMBINED
            pf.entries.append(
                Entry(parse_term(lhs_txt, lineno), parse_term(rhs_txt, lineno), theory)
            )
            continue
        pf.terms.append(parse_term(line, lineno))
    if current is not None:
        raise ParseError(f"unclosed set {current!r}")
    return pf


def render_problem_file(pf: ProblemFile) -> str:
    lines: list[str] = []
    if pf.default_theory is not None:
        lines.append(f"theory: {pf.default_theory.value}")
    for t in pf.terms:
        lines.append(render_term(t))
    for e in pf.entries:
        lines.append(f"{render_term(e.lhs)} ~? {render_term(e.rhs)} @{e.theory.value}")
    for name, terms in pf.sets.items():
        lines.append(f"set {name} {{")
        for t in terms:
            lines.append(f"  {render_term(t)}")
        lines.append("}")
    return "\n".join(lines) + ("\n" if lines else "")


def problem_to_jsonable(p: Problem) -> dict[str, str]:
    return {"lhs": render_term(p.lhs), "rhs": render_term(p.rhs)}


def substitution_to_jsonable(s: Substitution) -> dict[str, str]:
    return {v: render_term(t) for v, t in sorted(s.bindings.items())}


def jsonable(value):
    """The JSON form of a report value: terms as their text, problems as
    ``{lhs, rhs}``, substitutions as sorted maps, any other record as the dict
    of its fields, tuples and lists as lists and dicts by their values."""
    if isinstance(value, Term):
        return render_term(value)
    if isinstance(value, Problem):
        return problem_to_jsonable(value)
    if isinstance(value, Substitution):
        return substitution_to_jsonable(value)
    if isinstance(value, Record):
        return {name: jsonable(getattr(value, name)) for name in value._fields}
    if isinstance(value, (tuple, list)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    return value
