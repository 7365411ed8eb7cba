"""Syntactic unification: substitutions in solved form, the standard-theory
solver with occurs check, and the variant that treats xor as a free symbol.

Every solver keeps triangular bindings, reads them through with :func:`walk`
and :func:`occurs`, and turns them into a :class:`Substitution` once with
:func:`resolve`, as does the combination's merge."""

from __future__ import annotations

from typing import Iterable, Mapping

from .terms import Problem, Term, Theory, Var, children, decompose, is_pure, map_args, vars_of


class ImpureTermError(Exception):
    """A solver was handed a term outside the theory it implements."""


class ChoiceSpaceExceeded(Exception):
    """An enumeration cap was hit before the choice space was exhausted."""


class Substitution:
    """Finite map from variable names to terms, kept idempotent: no bound
    variable occurs in any binding's right-hand side, so applying twice is
    the same as applying once."""

    __slots__ = ("bindings",)

    def __init__(self, bindings: Mapping[str, Term] | None = None):
        self.bindings: dict[str, Term] = dict(bindings) if bindings else {}

    def apply(self, t: Term) -> Term:
        """Simultaneously replace every bound variable occurring in ``t``."""
        if isinstance(t, Var):
            return self.bindings.get(t.name, t)
        return map_args(self.apply, t)

    def apply_problem(self, p: Problem) -> Problem:
        return Problem(self.apply(p.lhs), self.apply(p.rhs))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Substitution) and self.bindings == other.bindings

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}: {t!r}" for v, t in sorted(self.bindings.items()))
        return f"Substitution({{{inner}}})"


def walk(t: Term, bindings: Mapping[str, Term]) -> Term:
    """Follow bindings from ``t`` to an unbound variable or a non-variable."""
    while isinstance(t, Var) and t.name in bindings:
        t = bindings[t.name]
    return t


def occurs(name: str, t: Term, bindings: Mapping[str, Term]) -> bool:
    """Whether ``name`` occurs in ``t`` with the bindings read through,
    visiting each shared node once."""
    seen: set[int] = set()
    stack = [t]
    while stack:
        u = stack.pop()
        if id(u) in seen:
            continue
        seen.add(id(u))
        if isinstance(u, Var):
            if u.name == name:
                return True
            if u.name in bindings:
                stack.append(bindings[u.name])
        else:
            stack.extend(children(u))
    return False


def resolve(bindings: Mapping[str, Term]) -> tuple[tuple[str, ...], Substitution] | None:
    """Triangular bindings as an idempotent substitution, or None if cyclic.

    Peels Kahn layers (each sorted) off the bindings' dependencies and
    substitutes each binding once, after those it depends on; the result
    shares those nodes, so a term doubling at each step stays linear in
    size.  Returns that order and the substitution, keys in insertion order.
    """
    pending = {x: vars_of(t) & bindings.keys() for x, t in bindings.items()}
    solved = Substitution()
    while pending:
        layer = sorted(x for x, deps in pending.items() if deps <= solved.bindings.keys())
        if not layer:
            return None
        for x in layer:
            del pending[x]
            solved.bindings[x] = solved.apply(bindings[x])
    return tuple(solved.bindings), Substitution({x: solved.bindings[x] for x in bindings})


def extend_bindings(
    eqs: Iterable[tuple[Term, Term]], bindings: Mapping[str, Term] = {}
) -> dict[str, Term] | None:
    """First-order unification by decomposition with occurs check,
    continuing from the triangular bindings of an earlier call, which are
    copied, never changed; None when ``eqs`` have no unifier under them.

    Bindings stay triangular (a binding may mention variables bound later)
    and are resolved once by the caller, so the cost stays polynomial when
    the unifier written as a tree is exponential.  Every constructor, xor
    included, decomposes positionally, so this is also the free-xor
    unifier; callers that implement the standard theory reject xor first.
    """
    bindings = dict(bindings)
    work = list(eqs)
    while work:
        s, t = work.pop()
        s, t = walk(s, bindings), walk(t, bindings)
        if s == t:
            continue
        if isinstance(t, Var) and not isinstance(s, Var):
            s, t = t, s
        if isinstance(s, Var):
            if occurs(s.name, t, bindings):
                return None
            bindings[s.name] = t
            continue
        pairs = decompose(s, t)
        if pairs is None:
            return None  # distinct atoms, or a constructor or arity clash
        work.extend(pairs)
    return bindings


def head_key(t: Term, bindings: Mapping[str, Term] = {}) -> object:
    """What no extension of ``bindings`` changes about ``t`` (first-symbol
    indexing): None for a variable, an atom itself, and a compound's
    constructor, arity and first argument, kept only if a non-variable atom."""
    t = walk(t, bindings)
    if isinstance(t, Var):
        return None
    args = children(t)
    if not args:
        return t
    first = walk(args[0], bindings)
    return type(t), len(args), None if isinstance(first, Var) or children(first) else first


def keys_clash(a: object, b: object) -> bool:
    """Whether terms with :func:`head_key` values ``a`` and ``b`` have no
    common instance: both are defined and differ in the constructor, the
    arity, or two defined first atoms."""
    if a is None or b is None or a == b:
        return False
    if type(a) is not tuple or type(b) is not tuple:
        return True
    return a[:2] != b[:2] or (a[2] is not None and b[2] is not None)


def _solve(problems: Iterable[Problem]) -> Substitution | None:
    bindings = extend_bindings([(p.lhs, p.rhs) for p in problems])
    # the occurs check keeps the bindings acyclic
    return None if bindings is None else resolve(bindings)[1]


def unify_std(problems: Iterable[Problem]) -> Substitution | None:
    """Most general unifier modulo the standard theory, or None.

    Sequences unify only with sequences of the same length, encryption and
    key constructors decompose componentwise, atoms unify only with
    themselves, and the occurs check is always on.  Terms containing xor are
    rejected outright; mixed problems belong to the combined solver.
    """
    probs = list(problems)
    if not all(is_pure(side, Theory.STD) for p in probs for side in (p.lhs, p.rhs)):
        raise ImpureTermError("xor subterm in a standard-theory problem")
    return _solve(probs)


def unify_free_xor(problems: Iterable[Problem]) -> Substitution | None:
    """Syntactic unification treating xor as an ordinary free symbol: xor
    nodes unify only with xor nodes of the same width, summand by summand in
    the written order."""
    return _solve(problems)
