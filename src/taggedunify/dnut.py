"""The DNUT tagging discipline: a checker for its three conditions and the
automatic hierarchical tagger.

A set of terms is DNUT-satisfying when (1) no two summands of any xor
subterm are unifiable in the standard theory, (2) no summand of an xor
subterm is standard-unifiable with a summand of a different xor subterm,
and (3) the unity element is not a direct summand of any xor subterm.
Under these conditions every xor cancellation is disabled, which is what
makes equational unifiability collapse to free unifiability.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .terms import (
    ZERO,
    Frozen,
    Problem,
    Record,
    Seq,
    TagConst,
    Term,
    Xor,
    Zero,
    iter_subterms,
    map_args,
)
from .textfmt import render_term
from .unify import head_key, keys_clash, unify_free_xor


class DnutViolation(Frozen):
    condition: int
    witness: tuple[Term, ...]
    enclosing: tuple[Term, ...]


class DnutReport(Record):
    satisfied: bool
    violations: list[DnutViolation]

    def to_text(self) -> str:
        if self.satisfied:
            return "satisfied"
        lines = [f"{len(self.violations)} violation(s)"]
        for v in self.violations:
            witness = " ~ ".join(render_term(t) for t in v.witness)
            inside = "; ".join(render_term(t) for t in v.enclosing)
            lines.append(f"  condition {v.condition}: {witness}  (in {inside})")
        return "\n".join(lines)


def _std_unifiable(a: Term, b: Term) -> bool:
    # The standard theory has no xor equations, so unifiability of terms that
    # happen to contain xor is plain syntactic unification with xor free.
    return unify_free_xor([Problem(a, b)]) is not None


def dnut_check(terms: Iterable[Term]) -> DnutReport:
    """Exhaustively check the three conditions over a set of terms.

    Summand pairs are scanned by occurrence, so a repeated summand inside
    one xor term violates condition 1.  Syntactically identical xor
    subterms are treated as one term, never paired against themselves under
    condition 2.  A summand pair is unified only when its :func:`head_key`
    values do not clash, so distinct tags decide a pair without unifying.
    """
    xors = list(dict.fromkeys(u for t in terms for u in iter_subterms(t) if isinstance(u, Xor)))
    keys = [[head_key(it) for it in x.items] for x in xors]
    violations: list[DnutViolation] = []
    for x, ks in zip(xors, keys):
        items = x.items
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                if not keys_clash(ks[i], ks[j]) and _std_unifiable(items[i], items[j]):
                    violations.append(DnutViolation(1, (items[i], items[j]), (x,)))
        if any(isinstance(it, Zero) for it in items):
            violations.append(DnutViolation(3, (ZERO,), (x,)))
    for i in range(len(xors)):
        for j in range(i + 1, len(xors)):
            for a, ka in zip(xors[i].items, keys[i]):
                for b, kb in zip(xors[j].items, keys[j]):
                    if not keys_clash(ka, kb) and _std_unifiable(a, b):
                        violations.append(DnutViolation(2, (a, b), (xors[i], xors[j])))
    violations.sort(key=lambda v: v.condition)
    return DnutReport(not violations, violations)


# the base of the c-th maximal xor found below a summand or message path
_Numbering = Callable[[tuple[int, ...], int], tuple[int, ...]]


def _tag_xor(x: Xor, base: tuple[int, ...], nested: _Numbering) -> Xor:
    new_items = []
    for k, item in enumerate(x.items, 1):
        tag = TagConst(base + (k,))
        content = _tag_below(item, base + (k,), nested)
        if isinstance(content, Seq):
            wrapped = Seq((tag,) + content.items)
        else:
            wrapped = Seq((tag, content))
        new_items.append(wrapped)
    return Xor(tuple(new_items))


def _tag_below(t: Term, path: tuple[int, ...], nested: _Numbering) -> Term:
    """Tag all xor subterms below ``t``, numbering maximal xors depth-first."""
    counter = 0

    def walk(u: Term) -> Term:
        nonlocal counter
        if isinstance(u, Xor):
            counter += 1
            return _tag_xor(u, nested(path, counter), nested)
        return map_args(walk, u)

    return walk(t)


def _hierarchical(path: tuple[int, ...], c: int) -> tuple[int, ...]:
    """The first xor extends ``path`` directly, which yields the 3.3.1-style
    paths for a lone xor nested inside a summand; later sibling xors get an
    extra disambiguating component."""
    return path if c == 1 else path + (c,)


def _tree_address(path: tuple[int, ...], c: int) -> tuple[int, ...]:
    return path + (c,)


def dnut_tag(messages: Sequence[Term]) -> list[Term]:
    """Tag an ordered list of messages so the result satisfies all three
    conditions.

    Every summand of every xor subterm is wrapped in a sequence headed by a
    fresh tag constant; a summand that already is a sequence gets the tag
    prefixed as a new head element.  Paths are hierarchical: message index
    at the root, summand index last, nested xors extending their enclosing
    summand's tag path.  Messages without xor subterms are returned
    unchanged.

    Every summand head is an assigned tag, so tags already in the input
    never collide.  The first attempt numbers nested xors as
    :func:`_hierarchical` does, where a second sibling xor below path p gets
    base p.2, the base of an xor nested in the first xor's second summand.
    On such a clash tagging retries with :func:`_tree_address`: every xor
    below path p gets p.c for c = 1, 2, ..., so tag paths are tree
    addresses and no two summands share a head tag.  The result is checked
    either way.
    """
    for nested in (_hierarchical, _tree_address):
        out = [
            _tag_xor(m, (i,), nested) if isinstance(m, Xor) else _tag_below(m, (i,), nested)
            for i, m in enumerate(messages, 1)
        ]
        if dnut_check(out).satisfied:
            return out
    raise RuntimeError("tagging failed to satisfy the conditions")

