"""Complete unification for pure xor problems (the ACUN theory with free
constants).

Each problem ``m ~? t`` is rewritten as ``nf(m + t) = 0`` and becomes one
linear equation over GF(2) whose unknowns are the variables and whose
right-hand side is a set of atoms.  The joint system for the whole problem
set is solved by Gaussian elimination on bitmask rows; the solution space is
parameterized, not disjunctive, so a single most general unifier suffices
when the system is consistent.
"""

from __future__ import annotations

from itertools import count
from typing import Iterable

from .terms import (
    ZERO,
    Frozen,
    Problem,
    Term,
    Theory,
    Var,
    Xor,
    acun_normal_form,
    fresh_name,
    is_pure,
    problem_vars,
    sort_key,
    xor_of,
)
from .unify import ImpureTermError, Substitution


class Gf2System(Frozen):
    """The GF(2) encoding of a pure xor problem set.

    ``rows[k]`` is ``(var_mask, atom_mask)``: bit ``i`` of ``var_mask`` set
    means ``variables[i]`` occurs (an odd number of times) in equation ``k``,
    and likewise for atoms.  Construction is basis-stable: the same problem
    set always produces the same matrix.
    """

    atoms: tuple[Term, ...]
    variables: tuple[str, ...]
    rows: tuple[tuple[int, int], ...]


def build_gf2_system(problems: Iterable[Problem]) -> Gf2System:
    probs = list(problems)
    if not all(is_pure(side, Theory.ACUN) for p in probs for side in (p.lhs, p.rhs)):
        raise ImpureTermError("standard-theory subterm in a pure xor problem")
    # the unity element contributes nothing: nf drops it before encoding
    diffs = [acun_normal_form(Xor((p.lhs, p.rhs))) for p in probs]
    summand_lists = [
        () if d == ZERO else (d.items if isinstance(d, Xor) else (d,)) for d in diffs
    ]
    var_names = sorted(problem_vars(probs))
    atom_set = {u for summands in summand_lists for u in summands if not isinstance(u, Var)}
    atoms = tuple(sorted(atom_set, key=sort_key))
    atom_index = {a: i for i, a in enumerate(atoms)}
    var_index = {v: i for i, v in enumerate(var_names)}
    rows = []
    for summands in summand_lists:
        vm = am = 0
        for u in summands:
            if isinstance(u, Var):
                vm ^= 1 << var_index[u.name]
            else:
                am ^= 1 << atom_index[u]
        rows.append((vm, am))
    return Gf2System(atoms, tuple(var_names), tuple(rows))


def _bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def forward_eliminate(rows: Iterable[tuple[int, int]]) -> dict[int, tuple[int, int]] | None:
    """Gaussian forward elimination of ``(var_mask, atom_mask)`` rows.

    Returns the pivot rows keyed by their pivot column (the lowest set bit
    of the row's var mask), or None when some row reduces to no variables
    but a nonzero atom mask: the system is then inconsistent.
    """
    pivots: dict[int, tuple[int, int]] = {}
    for vm, am in rows:
        for j, (pvm, pam) in pivots.items():
            if vm >> j & 1:
                vm ^= pvm
                am ^= pam
        if vm:
            j = (vm & -vm).bit_length() - 1
            pivots[j] = (vm, am)
        elif am:
            return None
    return pivots


def unify_acun(problems: Iterable[Problem], avoid: Iterable[str] = ()) -> Substitution | None:
    """Most general unifier of a pure xor problem set, or None.

    Elementary xor unification with free constants has a single
    parameterized mgu; None means the GF(2) system is inconsistent, so
    there is no unifier.  Free dimensions of the solution space are
    named by fresh ``_fN`` variables, named away from the problems'
    variables and ``avoid``; variables whose occurrences cancel outright
    stay unbound, so ``unify_acun([Problem(t, t)])`` yields the empty
    substitution.
    """
    system = build_gf2_system(problems)
    pivots = forward_eliminate(system.rows)
    if pivots is None:
        return None
    # back-substitute to reduced form: pivot rows mention only free columns
    for j in sorted(pivots, reverse=True):
        vm, am = pivots[j]
        for k in list(pivots):
            if k != j and pivots[k][0] >> j & 1:
                pivots[k] = (pivots[k][0] ^ vm, pivots[k][1] ^ am)
    free_used = sorted(
        {k for vm, _ in pivots.values() for k in _bits(vm)} - set(pivots)
    )
    taken = {*system.variables, *avoid}
    names = (f"_f{n}" for n in count(1))
    param_term = {k: Var(fresh_name(names, taken)) for k in free_used}
    bindings: dict[str, Term] = {}
    for j in sorted(pivots):
        vm, am = pivots[j]
        parts: list[Term] = [param_term[k] for k in _bits(vm) if k != j]
        parts.extend(system.atoms[i] for i in _bits(am))
        bindings[system.variables[j]] = xor_of(sorted(parts, key=sort_key))
    for k in free_used:
        bindings[system.variables[k]] = param_term[k]
    return Substitution(bindings)
