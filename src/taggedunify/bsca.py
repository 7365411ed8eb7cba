"""Unification in the union of the standard free theory and the xor theory,
by combining the two pure solvers in the Baader-Schulz style for
signature-disjoint theories.

The pipeline: purify terms (step 1), purify problems (step 2), identify
variables (step 3), split the problem set by theory (step 4), replace each
side's foreign variables with fresh constants and run the pure solvers
(step 5), and merge the component unifiers (step 6) by resolving their
bindings once, which yields a dependency-compatible linear variable order
or fails when the bindings are cyclic.  The nondeterministic choices are
enumerated exhaustively up to configurable caps.

Pruning (on by default, switchable off via :class:`BscaConfig`) discards
only branches that provably cannot succeed:

* two variables are identified only if their standard-theory definitions
  (``V ~? t`` with ``t`` a non-variable) are pairwise unifiable; a failed
  pair makes every extension fail;
* a variable standing opposite a non-variable in a standard problem must
  keep its variable role there, since a fresh constant can never equal a
  proper term or a different atom;
* variables occurring in only one of the two split problem sets take the
  role that leaves them flexible, the other role being strictly weaker;
* the pure-part precheck: before any identification is enumerated, the
  standard and xor parts of the purified problem set are solved as they
  stand.  Every branch grounds an instance of these parts (identification
  renames variables into one another, grounding replaces variables by free
  constants), and a unifier of an instance composed with the instantiation
  unifies the original, so a part without a unifier fails every branch;
* the per-partition precheck: for each identification, the xor part with
  each variable with a standard definition that occurs in an xor problem
  replaced by a fresh constant (such a variable is in V1 on every split),
  and the standard part as it stands, are solved before any split is
  enumerated.  Every split's grounded sets are instances of these, up to
  renaming the fresh constants, so a failure here fails every split.  The
  xor half is decided before the partition's problem set is built, on the
  GF(2) system of the purified xor part, built once per call: identifying
  a block adds its variables' columns into one, and grounding a block
  moves that column to a fresh atom of its own.  This is the system of the
  grounded xor part, because renaming variables into one another commutes
  with the parity normal form, a fresh constant is an atom independent of
  every other atom, and the duplicate problems identification leaves
  behind repeat rows, which never change consistency.  Only partitions
  that pass are built and split, and only they have their standard part
  solved.
"""

from __future__ import annotations

from itertools import chain, count
from typing import Callable, Iterable, Iterator

from .acun import build_gf2_system, forward_eliminate, unify_acun
from .terms import (
    XOR,
    Const,
    Frozen,
    Problem,
    Record,
    Term,
    Theory,
    Var,
    Xor,
    acun_normal_form,
    const_names_of,
    equal_mod,
    fresh_name,
    is_atom,
    is_pure,
    map_args,
    problem_vars,
    side_of,
    vars_of,
)
from .textfmt import _CALLS
from .unify import Substitution, resolve, unify_std


class ChoiceSpaceExceeded(Exception):
    """An enumeration cap was hit before the choice space was exhausted."""


class BscaConfig(Frozen):
    """Caps and switches for the combined solver's choice-space enumeration.

    ``max_partition_vars`` bounds the number of variables the variable
    identification step may enumerate partitions over; ``max_branches``
    bounds the total number of (partition, split) attempts.  Linear orders
    are not enumerated: each branch merges along one dependency order.
    ``prune`` switches on the pruning rules and prechecks of the module
    docstring; off, every partition and split is enumerated, which is the
    reference the pruned search is tested against.  ``first_only`` stops
    at the first verified unifier; such a search also restricts
    identification to the variables of :func:`split_problems`' xor side,
    which holds every problem with an xor or the unity element ``0`` (also
    ``W ~? 0``, which purification makes of a ``0`` under a standard
    constructor).  This preserves unifiability: a variable outside that side
    occurs only in standard problems, whose syntactic solver finds a most
    general unifier without help, and only merges among the xor side's
    variables enable new cancellations.  A search for all unifiers
    identifies all variables.  ``keep_traces`` keeps one
    :class:`BscaTrace` per attempted branch in the result.
    """

    max_partition_vars: int = 9
    max_branches: int = 100_000
    prune: bool = True
    first_only: bool = False
    keep_traces: bool = True


class BscaTrace(Record):
    """Intermediate states of one (partition, split) branch of a run."""

    gamma0: tuple[Problem, ...]
    gamma1: tuple[Problem, ...]
    gamma2: tuple[Problem, ...]
    var_id_partition: tuple[tuple[str, ...], ...]
    gamma3: tuple[Problem, ...]
    gamma41: tuple[Problem, ...]
    gamma42: tuple[Problem, ...]
    var_split: tuple[tuple[str, ...], tuple[str, ...]]
    beta: dict[str, str]
    gamma51: tuple[Problem, ...]
    gamma52: tuple[Problem, ...]
    linear_order: tuple[str, ...] | None
    sigma1: Substitution | None
    sigma2: Substitution | None
    combined: Substitution | None


class CombinedResult(Record):
    unifiers: list[Substitution]
    traces: list[BscaTrace] = []


def _fresh_var(taken: set[str]) -> str:
    """The first of W, X, Y, Z, U, V, W1, X1, ... not taken."""
    return fresh_name(chain("WXYZUV", (f"{v}{r}" for r in count(1) for v in "WXYZUV")), taken)


def _fresh_const(var_name: str, taken: set[str]) -> str:
    """The first of ``var_name`` lowercased, then numbered, not taken.  A
    lowercased name that would not parse back as a constant, one with a
    leading underscore or a reserved call name such as ``pk``, is first
    prefixed with ``c``."""
    base = var_name.lower()
    if base.startswith("_") or base in _CALLS:
        base = "c" + base
    return fresh_name(chain((base,), map(f"{base}{{}}".format, count(1))), taken)


def _purify_term(
    t: Term, taken: set[str], defs: list[Problem], cache: dict[Term, str]
) -> Term:
    own = side_of(t)

    def fix(c: Term) -> Term:
        c_side = side_of(c)
        if c_side is None or c_side == own:
            return _purify_term(c, taken, defs, cache)
        # an alien subterm, or an atom of the other signature: atoms belong
        # to a side too (full signature disjointness), which is what lets
        # identification equate an abstraction variable with a constant's
        # stand-in, as completeness needs
        if c not in cache:
            pure = _purify_term(c, taken, defs, cache)
            cache[c] = _fresh_var(taken)
            defs.append(Problem(Var(cache[c]), pure))
        return Var(cache[c])

    return map_args(fix, t)


def purify_terms(problems: Iterable[Problem]) -> list[Problem]:
    """Step 1: make every term pure by abstracting alien subterms into fresh
    variables with defining problems.  Repeated occurrences of one alien
    subterm share the abstraction variable.

    A problem whose two sides head into different theories is abstracted on
    the left as well (fresh ``W`` with ``W ~? lhs`` emitted first), so the
    output is already problem-pure for such inputs.  Fresh names avoid the
    problems' variables.
    """
    probs = list(problems)
    taken = set(problem_vars(probs))
    cache: dict[Term, str] = {}
    out: list[Problem] = []
    for p in probs:
        defs: list[Problem] = []
        if not (is_atom(p.lhs) or is_atom(p.rhs)) and side_of(p.lhs) != side_of(p.rhs):
            w = _fresh_var(taken)
            defs.append(Problem(Var(w), _purify_term(p.lhs, taken, defs, cache)))
            main = Problem(Var(w), _purify_term(p.rhs, taken, defs, cache))
        else:
            main = Problem(
                _purify_term(p.lhs, taken, defs, cache),
                _purify_term(p.rhs, taken, defs, cache),
            )
        out.extend(defs)
        out.append(main)
    return list(dict.fromkeys(out))


def purify_problems(problems: Iterable[Problem]) -> list[Problem]:
    """Step 2: make both sides of every problem belong to one theory, by
    splitting any leftover cross-theory problem ``s ~? t`` into ``V ~? s``
    and ``V ~? t`` with a fresh variable.  Variables and atoms count as
    belonging to either theory.  Fresh names avoid the problems'
    variables."""
    probs = list(problems)
    taken = set(problem_vars(probs))
    out: list[Problem] = []
    for p in probs:
        lc, rc = side_of(p.lhs), side_of(p.rhs)
        if lc is not None and rc is not None and lc != rc:
            v = _fresh_var(taken)
            out.append(Problem(Var(v), p.lhs))
            out.append(Problem(Var(v), p.rhs))
        else:
            out.append(p)
    return list(dict.fromkeys(out))


def _std_definitions(problems: Iterable[Problem]) -> dict[str, list[Term]]:
    """Non-variable standard-theory terms each variable is directly equated to.

    The unity element ``0`` is recorded too; the identification
    compatibility test treats it as a constant, and a problem holding it
    goes to the xor side, so it never reaches ``g41``."""
    defs: dict[str, list[Term]] = {}
    for p in problems:
        for a, b in ((p.lhs, p.rhs), (p.rhs, p.lhs)):
            if isinstance(a, Var) and not isinstance(b, (Var, Xor)):
                defs.setdefault(a.name, []).append(b)
    return defs


Partition = tuple[tuple[str, ...], ...]


def xor_precheck(problems: Iterable[Problem]) -> Callable[[Partition], bool] | None:
    """The xor halves of the pure-part and per-partition prechecks, read
    off one GF(2) system of the xor part of the purified set ``problems``.

    None when that system is inconsistent as it stands (the pure-part
    precheck).  Otherwise the per-partition test: a partition passes when
    the system stays consistent after each block's columns are added into
    one, and the column of each block holding a variable with a standard
    definition is moved to a fresh atom of its own.
    """
    std, xor = split_problems(problems)
    system = build_gf2_system(xor)
    if forward_eliminate(system.rows) is None:
        return None
    defined = _std_definitions(std).keys()
    column = {v: 1 << i for i, v in enumerate(system.variables)}
    fresh_atom = 1 << len(system.atoms)

    def may_unify(partition: Partition) -> bool:
        moves = []  # (the block's columns, its new var bit, its new atom bit)
        for j, block in enumerate(partition):
            cols = sum(column.get(v, 0) for v in block)  # distinct bits: their union
            if cols and defined.isdisjoint(block):
                moves.append((cols, 1 << j, 0))
            elif cols:
                moves.append((cols, 0, fresh_atom << j))
        rows = []
        for vm, am in system.rows:
            new_vm = 0
            for cols, var_bit, atom_bit in moves:
                if (vm & cols).bit_count() & 1:
                    new_vm ^= var_bit
                    am ^= atom_bit
            rows.append((new_vm, am))
        return forward_eliminate(rows) is not None

    return may_unify


def variable_identifications(
    problems: Iterable[Problem],
    cfg: BscaConfig = BscaConfig(),
    keep: Callable[[Partition], bool] | None = None,
) -> Iterator[tuple[Partition, list[Problem]]]:
    """Step 3: enumerate partitions of the variables; for each, yield the
    partition and the problem set with every variable replaced by its
    class representative (the lexicographically least name).

    Under ``cfg.first_only`` only variables of :func:`split_problems`' xor
    side may share a block, the rest staying singletons.  ``keep``, when
    given, sees each compatible partition (sorted blocks of sorted names,
    singletons included) before its problem set is built; a partition it
    rejects is skipped without one.  Raises :class:`ChoiceSpaceExceeded` when
    more variables than ``cfg.max_partition_vars`` would need enumerating.
    """
    probs = list(problems)
    all_vars = sorted(problem_vars(probs))
    if cfg.first_only:
        scope = problem_vars(split_problems(probs)[1])
    else:
        scope = set(all_vars)
    enum_vars = [v for v in all_vars if v in scope]
    if len(enum_vars) > cfg.max_partition_vars:
        raise ChoiceSpaceExceeded(
            f"{len(enum_vars)} variables exceed the partition cap "
            f"of {cfg.max_partition_vars}"
        )

    defs = _std_definitions(probs) if cfg.prune else {}
    compat_cache: dict[tuple[str, str], bool] = {}

    def compatible(u: str, v: str) -> bool:
        du, dv = defs.get(u), defs.get(v)
        if not du or not dv:
            return True
        key = (u, v) if u < v else (v, u)
        if key not in compat_cache:
            compat_cache[key] = all(
                unify_std([Problem(s, t)]) is not None for s in du for t in dv
            )
        return compat_cache[key]

    def assignments(i: int, blocks: list[list[str]]) -> Iterator[list[list[str]]]:
        if i == len(enum_vars):
            yield [list(b) for b in blocks]
            return
        v = enum_vars[i]
        for b in blocks:
            if all(compatible(v, u) for u in b):
                b.append(v)
                yield from assignments(i + 1, blocks)
                b.pop()
        blocks.append([v])
        yield from assignments(i + 1, blocks)
        blocks.pop()

    singles = [[v] for v in all_vars if v not in scope]
    for blocks in assignments(0, []):
        partition = tuple(sorted(tuple(sorted(b)) for b in blocks + singles))
        if keep is not None and not keep(partition):
            continue
        rep = {v: b[0] for b in partition for v in b}
        sub = Substitution({v: Var(r) for v, r in rep.items() if v != r})
        gamma3 = list(dict.fromkeys(map(sub.apply_problem, probs)))
        yield partition, gamma3


def split_problems(problems: Iterable[Problem]) -> tuple[list[Problem], list[Problem]]:
    """Step 4: standard-theory problems left, xor problems right.

    Ownership follows the full signature: xor terms and the unity element go
    right, standard terms and other atoms left.  Variable-variable problems
    carry no operators at all and are routed to the standard side (a fixed
    rule for determinism; either routing is sound once variables are
    identified)."""
    g41: list[Problem] = []
    g42: list[Problem] = []
    for p in problems:
        lc, rc = side_of(p.lhs), side_of(p.rhs)
        if lc is not None and rc is not None and lc != rc:
            raise ValueError("split requires theory-pure problems")
        (g42 if (lc or rc) == XOR else g41).append(p)
    return g41, g42


class SplitAttempt(Record):
    """One two-block variable split with its component solver outcomes.

    ``sigma1``/``sigma2`` are None when the corresponding pure solver found
    no unifier; the split data is still reported so failed branches can be
    inspected."""

    v1: tuple[str, ...]
    v2: tuple[str, ...]
    beta: dict[str, str]
    gamma51: list[Problem]
    gamma52: list[Problem]
    sigma1: Substitution | None
    sigma2: Substitution | None


def solve_systems(
    g41: Iterable[Problem],
    g42: Iterable[Problem],
    cfg: BscaConfig = BscaConfig(),
    avoid: Iterable[str] = (),
) -> Iterator[SplitAttempt]:
    """Step 5: enumerate two-block splits {V1, V2} of the live variables.

    For each split, variables in V2 become fresh constants inside the
    standard problems and variables in V1 become fresh constants inside the
    xor problems; the pure solvers then run on the grounded sets, the xor
    solver naming its parameters away from ``avoid``.  Yields every
    attempted split, successful or not.
    """
    g41 = list(g41)
    g42 = list(g42)
    vars41 = problem_vars(g41)
    vars42 = problem_vars(g42)
    all_vars = sorted(vars41 | vars42)
    if cfg.prune:  # the role rules of the module docstring
        fixed2 = vars42 - vars41
        choice = sorted(vars41 & vars42 - _std_definitions(g41).keys())
    else:
        fixed2, choice = set(), all_vars

    taken_base: set[str] = set()
    for p in g41 + g42:
        taken_base |= const_names_of(p.lhs) | const_names_of(p.rhs)

    for mask in range(1 << len(choice)):
        chosen = {choice[i] for i in range(len(choice)) if mask >> i & 1}
        v2 = fixed2 | chosen
        v1 = [v for v in all_vars if v not in v2]
        v2 = [v for v in all_vars if v in v2]
        taken = set(taken_base)
        beta: dict[str, str] = {}
        for v in sorted(set(v1) & vars42 | set(v2) & vars41):
            beta[v] = _fresh_const(v, taken)
        sub1 = Substitution({v: Const(beta[v]) for v in v2 if v in vars41})
        sub2 = Substitution({v: Const(beta[v]) for v in v1 if v in vars42})
        gamma51 = [sub1.apply_problem(p) for p in g41]
        gamma52 = [sub2.apply_problem(p) for p in g42]
        sigma1 = unify_std(gamma51)
        sigma2 = None if sigma1 is None else unify_acun(gamma52, avoid)
        yield SplitAttempt(tuple(v1), tuple(v2), beta, gamma51, gamma52, sigma1, sigma2)


def _unbeta(t: Term, inverse: dict[str, str]) -> Term:
    if isinstance(t, Const) and t.name in inverse:
        return Var(inverse[t.name])
    return map_args(lambda c: _unbeta(c, inverse), t)


def combine_unifiers(
    sigma1: Substitution,
    sigma2: Substitution,
    var_split: tuple[Iterable[str], Iterable[str]],
    beta: dict[str, str],
) -> tuple[tuple[str, ...], Substitution] | None:
    """Step 6: merge the component unifiers along a linear variable order.

    Each variable takes its binding from its own block's unifier, with
    beta's fresh constants mapped back to their variables, and the bindings
    are resolved once.  Returns the order (unbound variables sorted, then
    the bound ones in dependency layers) with the merged unifier, or None
    when the bindings are cyclic: then no order, and no unifier, exists.
    All dependency-compatible orders give the same unifier.
    """
    v1, v2 = var_split
    inverse = {c: v for v, c in beta.items()}
    bound: dict[str, Term] = {}
    for block, sigma in ((v1, sigma1), (v2, sigma2)):
        for x in block:
            if x in sigma.bindings:
                bound[x] = _unbeta(sigma.bindings[x], inverse)
    solved = resolve(bound)
    if solved is None:
        return None
    order, merged = solved
    unbound = sorted(x for x in (*v1, *v2) if x not in bound)
    return (*unbound, *order), merged


def _finalize(
    combined: Substitution, rep: dict[str, str], orig_vars: Iterable[str]
) -> Substitution:
    """Fold identification back in, restrict to the original variables and
    normalize the bindings."""
    out: dict[str, Term] = {}
    for v in orig_vars:
        r = rep.get(v, v)
        t = acun_normal_form(combined.bindings.get(r, Var(r)))
        if t != Var(v):
            out[v] = t
    return Substitution(out)


def _canonical_key(sigma: Substitution, orig_vars: Iterable[str]):
    """Hashable identity of a unifier modulo renaming of fresh variables."""
    orig = set(orig_vars)
    renaming: dict[str, Term] = {}
    for v in sorted(sigma.bindings):
        for name in sorted(vars_of(sigma.bindings[v]) - orig):
            if name not in renaming:
                renaming[name] = Var(f"_p{len(renaming) + 1}")
    rho = Substitution(renaming)
    return frozenset((v, rho.apply(t)) for v, t in sigma.bindings.items())


def unify_combined(
    problems: Iterable[Problem], cfg: BscaConfig = BscaConfig()
) -> CombinedResult:
    """All distinct unifiers of a mixed-theory problem set, with traces.

    Runs steps 1-6 over the whole (capped) choice space, deduplicates the
    verified unifiers modulo renaming of fresh variables, and retains one
    trace per attempted branch when ``cfg.keep_traces`` is set.  An empty
    unifier list means no branch succeeded; hitting a cap raises
    :class:`ChoiceSpaceExceeded` instead of silently truncating.
    """
    probs = list(problems)
    orig_vars = sorted(problem_vars(probs))
    gamma1 = purify_terms(probs)
    gamma2 = purify_problems(gamma1)
    for p in gamma2:  # purification postconditions, checked every run
        for side in (p.lhs, p.rhs):
            if not (is_pure(side, Theory.STD) or is_pure(side, Theory.ACUN)):
                raise AssertionError(f"impure term after purification: {side!r}")
        lc, rc = side_of(p.lhs), side_of(p.rhs)
        if lc is not None and rc is not None and lc != rc:
            raise AssertionError(f"cross-theory problem after purification: {p!r}")
    unifiers: list[Substitution] = []
    traces: list[BscaTrace] = []
    keep = None
    if cfg.prune:
        keep = xor_precheck(gamma2)
        if keep is None or unify_std(split_problems(gamma2)[0]) is None:
            return CombinedResult(unifiers, traces)

    seen: set = set()
    branches = 0
    for partition, gamma3 in variable_identifications(gamma2, cfg, keep):
        rep = {v: b[0] for b in partition for v in b}
        g41, g42 = split_problems(gamma3)
        if cfg.prune and unify_std(g41) is None:
            continue
        # the xor solver's parameters must not capture an input variable,
        # which identification may have merged out of g41 and g42
        for attempt in solve_systems(g41, g42, cfg, avoid=orig_vars):
            branches += 1
            if branches > cfg.max_branches:
                raise ChoiceSpaceExceeded(
                    f"more than {cfg.max_branches} branches attempted"
                )
            order = None
            final = None
            if attempt.sigma1 is not None and attempt.sigma2 is not None:
                solved = combine_unifiers(
                    attempt.sigma1, attempt.sigma2, (attempt.v1, attempt.v2), attempt.beta
                )
                if solved is not None:
                    order, merged = solved
                    candidate = _finalize(merged, rep, orig_vars)
                    if all(
                        equal_mod(
                            candidate.apply(p.lhs), candidate.apply(p.rhs), Theory.COMBINED
                        )
                        for p in probs
                    ):
                        final = candidate
                        key = _canonical_key(final, orig_vars)
                        if key not in seen:
                            seen.add(key)
                            unifiers.append(final)
            if cfg.keep_traces:
                traces.append(
                    BscaTrace(
                        gamma0=tuple(probs),
                        gamma1=tuple(gamma1),
                        gamma2=tuple(gamma2),
                        var_id_partition=partition,
                        gamma3=tuple(gamma3),
                        gamma41=tuple(g41),
                        gamma42=tuple(g42),
                        var_split=(attempt.v1, attempt.v2),
                        beta=attempt.beta,
                        gamma51=tuple(attempt.gamma51),
                        gamma52=tuple(attempt.gamma52),
                        linear_order=order,
                        sigma1=attempt.sigma1,
                        sigma2=attempt.sigma2,
                        combined=final,
                    )
                )
            if final is not None and cfg.first_only:
                return CombinedResult(unifiers, traces)
    return CombinedResult(unifiers, traces)
