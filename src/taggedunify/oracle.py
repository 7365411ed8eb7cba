"""Independent ground-truth machinery: a bounded brute-force unifiability
oracle, deterministic random generators for terms, protocols and problems,
and the harness that empirically checks the central tagging claim: on
tagged term sets, unifiability in the combined standard+xor theory implies
unifiability with xor as a free symbol.

The oracle never consults the solvers: it enumerates ground substitutions
over a candidate space built from the problem's own subterms and checks
equality modulo the theory directly.  The generators only emit problems for
which that space is sufficient (each pair is linear and variable-disjoint;
see docs/format.md for the argument), so oracle/solver agreement is a real
completeness check, not a tautology.

Before it enumerates, the oracle answers False for a problem whose sides
clash at a fixed position: walked in parallel through matching
constructors, stopping at variables and xor nodes, the sides reach two
distinct atoms or two nodes whose constructor or arity differ.  This is
sound in every theory: an assignment replaces variables only, and the xor
normal form keeps every constructor and atom above the first variable or
xor node, so every ground instance of the problem keeps the clash.  The
test runs after the candidate pool and the ceiling, so it never turns a
:class:`BoundExceeded` into False.

In the xor theories the oracle does its xor arithmetic on integers.  A
normal form is fully determined by its set of non-unity summands, so with
one bit per summand two normal forms are equal exactly when their masks
are, and the normal form of an xor is the xor of the masks
(:func:`~taggedunify.terms.summand_mask`).  The pool's combinations are
built from masks this way, and a component whose stop pairs are all linear
(each side an xor or a single summand, every summand ground or a bare
variable) is searched on masks too: each stop pair is one row, a constant
mask plus the variables occurring an odd number of times, and an
assignment is a witness exactly when every row xors to 0.  This is exact:
above the stops both sides have the same free constructor, the normal form
commutes with it, so the sides' normal forms are equal exactly when those
of every stop pair are.  A component with any other stop pair, such as a
variable facing a standard term that holds variables, and every call in a
syntactic theory, are searched on terms.
"""

from __future__ import annotations

import random
from functools import reduce
from itertools import chain, combinations, count, permutations, product
from operator import xor
from typing import Callable, Iterable, Iterator, Sequence

from .bsca import BscaConfig, ChoiceSpaceExceeded, unify_combined
from .dnut import dnut_check, dnut_tag
from .terms import (
    ZERO,
    Const,
    Frozen,
    Penc,
    Pk,
    Problem,
    Record,
    Senc,
    Seq,
    Sh,
    Term,
    Theory,
    Var,
    Xor,
    acun_normal_form,
    children,
    const_names_of,
    decompose,
    equal_mod,
    fresh_name,
    interm_occurrences,
    is_atom,
    map_args,
    problem_vars,
    rebuild,
    sort_key,
    subterms_of_set,
    summand_mask,
    vars_of,
    xor_of,
)
from .textfmt import jsonable
from .unify import Substitution, occurs, unify_free_xor, walk


class BoundExceeded(Exception):
    """The oracle's candidate space outgrew the configured ceiling."""


class GenConfig(Frozen):
    """Bounds and seed for the deterministic generators and the oracle.

    The same seed always produces the same sample stream.
    """

    max_depth: int = 3
    seed: int = 0
    samples: int = 100
    oracle_ceiling: int = 400_000

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        for name in ("max_depth", "samples", "oracle_ceiling"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


MAX_XOR_WIDTH = 3  # widest generated xor; the oracle's combination bound reads it too
_CONST_NAMES = ("a", "b", "c")
_VAR_NAMES = ("A", "B")


def _rng_for(cfg: GenConfig, index: int) -> random.Random:
    return random.Random(cfg.seed * 1_000_003 + index)


def _leaf_maker(rng: random.Random, var_chance: float = 0.35) -> Callable[[], Term]:
    def leaf() -> Term:
        if rng.random() < var_chance:
            return Var(rng.choice(_VAR_NAMES))
        return Const(rng.choice(_CONST_NAMES))

    return leaf


def _gen_std(rng: random.Random, depth: int, leaf: Callable[[], Term]) -> Term:
    if depth <= 0 or rng.random() < 0.3:
        return leaf()
    op = rng.choice((Seq, Penc, Senc, Pk, Sh))
    if op is Seq:
        width = rng.randint(2, 3)
        return Seq(tuple(_gen_std(rng, depth - 1, leaf) for _ in range(width)))
    if op is Pk:
        return Pk(_gen_std(rng, 0, leaf))
    # encryptions nest in the body; keys and shared-key arguments are leaves
    body = _gen_std(rng, depth - 1 if op in (Penc, Senc) else 0, leaf)
    return op(body, _gen_std(rng, 0, leaf))


def gen_message(rng: random.Random, cfg: GenConfig) -> Term:
    """One random protocol message: usually a top-level xor of standard-theory
    summands, at most one of which hides a nested xor (keeps the variable
    count of purified message pairs within the default enumeration caps)."""
    leaf = _leaf_maker(rng)
    if rng.random() < 0.7:
        width = rng.randint(2, MAX_XOR_WIDTH)
        nested_slot = rng.randrange(width) if rng.random() < 0.35 else -1
        items = []
        for k in range(width):
            if k == nested_slot:
                inner = Xor((leaf(), leaf()))
                wrap = rng.choice((Penc, Senc, Seq))
                items.append(Seq((inner, leaf())) if wrap is Seq else wrap(inner, leaf()))
            else:
                items.append(_gen_std(rng, rng.randint(1, 2), leaf))
        return Xor(tuple(items))
    return _gen_std(rng, max(1, cfg.max_depth - 1), leaf)


def _vary(rng: random.Random, t: Term) -> Term:
    # structural variant: same skeleton, some leaves swapped for other
    # atoms or variables (protocols reuse message shapes across steps)
    leaf = _leaf_maker(rng, var_chance=0.5)

    def walk(u: Term) -> Term:
        if is_atom(u):
            return u if rng.random() < 0.5 else leaf()
        return map_args(walk, u)

    return walk(t)


def gen_raw_protocol(cfg: GenConfig, index: int = 0) -> list[Term]:
    """Deterministic-by-seed list of 2-4 untagged messages; sometimes one
    message is a structural variant of an earlier one."""
    rng = _rng_for(cfg, index)
    msgs = [gen_message(rng, cfg) for _ in range(rng.randint(2, 3))]
    if rng.random() < 0.4:
        msgs.append(_vary(rng, rng.choice(msgs)))
    return msgs


def gen_dnut_protocol(cfg: GenConfig, index: int = 0) -> list[Term]:
    """A random protocol piped through the tagger, so the result always
    satisfies the tagging conditions."""
    return dnut_tag(gen_raw_protocol(cfg, index))


def gen_untagged_set(cfg: GenConfig, index: int = 0) -> list[Term]:
    """Small untagged messages, xor-of-leaves heavy: the population used to
    show that equational unifiability genuinely exceeds free unifiability
    when no tags are present."""
    rng = _rng_for(cfg, index * 2 + 1)
    leaf = _leaf_maker(rng, var_chance=0.45)
    out = []
    for _ in range(rng.randint(2, 3)):
        width = rng.randint(2, MAX_XOR_WIDTH)
        items = tuple(
            leaf() if rng.random() < 0.7 else _gen_std(rng, 1, leaf) for _ in range(width)
        )
        out.append(Xor(items))
    return out


def _linear_leaf_maker(
    rng: random.Random, prefix: str, budget: list[int]
) -> Callable[[], Term]:
    # every variable is fresh (linear) and side-prefixed (variable-disjoint)
    counter = [0]

    def leaf() -> Term:
        if budget[0] > 0 and rng.random() < 0.4:
            budget[0] -= 1
            counter[0] += 1
            return Var(f"{prefix}{counter[0]}")
        return Const(rng.choice(_CONST_NAMES))

    return leaf


def gen_problem(cfg: GenConfig, index: int = 0) -> list[Problem]:
    """A random mixed-theory problem set within the oracle's completeness
    bound: terms are linear (no repeated variable) and the two sides of each
    problem share no variables, so any unifiable pair has a ground unifier
    over instantiated subterms and their xor combinations."""
    rng = _rng_for(cfg, index * 2)
    kind = rng.choice(("std", "acun", "mixed", "mixed"))
    # xor-involving problems get a tighter variable budget: the oracle's
    # assignment space is |pool|^vars and the xor pool includes combinations
    budget = [3 if kind == "std" else 2]

    def side(prefix: str) -> Term:
        leaf = _linear_leaf_maker(rng, prefix, budget)
        if kind == "std":
            return _gen_std(rng, rng.randint(1, 2), leaf)
        if kind == "acun":
            width = rng.randint(2, MAX_XOR_WIDTH)
            return xor_of([leaf() for _ in range(width)])
        # mixed: a standard skeleton with one embedded xor of leaves
        t = _gen_std(rng, 1, leaf)
        if rng.random() < 0.6:
            inner = xor_of([leaf() for _ in range(rng.randint(2, 3))])
            t = rng.choice((Penc(t, inner), Seq((t, inner)), Senc(inner, t)))
        return t

    problems = [Problem(side("X"), side("Y"))]
    if rng.random() < 0.2:
        problems.append(Problem(side("U"), side("V")))
    return problems


def _aligned_stops(lhs: Term, rhs: Term) -> Iterator[tuple[Term, Term]]:
    """The pairs where a parallel walk of both sides through matching
    constructors stops: at a variable or an xor node on either side, at two
    atoms, or at two nodes whose constructor or arity differ."""
    stack = [(lhs, rhs)]
    while stack:
        s, t = stack.pop()
        stop = isinstance(s, (Var, Xor)) or isinstance(t, (Var, Xor))
        pairs = None if stop else decompose(s, t)
        if pairs is None:
            yield s, t
        else:
            stack.extend(pairs)


def _xor_facing(lhs: Term, rhs: Term) -> Iterator[Term]:
    """Non-variable subterms that face an xor node on the other side."""
    for s, t in _aligned_stops(lhs, rhs):
        if isinstance(s, Xor) or isinstance(t, Xor):
            yield from (u for u in (s, t) if not isinstance(u, (Xor, Var)))


def _clashes(p: Problem) -> bool:
    """Whether the sides differ at a position no instantiation reaches: the
    walk stops at two distinct atoms, or at two nodes whose constructor or
    arity differ, above every variable and xor node."""
    return any(
        s != t and not isinstance(s, (Var, Xor)) and not isinstance(t, (Var, Xor))
        for s, t in _aligned_stops(p.lhs, p.rhs)
    )


def _candidate_pool(problems: Sequence[Problem], theory: Theory) -> list[Term]:
    taken = set().union(*(const_names_of(s) for p in problems for s in (p.lhs, p.rhs)))
    spare = Const(fresh_name((f"u{n}" for n in count()), taken))
    sides = [s for p in problems for s in (p.lhs, p.rhs)]
    subs = sorted(subterms_of_set(sides), key=sort_key)

    def ground(t: Term) -> Term:
        g = Substitution({v: spare for v in vars_of(t)}).apply(t)
        return g if theory.syntactic else acun_normal_form(g)

    base = chain((spare, ZERO), (ground(s) for s in subs if not isinstance(s, Var)))
    if theory.syntactic:
        return list(dict.fromkeys(base))
    # xor values a variable can need are combinations of terms standing in
    # summand position somewhere; a cancellation chain across one problem
    # touches at most (width - 1) + width summands.  A term standing
    # opposite an xor across matching standard constructors enters the sum
    # too: penc(X1, X2+a) ~? penc(c, b) needs X2 = a+b
    summands = chain(
        (u for side in sides for u in interm_occurrences(side)),
        (u for s in subs if isinstance(s, Xor) for u in s.items),
        (u for p in problems for u in _xor_facing(p.lhs, p.rhs)),
    )
    combo_base = list(dict.fromkeys(chain((spare,), map(ground, summands))))
    # one bit per summand of combo_base, in sort_key order: a combination's
    # normal form has the xor of its members' masks, and its summands are
    # that mask's bits in ascending order.  A base term's other summands
    # take higher bits, which no combination sets
    summand_at = sorted({u for t in combo_base for u in interm_occurrences(t)} - {ZERO},
                        key=sort_key)
    bits = {u: 1 << i for i, u in enumerate(summand_at)}
    masks = [summand_mask(t, bits) for t in combo_base]
    pool = list(dict.fromkeys(base))
    seen = {summand_mask(t, bits) for t in pool}
    for size in range(2, 2 * MAX_XOR_WIDTH):
        for combo in combinations(masks, size):
            mask = reduce(xor, combo)
            if mask not in seen:
                seen.add(mask)
                pool.append(xor_of([u for i, u in enumerate(summand_at) if mask >> i & 1]))
    return pool


def _components(problems: list[Problem]) -> list[tuple[list[str], list[Problem]]]:
    """Group problems that share variables, transitively; each group with
    its sorted variable names, fewest variables first (then input order)."""
    groups: list[tuple[set[str], list[Problem]]] = []
    for p in problems:
        names, members = set(vars_of(p.lhs) | vars_of(p.rhs)), [p]
        for g in [g for g in groups if g[0] & names]:
            groups.remove(g)
            names |= g[0]
            members = g[1] + members
        groups.append((names, members))
    groups.sort(key=lambda g: len(g[0]))
    return [(sorted(names), members) for names, members in groups]


StopSide = tuple[int, frozenset[str]]  # its ground summands' mask, its odd variables


def _linear_side(t: Term, bits: dict[Term, int]) -> StopSide | None:
    """The xor of the summand masks of ``t``'s ground summands, and the
    variables that stand as summands of ``t`` an odd number of times; None
    when a summand holds a variable without being one."""
    mask, odd = 0, frozenset()
    for u in interm_occurrences(t):
        if isinstance(u, Var):
            odd ^= {u.name}
        elif vars_of(u):
            return None
        else:
            mask ^= summand_mask(acun_normal_form(u), bits)
    return mask, odd


def _xor_rows(
    problems: list[Problem], bits: dict[Term, int]
) -> list[tuple[StopSide, StopSide]] | None:
    """Each aligned stop pair of ``problems`` as its two linear sides, or
    None when some stop side is not linear."""
    rows = []
    for p in problems:
        for s, t in _aligned_stops(p.lhs, p.rhs):
            ls, rs = _linear_side(s, bits), _linear_side(t, bits)
            if ls is None or rs is None:
                return None
            rows.append((ls, rs))
    return rows


def _row_values(rows: list[StopSide], masks: list[int]) -> Iterator[tuple[int, ...]]:
    """For each assignment of pool masks to the rows' variables, the tuple
    of the rows' xors."""
    names = sorted(frozenset().union(*(odd for _, odd in rows)))
    at = {v: i for i, v in enumerate(names)}
    compiled = [(mask, [at[v] for v in odd]) for mask, odd in rows]
    for combo in product(masks, repeat=len(names)):
        values = []
        for mask, ix in compiled:
            for i in ix:
                mask ^= combo[i]
            values.append(mask)
        yield tuple(values)


def _term_values(t: Term, pool: list[Term], theory: Theory) -> Iterator[Term]:
    """For each assignment of pool terms to ``t``'s variables, the value of
    ``t``: its normal form in an xor theory."""
    vs = sorted(vars_of(t))
    for combo in product(pool, repeat=len(vs)):
        u = Substitution(dict(zip(vs, combo))).apply(t)
        yield u if theory.syntactic else acun_normal_form(u)


def _has_witness(
    names: list[str],
    problems: list[Problem],
    pool: list[Term],
    theory: Theory,
    masks: list[int],
    bits: dict[Term, int],
) -> bool:
    """Whether some assignment of pool terms to ``names`` solves every
    problem of one variable-connected component.  ``masks`` are the pool
    terms' summand masks under ``bits`` (none in a syntactic theory); when
    every stop pair is linear, the search runs on them."""
    rows = None if theory.syntactic else _xor_rows(problems, bits)
    if len(problems) == 1:
        lhs, rhs = problems[0].lhs, problems[0].rhs
        lv, rv = vars_of(lhs), vars_of(rhs)
        if not lv & rv:
            # the sides are independent: keep the side with fewer variables
            # as a set of values, stream the other side's values against it
            if rows is None:
                sides = [_term_values(t, pool, theory) for t in (lhs, rhs)]
            else:
                sides = [_row_values([row[k] for row in rows], masks) for k in (0, 1)]
            if len(rv) < len(lv):
                sides.reverse()
            small = set(sides[0])
            return any(v in small for v in sides[1])
    if rows is not None:
        merged = [(lm ^ rm, lo ^ ro) for (lm, lo), (rm, ro) in rows]
        return any(not any(values) for values in _row_values(merged, masks))
    for combo in product(pool, repeat=len(names)):
        sigma = Substitution(dict(zip(names, combo)))
        if all(equal_mod(sigma.apply(p.lhs), sigma.apply(p.rhs), theory) for p in problems):
            return True
    return False


def ground_unifiable(
    problems: Iterable[Problem], theory: Theory, cfg: GenConfig = GenConfig()
) -> bool:
    """Brute-force unifiability: try every assignment of candidate ground
    terms to the variables and test equality modulo the theory.

    Problems sharing no variables are decided separately, fewest variables
    first, and the first part without a witness answers False; this searches
    the same assignment space as one product over all variables.  A problem
    whose sides clash at a fixed position (distinct atoms, or a constructor
    or arity mismatch, above every variable and xor node) answers False
    before any enumeration: no instantiation reaches that position, and
    the xor normal form keeps it, so no candidate could be a witness.

    Sound unconditionally (it only answers True with an explicit witness);
    complete only for problems whose unifiers live in the candidate space,
    which holds for everything :func:`gen_problem` emits.  Raises
    :class:`BoundExceeded` when the assignment space outgrows the ceiling.
    """
    probs = list(problems)
    names = sorted(problem_vars(probs))
    if not names:
        return all(equal_mod(p.lhs, p.rhs, theory) for p in probs)
    pool = _candidate_pool(probs, theory)
    total = len(pool) ** len(names)
    if total > cfg.oracle_ceiling:
        raise BoundExceeded(
            f"{len(pool)} candidates over {len(names)} variables "
            f"exceed the ceiling of {cfg.oracle_ceiling}"
        )
    if any(_clashes(p) for p in probs):
        return False
    bits: dict[Term, int] = {}
    masks = [] if theory.syntactic else [summand_mask(t, bits) for t in pool]
    return all(
        _has_witness(vs, ps, pool, theory, masks, bits) for vs, ps in _components(probs)
    )


def free_unifiable(problems: Iterable[Problem], order_sensitive: bool = True) -> bool:
    """Unifiability with xor as a free symbol.

    The default reading is order-sensitive (xor nodes match summand by
    summand in the written order); the order-insensitive variant searches
    over summand permutations and exists so the harness can report both."""
    probs = list(problems)
    if order_sensitive:
        return unify_free_xor(probs) is not None
    return _free_unordered([(p.lhs, p.rhs) for p in probs], {})


def _free_unordered(work: list[tuple[Term, Term]], bindings: dict[str, Term]) -> bool:
    """The solver's loop on triangular ``bindings`` (extended in place), each
    xor pair branching over summand orders with a copy of the bindings."""
    work = list(work)
    while work:
        s, t = work.pop()
        s, t = walk(s, bindings), walk(t, bindings)
        if s == t:
            continue
        if isinstance(t, Var) and not isinstance(s, Var):
            s, t = t, s
        if isinstance(s, Var):
            if occurs(s.name, t, bindings):
                return False
            bindings[s.name] = t
            continue
        pairs = decompose(s, t)
        if pairs is None:
            return False
        if isinstance(s, Xor):
            return any(
                _free_unordered(work + list(zip(s.items, perm)), dict(bindings))
                for perm in permutations(t.items)
            )
        work.extend(pairs)
    return True


HARNESS_CAPS = BscaConfig(
    max_partition_vars=16,
    max_branches=20_000,
    first_only=True,
    keep_traces=False,
)


def combined_unifiable(m: Term, t: Term, caps: BscaConfig = HARNESS_CAPS) -> bool:
    return bool(unify_combined([Problem(m, t)], caps).unifiers)


class PairReport(Record):
    lhs: Term
    rhs: Term
    combined: bool | None  # None: enumeration caps were hit
    free: bool
    free_unordered: bool
    non_sequence: bool

    def to_jsonable(self) -> dict:
        return {**jsonable(self), "non_variable": True}  # variables never enter a pair


class TheoremReport(Record):
    """Outcome of checking one term set: for every non-variable pair, does
    combined unifiability imply free unifiability?"""

    dnut_satisfied: bool
    pairs: list[PairReport]
    counterexamples: list[PairReport]
    premise_fail_equational: list[PairReport]
    incomplete: list[PairReport]


def check_theorem(terms: Iterable[Term], caps: BscaConfig = HARNESS_CAPS) -> TheoremReport:
    """Check every pair of distinct non-variable terms in the set.

    A counterexample is a pair that unifies in the combined theory but not
    with xor free, in a set whose tagging check passed.  On sets failing the
    tagging check the same pairs are reported separately: they demonstrate
    the premise does real work.  Caps never pass silently: a capped pair is
    flagged incomplete.
    """
    tlist = sorted(set(terms), key=sort_key)  # sort_key is a total order
    report = TheoremReport(dnut_check(tlist).satisfied, [], [], [], [])
    for m, t in combinations(tlist, 2):
        if isinstance(m, Var) or isinstance(t, Var):
            continue
        try:
            comb: bool | None = combined_unifiable(m, t, caps)
        except ChoiceSpaceExceeded:
            comb = None
        free = free_unifiable([Problem(m, t)])
        free_uo = free_unifiable([Problem(m, t)], order_sensitive=False)
        pair = PairReport(
            m,
            t,
            comb,
            free,
            free_uo,
            non_sequence=not (isinstance(m, Seq) or isinstance(t, Seq)),
        )
        report.pairs.append(pair)
        if comb is None:
            report.incomplete.append(pair)
        elif comb and not free:
            if report.dnut_satisfied:
                report.counterexamples.append(pair)
            else:
                report.premise_fail_equational.append(pair)
    return report


def shrink_pair(
    m: Term, t: Term, still_failing: Callable[[Term, Term], bool]
) -> tuple[Term, Term]:
    """Greedy shrink of a failing pair: drop xor summands and replace proper
    subterms by an atom, keeping every step that preserves the failure."""
    filler = Const("a")

    def candidates(u: Term) -> list[Term]:
        out = []
        if isinstance(u, Xor) and len(u.items) > 2:
            for k in range(len(u.items)):
                out.append(Xor(u.items[:k] + u.items[k + 1 :]))
        if not is_atom(u):
            out.append(filler)
        ch = children(u)
        for k, c in enumerate(ch):
            for rc in candidates(c):
                out.append(rebuild(u, ch[:k] + (rc,) + ch[k + 1 :]))
        return out

    changed = True
    while changed:
        changed = False
        for cand in candidates(m):
            if still_failing(cand, t):
                m = cand
                changed = True
                break
        for cand in candidates(t):
            if still_failing(m, cand):
                t = cand
                changed = True
                break
    return m, t


class HarnessReport(Record):
    """Aggregate over many generated tagged protocols."""

    samples: int
    seed: int
    pairs_total: int = 0
    combined_unifiable_pairs: int = 0
    free_unifiable_pairs: int = 0
    counterexamples: list[dict] = []
    counterexamples_nonseq: int = 0
    counterexamples_unordered_variant: int = 0
    incomplete: list[dict] = []

    def to_jsonable(self) -> dict:
        return {
            "samples": self.samples,
            "seed": self.seed,
            "pairs_total": self.pairs_total,
            "combined_unifiable_pairs": self.combined_unifiable_pairs,
            "free_unifiable_pairs": self.free_unifiable_pairs,
            "populations": {
                "non_variables": {
                    "counterexamples": self.counterexamples,
                    "count": len(self.counterexamples),
                },
                "non_variables_non_sequences": {"count": self.counterexamples_nonseq},
            },
            "order_insensitive_variant": {
                "counterexamples": self.counterexamples_unordered_variant
            },
            "incomplete": self.incomplete,
        }


def run_harness(
    cfg: GenConfig, caps: BscaConfig = HARNESS_CAPS, population: str = "both"
) -> HarnessReport:
    """Generate ``cfg.samples`` tagged protocols and check them all.

    ``population`` selects which pairs count toward the exit-relevant
    counterexample list: ``no-sequences`` leaves out pairs with a sequence
    side; ``both`` and ``non-variables`` count every pair, since no pair has
    a variable side.
    """
    report = HarnessReport(samples=cfg.samples, seed=cfg.seed)
    for i in range(cfg.samples):
        protocol = gen_dnut_protocol(cfg, i)
        tr = check_theorem(protocol, caps)
        report.pairs_total += len(tr.pairs)
        report.combined_unifiable_pairs += sum(1 for p in tr.pairs if p.combined)
        report.free_unifiable_pairs += sum(1 for p in tr.pairs if p.free)
        for p in tr.counterexamples:
            if population == "no-sequences" and not p.non_sequence:
                continue
            sm, st = shrink_pair(
                p.lhs,
                p.rhs,
                lambda a, b: combined_unifiable(a, b, caps)
                and not free_unifiable([Problem(a, b)]),
            )
            shrunk = PairReport(sm, st, True, False, p.free_unordered, p.non_sequence)
            report.counterexamples.append(
                {"protocol": i, "original": p.to_jsonable(), "shrunk": shrunk.to_jsonable()}
            )
            if p.non_sequence:
                report.counterexamples_nonseq += 1
        for p in tr.pairs:
            if p.combined and not p.free_unordered:
                report.counterexamples_unordered_variant += 1
        for p in tr.incomplete:
            report.incomplete.append({"protocol": i, "pair": p.to_jsonable()})
    return report
