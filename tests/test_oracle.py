import hashlib
import json
import random
from itertools import chain, combinations, count, product

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from taggedunify.bsca import BscaConfig
from taggedunify.oracle import (
    MAX_XOR_WIDTH,
    BoundExceeded,
    GenConfig,
    _candidate_pool,
    _clashes,
    _xor_facing,
    _xor_rows,
    check_theorem,
    combined_unifiable,
    free_unifiable,
    gen_dnut_protocol,
    gen_problem,
    gen_raw_protocol,
    gen_untagged_set,
    ground_unifiable,
    run_harness,
    shrink_pair,
)
from taggedunify.acun import unify_acun
from taggedunify.dnut import dnut_check
from taggedunify.terms import (
    ZERO,
    Const,
    Problem,
    Theory,
    Var,
    Xor,
    acun_normal_form,
    const_names_of,
    equal_mod,
    fresh_name,
    interm_occurrences,
    is_pure,
    problem_vars,
    sort_key,
    subterms_of_set,
    summand_mask,
    vars_of,
    xor_of,
)
from taggedunify.textfmt import parse_term, render_term
from taggedunify.unify import Substitution, unify_free_xor

from strategies import terms


def prob(lhs: str, rhs: str) -> Problem:
    return Problem(parse_term(lhs), parse_term(rhs))


class TestGroundUnifiable:
    def test_xor_witness(self):
        assert ground_unifiable([prob("xor(X, a)", "b")], Theory.ACUN)

    def test_distinct_constants(self):
        assert not ground_unifiable([prob("a", "b")], Theory.STD)

    def test_reflexive(self):
        p = prob("penc(xor(a, b), k)", "penc(xor(a, b), k)")
        for th in Theory:
            assert ground_unifiable([p], th)

    def test_bound_exceeded_reported(self):
        wide = "xor(" + ", ".join(f"penc(x{i}, k{i})" for i in range(14)) + ", X)"
        with pytest.raises(BoundExceeded):
            ground_unifiable(
                [prob(wide, "Y"), prob("Z", wide), prob("U", wide)],
                Theory.COMBINED,
                GenConfig(oracle_ceiling=1000),
            )


def product_reference(problems, theory):
    """The plain search over one product of all variables, kept as the
    reference for the per-component search."""
    names = sorted(problem_vars(problems))
    if not names:
        return all(equal_mod(p.lhs, p.rhs, theory) for p in problems)
    for values in product(_candidate_pool(problems, theory)[0], repeat=len(names)):
        sigma = Substitution(dict(zip(names, values)))
        if all(equal_mod(sigma.apply(p.lhs), sigma.apply(p.rhs), theory) for p in problems):
            return True
    return False


def pool_reference(problems, theory):
    """The candidate pool built term by term, every combination through
    the normal form, kept as the reference for the summand-mask pool."""
    taken = set().union(*(const_names_of(s) for p in problems for s in (p.lhs, p.rhs)))
    spare = Const(fresh_name((f"u{n}" for n in count()), taken))
    sides = [s for p in problems for s in (p.lhs, p.rhs)]
    subs = sorted(subterms_of_set(sides), key=sort_key)

    def ground(t):
        g = Substitution({v: spare for v in vars_of(t)}).apply(t)
        return g if theory.syntactic else acun_normal_form(g)

    base = chain((spare, ZERO), (ground(s) for s in subs if not isinstance(s, Var)))
    if theory.syntactic:
        return list(dict.fromkeys(base))
    summands = chain(
        (u for side in sides for u in interm_occurrences(side)),
        (u for s in subs if isinstance(s, Xor) for u in s.items),
        (u for p in problems for u in _xor_facing(p.lhs, p.rhs)),
    )
    combo_base = list(dict.fromkeys(chain((spare,), map(ground, summands))))
    combos = (
        acun_normal_form(xor_of(combo))
        for size in range(2, 2 * MAX_XOR_WIDTH)
        for combo in combinations(combo_base, size)
    )
    return list(dict.fromkeys(chain(base, combos)))


def pure_xor_sets(seed, n):
    """``n`` random problem sets of one or two pure xor problems over two
    constants and three variables."""
    rng = random.Random(seed)
    pool = [Const("a"), Const("b"), Var("X"), Var("Y"), Var("Z")]

    def side():
        return xor_of([rng.choice(pool) for _ in range(rng.randint(1, 4))])

    return [[Problem(side(), side()) for _ in range(rng.randint(1, 2))] for _ in range(n)]


def legal_theories(problems):
    """The theories whose solvers accept the problems: STD and ACUN need
    pure sides, FREE_XOR and COMBINED take any term."""
    sides = [s for p in problems for s in (p.lhs, p.rhs)]
    return [
        th for th in Theory
        if th in (Theory.FREE_XOR, Theory.COMBINED) or all(is_pure(s, th) for s in sides)
    ]


class TestFixedPositionClash:
    @pytest.mark.parametrize("lhs, rhs", [
        ("penc(a, X)", "[a, b]"),
        ("[X, a]", "[b, c]"),
        ("[0, X]", "[a, b]"),
        ("[X, a]", "[b, c, d]"),
    ])
    def test_clash_answers_false(self, lhs, rhs):
        problems = [prob(lhs, rhs)]
        assert _clashes(problems[0])
        for th in legal_theories(problems):
            assert not ground_unifiable(problems, th), th
            assert not product_reference(problems, th), th

    @pytest.mark.parametrize("lhs, rhs, witness", [
        ("penc(X1, xor(X2, a))", "penc(c, b)", {"X1": "c", "X2": "xor(a, b)"}),
        ("xor(X, a)", "b", {"X": "xor(a, b)"}),
    ])
    def test_non_clash_finds_witness(self, lhs, rhs, witness):
        problems = [prob(lhs, rhs)]
        assert not _clashes(problems[0])
        sigma = Substitution({v: parse_term(t) for v, t in witness.items()})
        equational = 0
        for th in legal_theories(problems):
            found = ground_unifiable(problems, th)
            assert found == product_reference(problems, th), th
            if th in (Theory.ACUN, Theory.COMBINED):
                assert found, th
                assert equal_mod(sigma.apply(problems[0].lhs), sigma.apply(problems[0].rhs), th)
                equational += 1
        assert equational

    def test_clash_still_raises_bound_exceeded(self):
        # the ceiling test comes first: a clashing problem whose pool
        # outgrows the ceiling raises exactly as it did without the rule
        problems = [prob("penc(X, Y)", "senc(Z, a)")]
        assert _clashes(problems[0])
        for th in legal_theories(problems):
            with pytest.raises(BoundExceeded):
                ground_unifiable(problems, th, GenConfig(oracle_ceiling=1))


class TestGenConfig:
    @pytest.mark.parametrize("field", ["max_depth", "samples", "oracle_ceiling"])
    def test_bounds_must_be_positive(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be >= 1$"):
            GenConfig(**{field: 0})
        assert getattr(GenConfig(**{field: 1}), field) == 1

    def test_seed_must_not_be_negative(self):
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            GenConfig(seed=-1)
        assert GenConfig(3, 0) == GenConfig(seed=0) != GenConfig(seed=1)
        with pytest.raises(TypeError, match=r"^GenConfig\.__init__\(\) got an unexpected"):
            GenConfig(depth=3)


class TestGroundUnifiableReference:
    def test_generated_problems_match_product_search(self):
        cfg = GenConfig(seed=17)
        checked = 0
        for i in range(200):
            problems = gen_problem(cfg, i)
            for theory in legal_theories(problems):
                assert ground_unifiable(problems, theory, cfg) == \
                    product_reference(problems, theory), (i, theory)
                checked += 1
        assert checked > 400

    def test_pure_xor_problems_match_product_search(self):
        cfg = GenConfig()
        for problems in pure_xor_sets(17, 100):
            assert ground_unifiable(problems, Theory.ACUN, cfg) == \
                product_reference(problems, Theory.ACUN), problems

    def test_pool_masks_are_the_summand_masks(self):
        # the search reuses the pool's masks and numbering: each is the
        # term's summand mask under that numbering, and they are distinct
        cfg = GenConfig(seed=61)
        sets = [gen_problem(cfg, i) for i in range(200)] + pure_xor_sets(5, 100)
        for problems in sets:
            for th in (Theory.COMBINED, Theory.ACUN):
                pool, masks, bits = _candidate_pool(problems, th)
                numbering = dict(bits)
                assert masks == [summand_mask(t, numbering) for t in pool], problems
                assert numbering == bits and len(set(masks)) == len(pool), problems
            assert _candidate_pool(problems, Theory.FREE_XOR)[1:] == ([], {})

    @pytest.mark.parametrize("pairs, unifiable, on_masks", [
        # one component of two problems that share X: X = a + b, so Y = b
        ([("xor(X, a)", "b"), ("xor(X, Y)", "a")], True, True),
        ([("xor(X, a)", "b"), ("xor(X, b)", "b")], False, True),
        # a standard skeleton over two xor stops: one row each
        ([("[xor(X, a), xor(Y, b)]", "[b, a]")], True, True),
        # independent sides: one side's row values are kept as a set
        ([("xor(X, a)", "xor(Y, b)")], True, True),
        # a repeated variable cancels and enters no row
        ([("xor(X, X, a)", "a")], True, True),
        ([("xor(X, X, a)", "b")], False, True),
        # a variable on both sides cancels in the merged row
        ([("xor(X, a)", "xor(X, b)")], False, True),
        # a variable facing a standard term that holds a variable
        ([("X", "penc(Y, a)")], True, False),
    ])
    def test_mask_path_branches_match_product_search(self, pairs, unifiable, on_masks):
        problems = [prob(lhs, rhs) for lhs, rhs in pairs]
        assert (_xor_rows(problems, {}) is not None) == on_masks
        assert ground_unifiable(problems, Theory.COMBINED) == unifiable
        for th in legal_theories(problems):
            assert ground_unifiable(problems, th) == product_reference(problems, th), th

    @given(st.lists(st.builds(Problem, terms(max_leaves=5), terms(max_leaves=5)),
                    min_size=1, max_size=2))
    @settings(max_examples=150, deadline=None)
    def test_random_terms_match_product_search(self, problems):
        cfg = GenConfig(oracle_ceiling=3000)  # keeps the reference's product small
        for th in legal_theories(problems):
            try:
                found = ground_unifiable(problems, th, cfg)
            except BoundExceeded:
                continue
            assert found == product_reference(problems, th), th


class TestCandidatePoolReference:
    """The summand-mask pool lists the same terms, in the same order, as
    the pool built term by term: the ceiling reads its length."""

    @pytest.mark.parametrize("seed", [17, 61])
    def test_generated_problems(self, seed):
        cfg = GenConfig(seed=seed)
        for i in range(400):
            problems = gen_problem(cfg, i)
            for th in (Theory.COMBINED, Theory.ACUN):
                assert _candidate_pool(problems, th)[0] == pool_reference(problems, th), (i, th)

    def test_pure_xor_problems(self):
        for problems in pure_xor_sets(5, 200):
            assert _candidate_pool(problems, Theory.ACUN)[0] == \
                pool_reference(problems, Theory.ACUN), problems


class TestFreeUnifiable:
    def test_positional(self):
        assert free_unifiable([prob("xor(a, X)", "xor(a, b)")])

    def test_order_sensitive_default(self):
        assert not free_unifiable([prob("xor(a, b)", "xor(b, a)")])
        assert free_unifiable([prob("xor(a, b)", "xor(b, a)")], order_sensitive=False)

    def test_width_clash_in_both_variants(self):
        p = prob("xor(a, b)", "xor(a, b, c)")
        assert not free_unifiable([p])
        assert not free_unifiable([p], order_sensitive=False)

    def test_unordered_searches_permutations(self):
        p = prob("xor([1, X], [2, b])", "xor([2, b], [1, a])")
        assert not free_unifiable([p])
        assert free_unifiable([p], order_sensitive=False)


class TestGenerators:
    def test_deterministic_by_seed(self):
        cfg = GenConfig(seed=42)
        assert gen_raw_protocol(cfg, 5) == gen_raw_protocol(cfg, 5)
        assert gen_problem(cfg, 5) == gen_problem(cfg, 5)
        assert gen_dnut_protocol(cfg, 5) == gen_dnut_protocol(cfg, 5)

    def test_different_seeds_differ_somewhere(self):
        a = [gen_raw_protocol(GenConfig(seed=1), i) for i in range(10)]
        b = [gen_raw_protocol(GenConfig(seed=2), i) for i in range(10)]
        assert a != b

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_tagged_protocols_satisfy_by_construction(self, index):
        assert dnut_check(gen_dnut_protocol(GenConfig(seed=3), index)).satisfied

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_generated_problems_stay_within_oracle_bound(self, index):
        cfg = GenConfig(seed=14)
        ground_unifiable(gen_problem(cfg, index), Theory.COMBINED, cfg)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_generated_problems_are_linear_and_disjoint(self, index):
        problems = gen_problem(GenConfig(seed=15), index)
        seen: set[str] = set()
        for p in problems:
            for side in (p.lhs, p.rhs):
                from taggedunify.terms import iter_subterms

                names = [u.name for u in iter_subterms(side) if isinstance(u, Var)]
                assert len(names) == len(set(names))  # linear
                assert not (set(names) & seen)  # disjoint across sides
                seen |= set(names)


def rendered_digest(sets) -> str:
    """sha256 over the rendering of generated sets, one set per line."""
    lines = []
    for items in sets:
        lines.append(" ; ".join(
            f"{render_term(u.lhs)} ~? {render_term(u.rhs)}" if isinstance(u, Problem)
            else render_term(u)
            for u in items
        ))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestGeneratorOutputPinned:
    """The generators' output at the seeds the acceptance tests and the
    benchmark corpora use, pinned by hash: a change to a generator, its
    pools or its rng stream shows here first."""

    def test_gen_problem(self):
        sets = [gen_problem(GenConfig(seed=s), i) for s in (1, 61) for i in range(200)]
        assert rendered_digest(sets) == \
            "07d93fc067d70d381e32ae198a2f534335f2040d0c47482dce6ef3b7814d93f1"

    def test_gen_dnut_protocol(self):
        sets = [gen_dnut_protocol(GenConfig(seed=20260809), i) for i in range(100)]
        assert rendered_digest(sets) == \
            "cf10fd63c157b7698f5fb3d21e007588f861b9084a7e4da927120d369be04b4c"

    def test_gen_untagged_set(self):
        sets = [gen_untagged_set(GenConfig(seed=31), i) for i in range(100)]
        assert rendered_digest(sets) == \
            "c7d6c0ae6e1cffdde3ad03b3008acf356349425c75203a8f3c104705808300aa"


class TestCheckTheorem:
    def test_tagged_protocol_zero_counterexamples(self):
        from taggedunify.dnut import dnut_tag

        msgs = [
            parse_term(s)
            for s in (
                "[A, B]",
                "[N_B, B] + penc([N_B, A], pk(A))",
                "A + N_B + penc(A + N_B, pk(B)) + senc(N_A, N_B)",
            )
        ]
        report = check_theorem(dnut_tag(msgs))
        assert report.dnut_satisfied
        assert report.counterexamples == []
        assert report.incomplete == []

    def test_untagged_pair_shows_premise_matters(self):
        report = check_theorem([parse_term("xor(a, X)"), parse_term("xor(b, Y)")])
        assert not report.dnut_satisfied
        assert len(report.premise_fail_equational) == 1
        pair = report.premise_fail_equational[0]
        assert pair.combined and not pair.free

    def test_single_term_vacuous(self):
        report = check_theorem([parse_term("penc(a, k)")])
        assert report.pairs == [] and report.counterexamples == []

    def test_variables_excluded_from_population(self):
        report = check_theorem([Var("X"), parse_term("penc(a, k)"), parse_term("[1, b]")])
        assert not any(isinstance(u, Var) for p in report.pairs for u in (p.lhs, p.rhs))
        assert len(report.pairs) == 1
        assert report.pairs[0].to_jsonable()["non_variable"] is True

    def test_caps_flag_incomplete_never_silent(self):
        # the summands' definitions unify pairwise, so the root grounds no
        # variable and the 14 abstraction variables reach the partition cap
        big = " + ".join(f"penc(V{i}, k)" for i in range(1, 8))
        other = " + ".join(f"penc(U{i}, k)" for i in range(1, 8))
        tight = BscaConfig(max_partition_vars=3, first_only=True, keep_traces=False)
        report = check_theorem(
            [parse_term(big), parse_term(other)], caps=tight
        )
        assert len(report.incomplete) == 1
        assert report.incomplete[0].combined is None

    def test_tagged_summands_are_decided_under_the_caps(self):
        # distinct tags head the 7+7 summands, so each abstraction variable
        # is grounded at the root and the xor part clashes there, before the
        # partition cap applies; this pair was incomplete before that check
        big = " + ".join(f"[{i}, penc(V{i}, k)]" for i in range(1, 8))
        other = " + ".join(f"[{i}, senc(U{i}, k)]" for i in range(1, 8))
        tight = BscaConfig(max_partition_vars=3, first_only=True, keep_traces=False)
        report = check_theorem(
            [parse_term(big), parse_term(other)], caps=tight
        )
        assert report.incomplete == [] and len(report.pairs) == 1
        assert report.pairs[0].combined is False


class TestCancellationPartnerProbe:
    @given(st.integers(0, 10_000))
    @settings(max_examples=120, deadline=None)
    def test_every_summand_has_a_partner_under_unifier(self, seed):
        # mirrors the key step of the argument: in a unifiable pure xor
        # problem every non-unity summand must be pairwise unifiable with
        # some other summand occurrence of either side
        import random

        rng = random.Random(seed)
        pool = [Const("a"), Const("b"), Const("c"), Var("X"), Var("Y")]

        from taggedunify.terms import xor_of

        def side():
            return xor_of([rng.choice(pool) for _ in range(rng.randint(1, 4))])

        problems = [Problem(side(), side())]
        if unify_acun(problems) is None:
            return
        m, t = problems[0].lhs, problems[0].rhs
        occurrences = [(0, u) for u in interm_occurrences(m)]
        occurrences += [(1, u) for u in interm_occurrences(t)]
        from taggedunify.terms import ZERO

        for i, (side_i, u) in enumerate(occurrences):
            if u == ZERO:
                continue
            partners = [
                v
                for j, (side_j, v) in enumerate(occurrences)
                if j != i and unify_free_xor([Problem(u, v)]) is not None
            ]
            assert partners, (m, t, u)


class TestShrinker:
    def test_shrinks_while_preserving_failure(self):
        m, t = parse_term("xor(a, X, penc(c, k))"), parse_term("xor(b, Y, penc(c, k))")

        def failing(a, b):
            return combined_unifiable(a, b) and not free_unifiable([Problem(a, b)])

        assert failing(m, t)
        sm, st_ = shrink_pair(m, t, failing)
        assert failing(sm, st_)
        assert len(interm_occurrences(sm)) <= len(interm_occurrences(m))


class TestHarness:
    def test_small_run_clean_and_deterministic(self):
        cfg = GenConfig(seed=7, samples=50)
        a = run_harness(cfg)
        b = run_harness(cfg)
        assert json.dumps(a.to_jsonable(), sort_keys=True) == json.dumps(
            b.to_jsonable(), sort_keys=True
        )
        assert a.counterexamples == []
        assert a.incomplete == []
        assert a.pairs_total > 0
