"""The disjoint-theory combination pipeline, against the worked key-exchange
example and against the ground oracle."""

from itertools import combinations

import hypothesis.strategies as st
import pytest
from hypothesis import given, reject, settings

from taggedunify.acun import unify_acun
from taggedunify.bsca import (
    BscaConfig,
    ChoiceSpaceExceeded,
    _fresh_const,
    _std_definitions,
    combine_unifiers,
    purify_problems,
    purify_terms,
    solve_systems,
    split_problems,
    unify_combined,
    variable_identifications,
    xor_precheck,
)
from taggedunify.oracle import GenConfig, gen_problem, gen_untagged_set, ground_unifiable
from taggedunify.terms import (
    ZERO,
    Const,
    Penc,
    Pk,
    Problem,
    Seq,
    Theory,
    Var,
    Xor,
    const_names_of,
    equal_mod,
    is_pure,
    problem_vars,
)
from taggedunify.textfmt import jsonable, parse_substitution, parse_term, render_term
from taggedunify.unify import Substitution


def prob(lhs: str, rhs: str) -> Problem:
    return Problem(parse_term(lhs), parse_term(rhs))


def worked_example() -> list[Problem]:
    return [prob("penc([1, n_a], pk(B))", "penc([1, N_B], pk(a)) + [2, A] + [2, b]")]


EXHIBITED_PARTITION = (("A",), ("B",), ("N_B",), ("W",), ("X",), ("Y", "Z"))
SUCCEEDING_PARTITION = (("A",), ("B",), ("N_B",), ("W", "X"), ("Y", "Z"))


class TestPurifyTerms:
    def test_worked_example_exact_output(self):
        gamma1 = purify_terms(worked_example())
        expected = [
            prob("W", "penc([1, n_a], pk(B))"),
            prob("X", "penc([1, N_B], pk(a))"),
            prob("Y", "[2, A]"),
            prob("Z", "[2, b]"),
            prob("W", "xor(X, Y, Z)"),
        ]
        assert gamma1 == expected
        assert problem_vars(gamma1) - problem_vars(worked_example()) == {"W", "X", "Y", "Z"}

    def test_already_pure_unchanged(self):
        g = [prob("a", "b")]
        assert purify_terms(g) == g

    def test_one_alien_summand(self):
        gamma1 = purify_terms([prob("xor([1, a], X)", "X")])
        (v,) = problem_vars(gamma1) - {"X"}
        assert gamma1 == [
            Problem(Var(v), parse_term("[1, a]")),
            Problem(Xor((Var(v), Var("X"))), Var("X")),
        ]
        # semantics preserved: unifiability agrees with the original
        cfg = GenConfig()
        assert ground_unifiable([prob("xor([1, a], X)", "X")], Theory.COMBINED, cfg) == \
            ground_unifiable(gamma1, Theory.COMBINED, cfg)

    def test_every_output_term_is_pure(self):
        gamma1 = purify_terms(
            [prob("penc(xor(a, [1, b]), k)", "senc(xor(X, penc(Y, xor(a, c))), k)")]
        )
        for p in gamma1:
            for side in (p.lhs, p.rhs):
                assert is_pure(side, Theory.STD) or is_pure(side, Theory.ACUN)


class TestPurifyProblems:
    def test_worked_example_skips(self):
        gamma1 = purify_terms(worked_example())
        assert purify_problems(gamma1) == gamma1

    def test_cross_theory_split(self):
        got = purify_problems([prob("[1, a]", "xor(b, c)")])
        assert len(got) == 2
        v = got[0].lhs
        assert isinstance(v, Var)
        assert got == [Problem(v, parse_term("[1, a]")), Problem(v, parse_term("xor(b, c)"))]

    def test_empty(self):
        assert purify_problems([]) == []


class TestVariableIdentifications:
    def test_single_variable_single_partition(self):
        parts = list(variable_identifications([prob("X", "a")]))
        assert len(parts) == 1
        assert parts[0][0] == (("X",),)

    def test_full_enumeration_is_bell_number(self):
        problems = [prob("X", "Y"), prob("Y", "Z")]
        parts = list(variable_identifications(problems, BscaConfig(prune=False)))
        assert len(parts) == 5  # Bell(3)

    def test_exhibited_partition_enumerated(self):
        gamma1 = purify_terms(worked_example())
        partitions = [p for p, _ in variable_identifications(gamma1)]
        assert EXHIBITED_PARTITION in partitions
        assert SUCCEEDING_PARTITION in partitions

    def test_representative_is_least_name(self):
        gamma1 = purify_terms(worked_example())
        for partition, gamma3 in variable_identifications(gamma1):
            if partition == EXHIBITED_PARTITION:
                assert prob("W", "xor(X, Y, Y)") in gamma3
                break
        else:
            pytest.fail("exhibited partition not found")

    def test_cap_raises(self):
        problems = [Problem(Var(f"V{i}"), Var(f"V{i+1}")) for i in range(10)]
        with pytest.raises(ChoiceSpaceExceeded):
            list(variable_identifications(problems, BscaConfig(max_partition_vars=9)))


class TestRestrictedIdentification:
    """A first-unifier search identifies only variables of the split's xor side."""

    PROBLEMS = [prob("X", "Y"), prob("Z", "xor(U, V)")]

    def test_variables_outside_xor_problems_stay_singletons(self):
        cfg = BscaConfig(first_only=True, prune=False)
        partitions = [part for part, _ in variable_identifications(self.PROBLEMS, cfg)]
        assert len(partitions) == 5  # Bell(3) over U, V, Z
        for part in partitions:
            assert ("X",) in part and ("Y",) in part
        full = variable_identifications(self.PROBLEMS, BscaConfig(prune=False))
        assert any(("X", "Y") in part for part, _ in full)

    def test_same_verdict_as_full_identification(self):
        first = BscaConfig(first_only=True, keep_traces=False)
        full = BscaConfig(keep_traces=False)
        cases = [gen_problem(GenConfig(seed=61), i) for i in range(200)]
        for i in range(100):
            terms = gen_untagged_set(GenConfig(seed=31), i)
            cases += [[Problem(m, t)] for m, t in combinations(terms, 2)]
        assert len(cases) == 408
        for problems in cases:
            verdict = bool(unify_combined(problems, full).unifiers)
            assert bool(unify_combined(problems, first).unifiers) == verdict, problems

    @pytest.mark.parametrize(
        "problems",
        [
            [prob("[c, X]", "[c, 0]"), prob("xor(a, X)", "a")],
            [prob("[0, a]", "[xor(0, 0), xor(X, Y)]")],
        ],
    )
    @pytest.mark.parametrize("prune", [True, False])
    def test_unity_under_a_standard_constructor(self, problems, prune):
        # purification turns such a 0 into W ~? 0, a problem without an Xor
        # node that the split routes to the xor side, so W must be in scope
        gamma2 = purify_problems(purify_terms(problems))
        (w,) = {p.lhs.name for p in gamma2 if p.rhs == parse_term("0")}
        first = BscaConfig(first_only=True, prune=prune)
        assert any(
            w in block and len(block) > 1
            for part, _ in variable_identifications(gamma2, first)
            for block in part
        )
        (sigma,) = unify_combined(problems, first).unifiers
        assert sigma in unify_combined(problems, BscaConfig(prune=prune)).unifiers


# xors and the unity element under standard constructors, on both sides of
# a problem: the shape gen_problem and the protocol generators never produce
_leaves = st.sampled_from([Var("X"), Var("Y"), Const("a"), Const("c"), ZERO])
_args = st.one_of(_leaves, st.tuples(_leaves, _leaves).map(Xor))
_four_args = st.tuples(_args, _args, _args, _args)
_std_pairs = st.one_of(
    _four_args.map(lambda a: (Seq(a[:2]), Seq(a[2:]))),
    _four_args.map(lambda a: (Penc(*a[:2]), Penc(*a[2:]))),
)
_sides = st.one_of(_args, _std_pairs.map(lambda pair: pair[0]))
_unity_problem_sets = st.tuples(
    _std_pairs.map(lambda pair: Problem(*pair)),
    st.lists(st.builds(Problem, _sides, _sides), max_size=1),
).map(lambda sets: [sets[0], *sets[1]])


@settings(max_examples=150, deadline=None)
@given(_unity_problem_sets)
def test_first_unifier_verdict_equals_all_unifier_verdict(problems):
    try:
        verdict = bool(unify_combined(problems, BscaConfig(keep_traces=False)).unifiers)
    except ChoiceSpaceExceeded:
        reject()  # past the default partition cap of the all-unifier search
    first = unify_combined(problems, BscaConfig(first_only=True, keep_traces=False))
    assert bool(first.unifiers) == verdict


def _gamma4_for(partition):
    gamma1 = purify_terms(worked_example())
    for part, gamma3 in variable_identifications(gamma1):
        if part == partition:
            return split_problems(gamma3)
    raise AssertionError("partition not enumerated")


class TestSplitProblems:
    def test_worked_example_split(self):
        g41, g42 = _gamma4_for(EXHIBITED_PARTITION)
        assert g41 == [
            prob("W", "penc([1, n_a], pk(B))"),
            prob("X", "penc([1, N_B], pk(a))"),
            prob("Y", "[2, A]"),
            prob("Y", "[2, b]"),
        ]
        assert g42 == [prob("W", "xor(X, Y, Y)")]

    def test_all_std_input(self):
        probs = [prob("[1, A]", "[1, b]")]
        assert split_problems(probs) == (probs, [])

    def test_all_xor_input(self):
        probs = [prob("xor(a, X)", "xor(b, Y)")]
        assert split_problems(probs) == ([], probs)


class TestSolveSystems:
    def test_exhibited_branch_beta(self):
        # on the all-variables-in-one-block split the grounding replacement
        # is exactly { w/W, x/X, y/Y }, and the grounded xor problem fails:
        # nf(x + y + y) = x which is a different constant than w
        g41, g42 = _gamma4_for(EXHIBITED_PARTITION)
        attempts = list(solve_systems(g41, g42))
        (empty_v2,) = [a for a in attempts if not a.v2]
        assert empty_v2.beta == {"W": "w", "X": "x", "Y": "y"}
        assert empty_v2.gamma52 == [prob("w", "xor(x, y, y)")]
        assert empty_v2.sigma1 is not None
        assert empty_v2.sigma2 is None

    def test_succeeding_branch(self):
        g41, g42 = _gamma4_for(SUCCEEDING_PARTITION)
        attempts = [a for a in solve_systems(g41, g42) if a.sigma1 and a.sigma2 is not None]
        assert attempts
        att = attempts[0]
        assert att.gamma52 == [prob("w", "xor(w, y, y)")]
        assert att.sigma2 == Substitution()

    def test_no_variables_single_trivial_split(self):
        attempts = list(solve_systems([prob("a", "a")], [prob("b", "b")]))
        assert len(attempts) == 1
        assert attempts[0].v1 == () and attempts[0].v2 == ()
        assert attempts[0].sigma1 == Substitution()
        assert attempts[0].sigma2 == Substitution()

    def test_fresh_constants_avoid_existing_names(self):
        # each fresh constant is new and parses back as that constant, also
        # for a variable whose lowercased name reads as a variable or a call
        for var in ("Y", "_Q", "PK"):
            g41 = [prob(var, "[1, w]")]
            g42 = [prob("W", f"xor({var}, a)")]
            for att in solve_systems(g41, g42):
                for const in att.beta.values():
                    assert const != "w" and parse_term(const) == Const(const)
        got = [_fresh_const(v, set()) for v in ("Y", "N_B", "SEQ", "_Q", "_", "PK", "XOR")]
        assert got == ["y", "n_b", "seq", "c_q", "c_", "cpk", "cxor"]
        assert _fresh_const("PK", {"cpk"}) == "cpk1"


class TestCombineUnifiers:
    def test_sigma2_empty_gives_sigma1(self):
        s1 = Substitution({"A": Const("b"), "W": parse_term("penc([1, n_a], pk(a))")})
        got = combine_unifiers(s1, Substitution(), (("A", "W"), ()), {})
        assert got == (("A", "W"), s1)

    def test_cyclic_back_substitution_is_absent(self):
        # X -> f(y), Y -> g(x) through the fresh constants: no order exists
        s1 = Substitution({"X": Pk(Const("y0"))})
        s2 = Substitution({"Y": parse_term("xor(x0, a)")})
        beta = {"X": "x0", "Y": "y0"}
        assert combine_unifiers(s1, s2, (("X",), ("Y",)), beta) is None

    def test_back_substitution_resolves_constants(self):
        s1 = Substitution({"X": Seq((Const("y0"), Const("a")))})
        s2 = Substitution({"Y": parse_term("xor(a, b)")})
        beta = {"Y": "y0"}
        got = combine_unifiers(s1, s2, (("X",), ("Y",)), beta)
        assert got is not None
        order, merged = got
        assert order == ("Y", "X")
        assert merged.bindings["X"] == Seq((parse_term("xor(a, b)"), Const("a")))
        assert merged.is_idempotent()


class TestUnifyCombined:
    def test_worked_example_end_to_end(self):
        result = unify_combined(worked_example())
        expected = parse_substitution("{ b/A, a/B, n_a/N_B }")
        assert expected in result.unifiers
        for sigma in result.unifiers:
            for p in worked_example():
                assert equal_mod(sigma.apply(p.lhs), sigma.apply(p.rhs), Theory.COMBINED)

    def test_worked_example_oracle_confirms(self):
        assert ground_unifiable(worked_example(), Theory.COMBINED, GenConfig())

    def test_xor_vars_against_different_constants(self):
        result = unify_combined([prob("xor(a, X)", "xor(b, Y)")])
        assert result.unifiers
        sigma = result.unifiers[0]
        lhs = sigma.apply(parse_term("xor(a, X)"))
        rhs = sigma.apply(parse_term("xor(b, Y)"))
        assert equal_mod(lhs, rhs, Theory.COMBINED)

    def test_std_clash_stays_empty(self):
        assert unify_combined([prob("[1, a]", "[2, b]")]).unifiers == []

    def test_trace_purity_postconditions(self):
        result = unify_combined(worked_example())
        assert result.traces
        for tr in result.traces:
            for p in tr.gamma1:
                for side in (p.lhs, p.rhs):
                    assert is_pure(side, Theory.STD) or is_pure(side, Theory.ACUN)
            for p in tr.gamma51:
                assert is_pure(p.lhs, Theory.STD) and is_pure(p.rhs, Theory.STD)
            for p in tr.gamma52:
                assert is_pure(p.lhs, Theory.ACUN) and is_pure(p.rhs, Theory.ACUN)

    def test_trace_serializes(self):
        import json

        result = unify_combined(worked_example())
        payload = json.dumps([jsonable(t) for t in result.traces[:3]])
        assert "gamma51" in payload

    def test_returned_unifiers_do_not_leak_beta_constants(self):
        result = unify_combined(worked_example())
        for sigma in result.unifiers:
            for t in sigma.bindings.values():
                assert "w" not in render_term(t).split()

    def test_cap_raises(self):
        problems = [Problem(Seq(tuple(Var(f"V{i}") for i in range(10))),
                            Seq(tuple(Var(f"V{9 - i}") for i in range(10))))]
        with pytest.raises(ChoiceSpaceExceeded):
            unify_combined(problems)

    def test_xor_parameters_avoid_every_input_variable(self):
        # _f1 occurs only on the standard side, so it is absent from the
        # grounded xor problems the parameters are first named against
        problems = [prob("X1", "[_f1, xor(a, Y1)]")]
        unifiers = unify_combined(problems).unifiers
        assert len(unifiers) == 15
        for sigma in unifiers:
            assert sigma.is_idempotent(), render_term(sigma.bindings["X1"])
            for p in problems:
                assert equal_mod(sigma.apply(p.lhs), sigma.apply(p.rhs), Theory.COMBINED)

    def test_first_only_stops_early(self):
        result = unify_combined(worked_example(), BscaConfig(first_only=True))
        assert len(result.unifiers) == 1

    def test_pruning_changes_no_outcomes(self, monkeypatch):
        # counts how often each precheck fires, so the agreement below is
        # known to cover the pure-part precheck and both halves of the
        # per-partition one: the xor half rejects a partition before it is
        # yielded, the standard half a yielded partition before its splits
        import taggedunify.bsca as bsca

        counts = {}
        real_identifications, real_solve = bsca.variable_identifications, bsca.solve_systems

        def identifications(problems, cfg, keep):
            counts["identified"] = True

            def counted_keep(partition):
                passed = keep(partition)
                counts["xor_rejected"] += not passed
                return passed

            counted = None if keep is None else counted_keep
            for item in real_identifications(problems, cfg, counted):
                counts["partitions"] += 1
                yield item

        def solve(*args, **kwargs):
            counts["solved"] += 1
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(bsca, "variable_identifications", identifications)
        monkeypatch.setattr(bsca, "solve_systems", solve)
        pure_fired = xor_rejected = std_rejected = 0
        for i in range(40):
            problems = gen_problem(GenConfig(seed=13), i)
            if len(problem_vars(problems)) > 6:
                continue
            counts.update(identified=False, xor_rejected=0, partitions=0, solved=0)
            fast = unify_combined(problems, BscaConfig(keep_traces=False))
            pure_fired += not counts["identified"]
            xor_rejected += counts["xor_rejected"]
            std_rejected += counts["partitions"] - counts["solved"]
            slow = unify_combined(problems, BscaConfig(prune=False, keep_traces=False))
            assert bool(fast.unifiers) == bool(slow.unifiers)
        assert pure_fired >= 1 and xor_rejected >= 1 and std_rejected >= 1


class TestPrechecks:
    def test_pure_part_clash_attempts_no_branch(self):
        problems = [prob("[X1, xor(X2, b)]", "penc([a, c, a], xor(a, b, c))")]
        pruned = unify_combined(problems)
        assert pruned.unifiers == [] and pruned.traces == []
        unpruned = unify_combined(problems, BscaConfig(prune=False))
        assert unpruned.unifiers == [] and unpruned.traces

    def test_pure_part_clash_is_decided_under_the_partition_cap(self):
        # ten variables exceed the partition cap, but the standard part
        # already clashes, so the answer is definite
        names = tuple(Var(f"V{i}") for i in range(10))
        problems = [Problem(Seq(names + (Const("a"),)), Seq(names + (Const("b"),)))]
        assert unify_combined(problems).unifiers == []
        with pytest.raises(ChoiceSpaceExceeded):
            unify_combined(problems, BscaConfig(prune=False))

    def test_worked_example_work_counts(self, monkeypatch):
        # the xor half of the per-partition precheck runs on one GF(2)
        # system per call, so the xor solver runs only for splits and only
        # partitions that pass it are split
        import taggedunify.bsca as bsca

        counts = {"unify_acun": 0, "split_problems": 0, "passed": 0}
        real_acun, real_split = bsca.unify_acun, bsca.split_problems
        real_identifications = bsca.variable_identifications

        def acun(*args, **kwargs):
            counts["unify_acun"] += 1
            return real_acun(*args, **kwargs)

        def split(*args, **kwargs):
            counts["split_problems"] += 1
            return real_split(*args, **kwargs)

        def identifications(*args, **kwargs):
            for item in real_identifications(*args, **kwargs):
                counts["passed"] += 1
                yield item

        monkeypatch.setattr(bsca, "unify_acun", acun)
        monkeypatch.setattr(bsca, "split_problems", split)
        monkeypatch.setattr(bsca, "variable_identifications", identifications)
        assert unify_combined(worked_example()).unifiers
        assert counts["unify_acun"] <= 3
        assert counts["split_problems"] <= counts["passed"] + 2

    def test_rejected_partitions_have_no_successful_split(self):
        tried = {tr.var_id_partition for tr in unify_combined(worked_example()).traces}
        assert EXHIBITED_PARTITION not in tried and SUCCEEDING_PARTITION in tried
        gamma1 = purify_terms(worked_example())
        rejected = 0
        for partition, gamma3 in variable_identifications(gamma1):
            if partition in tried:
                continue
            rejected += 1
            g41, g42 = split_problems(gamma3)
            for att in solve_systems(g41, g42, BscaConfig(prune=False)):
                assert att.sigma1 is None or att.sigma2 is None
        assert rejected


def _grounded_xor_verdict(gamma3, spare):
    """The per-partition xor precheck on terms: the partition's xor part with
    every standard-defined variable grounded to its spare constant, solved."""
    g41, g42 = split_problems(gamma3)
    forced1 = _std_definitions(g41).keys() & problem_vars(g42)
    ground = Substitution({v: spare[v] for v in forced1})
    return unify_acun([ground.apply_problem(p) for p in g42]) is not None


class TestXorPrecheck:
    """The bitmask precheck decides each partition as the grounded-term
    precheck does, which it replaces; prune-on/off agreement is tested in
    TestUnifyCombined."""

    @staticmethod
    def inputs():
        yield worked_example()
        for seed in (1, 13, 61):
            for i in range(40):
                yield gen_problem(GenConfig(seed=seed), i)

    def test_bitmask_verdict_matches_grounded_reference(self):
        verdicts = {True: 0, False: 0}
        for problems in self.inputs():
            gamma2 = purify_problems(purify_terms(problems))
            if len(problem_vars(gamma2)) > 7:
                continue
            keep = xor_precheck(gamma2)
            if keep is None:
                assert unify_acun(split_problems(gamma2)[1]) is None
                continue
            taken = set().union(*(const_names_of(p.lhs) | const_names_of(p.rhs) for p in gamma2))
            spare = {v: Const(_fresh_const(v, taken)) for v in sorted(problem_vars(gamma2))}
            for cfg in (BscaConfig(), BscaConfig(first_only=True)):
                for partition, gamma3 in variable_identifications(gamma2, cfg):
                    verdict = keep(partition)
                    assert verdict == _grounded_xor_verdict(gamma3, spare), (problems, partition)
                    verdicts[verdict] += 1
        assert verdicts[True] and verdicts[False]

    def test_worked_example_partitions_of_interest(self):
        keep = xor_precheck(purify_terms(worked_example()))
        # the exhibited partition leaves w = x, two distinct constants
        assert not keep(EXHIBITED_PARTITION)
        assert keep(SUCCEEDING_PARTITION)


class TestConservativity:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_pure_std_agrees_with_std_solver(self, index):
        from taggedunify.unify import ImpureTermError, unify_std

        problems = gen_problem(GenConfig(seed=2), index)
        try:
            sigma = unify_std(problems)
        except ImpureTermError:
            return
        result = unify_combined(problems, BscaConfig(first_only=True, keep_traces=False))
        assert bool(result.unifiers) == (sigma is not None)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_pure_xor_agrees_with_xor_solver(self, index):
        import random

        from taggedunify.acun import unify_acun
        from taggedunify.terms import xor_of

        rng = random.Random(index)
        pool = [Const("a"), Const("b"), Var("X"), Var("Y"), Var("Z")]

        def side():
            return xor_of([rng.choice(pool) for _ in range(rng.randint(1, 4))])

        problems = [Problem(side(), side())]
        result = unify_combined(problems, BscaConfig(first_only=True, keep_traces=False))
        assert bool(result.unifiers) == (unify_acun(problems) is not None)


class TestOracleAgreement:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_combined_matches_ground_oracle(self, index):
        cfg = GenConfig(seed=6)
        problems = gen_problem(cfg, index)
        result = unify_combined(problems, BscaConfig(first_only=True, keep_traces=False))
        assert bool(result.unifiers) == ground_unifiable(problems, Theory.COMBINED, cfg)

    @pytest.mark.parametrize("seed, index", [(68, 5), (6, 5542)])
    def test_xor_value_facing_a_standard_term(self, seed, index):
        # penc(X1, X2+a) ~? penc(c, b) needs X2 = a+b with b never a summand
        cfg = GenConfig(seed=seed)
        problems = gen_problem(cfg, index)
        result = unify_combined(problems, BscaConfig(first_only=True, keep_traces=False))
        assert result.unifiers
        assert ground_unifiable(problems, Theory.COMBINED, cfg)
