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
    node_bound,
    purify_problems,
    purify_terms,
    solve_systems,
    split_problems,
    unify_combined,
    variable_identifications,
)
from taggedunify.oracle import (
    GenConfig,
    gen_dnut_protocol,
    gen_problem,
    gen_untagged_set,
    ground_unifiable,
)
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
    sort_key,
)
from taggedunify.textfmt import jsonable, parse_term, render_substitution, render_term
from taggedunify.unify import Substitution, unify_std
from test_unify import is_idempotent


def prob(lhs: str, rhs: str) -> Problem:
    return Problem(parse_term(lhs), parse_term(rhs))


def worked_example() -> list[Problem]:
    return [prob("penc([1, n_a], pk(B))", "penc([1, N_B], pk(a)) + [2, A] + [2, b]")]


EXHIBITED_PARTITION = (("A",), ("B",), ("N_B",), ("W",), ("X",), ("Y", "Z"))
SUCCEEDING_PARTITION = (("A",), ("B",), ("N_B",), ("W", "X"), ("Y", "Z"))

# The abstraction W of [c, X] is the only standard-defined xor variable, but
# U, defined outside the xor part, can share its block under full
# identification, so W is not grounded at the root
STD_DEFINED_OUTSIDE_THE_XOR_PART = [prob("U", "[c, Y]"), prob("Z", "xor([c, X], a)")]

# W, the abstraction of [1, X], is grounded at the root, and V, that of
# [c, Y], is not, since U can equal it.  Under full identification V can
# join block 0 or 1 or open block 2, after A and U, though the xor part has
# only two columns; the root's atom must differ from each of these blocks'
ROOT_ATOM_APART_FROM_BLOCK_ATOMS = [prob("U", "[c, A]"), prob("[1, X] + [c, Y]", "0")]


def pairs(terms) -> list[list[Problem]]:
    """One problem set per pair that ``check_theorem`` tests in a term set."""
    terms = sorted(set(terms), key=sort_key)
    return [[Problem(m, t)] for m, t in combinations(terms, 2)
            if not isinstance(m, Var) and not isinstance(t, Var)]


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

    def test_continuing_from_the_callers_names_changes_nothing(self):
        # unify_combined passes one name set through both steps; after each
        # step it holds exactly that step's output variables, the names a
        # fresh walk of the output would give
        sets = [gen_problem(GenConfig(seed=seed), i) for seed in (1, 4, 61) for i in range(150)]
        for i in range(60):
            sets += pairs(gen_dnut_protocol(GenConfig(seed=20_260_809), i))
        for problems in sets:
            taken = set(problem_vars(problems))
            gamma1 = purify_terms(problems, taken)
            assert gamma1 == purify_terms(problems)
            assert taken == problem_vars(gamma1)
            gamma2 = purify_problems(gamma1, taken)
            assert gamma2 == purify_problems(gamma1)
            assert taken == problem_vars(gamma2)

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
        assert is_idempotent(merged)


class TestUnifyCombined:
    def test_worked_example_end_to_end(self):
        result = unify_combined(worked_example())
        assert "{ b/A, a/B, n_a/N_B }" in map(render_substitution, result.unifiers)
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

    @pytest.mark.parametrize(
        "lhs, rhs, message",
        [("X", "[xor(a, b), a]", "impure term after purification"),
         ("[a, b]", "xor(a, b)", "cross-theory problem after purification")],
        ids=["impure", "cross-theory"],
    )
    def test_purification_postconditions_fire(self, monkeypatch, lhs, rhs, message):
        # no input reaches these checks through a correct purification, so
        # a broken step 2 stands in for one that regressed
        monkeypatch.setattr(
            "taggedunify.bsca.purify_problems", lambda problems, taken=None: [prob(lhs, rhs)]
        )
        with pytest.raises(AssertionError, match=message):
            unify_combined([prob("X", "a")])

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
            assert is_idempotent(sigma), render_term(sigma.bindings["X1"])
            for p in problems:
                assert equal_mod(sigma.apply(p.lhs), sigma.apply(p.rhs), Theory.COMBINED)

    def test_first_only_stops_early(self):
        result = unify_combined(worked_example(), BscaConfig(first_only=True))
        assert len(result.unifiers) == 1

    def test_pruning_changes_no_outcomes(self, monkeypatch):
        # counts how often each precheck fires, so the agreement below is
        # known to cover the pure-part precheck and both halves of the
        # per-partition one, each cutting a subtree at an assignment of the
        # enumeration; a node extends a state its root call started
        import taggedunify.bsca as bsca

        counts = {}
        real_identifications = bsca.variable_identifications
        real_eliminate, real_extend_bindings = bsca.forward_eliminate, bsca.extend_bindings

        def identifications(problems, cfg, bound):
            counts["identified"] = True
            yield from real_identifications(problems, cfg, bound)

        def eliminate(rows, *node):
            pivots = real_eliminate(rows, *node)
            counts["xor_cut"] += bool(node) and pivots is None
            return pivots

        def extend_bindings(eqs, *node):
            bindings = real_extend_bindings(eqs, *node)
            counts["std_cut"] += bool(node) and bindings is None
            return bindings

        monkeypatch.setattr(bsca, "variable_identifications", identifications)
        monkeypatch.setattr(bsca, "forward_eliminate", eliminate)
        monkeypatch.setattr(bsca, "extend_bindings", extend_bindings)
        pure_fired = xor_cut = std_cut = 0
        for i in range(40):
            problems = gen_problem(GenConfig(seed=13), i)
            if len(problem_vars(problems)) > 6:
                continue
            counts.update(identified=False, xor_cut=0, std_cut=0)
            fast = unify_combined(problems, BscaConfig(keep_traces=False))
            pure_fired += not counts["identified"]
            xor_cut += counts["xor_cut"]
            std_cut += counts["std_cut"]
            slow = unify_combined(problems, BscaConfig(prune=False, keep_traces=False))
            assert bool(fast.unifiers) == bool(slow.unifiers)
        assert pure_fired >= 1 and xor_cut >= 1 and std_cut >= 1


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

    def test_harness_solves_the_standard_part_once_per_split(self, monkeypatch):
        # both halves of the per-partition precheck are decided on the node
        # bound's states, so the standard solver runs only for splits; the
        # pairwise compatibility of standard definitions and the leaf
        # standard precheck made 1,059 unify_std calls on these 60 protocols
        import taggedunify.bsca as bsca
        from taggedunify.oracle import run_harness

        counts = {"unify_std": 0, "splits": 0}
        real_std, real_solve = bsca.unify_std, bsca.solve_systems

        def std(*args, **kwargs):
            counts["unify_std"] += 1
            return real_std(*args, **kwargs)

        def solve(*args, **kwargs):
            for attempt in real_solve(*args, **kwargs):
                counts["splits"] += 1
                yield attempt

        monkeypatch.setattr(bsca, "unify_std", std)
        monkeypatch.setattr(bsca, "solve_systems", solve)
        report = run_harness(GenConfig(seed=20_260_809, samples=60))
        assert (report.pairs_total, report.combined_unifiable_pairs) == (160, 3)
        assert counts["unify_std"] == counts["splits"] > 0

    def test_harness_calls_decided_at_the_root(self, monkeypatch):
        # distinct tags make the summands' abstraction variables isolated,
        # so the root's grounding rows decide every pair here that has no
        # unifier; 138 of the 160 calls enumerated identifications before
        import taggedunify.bsca as bsca
        import taggedunify.oracle as oracle
        from taggedunify.oracle import run_harness

        counts = {"calls": 0, "enumerated": 0}
        real_combined, real_identifications = bsca.unify_combined, bsca.variable_identifications

        def combined(*args, **kwargs):
            counts["calls"] += 1
            return real_combined(*args, **kwargs)

        def identifications(*args, **kwargs):
            counts["enumerated"] += 1
            yield from real_identifications(*args, **kwargs)

        monkeypatch.setattr(oracle, "unify_combined", combined)
        monkeypatch.setattr(bsca, "variable_identifications", identifications)
        report = run_harness(GenConfig(seed=20_260_809, samples=60))
        assert report.combined_unifiable_pairs == 3
        assert (counts["calls"], counts["enumerated"]) == (160, 3)

    def test_harness_walks_each_calls_variables_once(self, monkeypatch):
        # purification continues from the name set unify_combined collects,
        # so problem_vars runs once per call, and 4 times more in each of
        # the 3 calls that enumerate identifications
        import taggedunify.bsca as bsca
        from taggedunify.oracle import run_harness

        calls = 0
        real_problem_vars = bsca.problem_vars

        def problem_vars(*args):
            nonlocal calls
            calls += 1
            return real_problem_vars(*args)

        monkeypatch.setattr(bsca, "problem_vars", problem_vars)
        report = run_harness(GenConfig(seed=20_260_809, samples=60))
        assert report.pairs_total == 160
        assert calls == 160 + 12

    def test_harness_pair_tests_skipped_on_head_keys(self, monkeypatch):
        # distinct tags head the summands, so their head keys clash: no
        # dnut summand pair is unified, and the root's isolation test
        # unifies 2 pairs of standard definitions (2,492 and 1,837 before)
        import taggedunify.bsca as bsca
        import taggedunify.dnut as dnut
        from taggedunify.oracle import run_harness

        counts = {"std_unifiable": 0, "isolated": 0}
        real_std_unifiable, real_isolated = dnut._std_unifiable, bsca._isolated
        real_extend_bindings = bsca.extend_bindings
        inside = False

        def std_unifiable(a, b):
            counts["std_unifiable"] += 1
            return real_std_unifiable(a, b)

        def isolated(*args):
            nonlocal inside
            inside = True
            try:
                return real_isolated(*args)
            finally:
                inside = False

        def extend_bindings(*args):
            counts["isolated"] += inside
            return real_extend_bindings(*args)

        monkeypatch.setattr(dnut, "_std_unifiable", std_unifiable)
        monkeypatch.setattr(bsca, "_isolated", isolated)
        monkeypatch.setattr(bsca, "extend_bindings", extend_bindings)
        report = run_harness(GenConfig(seed=20_260_809, samples=60))
        assert (report.pairs_total, report.combined_unifiable_pairs) == (160, 3)
        assert counts == {"std_unifiable": 0, "isolated": 2}

    def test_item_three_family_enumerates_fewer_partitions(self, monkeypatch):
        # the standard half of the node bound cuts merges of Xi with Yj
        # that the leaf precheck used to reject one by one (1,462 partitions
        # before); the splits of the partitions that pass are unchanged
        import taggedunify.bsca as bsca

        problems = [prob("[X0, X1]", "[xor(Y0, a0), xor(Y1, a1)]"), prob("[Y0, Y1]", "[X1, X0]")]
        passed = 0
        real_identifications = bsca.variable_identifications

        def identifications(*args):
            nonlocal passed
            for item in real_identifications(*args):
                passed += 1
                yield item

        monkeypatch.setattr(bsca, "variable_identifications", identifications)
        result = unify_combined(problems)
        assert (passed, len(result.traces), result.unifiers) == (902, 5_712, [])

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
    forced1 = _std_definitions(g41) & problem_vars(g42)
    ground = Substitution({v: spare[v] for v in forced1})
    return unify_acun([ground.apply_problem(p) for p in g42]) is not None


def _leaf_verdict(gamma3, spare):
    """Both halves of the per-partition precheck on terms, at a leaf."""
    g41 = split_problems(gamma3)[0]
    return _grounded_xor_verdict(gamma3, spare) and unify_std(g41) is not None


class TestXorPrecheck:
    """The node bound decides each partition as the leaf prechecks on terms
    do, which it replaces: the grounded xor verdict and the standard solve
    of ``g41``.  Cutting subtrees on it yields exactly the partitions that
    these leaf tests keep; prune-on/off agreement is tested in
    TestUnifyCombined."""

    @staticmethod
    def purified_sets():
        """Purified problem sets with at most 7 variables, each with its
        bound (None when the root decides it) and a spare constant per
        variable for the grounded reference."""
        sets = [worked_example(), STD_DEFINED_OUTSIDE_THE_XOR_PART]
        sets += [ROOT_ATOM_APART_FROM_BLOCK_ATOMS]
        sets += [gen_problem(GenConfig(seed=seed), i) for seed in (1, 13, 61) for i in range(40)]
        for problems in sets:
            gamma2 = purify_problems(purify_terms(problems))
            if len(problem_vars(gamma2)) > 7:
                continue
            taken = set().union(*(const_names_of(p.lhs) | const_names_of(p.rhs) for p in gamma2))
            spare = {v: Const(_fresh_const(v, taken)) for v in sorted(problem_vars(gamma2))}
            yield gamma2, node_bound(gamma2), spare

    def inputs(self):
        return [item for item in self.purified_sets() if item[1] is not None]

    def test_no_partition_passes_below_a_failing_root(self):
        # the root fails when a pure part fails or when the grounding rows
        # of the isolated variables make the xor part inconsistent; the
        # second kind is counted, so the root rows are seen to take effect
        by_rows = 0
        for gamma2, bound, spare in self.purified_sets():
            if bound is not None:
                continue
            for cfg in (BscaConfig(), BscaConfig(first_only=True)):
                for _, gamma3 in variable_identifications(gamma2, cfg):
                    assert not _leaf_verdict(gamma3, spare), gamma2
            std, xor = split_problems(gamma2)
            by_rows += unify_acun(xor) is not None and unify_std(std) is not None
        assert by_rows

    def test_bitmask_verdict_matches_grounded_reference(self):
        verdicts = {True: 0, False: 0}
        std_only = 0
        for gamma2, bound, spare in self.inputs():
            for cfg in (BscaConfig(), BscaConfig(first_only=True)):
                for partition, gamma3 in variable_identifications(gamma2, cfg):
                    verdict = bound.cut_at(partition) is None
                    assert verdict == _leaf_verdict(gamma3, spare), (gamma2, partition)
                    verdicts[verdict] += 1
                    std_only += not verdict and _grounded_xor_verdict(gamma3, spare)
        assert verdicts[True] and verdicts[False] and std_only

    def test_node_bound_yields_what_the_leaf_test_keeps(self):
        cut = 0
        for gamma2, bound, spare in self.inputs():
            for cfg in (BscaConfig(), BscaConfig(first_only=True)):
                unbounded = list(variable_identifications(gamma2, cfg))
                leaf_only = [item for item in unbounded if _leaf_verdict(item[1], spare)]
                node_bounded = list(variable_identifications(gamma2, cfg, bound))
                assert node_bounded == leaf_only, gamma2
                cut += len(leaf_only) < len(unbounded)
        assert cut

    def test_worked_example_partitions_of_interest(self):
        bound = node_bound(purify_terms(worked_example()))
        # the exhibited partition leaves w = x, two distinct constants: with
        # W, X and Y each grounded to an atom of its own, Z joining Y's
        # block is the assignment that makes the system inconsistent
        assert bound.cut_at(EXHIBITED_PARTITION) == "Z"
        assert bound.cut_at(SUCCEEDING_PARTITION) is None


class TestHeadKeyPrune:
    def test_node_bounds_equal_with_and_without_head_keys(self, monkeypatch):
        # the root's isolation test skips the pairs whose head keys clash;
        # unifying every pair instead must give the same bound on the
        # generated sets, on every pair of the first 60 harness protocols,
        # and on untagged sets, whose summands' definitions can unify
        import taggedunify.bsca as bsca

        sets = [gen_problem(GenConfig(seed=seed), i) for seed in (1, 4, 61) for i in range(150)]
        sets += [worked_example(), STD_DEFINED_OUTSIDE_THE_XOR_PART, ROOT_ATOM_APART_FROM_BLOCK_ATOMS]
        for i in range(60):
            sets += pairs(gen_dnut_protocol(GenConfig(seed=20_260_809), i))
            sets += pairs(gen_untagged_set(GenConfig(seed=20_260_809), i))
        purified = [purify_problems(purify_terms(problems)) for problems in sets]
        clashes = 0
        real_keys_clash = bsca.keys_clash

        def keys_clash(a, b):
            nonlocal clashes
            clash = real_keys_clash(a, b)
            clashes += clash
            return clash

        monkeypatch.setattr(bsca, "keys_clash", keys_clash)
        with_keys = [node_bound(gamma2) for gamma2 in purified]
        monkeypatch.setattr(bsca, "keys_clash", lambda a, b: False)
        without_keys = [node_bound(gamma2) for gamma2 in purified]
        assert clashes
        assert with_keys == without_keys
        assert sum(bound is None for bound in with_keys) > 0


class TestTracesPinned:
    def test_generated_unifiers_and_traces(self):
        # the unifiers and traces of 450 generated sets in both search
        # modes, pinned, so that a change to the pruning that alters any
        # attempted branch, its order or its states shows here
        import hashlib

        results = []
        for cfg in (BscaConfig(), BscaConfig(first_only=True)):
            for seed in (1, 4, 61):
                for i in range(150):
                    result = unify_combined(gen_problem(GenConfig(seed=seed), i), cfg)
                    results.append((result.unifiers, result.traces))
        assert sum(len(traces) for _, traces in results) == 1_318
        digest = hashlib.sha256(repr(results).encode()).hexdigest()
        assert digest == "76404ae2460b5d85fea6833d6a51d16535c90e1d05fee7316d6bfeb7ac32d78f"


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
