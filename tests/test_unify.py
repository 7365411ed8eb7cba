import hypothesis.strategies as st
import pytest
from hypothesis import assume, given

from strategies import terms, var_names, variables
from taggedunify.oracle import GenConfig, gen_problem, ground_unifiable
from taggedunify.terms import (
    Const,
    Pk,
    Problem,
    Seq,
    Theory,
    Var,
    Xor,
    children,
    decompose,
    equal_mod,
    is_pure,
    vars_of,
)
from taggedunify.textfmt import parse_term
from taggedunify.unify import (
    ImpureTermError,
    Substitution,
    extend_bindings,
    head_key,
    keys_clash,
    occurs,
    resolve,
    unify_free_xor,
    unify_std,
    walk,
)


def prob(lhs: str, rhs: str) -> Problem:
    return Problem(parse_term(lhs), parse_term(rhs))


class TestApply:
    def test_binding(self):
        s = Substitution({"A": Const("b")})
        assert s.apply(parse_term("[2, A]")) == parse_term("[2, b]")

    def test_identity(self):
        t = parse_term("penc(A, pk(b))")
        assert Substitution().apply(t) == t

    def test_grounding_a_sum(self):
        s = Substitution({"W": Const("w"), "X": Const("x"), "Y": Const("y")})
        got = s.apply(Xor((Var("W"), Var("X"), Var("Y"), Var("Y"))))
        assert got == parse_term("xor(w, x, y, y)")

    @given(terms())
    def test_idempotent_substitutions_apply_twice_same(self, t):
        s = Substitution({"A": Const("a"), "B": parse_term("pk(c)")})
        assert s.apply(s.apply(t)) == s.apply(t)


class TestUnifyStd:
    def test_decompose_and_bind(self):
        got = unify_std([prob("[1, A]", "[1, b]")])
        assert got == Substitution({"A": Const("b")})

    def test_distinct_tags_never_unify(self):
        assert unify_std([prob("[1, a]", "[2, b]")]) is None

    def test_occurs_check(self):
        assert unify_std([prob("X", "pk(X)")]) is None

    def test_rejects_xor(self):
        with pytest.raises(ImpureTermError):
            unify_std([prob("X", "xor(a, b)")])

    def test_sequences_of_different_length(self):
        assert unify_std([prob("[a, b]", "[a, b, c]")]) is None

    def test_joint_system(self):
        got = unify_std([prob("X", "penc(A, k)"), prob("X", "penc(b, k)")])
        assert got is not None
        assert got.bindings["A"] == Const("b")

    @given(st.integers(0, 10_000))
    def test_soundness_and_oracle_agreement(self, index):
        cfg = GenConfig(seed=4)
        problems = gen_problem(cfg, index)
        try:
            sigma = unify_std(problems)
        except ImpureTermError:
            return  # xor-containing sample: out of this solver's domain
        if sigma is not None:
            assert sigma.is_idempotent()
            for p in problems:
                assert equal_mod(sigma.apply(p.lhs), sigma.apply(p.rhs), Theory.STD)
        assert (sigma is not None) == ground_unifiable(problems, Theory.STD, cfg)

    @given(terms(with_xor=False, max_leaves=8), st.integers(0, 3))
    def test_most_generality_on_constructed_instances(self, pattern, salt):
        # build a known unifier rho, then check rho factors through the mgu
        names = sorted(vars_of(pattern))
        ground = [Const("a"), parse_term("pk(b)"), parse_term("[c, c]"), Const("na")]
        rho = Substitution({v: ground[(i + salt) % len(ground)] for i, v in enumerate(names)})
        problem = Problem(pattern, rho.apply(pattern))
        sigma = unify_std([problem])
        assert sigma is not None
        matcher = unify_std(
            [Problem(sigma.apply(Var(v)), rho.apply(Var(v))) for v in names]
        )
        assert matcher is not None
        for v in names:
            assert matcher.apply(sigma.apply(Var(v))) == rho.apply(Var(v))


class TestUnifyFreeXor:
    def test_positional_decomposition(self):
        got = unify_free_xor([prob("xor(a, X)", "xor(a, b)")])
        assert got == Substitution({"X": Const("b")})

    def test_order_sensitive(self):
        assert unify_free_xor([prob("xor(a, b)", "xor(b, a)")]) is None

    def test_width_clash(self):
        assert unify_free_xor([prob("xor(a, b)", "xor(a, b, c)")]) is None

    def test_variable_binds_to_whole_xor(self):
        got = unify_free_xor([prob("X", "xor(a, b)")])
        assert got == Substitution({"X": parse_term("xor(a, b)")})


def eager_solve(eqs: list[tuple]) -> dict | None:
    """Reference solver in eager solved form: each new binding is applied to
    the worklist and to every earlier binding at once.  Exponential on the
    doubling chain, but the triangular solver must return exactly its
    bindings, in the same insertion order."""
    sigma: dict = {}
    work = list(eqs)
    while work:
        s, t = work.pop()
        if s == t:
            continue
        if isinstance(t, Var) and not isinstance(s, Var):
            s, t = t, s
        if isinstance(s, Var):
            if s.name in vars_of(t):
                return None
            one = Substitution({s.name: t})
            work = [(one.apply(a), one.apply(b)) for a, b in work]
            for v in list(sigma):
                sigma[v] = one.apply(sigma[v])
            sigma[s.name] = t
            continue
        pairs = decompose(s, t)
        if pairs is None:
            return None
        work.extend(pairs)
    return sigma


def assert_matches_eager(problems: list[Problem]) -> None:
    want = eager_solve([(p.lhs, p.rhs) for p in problems])
    solvers = [unify_free_xor]
    if all(is_pure(side, Theory.STD) for p in problems for side in (p.lhs, p.rhs)):
        solvers.append(unify_std)
    for solver in solvers:
        got = solver(problems)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert list(got.bindings.items()) == list(want.items())


def doubling_chain(n: int) -> Problem:
    """[X1..Xn] ~? [[X0,X0]..[Xn-1,Xn-1]]: Xn's unifier is a tree of 2^n leaves."""
    lhs = Seq(tuple(Var(f"X{i}") for i in range(1, n + 1)))
    rhs = Seq(tuple(Seq((Var(f"X{i}"), Var(f"X{i}"))) for i in range(n)))
    return Problem(lhs, rhs)


def dag_depth_and_vars(t) -> tuple[int, set[str]]:
    """Depth of ``t`` (atoms 0) and its variable names, by an iterative walk
    that visits each shared node once."""
    depth: dict[int, int] = {}
    names: set[str] = set()
    stack = [(t, False)]
    while stack:
        u, expanded = stack.pop()
        if id(u) in depth:
            continue
        kids = children(u)
        if isinstance(u, Var):
            names.add(u.name)
        if expanded or not kids:
            depth[id(u)] = 1 + max(depth[id(c)] for c in kids) if kids else 0
        else:
            stack.append((u, True))
            stack.extend((c, False) for c in kids)
    return depth[id(t)], names


class TestSolvedFormCore:
    def test_walk_follows_chains(self):
        bindings = {"X": Var("Y"), "Y": Pk(Var("Z"))}
        assert walk(Var("X"), bindings) == Pk(Var("Z"))
        assert walk(Var("Z"), bindings) == Var("Z")

    def test_occurs_reads_through_bindings(self):
        bindings = {"Y": Pk(Var("X"))}
        assert occurs("X", Seq((Const("a"), Var("Y"))), bindings)
        assert not occurs("X", Seq((Const("a"), Var("Z"))), bindings)

    def test_resolve_orders_by_layers_and_keeps_insertion_order(self):
        bindings = {"X": Pk(Var("Y")), "Y": Const("a"), "Z": Var("W")}
        order, sigma = resolve(bindings)
        assert order == ("Y", "Z", "X")
        assert list(sigma.bindings) == ["X", "Y", "Z"]
        assert sigma.bindings["X"] == Pk(Const("a"))
        assert sigma.is_idempotent()

    def test_resolve_rejects_cycles(self):
        assert resolve({"X": Pk(Var("Y")), "Y": Seq((Var("X"),))}) is None


class TestMatchesEagerSolver:
    @given(
        st.lists(
            st.one_of(
                st.tuples(variables, terms(max_leaves=4)),
                st.tuples(terms(max_leaves=6), terms(max_leaves=6)),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_random_problem_sets(self, pairs):
        # variable-term problems make the solver bind, chain and fail the
        # occurs check; term-term problems decompose and clash
        assert_matches_eager([Problem(s, t) for s, t in pairs])

    @given(terms(max_leaves=8), st.dictionaries(var_names, terms(max_leaves=4)))
    def test_instances(self, pattern, rho):
        assert_matches_eager([Problem(pattern, Substitution(rho).apply(pattern))])

    @pytest.mark.parametrize("seed", [1, 61])
    def test_generated_problem_sets(self, seed):
        cfg = GenConfig(seed=seed)
        for index in range(150):
            assert_matches_eager(gen_problem(cfg, index))

    def test_doubling_chain_small(self):
        assert_matches_eager([doubling_chain(8)])


class TestDoublingChain:
    def test_polynomial_at_depth_40(self):
        sigma = unify_std([doubling_chain(40)])
        assert sigma is not None
        # written out as a tree this binding has 2^40 leaves
        depth, names = dag_depth_and_vars(sigma.bindings["X40"])
        assert depth == 40
        assert names == {"X0"}
        assert sigma.is_idempotent()


class TestHeadKey:
    """A clash of head keys must mean that the terms have no common
    instance under the bindings, or a pair test it skips would change a
    verdict."""

    @given(terms(), terms())
    def test_clash_means_no_unifier(self, a, b):
        if keys_clash(head_key(a), head_key(b)):
            assert extend_bindings([(a, b)]) is None

    @given(
        st.lists(st.tuples(variables, terms(with_xor=False, max_leaves=4)), min_size=1, max_size=3),
        terms(),
        terms(),
    )
    def test_clash_means_no_unifier_under_bindings(self, problem, a, b):
        bindings = extend_bindings(problem)
        assume(bindings is not None)
        if keys_clash(head_key(a, bindings), head_key(b, bindings)):
            assert extend_bindings([(a, b)], bindings) is None

    @pytest.mark.parametrize(
        "a, b",
        [("[1, X]", "[1, a]"), ("X", "[1, a]"), ("[Y, a]", "[1, a]"), ("pk(X)", "pk([a])")],
    )
    def test_pairs_that_may_unify_do_not_clash(self, a, b):
        assert not keys_clash(head_key(parse_term(a)), head_key(parse_term(b)))

    def test_keys_read_through_bindings(self):
        bindings = {"X": parse_term("[1, a]"), "Y": parse_term("2")}
        x, z = head_key(Var("X"), bindings), head_key(parse_term("[1, Z]"), bindings)
        assert not keys_clash(x, z)
        # Y is bound to the tag 2, so [Y, a] can no longer meet [1, a]
        assert keys_clash(x, head_key(parse_term("[Y, a]"), bindings))

    @pytest.mark.parametrize(
        "a, b",
        [("[1, X]", "[2, X]"), ("a", "b"), ("a", "[a]"), ("[1, X]", "[1, X, Y]"),
         ("penc(a, K)", "senc(a, K)"), ("xor(a, X)", "xor(b, Y)")],
    )
    def test_fixed_position_clashes(self, a, b):
        assert keys_clash(head_key(parse_term(a)), head_key(parse_term(b)))
