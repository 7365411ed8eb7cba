import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from taggedunify.acun import build_gf2_system, unify_acun
from taggedunify.terms import (
    ZERO,
    Const,
    Problem,
    Theory,
    Var,
    acun_normal_form,
    equal_mod,
    interm_occurrences,
    problem_vars,
    xor_of,
)
from taggedunify.textfmt import parse_term
from taggedunify.unify import ImpureTermError, Substitution


def prob(lhs: str, rhs: str) -> Problem:
    return Problem(parse_term(lhs), parse_term(rhs))


def _brute_force(problems):
    """Independent oracle: map every variable to an xor-combination of the
    input atoms (2^atoms candidates per variable); complete for elementary
    xor unification with free constants.

    A candidate is a bit mask over the atoms and each side is evaluated by
    parity counting, without building terms or using the solver's normal
    form.  Variables get values one at a time, and an equation is checked as
    soon as all of its variables have one, so a branch is left only when no
    assignment extending it can be a witness."""
    names = sorted(problem_vars(problems))
    atoms = sorted(
        {u.name for p in problems for side in (p.lhs, p.rhs) for u in interm_occurrences(side) if isinstance(u, Const)}
    )
    bit = {a: 1 << i for i, a in enumerate(atoms)}
    index = {v: i for i, v in enumerate(names)}

    def parity(side):
        odd_vars, mask = set(), 0
        for u in interm_occurrences(side):
            if isinstance(u, Var):
                odd_vars ^= {index[u.name]}
            elif isinstance(u, Const):
                mask ^= bit[u.name]
            else:
                assert u == ZERO, f"not an elementary xor summand: {u}"
        return odd_vars, mask

    equations = []
    for p in problems:
        (lv, lm), (rv, rm) = parity(p.lhs), parity(p.rhs)
        equations.append((lv ^ rv, lm ^ rm))
    candidates = range(1 << len(atoms))
    # closing[i]: the equations whose last variable is the (i-1)-th, checked
    # as soon as it has a value
    closing = [
        [j for j, (vs, _) in enumerate(equations) if max(vs, default=-1) == i - 1]
        for i in range(len(names) + 1)
    ]

    def extend(i, sums):
        # sums[j]: xor of the values given so far to equation j's variables
        if any(sums[j] != equations[j][1] for j in closing[i]):
            return False
        if i == len(names):
            return True
        return any(
            extend(i + 1, [s ^ value if i in vs else s for s, (vs, _) in zip(sums, equations)])
            for value in candidates
        )

    return extend(0, [0] * len(equations))


class TestExamples:
    def test_constant_shift(self):
        # check derived by applying then normalizing: (a+b)+a normalizes to b
        sigma = unify_acun([prob("xor(X, a)", "b")])
        assert sigma.bindings == {"X": parse_term("xor(a, b)")}
        assert acun_normal_form(sigma.apply(parse_term("xor(X, a)"))) == Const("b")

    def test_ground_mismatch(self):
        # the grounded split of the worked example: w against xor(x, y, y)
        assert unify_acun([prob("w", "xor(x, y, y)")]) is None

    def test_self_occurrence_cancels_to_inconsistency(self):
        assert unify_acun([prob("X", "xor(X, a)")]) is None

    def test_rejects_standard_heads(self):
        with pytest.raises(ImpureTermError):
            unify_acun([prob("xor([1, a], X)", "b")])

    def test_zero_contributes_nothing(self):
        sigma = unify_acun([prob("X", "xor(a, 0)")])
        assert sigma.bindings == {"X": Const("a")}

    def test_joint_system(self):
        sigma = unify_acun([prob("xor(X, a)", "b"), prob("xor(X, Y)", "a")])
        assert acun_normal_form(sigma.apply(parse_term("xor(X, Y)"))) == Const("a")

    def test_fresh_parameters_avoid_input_names(self):
        sigma = unify_acun([prob("xor(X, _f1)", "a")])
        for t in sigma.bindings.values():
            from taggedunify.terms import vars_of

            assert "_f1" not in {v for v in vars_of(t)} or sigma.bindings.get("_f1") is None


class TestProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=150)
    def test_oracle_completeness_and_soundness(self, seed):
        rng = random.Random(seed)
        atoms = [Const(c) for c in "abcde"[: rng.randint(1, 5)]]
        variables = [Var(f"V{k}") for k in range(rng.randint(0, 4))]
        pool = atoms + variables

        def side():
            return xor_of([rng.choice(pool) for _ in range(rng.randint(1, 4))])

        problems = [Problem(side(), side()) for _ in range(rng.randint(1, 2))]
        sigma = unify_acun(problems)
        assert (sigma is not None) == _brute_force(problems)
        if sigma is not None:
            assert sigma.is_idempotent()
            for p in problems:
                assert equal_mod(sigma.apply(p.lhs), sigma.apply(p.rhs), Theory.ACUN)

    @given(st.integers(0, 10_000))
    def test_ground_completeness(self, seed):
        rng = random.Random(seed ^ 0xACE)
        atoms = [Const(c) for c in "abc"]

        def side():
            return xor_of([rng.choice(atoms) for _ in range(rng.randint(1, 4))])

        p = Problem(side(), side())
        assert (unify_acun([p]) is not None) == equal_mod(p.lhs, p.rhs, Theory.ACUN)

    @given(st.integers(0, 10_000))
    def test_self_cancellation(self, seed):
        rng = random.Random(seed ^ 0xBEEF)
        pool = [Const("a"), Const("b"), Var("X"), Var("Y")]
        t = xor_of([rng.choice(pool) for _ in range(rng.randint(1, 5))])
        assert unify_acun([Problem(t, t)]) == Substitution()


class TestGf2System:
    def test_same_input_same_matrix(self):
        problems = [prob("xor(X, a, Y)", "b"), prob("Y", "xor(a, b)")]
        assert build_gf2_system(problems) == build_gf2_system(problems)

    def test_shape(self):
        system = build_gf2_system([prob("xor(X, a)", "b")])
        assert system.variables == ("X",)
        assert [c.name for c in system.atoms] == ["a", "b"]
        assert system.rows == ((1, 3),)
