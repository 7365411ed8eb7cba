import itertools
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from taggedunify.acun import build_gf2_system, unify_acun
from taggedunify.terms import (
    Const,
    Problem,
    Theory,
    Var,
    acun_normal_form,
    equal_mod,
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
    xor unification with free constants."""
    from taggedunify.terms import interm_occurrences

    names = sorted(problem_vars(problems))
    atoms = sorted(
        {
            u
            for p in problems
            for side in (p.lhs, p.rhs)
            for u in interm_occurrences(side)
            if isinstance(u, Const)
        },
        key=lambda c: c.name,
    )
    pool = [
        acun_normal_form(xor_of(c))
        for size in range(len(atoms) + 1)
        for c in itertools.combinations(atoms, size)
    ]
    if not names:
        return all(equal_mod(p.lhs, p.rhs, Theory.ACUN) for p in problems)
    for values in itertools.product(pool, repeat=len(names)):
        sigma = Substitution(dict(zip(names, values)))
        if all(equal_mod(sigma.apply(p.lhs), sigma.apply(p.rhs), Theory.ACUN) for p in problems):
            return True
    return False


class TestExamples:
    def test_constant_shift(self):
        # check derived by applying then normalizing: (a+b)+a normalizes to b
        (sigma,) = unify_acun([prob("xor(X, a)", "b")])
        assert sigma.bindings == {"X": parse_term("xor(a, b)")}
        assert acun_normal_form(sigma.apply(parse_term("xor(X, a)"))) == Const("b")

    def test_ground_mismatch(self):
        # the grounded split of the worked example: w against xor(x, y, y)
        assert unify_acun([prob("w", "xor(x, y, y)")]) == []

    def test_self_occurrence_cancels_to_inconsistency(self):
        assert unify_acun([prob("X", "xor(X, a)")]) == []

    def test_rejects_standard_heads(self):
        with pytest.raises(ImpureTermError):
            unify_acun([prob("xor([1, a], X)", "b")])

    def test_zero_contributes_nothing(self):
        (sigma,) = unify_acun([prob("X", "xor(a, 0)")])
        assert sigma.bindings == {"X": Const("a")}

    def test_joint_system(self):
        got = unify_acun([prob("xor(X, a)", "b"), prob("xor(X, Y)", "a")])
        assert len(got) == 1
        s = got[0]
        assert acun_normal_form(s.apply(parse_term("xor(X, Y)"))) == Const("a")

    def test_fresh_parameters_avoid_input_names(self):
        (sigma,) = unify_acun([prob("xor(X, _f1)", "a")])
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
        result = unify_acun(problems)
        assert (len(result) > 0) == _brute_force(problems)
        for sigma in result:
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
        assert bool(unify_acun([p])) == equal_mod(p.lhs, p.rhs, Theory.ACUN)

    @given(st.integers(0, 10_000))
    def test_self_cancellation(self, seed):
        rng = random.Random(seed ^ 0xBEEF)
        pool = [Const("a"), Const("b"), Var("X"), Var("Y")]
        t = xor_of([rng.choice(pool) for _ in range(rng.randint(1, 5))])
        assert unify_acun([Problem(t, t)]) == [Substitution()]


class TestGf2System:
    def test_same_input_same_matrix(self):
        problems = [prob("xor(X, a, Y)", "b"), prob("Y", "xor(a, b)")]
        assert build_gf2_system(problems) == build_gf2_system(problems)

    def test_shape(self):
        system = build_gf2_system([prob("xor(X, a)", "b")])
        assert system.variables == ("X",)
        assert [c.name for c in system.atoms] == ["a", "b"]
        assert system.rows == ((1, 3),)
