"""Acceptance suite: every criterion as one test, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
summary lines as they happen).  The heavyweight checks (the 10^4-protocol
harness, the 10^3-problem oracle agreement) run here and nowhere else.
"""

import random
import time

from taggedunify.acun import unify_acun
from taggedunify.bsca import (
    BscaConfig,
    purify_terms,
    solve_systems,
    split_problems,
    unify_combined,
    variable_identifications,
)
from taggedunify.cli import main
from taggedunify.dnut import dnut_check, dnut_tag
from taggedunify.oracle import (
    GenConfig,
    check_theorem,
    gen_problem,
    gen_untagged_set,
    ground_unifiable,
    run_harness,
    _rng_for,
    gen_message,
)
from taggedunify.terms import (
    ZERO,
    Const,
    Problem,
    Theory,
    Var,
    Xor,
    acun_normal_form,
    problem_vars,
    xor_of,
)
from taggedunify.textfmt import parse_substitution, parse_term
from taggedunify.unify import ImpureTermError, unify_std
from test_dnut import tags_bijection


def ok(line: str) -> None:
    print(f"PASS {line}")


def worked_example() -> list[Problem]:
    return [
        Problem(
            parse_term("penc([1, n_a], pk(B))"),
            parse_term("penc([1, N_B], pk(a)) + [2, A] + [2, b]"),
        )
    ]


def prob(lhs: str, rhs: str) -> Problem:
    return Problem(parse_term(lhs), parse_term(rhs))


def test_c1_golden_pipeline_steps():
    t0 = time.perf_counter()
    gamma1 = purify_terms(worked_example())
    assert gamma1 == [
        prob("W", "penc([1, n_a], pk(B))"),
        prob("X", "penc([1, N_B], pk(a))"),
        prob("Y", "[2, A]"),
        prob("Z", "[2, b]"),
        prob("W", "xor(X, Y, Z)"),
    ]
    assert problem_vars(gamma1) - problem_vars(worked_example()) == {"W", "X", "Y", "Z"}

    exhibited = (("A",), ("B",), ("N_B",), ("W",), ("X",), ("Y", "Z"))
    gamma3 = None
    for partition, g3 in variable_identifications(gamma1):
        if partition == exhibited:
            gamma3 = g3
            break
    assert gamma3 is not None
    g41, g42 = split_problems(gamma3)
    assert g41 == [
        prob("W", "penc([1, n_a], pk(B))"),
        prob("X", "penc([1, N_B], pk(a))"),
        prob("Y", "[2, A]"),
        prob("Y", "[2, b]"),
    ]
    assert g42 == [prob("W", "xor(X, Y, Y)")]

    (all_v1,) = [a for a in solve_systems(g41, g42) if not a.v2]
    assert all_v1.beta == {"W": "w", "X": "x", "Y": "y"}
    assert all_v1.gamma52 == [prob("w", "xor(x, y, y)")]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    ok(f"criterion 1: purification, split and beta reproduce the worked example ({elapsed:.3f}s)")


def test_c2_end_to_end_combined_unifier(capsys):
    t0 = time.perf_counter()
    result = unify_combined(worked_example())
    expected = parse_substitution("{ b/A, a/B, n_a/N_B }")
    assert expected in result.unifiers
    for sigma in result.unifiers:
        for p in worked_example():
            lhs = acun_normal_form(sigma.apply(p.lhs))
            rhs = acun_normal_form(sigma.apply(p.rhs))
            assert lhs == rhs
    # ground oracle confirms unifiability independently
    assert ground_unifiable(worked_example(), Theory.COMBINED, GenConfig())
    # and the same through the CLI
    code = main(
        [
            "unify",
            "-e",
            "penc([1, n_a], pk(B)) ~? penc([1, N_B], pk(a)) + [2, A] + [2, b]",
            "--theory",
            "combined",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0 and "{ b/A, a/B, n_a/N_B }" in out
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    ok(f"criterion 2: end-to-end combined unification of the worked example ({elapsed:.2f}s)")


def test_c3_theorem_harness_ten_thousand_protocols():
    t0 = time.perf_counter()
    cfg = GenConfig(seed=20_260_809, samples=10_000)
    report = run_harness(cfg)
    elapsed = time.perf_counter() - t0
    assert report.counterexamples == []
    assert report.counterexamples_nonseq == 0
    assert report.incomplete == []
    assert report.pairs_total >= 10_000
    ok(
        "criterion 3: 10^4 tagged protocols, "
        f"{report.pairs_total} pairs ({report.combined_unifiable_pairs} combined-unifiable), "
        f"zero counterexamples, zero incomplete ({elapsed:.1f}s)"
    )


def test_c4_negative_control_untagged_sets():
    cfg = GenConfig(seed=31)
    equational_only = 0
    for i in range(100):
        report = check_theorem(gen_untagged_set(cfg, i))
        equational_only += len(report.premise_fail_equational)
        equational_only += len(report.counterexamples)
    assert equational_only >= 1
    # the canonical shape is among them conceptually: verify it directly
    pair = [prob("xor(a, X)", "xor(b, Y)")]
    assert unify_combined(pair, BscaConfig(first_only=True)).unifiers
    from taggedunify.oracle import free_unifiable

    assert not free_unifiable(pair)
    ok(
        "criterion 4: 100 untagged sets yield "
        f"{equational_only} pairs unifiable only equationally"
    )


ORIGINAL_PROTOCOL = [
    "[A, B]",
    "[N_B, B] + penc([N_B, A], pk(A))",
    "A + N_B + penc(A + N_B, pk(B)) + senc(N_A, N_B)",
    "penc([N_A + N_B, A, B], pk(A)) + senc([N_A + A, N_B + B], N_A + N_B)",
]

TAGGED_COLUMN = [
    "[A, B]",
    "[2.1, N_B, B] + [2.2, penc([N_B, A], pk(A))]",
    "[3.1, A] + [3.2, N_B] + [3.3, penc([3.3.1, A] + [3.3.2, N_B], pk(B))] + [3.4, senc(N_A, N_B)]",
    "[4.1, penc([[4.1.1, N_A] + [4.1.2, N_B], A, B], pk(A))] + "
    "[4.2, senc([[4.2.1, N_A] + [4.2.2, A], [4.3.1, N_B] + [4.3.2, B]], [4.4.1, N_A] + [4.4.2, N_B])]",
]


def test_c5_tagging_table_golden():
    t0 = time.perf_counter()
    original = [parse_term(s) for s in ORIGINAL_PROTOCOL]
    printed = [parse_term(s) for s in TAGGED_COLUMN]

    report = dnut_check(original)
    assert not report.satisfied and report.violations
    assert dnut_check(printed).satisfied

    tagged = dnut_tag(original)
    assert dnut_check(tagged).satisfied
    assert tags_bijection(tagged, printed) is not None
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    ok(
        "criterion 5: untagged table column fails "
        f"({len(report.violations)} witnesses), tagged column and tagger output pass "
        f"({elapsed:.3f}s)"
    )


def test_c6_solver_oracle_agreement_thousand_problems():
    t0 = time.perf_counter()
    cfg = GenConfig(seed=61)
    caps = BscaConfig(first_only=True, keep_traces=False)
    disagreements = 0
    std_checked = acun_checked = combined_checked = 0

    for i in range(1_000):
        problems = gen_problem(cfg, i)
        combined = bool(unify_combined(problems, caps).unifiers)
        if combined != ground_unifiable(problems, Theory.COMBINED, cfg):
            disagreements += 1
        combined_checked += 1
        try:
            std = unify_std(problems) is not None
        except ImpureTermError:
            std = None
        if std is not None:
            std_checked += 1
            if std != ground_unifiable(problems, Theory.STD, cfg):
                disagreements += 1

    rng = random.Random(77)
    pool = [Const("a"), Const("b"), Const("c"), Var("X"), Var("Y")]
    while acun_checked < 1_000:
        side = lambda: xor_of([rng.choice(pool) for _ in range(rng.randint(1, 4))])
        problems = [Problem(side(), side())]
        if (unify_acun(problems) is not None) != ground_unifiable(problems, Theory.ACUN, cfg):
            disagreements += 1
        acun_checked += 1

    assert disagreements == 0
    elapsed = time.perf_counter() - t0
    ok(
        "criterion 6: zero solver/oracle disagreements "
        f"(combined {combined_checked}, std {std_checked}, xor {acun_checked}; {elapsed:.1f}s)"
    )


def test_c7_normal_form_bulk_properties():
    t0 = time.perf_counter()
    cfg = GenConfig(seed=99)
    rng = random.Random(99)
    failures = 0
    for i in range(10_000):
        t = gen_message(_rng_for(cfg, i), cfg)
        n = acun_normal_form(t)
        if acun_normal_form(n) != n:
            failures += 1
        if acun_normal_form(Xor((t, t))) != ZERO:
            failures += 1
        if acun_normal_form(Xor((t, ZERO))) != n:
            failures += 1
        if isinstance(t, Xor):
            items = list(t.items)
            rng.shuffle(items)
            if acun_normal_form(Xor(tuple(items))) != n:
                failures += 1
    assert failures == 0
    elapsed = time.perf_counter() - t0
    ok(f"criterion 7: normal-form laws on 10^4 random terms, zero failures ({elapsed:.1f}s)")


def test_c8_tagged_homomorphic_style_problem_stays_ununifiable(capsys):
    code = main(["unify", "-e", "[1, A] ~? xor([3, a], [6, b], [4, C]) @combined"])
    out = capsys.readouterr().out
    assert code == 1
    assert "not unifiable" in out
    assert unify_combined([prob("[1, A]", "xor([3, a], [6, b], [4, C])")]).unifiers == []
    ok("criterion 8: the tag-arithmetic boundary problem reports not unifiable")
