#!/usr/bin/env python3
"""Walk the combination pipeline on the worked key-exchange example,
printing each intermediate state, then show the tagging table in action.

Usage: python scripts/walk_worked_example.py
"""

from taggedunify.bsca import (
    node_bound,
    purify_terms,
    solve_systems,
    split_problems,
    unify_combined,
    variable_identifications,
)
from taggedunify.dnut import dnut_check, dnut_tag
from taggedunify.terms import Problem, problem_vars
from taggedunify.textfmt import parse_term, render_substitution, render_term


def show(label, problems):
    print(f"{label}:")
    for p in problems:
        print(f"  {render_term(p.lhs)} ~? {render_term(p.rhs)}")


def main() -> None:
    gamma0 = [
        Problem(
            parse_term("penc([1, n_a], pk(B))"),
            parse_term("penc([1, N_B], pk(a)) + [2, A] + [2, b]"),
        )
    ]
    show("input", gamma0)

    gamma1 = purify_terms(gamma0)
    introduced = problem_vars(gamma1) - problem_vars(gamma0)
    show("\nstep 1, purified terms (fresh: %s)" % ", ".join(sorted(introduced)), gamma1)

    print("\nstep 3, two variable identifications of interest:")
    exhibited = (("A",), ("B",), ("N_B",), ("W",), ("X",), ("Y", "Z"))
    succeeding = (("A",), ("B",), ("N_B",), ("W", "X"), ("Y", "Z"))
    # the per-partition precheck, one GF(2) system and one set of standard
    # bindings extended at each variable's assignment; the enumeration cuts
    # a partition's subtree at the first assignment that makes either fail
    bound = node_bound(gamma1)
    for target in (exhibited, succeeding):
        for partition, gamma3 in variable_identifications(gamma1):
            if partition != target:
                continue
            print(f"\n  partition {partition}:")
            cut = bound.cut_at(partition)
            verdict = "passes" if cut is None else f"fails, subtree cut at {cut}"
            print(f"  precheck: {verdict}")
            g41, g42 = split_problems(gamma3)
            show("  standard problems", g41)
            show("  xor problems", g42)
            for attempt in solve_systems(g41, g42):
                if attempt.v2:
                    continue
                print(f"  grounding replacement: {attempt.beta}")
                show("  grounded xor problems", attempt.gamma52)
                s1 = "ok" if attempt.sigma1 is not None else "fails"
                s2 = "ok" if attempt.sigma2 is not None else "fails"
                print(f"  standard solver {s1}, xor solver {s2}")
            break

    result = unify_combined(gamma0)
    print("\nfinal unifiers:")
    for sigma in result.unifiers:
        print(f"  {render_substitution(sigma)}")

    print("\n--- tagging the four-step protocol ---")
    messages = [
        parse_term("[A, B]"),
        parse_term("[N_B, B] + penc([N_B, A], pk(A))"),
        parse_term("A + N_B + penc(A + N_B, pk(B)) + senc(N_A, N_B)"),
        parse_term("penc([N_A + N_B, A, B], pk(A)) + senc([N_A + A, N_B + B], N_A + N_B)"),
    ]
    report = dnut_check(messages)
    print(f"untagged protocol: {len(report.violations)} violations")
    tagged = dnut_tag(messages)
    for m in tagged:
        print(f"  {render_term(m)}")
    print(f"tagged protocol satisfied: {dnut_check(tagged).satisfied}")


if __name__ == "__main__":
    main()
