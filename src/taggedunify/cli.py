"""Command-line front end.

Subcommands: ``unify``, ``dnut check``, ``dnut tag``, ``prove-theorem`` and
``parse`` (round-trip debug).  Input is a path, ``-`` for stdin, or inline
text via ``-e``.  Exit codes: 0 success/unifiable/satisfied, 1 negative
result, 2 input error (also an ``OSError`` in any subcommand, reading or
writing), 3 enumeration caps hit or unifiers whose text exceeds
:data:`MAX_OUTPUT_CHARS`.  :func:`main` maps errors to exit codes, all but
output nested too deeply to render, which :func:`cmd_unify` maps to 2 itself
so that :func:`main` does not blame the input.

The environment variable ``TAGGEDUNIFY_CAPS`` overrides enumeration caps,
e.g. ``TAGGEDUNIFY_CAPS="partition-vars=12,branches=50000"``.

A process loads only the layers its subcommand runs: ``terms``, ``textfmt``
and ``unify`` load with this module, and any other name is looked up on the
package, whose export table loads its module on first access (``dnut`` adds
``dnut``, ``unify`` ``acun`` and ``bsca``, ``prove-theorem`` all).  Commands
read these deferred names off the module object, so a wrapper set on this
module (a tracer's, say) is what runs.  ``json`` loads only with the first
JSON line written (``--format json`` and the ``--explain`` traces).

:func:`run` is the process entry, for ``python -m`` and the ``taggedunify``
script.  It flushes stdout itself, so that a write error there exits 2 as
well, and then freezes every object the call made (``gc.freeze()``): the
interpreter's final collection would otherwise walk them all only to end
the process, a few ms of each call.  :func:`main` never freezes, as tests,
the benchmark and library callers go on using their heaps after it.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import Sequence

from .terms import Problem, Theory
from .textfmt import (
    ParseError,
    ProblemFile,
    jsonable,
    parse_problem_file,
    render_problem_file,
    render_substitution,
    render_term,
    rendered_length,
    substitution_to_jsonable,
)
from .unify import ChoiceSpaceExceeded, ImpureTermError, Substitution, unify_free_xor, unify_std


def __getattr__(name: str):
    return getattr(sys.modules[__package__], name)


_cli = sys.modules[__name__]  # this module, also when run as __main__

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_CAPS = 3

# the most characters of terms the printed substitutions of one unify call
# may hold: a unifier is a DAG whose text can double with each variable
MAX_OUTPUT_CHARS = 1_000_000


class OutputTooLarge(Exception):
    """The text of the substitutions to print exceeds :data:`MAX_OUTPUT_CHARS`."""


_CAP_KEYS = {
    "partition-vars": "max_partition_vars",
    "branches": "max_branches",
}


def caps_from_env(base: BscaConfig | None = None) -> BscaConfig:
    base = base or _cli.BscaConfig()
    raw = os.environ.get("TAGGEDUNIFY_CAPS", "").strip()
    if not raw:
        return base
    overrides = {}
    for part in raw.split(","):
        if not part.strip():
            continue
        try:
            key, value = part.split("=", 1)
            cap = int(value)
            if cap < 0:
                raise ValueError(f"negative cap {cap}")
            overrides[_CAP_KEYS[key.strip()]] = cap
        except (ValueError, KeyError) as exc:
            raise ValueError(f"bad TAGGEDUNIFY_CAPS entry {part!r}") from exc
    return base.replace(**overrides)


def _read_input(args: argparse.Namespace) -> str:
    if args.expr is not None:
        return args.expr
    path = getattr(args, "input", None)
    if path in (None, "-"):
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _check_output_size(substitutions: Sequence[Substitution]) -> None:
    """Raise :class:`OutputTooLarge` before any of ``substitutions`` is
    rendered if their terms' text would exceed :data:`MAX_OUTPUT_CHARS`."""
    memo: dict[int, int] = {}
    size = sum(rendered_length(t, memo) for s in substitutions for t in s.bindings.values())
    if size > MAX_OUTPUT_CHARS:
        raise OutputTooLarge(
            f"output too large: the substitutions' terms take {size} characters, "
            f"more than the output cap of {MAX_OUTPUT_CHARS}"
        )


def _json_line(value: object) -> str:
    """``value`` as one line of JSON with sorted keys.  ``json`` is imported
    here, so a call that writes only text never loads it."""
    import json

    return json.dumps(value, sort_keys=True)


def _problems_and_theory(pf: ProblemFile, flag: str | None) -> tuple[list[Problem], Theory]:
    if not pf.entries:
        raise ValueError("no unification entries in input")
    if flag is not None:
        theory = Theory(flag)
    else:
        theories = {e.theory for e in pf.entries}
        if len(theories) > 1:
            raise ValueError(
                "entries carry different theories; pass --theory to pick one"
            )
        theory = theories.pop()
    return [e.problem for e in pf.entries], theory


def cmd_unify(args: argparse.Namespace) -> int:
    pf = parse_problem_file(_read_input(args))
    problems, theory = _problems_and_theory(pf, args.theory)
    caps = caps_from_env()
    if theory is Theory.COMBINED:
        # traces are kept only for --explain, so they are printed whenever kept
        result = _cli.unify_combined(problems, caps.replace(keep_traces=args.explain))
        unifiers, traces = result.unifiers, result.traces
    else:
        solver = {Theory.STD: unify_std, Theory.FREE_XOR: unify_free_xor,
                  Theory.ACUN: _cli.unify_acun}
        sigma = solver[theory](problems)
        unifiers, traces = ([] if sigma is None else [sigma]), []
    printed = [s for t in traces for s in (t.sigma1, t.sigma2, t.combined) if s is not None]
    # every line is rendered before any is printed, so a failure prints none
    try:
        _check_output_size(unifiers + printed)
        if args.format == "json":
            dicts = ({"unifier": substitution_to_jsonable(sigma)} for sigma in unifiers)
            lines = [_json_line(d) for d in dicts]
        else:
            lines = [render_substitution(sigma) for sigma in unifiers] or ["not unifiable"]
        lines += [_json_line(jsonable(trace)) for trace in traces]
    except RecursionError:
        print("error: output nested too deeply to render", file=sys.stderr)
        return EXIT_INPUT
    for line in lines:
        print(line)
    return EXIT_OK if unifiers else EXIT_NEGATIVE


def cmd_dnut(args: argparse.Namespace) -> int:
    pf = parse_problem_file(_read_input(args))
    # the bare terms form the anonymous set "", which no set block can be named
    sets = ({"": pf.terms} if pf.terms else {}) | pf.sets

    if args.action == "check":
        all_ok = True
        for name, terms in sets.items():
            report = _cli.dnut_check(terms)
            all_ok &= report.satisfied
            if args.format == "json":
                print(_json_line({"set": name, **jsonable(report)}))
            else:
                print(f"{name}: {report.to_text()}" if name else report.to_text())
        return EXIT_OK if all_ok else EXIT_NEGATIVE

    # tag: retag every set's messages in order, preserving the input shape
    tagged = {name: _cli.dnut_tag(terms) for name, terms in sets.items()}
    if args.format == "json":
        for name, terms in tagged.items():
            rendered = [render_term(t) for t in terms]
            print(_json_line({"set": name, "terms": rendered}))
    else:
        bare = tagged.pop("", [])
        sys.stdout.write(render_problem_file(ProblemFile(terms=bare, sets=tagged)))
    return EXIT_OK


def cmd_prove_theorem(args: argparse.Namespace) -> int:
    cfg = _cli.GenConfig(seed=args.seed, samples=args.samples, max_depth=args.depth)
    caps = caps_from_env(_cli.oracle.HARNESS_CAPS)
    population = {"with-sequences": "non-variables"}.get(args.population, args.population)
    report = _cli.run_harness(cfg, caps, population)
    if args.format == "json":
        print(_json_line(report.to_jsonable()))
    else:
        j = report.to_jsonable()
        print(f"samples: {j['samples']}  seed: {j['seed']}  pairs: {j['pairs_total']}")
        print(
            f"combined-unifiable pairs: {j['combined_unifiable_pairs']}  "
            f"free-unifiable pairs: {j['free_unifiable_pairs']}"
        )
        print(f"counterexamples (population {population}): {len(report.counterexamples)}")
        print(
            "counterexamples, order-insensitive xor variant: "
            f"{report.counterexamples_unordered_variant}"
        )
        print(f"incomplete pairs (caps hit): {len(report.incomplete)}")
    if report.incomplete:
        return EXIT_CAPS
    return EXIT_OK if not report.counterexamples else EXIT_NEGATIVE


def cmd_parse(args: argparse.Namespace) -> int:
    sys.stdout.write(render_problem_file(parse_problem_file(_read_input(args))))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="taggedunify",
        description="Equational unification with xor, disjoint-theory "
        "combination, and the DNUT tagging tools.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_input(p: argparse.ArgumentParser) -> None:
        p.add_argument("input", nargs="?", default="-", help="input path, or - for stdin")
        p.add_argument("-e", "--expr", help="inline input text instead of a path")

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_unify = sub.add_parser("unify", help="unify the entries of a problem file")
    add_input(p_unify)
    add_format(p_unify)
    p_unify.add_argument(
        "--theory",
        choices=[t.value for t in Theory],
        help="override the theory of all entries",
    )
    p_unify.add_argument(
        "--explain", action="store_true", help="dump per-branch trace JSON (combined only)"
    )
    p_unify.set_defaults(func=cmd_unify)

    p_dnut = sub.add_parser("dnut", help="check or apply the tagging discipline")
    dnut_sub = p_dnut.add_subparsers(dest="action", required=True)
    for action, text in (("check", "check the conditions"), ("tag", "retag each set")):
        p_action = dnut_sub.add_parser(action, help=text)
        add_input(p_action)
        add_format(p_action)
        p_action.set_defaults(func=cmd_dnut)

    p_thm = sub.add_parser(
        "prove-theorem", help="run the tagged-protocol harness and report counterexamples"
    )
    p_thm.add_argument("--samples", type=int, default=10_000)
    p_thm.add_argument("--seed", type=int, default=0)
    p_thm.add_argument("--depth", type=int, default=3, help="generator depth bound")
    p_thm.add_argument(
        "--population",
        choices=("both", "non-variables", "with-sequences", "no-sequences"),
        default="both",
        help="which pairs count (with-sequences is an alias of non-variables)",
    )
    add_format(p_thm)
    p_thm.set_defaults(func=cmd_prove_theorem)

    p_parse = sub.add_parser("parse", help="parse input and print its canonical rendering")
    add_input(p_parse)
    p_parse.set_defaults(func=cmd_parse)

    return top


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ImpureTermError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (OutputTooLarge, ChoiceSpaceExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPS
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return EXIT_INPUT


def run() -> int:
    """The process entry: :func:`main`, the flush of stdout, then
    ``gc.freeze()`` (see the module docstring).  Only a process that ends
    next may call it."""
    code = main()
    try:
        if sys.stdout is not None:  # None if the process began with fd 1 closed
            sys.stdout.flush()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # what stays buffered goes to the null device at exit, so the
        # interpreter's own flush cannot fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = EXIT_INPUT
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())
