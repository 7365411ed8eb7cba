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

Arguments are read by :func:`parse_args` from one table, :data:`COMMANDS`,
by the rules of the argparse parser it replaced, which the tests keep as
the reference: loading ``argparse``, with the ``gettext`` and ``locale`` it
imports, and building that parser took about 4 ms of each call.  ``-h`` or
``--help`` prints :data:`USAGE` to stdout, and a usage error prints a
``usage:`` line and a ``taggedunify: error:`` line to stderr.  Both return
from :func:`main`, with 0 and 2, so :func:`run`'s flush covers them too.

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

import gc
import os
import re
import sys
from types import SimpleNamespace
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

# the help text, and the CLI block of README.md word for word
USAGE = """\
taggedunify unify [FILE|-] [-e TEXT] [--theory std|acun|free-xor|combined]
                  [--format text|json] [--explain]
taggedunify dnut check|tag [FILE|-] [-e TEXT] [--format text|json]
taggedunify prove-theorem [--samples N] [--seed S] [--depth D]
                          [--population both|non-variables|with-sequences|no-sequences]
                          [--format text|json]
taggedunify parse [FILE|-] [-e TEXT]
"""


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


def _read_input(args: SimpleNamespace) -> str:
    if args.expr is not None:
        return args.expr
    if args.input == "-":
        return sys.stdin.read()
    with open(args.input, "r", encoding="utf-8") as fh:
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


def cmd_unify(args: SimpleNamespace) -> int:
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


def cmd_dnut(args: SimpleNamespace) -> int:
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
        print(render_problem_file(ProblemFile(terms=bare, sets=tagged)), end="")
    return EXIT_OK


def cmd_prove_theorem(args: SimpleNamespace) -> int:
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


def cmd_parse(args: SimpleNamespace) -> int:
    print(render_problem_file(parse_problem_file(_read_input(args))), end="")
    return EXIT_OK


class UsageError(Exception):
    """The arguments do not match :data:`COMMANDS`."""


def cmd_help(args: SimpleNamespace) -> int:
    print(USAGE, end="")
    return EXIT_OK


_FORMAT = {"--format": (("text", "json"), "text")}
_INPUT = {"--expr": (str, None), **_FORMAT}

# each command's handler and options, an option's kind (bool for a switch,
# int, str for text, or its choices) and default; a command with --expr (-e)
# also takes one input path, "-" (stdin) by default
COMMANDS = {
    "unify": (cmd_unify, {**_INPUT, "--theory": (tuple(t.value for t in Theory), None),
                          "--explain": (bool, False)}),
    "dnut check": (cmd_dnut, _INPUT),
    "dnut tag": (cmd_dnut, _INPUT),
    "prove-theorem": (cmd_prove_theorem, {
        "--samples": (int, 10_000), "--seed": (int, 0), "--depth": (int, 3),
        "--population": (("both", "non-variables", "with-sequences", "no-sequences"), "both"),
        **_FORMAT}),
    "parse": (cmd_parse, {"--expr": (str, None)}),
}
_SHORT = {"-h": "--help", "-e": "--expr"}


def _option(arg: str, names: Sequence[str]) -> tuple[str, str | None] | None:
    """None if ``arg`` is a word, else its option's long name among
    ``names`` (``arg`` itself if unknown) and the value attached to it
    (``--opt=VALUE``, ``-eVALUE``, ``-e=VALUE``) or None.  A unique prefix
    of a long option stands for it."""
    if arg in ("-", "--") or not arg.startswith("-"):
        return None
    if arg.startswith("--"):
        name, eq, value = arg.partition("=")
        found = [name] if name in names else [n for n in names if n.startswith(name)]
        if len(found) > 1:
            raise UsageError(f"ambiguous option: {name} could match {', '.join(found)}")
        if found:
            return found[0], value if eq else None
    elif _SHORT.get(arg[:2]) in names:
        value = arg[2:]
        return _SHORT[arg[:2]], value[1:] if value.startswith("=") else value or None
    # a negative number is a word; the pattern is compiled only if one comes
    if re.match(r"^-\d+$|^-\d*\.\d+$", arg) or " " in arg:
        return None
    return arg, None


def _help(name: str, value: str | None) -> SimpleNamespace:
    if value is not None:
        raise UsageError(f"argument {name}: ignored explicit argument {value!r}")
    return SimpleNamespace(func=cmd_help)


def parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """The command's handler as ``func`` and each option's value under its
    name without dashes, with ``input`` and ``action`` where the command
    has them; ``func`` is :func:`cmd_help` if ``-h`` comes before any error.
    Raises :class:`UsageError`.

    The rules are argparse's for the parser this table replaced: every
    argument's kind is read before any is taken, so an ambiguous prefix is
    an error even after ``-h``; an option's value must be a word; after a
    first ``--`` every argument is a word; the input is the one word of the
    first run of words between options; an unknown option and any other
    word are errors only at the end."""
    rest, path, unknown = list(argv), [], []
    while " ".join(path) not in COMMANDS:
        if not rest:
            raise UsageError(
                f"the following arguments are required: {'action' if path else 'command'}")
        arg = rest.pop(0)
        name, value = _option(arg, ("--help",)) or (None, arg)
        if name == "--help":
            return _help(name, value)
        if name:
            unknown.append(arg)
            continue
        choices = {c.split()[len(path)]: None for c in COMMANDS if c.split()[:len(path)] == path}
        if arg not in choices:
            raise UsageError(f"invalid choice: {arg!r} (choose from {', '.join(choices)})")
        path.append(arg)
    func, options = COMMANDS[" ".join(path)]
    values = {name[2:]: default for name, (_, default) in options.items()}
    if "--expr" in options:
        values["input"] = "-"
    if len(path) > 1:
        values["action"] = path[1]

    cut = rest.index("--") if "--" in rest else len(rest)
    tokens = [_option(arg, ("--help", *options)) or (None, arg) for arg in rest[:cut]]
    runs, loose, words = 0, [], []  # runs of words between options, and their words
    i, in_run = 0, False
    while i < len(tokens):
        name, value = tokens[i]
        i += 1
        runs += name is None and not in_run
        in_run = name is None
        if name is None:
            loose.append(value)
            words.append(value)
        elif name == "--help":
            return _help(name, value)
        elif name not in options:
            unknown.append(name)
        elif options[name][0] is bool:
            if value is not None:
                raise UsageError(f"argument {name}: ignored explicit argument {value!r}")
            values[name[2:]] = True
        else:
            kind = options[name][0]
            if value is None:
                if i == len(tokens) or tokens[i][0] is not None:
                    raise UsageError(f"argument {name}: expected one argument")
                value = tokens[i][1]
                i += 1
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    raise UsageError(f"argument {name}: invalid int value: {value!r}") from None
            elif kind is not str and value not in kind:
                raise UsageError(f"argument {name}: invalid choice: {value!r}")
            values[name[2:]] = value
    if cut < len(rest):  # "--" and the words after it continue or start a run
        runs += not in_run
        loose += rest[cut:]
        words += rest[cut + 1:]
    if runs > ("input" in values) or len(words) > 1:
        unknown += loose
    elif words:
        values["input"] = words[0]
    if unknown:
        raise UsageError(f"unrecognized arguments: {' '.join(unknown)}")
    return SimpleNamespace(func=func, **values)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage: taggedunify {'|'.join(COMMANDS)} ... (--help lists the options)",
              f"taggedunify: error: {exc}", sep="\n", file=sys.stderr)
        return EXIT_INPUT
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
