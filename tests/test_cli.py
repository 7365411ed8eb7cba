"""Every golden example is exercised through the CLI, not only the library."""

import argparse
import ast
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import taggedunify
from strategies import terms
from taggedunify import cli
from taggedunify.cli import MAX_OUTPUT_CHARS, main
from taggedunify.terms import Theory
from taggedunify.textfmt import render_term

WORKED_EXAMPLE = "penc([1, n_a], pk(B)) ~? penc([1, N_B], pk(a)) + [2, A] + [2, b]"

# the --explain trace fields, as docs/format.md lists them
TRACE_KEYS = {
    "gamma0", "gamma1", "gamma2", "var_id_partition", "gamma3", "gamma41", "gamma42",
    "var_split", "beta", "gamma51", "gamma52", "linear_order", "sigma1", "sigma2",
    "combined",
}


ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "golden"


def fresh_cli(*argv, caps=None, env_drop=(), stdout=subprocess.PIPE, preexec_fn=None):
    """``python -m taggedunify.cli *argv`` in a new process at the repo root;
    ``preexec_fn`` runs in the child before the interpreter starts."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("TAGGEDUNIFY_CAPS", None)
    if caps is not None:
        env["TAGGEDUNIFY_CAPS"] = caps
    for name in env_drop:
        env.pop(name, None)
    return subprocess.run(
        [sys.executable, "-m", "taggedunify.cli", *argv],
        cwd=ROOT, env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60,
        preexec_fn=preexec_fn,
    )


def run(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUnify:
    def test_trivial_std(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "unify", stdin="a ~? a @std\n", monkeypatch=monkeypatch)
        assert code == 0
        assert out.strip() == "{}"

    def test_tagged_pair_not_std_unifiable(self, capsys):
        code, out, _ = run(capsys, "unify", "-e", "[1, a] ~? [2, b] @std")
        assert code == 1
        assert "not unifiable" in out

    def test_worked_example_combined(self, capsys):
        code, out, _ = run(capsys, "unify", "-e", WORKED_EXAMPLE, "--theory", "combined")
        assert code == 0
        assert "{ b/A, a/B, n_a/N_B }" in out
        # the representative of an identified pair stays unbound
        code, out, _ = run(capsys, "unify", "-e", "[X, Y] ~? [Y, X] @combined")
        assert (code, out) == (0, "{ X/Y }\n")

    def test_explain_dumps_trace_json(self, capsys):
        code, out, _ = run(
            capsys, "unify", "-e", WORKED_EXAMPLE, "--theory", "combined", "--explain"
        )
        assert code == 0
        trace_lines = [l for l in out.splitlines() if l.startswith('{"')]
        assert trace_lines
        for line in trace_lines:
            assert set(json.loads(line)) == TRACE_KEYS

    def test_invented_variables_of_both_kinds(self, capsys):
        # docs/format.md, "Substitutions": a purification variable (X) and an
        # xor solution parameter (_f1) can both stay in a combined unifier
        code, out, _ = run(capsys, "unify", "-e", "X1 ~? [c, xor(a, Y1)] @combined")
        assert code == 0
        assert out.splitlines() == [
            "{ [c, a]/X1, 0/Y1 }",
            "{ [c, 0]/X1, a/Y1 }",
            "{ [c, X]/X1, xor(a, X)/Y1 }",
            "{ [c, xor(a, _f1)]/X1, _f1/Y1 }",
        ]

    def test_xor_parameters_avoid_input_variables(self, capsys):
        # an input variable named like a parameter (_f1) must not be
        # captured: the output is the _p1 input's, renamed
        code, out, _ = run(capsys, "unify", "-e", "X1 ~? [_p1, xor(a, Y1)] @combined")
        assert code == 0
        assert out.splitlines() == [
            "{ [a, a]/X1, 0/Y1, a/_p1 }",
            "{ [0, a]/X1, 0/Y1, 0/_p1 }",
            "{ [_p1, a]/X1, 0/Y1 }",
            "{ [a, 0]/X1, a/Y1, a/_p1 }",
            "{ [0, 0]/X1, a/Y1, 0/_p1 }",
            "{ [_p1, 0]/X1, a/Y1 }",
            "{ [a, X]/X1, xor(a, X)/Y1, a/_p1 }",
            "{ [a, xor(a, _f1)]/X1, _f1/Y1, a/_p1 }",
            "{ [X, X]/X1, xor(a, X)/Y1, X/_p1 }",
            "{ [xor(a, _f1), xor(a, _f1)]/X1, _f1/Y1, xor(a, _f1)/_p1 }",
            "{ [Y1, xor(a, Y1)]/X1, Y1/_p1 }",
            "{ [xor(a, X), X]/X1, xor(a, X)/Y1, xor(a, X)/_p1 }",
            "{ [_f1, xor(a, _f1)]/X1, _f1/Y1, _f1/_p1 }",
            "{ [_p1, X]/X1, xor(a, X)/Y1 }",
            "{ [_p1, xor(a, _f1)]/X1, _f1/Y1 }",
        ]
        code, captured, _ = run(capsys, "unify", "-e", "X1 ~? [_f1, xor(a, Y1)] @combined")
        assert code == 0
        assert captured == out.replace("_f1", "_f2").replace("_p1", "_f1")

    @pytest.mark.parametrize("text", [
        "[X1, X2] ~? [xor(a, Y1), {v}] @combined",
        "X1 ~? [c, xor(a, Y1)] @combined\nZ ~? {v} @combined",
    ], ids=["one-entry", "two-entries"])
    def test_unifier_keys_avoid_input_variables(self, capsys, text):
        # the placeholders that tell unifiers apart modulo renaming are
        # named _p1, _p2, ...; an input variable of that name must not
        # merge two unifiers that are not renamings of each other
        code, out, _ = run(capsys, "unify", "-e", text.format(v="_p1"))
        assert code == 0
        code, renamed, _ = run(capsys, "unify", "-e", text.format(v="_q1"))
        assert code == 0
        assert out == renamed.replace("_q1", "_p1")

    def test_json_output_is_line_delimited(self, capsys):
        code, out, _ = run(
            capsys, "unify", "-e", "xor(X, a) ~? b @acun", "--format", "json"
        )
        assert code == 0
        (line,) = out.strip().splitlines()
        assert json.loads(line) == {"unifier": {"X": "xor(a, b)"}}

    def test_empty_inline_text_is_not_stdin(self, capsys, monkeypatch):
        code, out, err = run(
            capsys, "unify", "-e", "", stdin="X ~? a @std\n", monkeypatch=monkeypatch
        )
        assert code == 2
        assert "no unification entries" in err
        assert out == ""

    def test_impure_std_input_exit_2(self, capsys):
        code, _, err = run(capsys, "unify", "-e", "X ~? xor(a, b) @std")
        assert code == 2

    def test_free_xor_theory(self, capsys):
        code, out, _ = run(capsys, "unify", "-e", "xor(a, X) ~? xor(a, b) @free-xor")
        assert code == 0
        assert "{ b/X }" in out

    def test_he_style_tagged_problem_not_unifiable(self, capsys):
        # tagged problem that only a homomorphic xor could unify; the
        # disjoint combined theory must report not unifiable
        code, out, _ = run(
            capsys, "unify", "-e", "[1, A] ~? xor([3, a], [6, b], [4, C]) @combined"
        )
        assert code == 1
        assert "not unifiable" in out

    def test_caps_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("TAGGEDUNIFY_CAPS", "partition-vars=2")
        code, _, err = run(
            capsys, "unify", "-e", "[X, Y, Z] ~? [penc(a, k), b, xor(c, d)] @combined"
        )
        assert code == 3
        assert "cap" in err.lower() or "exceed" in err.lower()

    def test_one_cap_error_class(self):
        # main's exit-3 clause names the class that unify defines; bsca
        # raises it and the package exports it
        from taggedunify import bsca, unify

        assert bsca.ChoiceSpaceExceeded is unify.ChoiceSpaceExceeded
        assert taggedunify.ChoiceSpaceExceeded is unify.ChoiceSpaceExceeded

    @pytest.mark.parametrize("entry", ["branches=-1", "partition-vars=-5"])
    def test_negative_cap_is_an_input_error(self, capsys, monkeypatch, entry):
        monkeypatch.setenv("TAGGEDUNIFY_CAPS", entry)
        code, out, err = run(
            capsys, "unify", "-e", "[X, Y, Z] ~? [penc(a, k), b, xor(c, d)] @combined"
        )
        assert code == 2
        assert out == ""
        assert f"bad TAGGEDUNIFY_CAPS entry {entry!r}" in err

    def test_pure_part_clash_is_negative_not_capped(self, capsys):
        # ten variables exceed the default partition cap, but the standard
        # part clashes before any partition is enumerated
        names = ", ".join(f"V{i}" for i in range(10))
        code, out, _ = run(capsys, "unify", "-e", f"[{names}, a] ~? [{names}, b] @combined")
        assert code == 1
        assert "not unifiable" in out

    def test_pure_part_clash_explains_no_branch(self, capsys):
        code, out, _ = run(
            capsys, "unify", "-e", "[X1, xor(X2, b)] ~? penc(a, xor(a, b, c)) @combined",
            "--explain",
        )
        assert code == 1
        assert out.splitlines() == ["not unifiable"]

    def test_nesting_below_the_recursion_limit_solves(self, capsys):
        nested = f"{'[' * 200}a{']' * 200}"
        code, out, err = run(capsys, "unify", "-e", f"X ~? {nested} @combined")
        assert (code, out, err) == (0, f"{{ {nested}/X }}\n", "")

    def test_deep_nesting_is_an_input_error(self, capsys):
        depth = 3000
        code, out, err = run(
            capsys, "unify", "-e", f"X ~? {'[' * depth}a{']' * depth} @combined"
        )
        assert code == 2
        assert err.strip() == "error: input nested too deeply"
        assert out == ""


def deep_unifier(n: int) -> str:
    """``[V0..Vn-1] ~? [[a, V1]..[a, Vn-1], a]``: an input of depth 2 whose
    unifier binds ``V0`` to a term ``n`` deep."""
    lhs = ", ".join(f"V{i}" for i in range(n))
    rhs = ", ".join([f"[a, V{i}]" for i in range(1, n)] + ["a"])
    return f"[{lhs}] ~? [{rhs}] @std"


class TestDeepOutput:
    """Run in a fresh process, whose stack depth is the CLI's own: the
    output's depth, not the input's, passes the recursion limit there."""

    @staticmethod
    def unify(n, fmt):
        done = fresh_cli("unify", "--format", fmt, "-e", deep_unifier(n))
        return done.returncode, done.stdout, done.stderr

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_deep_unifier_is_an_output_error(self, fmt):
        code, out, err = self.unify(360, fmt)
        assert (code, out) == (2, "")
        assert err == "error: output nested too deeply to render\n"

    def test_shallower_unifier_prints(self):
        code, out, err = self.unify(330, "text")
        assert (code, err) == (0, "")
        assert out.startswith("{ [a, [a, ") and out.endswith("/V99 }\n")


def doubling_chain(n: int) -> str:
    """``[X1..Xn] ~? [[X0,X0]..[Xn-1,Xn-1]]``: its unifier is a DAG of n
    nodes whose text doubles with each variable."""
    lhs = ", ".join(f"X{i}" for i in range(1, n + 1))
    rhs = ", ".join(f"[X{i}, X{i}]" for i in range(n))
    return f"[{lhs}] ~? [{rhs}] @std"


class TestOutputCap:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_exponential_text_exits_3(self, capsys, fmt):
        start = time.perf_counter()
        code, out, err = run(capsys, "unify", "--format", fmt, "-e", doubling_chain(20))
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert err.startswith("error: output too large:") and err.count("\n") == 1
        assert str(MAX_OUTPUT_CHARS) in err

    def test_below_the_cap_prints_everything(self, capsys):
        code, out, _ = run(capsys, "unify", "-e", doubling_chain(10))
        assert code == 0
        assert out.startswith("{ [X0, X0]/X1, ") and out.endswith("/X9 }\n")
        assert out.count("X0") == sum(2**k for k in range(1, 11))  # Xk holds 2^k


class TestDnut:
    def test_check_fails_then_tag_then_check_passes(self, capsys, monkeypatch):
        original = (
            "[N_B, B] + penc([N_B, A], pk(A))\n"
            "A + N_B + penc(A + N_B, pk(B)) + senc(N_A, N_B)\n"
        )
        code, out, _ = run(capsys, "dnut", "check", stdin=original, monkeypatch=monkeypatch)
        assert code == 1
        assert "condition" in out
        code, tagged, _ = run(capsys, "dnut", "tag", stdin=original, monkeypatch=monkeypatch)
        assert code == 0
        code, out, _ = run(capsys, "dnut", "check", stdin=tagged, monkeypatch=monkeypatch)
        assert code == 0
        assert "satisfied" in out

    def test_empty_set_satisfied(self, capsys, monkeypatch):
        code, _, _ = run(capsys, "dnut", "check", stdin="", monkeypatch=monkeypatch)
        assert code == 0

    def test_unity_summand_condition_3(self, capsys):
        code, out, _ = run(capsys, "dnut", "check", "-e", "xor(a, 0)")
        assert code == 1
        assert "condition 3" in out

    def test_set_blocks_checked_separately(self, capsys, monkeypatch):
        src = "set good {\n xor([1, a], [2, b])\n}\nset bad {\n xor(a, 0)\n}\n"
        code, out, _ = run(capsys, "dnut", "check", stdin=src, monkeypatch=monkeypatch)
        assert code == 1
        assert "good: satisfied" in out

    def test_check_json_format(self, capsys):
        code, out, _ = run(capsys, "dnut", "check", "-e", "xor(a, 0)", "--format", "json")
        assert code == 1
        payload = json.loads(out.strip())
        assert payload["satisfied"] is False

    def test_tag_sibling_xors_with_nested_xors(self, capsys, monkeypatch):
        src = "penc(xor(A, penc(xor(B, C), k)), xor(D, E))"
        code, tagged, err = run(capsys, "dnut", "tag", "-e", src)
        assert (code, err) == (0, "")
        code, out, _ = run(capsys, "dnut", "check", stdin=tagged, monkeypatch=monkeypatch)
        assert (code, out) == (0, "satisfied\n")

    def test_options_before_the_path(self, capsys):
        path = str(GOLDEN / "protocol_original.terms")
        for action, want in (("check", 1), ("tag", 0)):
            code, out, _ = run(capsys, "dnut", action, "--format", "json", path)
            assert code == want
            assert [json.loads(line)["set"] for line in out.splitlines()] == ["protocol"]

    def test_tag_json_feeds_back_into_check(self, capsys, monkeypatch):
        src = "xor(A, N_B)\nset msgs {\n  xor(N_A, A)\n  [N_B, B] + penc(N_B, pk(A))\n}\n"
        code, out, _ = run(
            capsys, "dnut", "tag", "--format", "json", stdin=src, monkeypatch=monkeypatch
        )
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert [(j["set"], len(j["terms"])) for j in lines] == [("", 1), ("msgs", 2)]
        for j in lines:
            assert list(j) == sorted(j)
            code, out, _ = run(capsys, "dnut", "check", "-e", "\n".join(j["terms"]))
            assert code == 0
            assert "satisfied" in out

    def test_violations_by_condition_then_scan_order(self, capsys):
        # condition 1 by (xor, summand, summand), condition 2 by (xor, xor,
        # summand, summand): a scan by (xor, summand, xor, summand) would
        # list X ~ Z before b ~ Y
        xors = ["xor(X, b)", "xor(c, Y)", "xor(Z, d)"]
        ordered = [
            (1, "X", "b", [0]), (1, "c", "Y", [1]), (1, "Z", "d", [2]),
            (2, "X", "c", [0, 1]), (2, "X", "Y", [0, 1]), (2, "b", "Y", [0, 1]),
            (2, "X", "Z", [0, 2]), (2, "X", "d", [0, 2]), (2, "b", "Z", [0, 2]),
            (2, "c", "Z", [1, 2]), (2, "Y", "Z", [1, 2]), (2, "Y", "d", [1, 2]),
        ]
        src = "\n".join(xors)
        code, out, _ = run(capsys, "dnut", "check", "-e", src)
        assert code == 1
        assert out.splitlines() == ["12 violation(s)"] + [
            f"  condition {c}: {a} ~ {b}  (in {'; '.join(xors[k] for k in ks)})"
            for c, a, b, ks in ordered
        ]
        code, out, _ = run(capsys, "dnut", "check", "-e", src, "--format", "json")
        assert code == 1
        assert json.loads(out)["violations"] == [
            {"condition": c, "enclosing": [xors[k] for k in ks], "witness": [a, b]}
            for c, a, b, ks in ordered
        ]


class TestInputErrors:
    """Every subcommand that reads input maps a missing file and a parse
    error to exit 2 with one ``error:`` line."""

    @pytest.mark.parametrize("bad", ["missing-file", "parse-error"])
    @pytest.mark.parametrize(
        "command, text",
        [(["unify"], "a ~? xor(b)"), (["dnut", "check"], "xor(a"),
         (["dnut", "tag"], "xor(a"), (["parse"], "pk(")],
        ids=["unify", "dnut-check", "dnut-tag", "parse"],
    )
    def test_exit_2(self, capsys, tmp_path, command, text, bad):
        missing = str(tmp_path / "missing.problems")
        source = [missing] if bad == "missing-file" else ["-e", text]
        code, out, err = run(capsys, *command, *source)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", ["a/b ~? c", "a ~? {b}"])
    def test_braces_and_slash_are_not_term_characters(self, capsys, text):
        code, out, err = run(capsys, "unify", "-e", text)
        assert (code, out) == (2, "")
        assert err.startswith("error: unexpected character ")


# a problem file of one or two entries, all in one theory
problem_files = st.tuples(
    st.lists(st.tuples(terms(), terms()), min_size=1, max_size=2),
    st.sampled_from([t.value for t in Theory]),
).map(lambda drawn: "\n".join(
    f"{render_term(lhs)} ~? {render_term(rhs)} @{drawn[1]}" for lhs, rhs in drawn[0]
))


class TestFuzz:
    """Random problem files through ``unify`` end only in a documented
    exit code, with errors on stderr alone and well-formed JSON lines."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(problem_files, st.sampled_from(["text", "json"]), st.booleans(), st.booleans())
    def test_random_problem_files(self, text, fmt, explain, capped):
        out, err = io.StringIO(), io.StringIO()
        argv = ["unify", "-e", text, "--format", fmt, *(["--explain"] if explain else [])]
        # a partition cap of 0 sends every @combined entry set that reaches
        # identification with a variable to exit 3; the environment is
        # patched here, as hypothesis rejects function-scoped fixtures
        caps = {"TAGGEDUNIFY_CAPS": "partition-vars=0"} if capped else {}
        with mock.patch.dict(os.environ, caps):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2, 3)
        if code >= 2:
            assert out == ""
            assert err.startswith("error:")
        elif fmt == "text":
            assert err == ""
        if fmt == "json":
            for line in out.splitlines():
                json.loads(line)


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argparse parser before ``cli.parse_args`` replaced it: the
    reference that the table's reading must agree with."""
    top = argparse.ArgumentParser(prog="taggedunify")
    sub = top.add_subparsers(dest="command", required=True)

    def add_input(p: argparse.ArgumentParser) -> None:
        p.add_argument("input", nargs="?", default="-")
        p.add_argument("-e", "--expr")

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_unify = sub.add_parser("unify")
    add_input(p_unify)
    add_format(p_unify)
    p_unify.add_argument("--theory", choices=[t.value for t in Theory])
    p_unify.add_argument("--explain", action="store_true")
    p_unify.set_defaults(func=cli.cmd_unify)

    p_dnut = sub.add_parser("dnut")
    dnut_sub = p_dnut.add_subparsers(dest="action", required=True)
    for action in ("check", "tag"):
        p_action = dnut_sub.add_parser(action)
        add_input(p_action)
        add_format(p_action)
        p_action.set_defaults(func=cli.cmd_dnut)

    p_thm = sub.add_parser("prove-theorem")
    p_thm.add_argument("--samples", type=int, default=10_000)
    p_thm.add_argument("--seed", type=int, default=0)
    p_thm.add_argument("--depth", type=int, default=3)
    p_thm.add_argument(
        "--population",
        choices=("both", "non-variables", "with-sequences", "no-sequences"),
        default="both",
    )
    add_format(p_thm)
    p_thm.set_defaults(func=cli.cmd_prove_theorem)

    p_parse = sub.add_parser("parse")
    add_input(p_parse)
    p_parse.set_defaults(func=cli.cmd_parse)
    return top


def argparse_reading(argv: list[str]) -> object:
    """"help", "rejected", or the values the reference parser gives."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            values = vars(build_parser().parse_args(argv))
    except SystemExit as exc:
        return "help" if exc.code == 0 else "rejected"
    del values["command"]
    return values


def table_reading(argv: list[str]) -> object:
    """"help", "rejected", or the values ``cli.parse_args`` gives."""
    try:
        args = cli.parse_args(argv)
    except cli.UsageError:
        return "rejected"
    return "help" if args.func is cli.cmd_help else vars(args)


# each option's good values and bad ones, or None for a switch; a value of
# "--" is left out, as an attached "--" (-e--, --expr=--) reads as [] before
# Python 3.13 and as "--" from 3.13 on
OPTION_VALUES = {
    "--help": None,
    "--explain": None,
    "--expr": (["X ~? a @std", "-", "-5", "", "=a", "unify"], ["-x", "-h"]),
    "--format": (["text", "json"], ["xml", ""]),
    "--theory": ([t.value for t in Theory], ["ac"]),
    "--samples": (["3", "-2", " 4"], ["x", "1.5"]),
    "--seed": (["0", "-7"], ["seven"]),
    "--depth": (["2", "-1"], [""]),
    "--population": (["both", "non-variables", "with-sequences", "no-sequences"], ["all"]),
}
COMMAND_PATHS = [["unify"], ["dnut", "check"], ["dnut", "tag"], ["prove-theorem"], ["parse"]]
BAD_PATHS = [[], ["dnut"], ["bogus"], ["dnut", "bogus"], ["-h"], ["--bogus", "unify"]]
PATH = "golden/worked_example.problems"


@st.composite
def option_words(draw, names: list[str], wild: bool) -> list[str]:
    """One option of ``names`` as a user may spell it: in full or as a
    prefix, with ``=VALUE`` or the value after it, and ``-e`` also as
    ``-e TEXT``, ``-eTEXT`` and ``-e=TEXT``.  A ``wild`` one may also be
    any option or an unknown one, lack its value, or have a bad one."""
    if wild:
        names = [*names, *OPTION_VALUES, "--bogus", "-x"]
    name = draw(st.sampled_from(names))
    if name not in OPTION_VALUES:
        return [draw(st.sampled_from([name, f"{name}=1"]))]
    spelled = name[:draw(st.integers(3, len(name)))]
    if OPTION_VALUES[name] is None:
        forms = [[spelled], [name]] + [["-h"]] * (name == "--help")
        return draw(st.sampled_from(forms + [[f"{name}=x"]] * wild))
    good, bad = OPTION_VALUES[name]
    value = draw(st.sampled_from(good + bad * wild))
    forms = [[spelled, value], [name, value], [f"{spelled}={value}"]] + [[spelled]] * wild
    if name == "--expr":
        forms += [["-e", value], [f"-e{value}"], [f"-e={value}"]]
    return draw(st.sampled_from(forms))


@st.composite
def argvs(draw) -> list[str]:
    """A command path, then options and words in any order: the path, or
    a ``wild`` one's "-", second path, "--" before the path or alone."""
    wild = draw(st.booleans())
    path = draw(st.sampled_from(COMMAND_PATHS + BAD_PATHS * wild))
    _, own = cli.COMMANDS.get(" ".join(path), (None, {}))
    names = [*own, "--help"] if wild else list(own)
    words = [[PATH], ["--", PATH]] + [["-"], ["other.problems"], ["--"]] * wild
    pieces = draw(st.lists(option_words(names, wild) | st.sampled_from(words), max_size=4))
    return path + [word for piece in pieces for word in piece]


class TestArgumentParity:
    """``cli.parse_args`` reads every argv as the argparse parser it
    replaced did: the same verdict (help, rejected or accepted) and, if
    accepted, the same values."""

    @settings(derandomize=True, deadline=None, max_examples=1500)
    @given(argvs())
    def test_generated_argv(self, argv):
        assert table_reading(argv) == argparse_reading(argv)

    # argvs the generator draws seldom or never: a "--" after the input was
    # taken (rejected) or in its run (accepted), "--" as the input, an
    # ambiguous prefix after -h, help after an unknown option, a command
    # path in one word, negative numbers, and words with a space
    @pytest.mark.parametrize("argv", [
        ["unify", "golden/worked_example.problems", "-e", "x", "--"],
        ["unify", "-e", "x", "golden/worked_example.problems", "--"],
        ["unify", "--", "--"],
        ["unify", "-h", "--ex"],
        ["--bogus", "dnut", "check", "-h"],
        ["dnut", "check", "dnut check"],
        ["dnut check"],
        ["prove-theorem", "--seed", "-1.5"],
        ["unify", "-1.5"],
        ["unify", "-e", "-a b"],
        ["unify", "-e", "a", "-a b"],
    ])
    def test_corner_cases(self, argv):
        assert table_reading(argv) == argparse_reading(argv)

    def test_readme_block_is_the_help_text(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
        assert block == cli.USAGE

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["dnut", "-h"], ["unify", "--he"]])
    def test_help_prints_the_usage_text(self, capsys, argv):
        assert run(capsys, *argv) == (0, cli.USAGE, "")

    @pytest.mark.parametrize("argv", [[], ["dnut"], ["bogus"], ["unify", "--bogus"],
                                      ["unify", "--format", "xml"], ["unify", "--ex", "a"],
                                      ["prove-theorem", "--seed", "x"], ["parse", "a", "b"]])
    def test_usage_error_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        usage, error = err.splitlines()
        assert usage.startswith("usage: taggedunify ")
        assert error.startswith("taggedunify: error: ")


class TestProveTheorem:
    def test_deterministic_reports(self, capsys):
        args = ["prove-theorem", "--samples", "100", "--seed", "7", "--format", "json"]
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_population_flags(self, capsys):
        code1, out1, _ = run(
            capsys, "prove-theorem", "--samples", "15", "--seed", "3",
            "--population", "with-sequences", "--format", "json",
        )
        code2, out2, _ = run(
            capsys, "prove-theorem", "--samples", "15", "--seed", "3",
            "--population", "no-sequences", "--format", "json",
        )
        assert code1 == 0 and code2 == 0
        assert json.loads(out1) and json.loads(out2)

    def test_text_report_mentions_counts(self, capsys):
        code, out, _ = run(capsys, "prove-theorem", "--samples", "10", "--seed", "1")
        assert code == 0
        assert "counterexamples" in out

    def test_bad_sample_count_exits_2(self, capsys):
        code, out, err = run(capsys, "prove-theorem", "--samples", "0")
        assert (code, out, err) == (2, "", "error: samples must be >= 1\n")


class TestDeferredNames:
    """The names the commands read off ``taggedunify.cli`` and load on first
    use resolve to the package's own objects."""

    DEFERRED = ["BscaConfig", "GenConfig", "dnut_check", "dnut_tag", "oracle", "run_harness",
                "unify_acun", "unify_combined"]

    def test_the_commands_read_these_names(self):
        tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
        read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "_cli"}
        assert sorted(read) == self.DEFERRED

    @pytest.mark.parametrize("name", DEFERRED)
    def test_resolves_to_the_packages_object(self, name):
        assert getattr(cli, name) is getattr(taggedunify, name)

    def test_harness_caps(self):
        from taggedunify.oracle import HARNESS_CAPS

        assert cli.oracle.HARNESS_CAPS is HARNESS_CAPS

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError):
            cli.no_such_name


class TestParse:
    def test_round_trip(self, capsys, monkeypatch):
        src = "theory: acun\nxor(a, X) ~? b @acun\nset msgs {\n  [2.1, N_B, B]\n}\n"
        code, out, _ = run(capsys, "parse", stdin=src, monkeypatch=monkeypatch)
        assert code == 0
        code2, out2, _ = run(capsys, "parse", stdin=out, monkeypatch=monkeypatch)
        assert out2 == out


class TestGoldenFiles:
    """Every golden file in the repo runs through the CLI as a file path."""

    def test_worked_example_file(self, capsys):
        code, out, _ = run(capsys, "unify", str(GOLDEN / "worked_example.problems"))
        assert code == 0
        assert "{ b/A, a/B, n_a/N_B }" in out

    def test_protocol_original_fails_check(self, capsys):
        code, out, _ = run(capsys, "dnut", "check", str(GOLDEN / "protocol_original.terms"))
        assert code == 1
        assert "condition" in out

    def test_protocol_tagged_passes_check(self, capsys):
        code, out, _ = run(capsys, "dnut", "check", str(GOLDEN / "protocol_tagged.terms"))
        assert code == 0
        assert "satisfied" in out

    def test_tagging_the_original_satisfies_check(self, capsys, monkeypatch):
        code, tagged, _ = run(capsys, "dnut", "tag", str(GOLDEN / "protocol_original.terms"))
        assert code == 0
        code, out, _ = run(capsys, "dnut", "check", stdin=tagged, monkeypatch=monkeypatch)
        assert code == 0

    def test_tag_arithmetic_boundary_not_unifiable(self, capsys):
        code, out, _ = run(
            capsys, "unify", str(GOLDEN / "tag_arithmetic_boundary.problems")
        )
        assert code == 1
        assert "not unifiable" in out


SCRIPTS = ROOT / "scripts"

# every script's smoke argv and a check on its stdout
SMOKE = {
    "walk_worked_example.py": (
        (), lambda out: "tagged protocol satisfied: True" in out
    ),
    "search_digest.py": (
        ("--seeds", "4", "--count", "2"),
        lambda out: [line.split("\t")[0] for line in out.splitlines()]
        == ["all", "first_only", "all-unpruned", "first_only-unpruned"]
        and all(
            traces.isdigit() and capped == "0" and len(digest) == 64
            for _, traces, capped, digest in (line.split("\t") for line in out.splitlines())
        ),
    ),
}


class TestScripts:
    """The scripts run in a fresh process, as a user would start them."""

    @pytest.mark.parametrize("script", sorted(p.name for p in SCRIPTS.glob("*.py")))
    def test_smoke(self, script):
        assert script in SMOKE, f"{script} has no smoke argv"
        argv, check = SMOKE[script]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run(
            [sys.executable, str(SCRIPTS / script), *argv],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert check(done.stdout)


class TestOutputPinned:
    """The CLI's stdout and exit code on the golden files and a small
    harness run, pinned by hash: a change to any JSON schema or rendering
    shows here first."""

    def test_golden_calls(self, capsys, monkeypatch):
        monkeypatch.chdir(GOLDEN)
        monkeypatch.delenv("TAGGEDUNIFY_CAPS", raising=False)
        problems = sorted(p.name for p in GOLDEN.glob("*.problems"))
        term_sets = sorted(p.name for p in GOLDEN.glob("*.terms"))
        calls = [["unify", name, *opt] for name in problems
                 for opt in (["--format", "json"], ["--explain"])]
        calls += [["dnut", "check", name, "--format", "json"] for name in term_sets]
        calls += [["dnut", "tag", name, *opt] for name in term_sets
                  for opt in ([], ["--format", "json"])]
        calls.append(["prove-theorem", "--samples", "40", "--seed", "7", "--format", "json"])
        records = []
        for argv in calls:
            code, out, _ = run(capsys, *argv)
            records.append(f"$ {' '.join(argv)}\n{code}\n{out}")
        assert len(records) == 11
        digest = hashlib.sha256("".join(records).encode()).hexdigest()
        assert digest == "0f415f06ac1d4a12724b1b692575c82bb7f0dbd7230f2c62cc15ed69ad86e805"


# the golden calls of the benchmark's cli workload, then an input error, a
# caps case, help and a usage error, each with the TAGGEDUNIFY_CAPS it runs
# under
ENTRY_CALLS = [
    (["parse", "golden/worked_example.problems"], None, 0),
    (["unify", "golden/worked_example.problems"], None, 0),
    (["unify", "--explain", "golden/worked_example.problems"], None, 0),
    (["unify", "golden/tag_arithmetic_boundary.problems"], None, 1),
    (["dnut", "check", "golden/protocol_original.terms"], None, 1),
    (["dnut", "check", "golden/protocol_tagged.terms"], None, 0),
    (["dnut", "tag", "golden/protocol_original.terms"], None, 0),
    (["parse", "-e", "pk("], None, 2),
    (["unify", "-e", "[X, Y, Z] ~? [penc(a, k), b, xor(c, d)] @combined"],
     "partition-vars=2", 3),
    (["--help"], None, 0),
    (["unify", "--bogus", "golden/worked_example.problems"], None, 2),
]


class TestProcessEntry:
    """``run`` ends each CLI process: it flushes stdout under the exit-2
    mapping and freezes the heap.  ``main`` must do neither, as its callers
    go on running."""

    @pytest.mark.parametrize("argv, caps, expected", ENTRY_CALLS,
                             ids=[" ".join(c[0][:2]) + f" {c[2]}" for c in ENTRY_CALLS])
    def test_fresh_process_matches_main(self, capsys, monkeypatch, argv, caps, expected):
        monkeypatch.chdir(ROOT)
        monkeypatch.delenv("TAGGEDUNIFY_CAPS", raising=False)
        if caps is not None:
            monkeypatch.setenv("TAGGEDUNIFY_CAPS", caps)
        frozen = gc.get_freeze_count()
        code, out, _ = run(capsys, *argv)
        assert gc.get_freeze_count() == frozen
        done = fresh_cli(*argv, caps=caps)
        assert (done.returncode, done.stdout) == (code, out)
        assert code == expected

    def test_run_freezes(self):
        code = ("import gc, sys; from taggedunify import cli; "
                "sys.argv[1:] = ['parse', '-e', 'a ~? b']; code = cli.run(); "
                "print(code, gc.get_freeze_count() > 0)")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.stdout.splitlines()[-1] == "0 True"

    # the first and the help text fit the stdout buffer, so they fail only
    # at run's flush; the second outgrows it and fails in main
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [
        ["parse", "golden/worked_example.problems"],
        ["unify", "-e", "xor(X0, X1, X2, X3, X4, X5, X6) ~? 0 @combined"],
        ["--help"],
    ], ids=["at-the-final-flush", "in-main", "help"])
    def test_write_error_exits_2(self, argv):
        with open("/dev/full", "w") as full:
            done = fresh_cli(*argv, env_drop=["PYTHONUNBUFFERED"], stdout=full)
        assert done.returncode == 2
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert "Exception ignored" not in done.stderr

    @pytest.mark.parametrize("argv, caps, expected", ENTRY_CALLS,
                             ids=[" ".join(c[0][:2]) + f" {c[2]}" for c in ENTRY_CALLS])
    def test_closed_stdout(self, argv, caps, expected):
        # fd 1 is closed before the interpreter starts, so sys.stdout is
        # None and the output goes nowhere: the exit code stays that of
        # the call, with no traceback
        done = fresh_cli(*argv, caps=caps, stdout=None, preexec_fn=lambda: os.close(1))
        assert done.returncode == expected
        assert "Traceback" not in done.stderr

    def test_console_script_is_the_main_blocks_entry(self):
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
        module, _, name = project["project"]["scripts"]["taggedunify"].partition(":")
        target = getattr(importlib.import_module(module), name)
        tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
        (block,) = [node for node in tree.body if isinstance(node, ast.If)
                    and ast.unparse(node.test) == "__name__ == '__main__'"]
        # raise SystemExit(<entry>())
        (stmt,) = block.body
        assert ast.unparse(stmt) == f"raise SystemExit({name}())"
        assert getattr(cli, name) is target
