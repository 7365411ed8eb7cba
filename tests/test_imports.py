"""Each CLI subcommand loads only the modules it runs, none of them
``dataclasses``, and the lazily loaded names behave as the eager ones did:
for ``from taggedunify import X``, for the exit codes, and for a tracer that
patches them on ``taggedunify.cli``.  The checks that depend on what is
already imported run in fresh processes."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import taggedunify

ROOT = pathlib.Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
LAZY_LAYERS = {"acun", "bsca", "dnut", "oracle"}

# the package's exports as they were when __init__ imported every module,
# less parse_substitution, deleted since: no program reads a substitution
EXPORTS = [
    "BoundExceeded", "BscaConfig", "BscaTrace", "ChoiceSpaceExceeded", "CombinedResult",
    "Const", "DnutReport", "DnutViolation", "Entry", "GenConfig", "Gf2System",
    "HarnessReport", "ImpureTermError", "ParseError", "Penc", "Pk", "Problem",
    "ProblemFile", "Senc", "Seq", "Sh", "Substitution", "TagConst", "Term",
    "TheoremReport", "Theory", "Var", "Xor", "ZERO", "Zero", "acun", "acun_normal_form",
    "bsca", "build_gf2_system", "check_theorem", "combine_unifiers", "dnut", "dnut_check",
    "dnut_tag", "equal_mod", "free_unifiable", "gen_dnut_protocol", "gen_problem",
    "gen_raw_protocol", "gen_untagged_set", "ground_unifiable", "interms", "is_pure",
    "is_subterm", "oracle", "parse_problem_file", "parse_term",
    "purify_problems", "purify_terms", "render_problem_file", "render_substitution",
    "render_term", "run_harness", "solve_systems", "split_problems", "subterms_of_set",
    "terms", "textfmt", "unify", "unify_acun", "unify_combined", "unify_free_xor",
    "unify_std", "variable_identifications",
]


# runs the CLI as ``-m`` does, then names every loaded module on stderr's
# last line
RUN_CLI = """
import runpy, sys
sys.argv[0] = "taggedunify"
try:
    runpy.run_module("taggedunify.cli", run_name="__main__", alter_sys=True)
finally:
    print(*sorted(sys.modules), file=sys.stderr)
"""


def fresh(*argv: str) -> subprocess.CompletedProcess:
    """``python *argv`` in a new process, from the repo root."""
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=120
    )


def cli_modules(*argv: str) -> tuple[int, set[str]]:
    """The exit code of a fresh CLI call and the modules it loaded."""
    done = fresh("-c", RUN_CLI, *argv)
    *_, loaded = done.stderr.splitlines()
    return done.returncode, set(loaded.split())


def package_layers(modules: set[str]) -> set[str]:
    return {m.removeprefix("taggedunify.") for m in modules if m.startswith("taggedunify.")}


def cli_layers(*argv: str) -> tuple[int, set[str]]:
    """The exit code of a fresh CLI call and the package layers it loaded."""
    code, modules = cli_modules(*argv)
    return code, package_layers(modules)


class TestExports:
    def test_all_is_unchanged_and_resolves(self):
        assert taggedunify.__all__ == EXPORTS
        for name in EXPORTS:
            assert getattr(taggedunify, name) is not None, name
        assert taggedunify.unify_combined is taggedunify.bsca.unify_combined
        with pytest.raises(AttributeError):
            taggedunify.no_such_name

    def test_package_import_loads_no_layer(self):
        code = "import sys, taggedunify; print([m for m in sys.modules if 'taggedunify.' in m])"
        assert fresh("-c", code).stdout == "[]\n"


@pytest.fixture(scope="module")
def bare_modules() -> set[str]:
    """The modules a bare interpreter of this environment loads: ``site``
    may load more than the interpreter's own start-up does."""
    return set(fresh("-c", "import sys; print(*sys.modules)").stdout.split())


class TestSubcommandImports:
    @pytest.mark.parametrize(
        "argv, lazy",
        [
            (["parse", "golden/worked_example.problems"], set()),
            (["dnut", "check", "golden/protocol_original.terms"], {"dnut"}),
            (["dnut", "tag", "golden/protocol_original.terms"], {"dnut"}),
            (["unify", "golden/worked_example.problems"], {"acun", "bsca"}),
            (["unify", "--theory", "std", "-e", "X ~? a"], {"acun", "bsca"}),
            (["unify", "--format", "json", "golden/worked_example.problems"], {"acun", "bsca"}),
            (["prove-theorem", "--samples", "2"], LAZY_LAYERS),
        ],
    )
    def test_loaded_layers(self, argv, lazy, bare_modules):
        code, modules = cli_modules(*argv)
        layers = package_layers(modules)
        assert code in (0, 1)
        assert layers & LAZY_LAYERS == lazy
        assert {"terms", "textfmt", "unify"} <= layers
        assert "cli" not in layers  # run as __main__ only
        # importing dataclasses, which imports inspect, ast, dis and
        # tokenize, was the largest single start-up cost of these calls
        assert not {"dataclasses", "inspect"} & modules
        # json, a few ms of each call's start-up, loads only for JSON output
        if "json" not in bare_modules:
            assert ("json" in modules) == ("json" in argv)
        # argparse, with the gettext and locale it imports, took about 4 ms
        # of each call
        assert not {"argparse", "gettext", "locale"} & (modules - bare_modules)

    def test_caps_still_exit_3(self):
        # 48 input variables, far past the default partition cap of 9
        xors = ", ".join(f"xor(V{i}, V{i + 1})" for i in range(1, 49, 2))
        consts = ", ".join(f"a{i}" for i in range(1, 25))
        argv = ["unify", "-e", f"[{xors}] ~? [{consts}] @combined"]
        done = fresh("-m", "taggedunify.cli", *argv)
        assert done.returncode == 3
        assert done.stdout == ""
        assert done.stderr == "error: 72 variables exceed the partition cap of 9\n"
        assert cli_layers(*argv) == (3, {"terms", "textfmt", "unify", "acun", "bsca"})

    def test_deep_nesting_still_exits_2(self):
        depth = 3000
        argv = ["parse", "-e", f"X ~? {'[' * depth}a{']' * depth}"]
        done = fresh("-m", "taggedunify.cli", *argv)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == "error: input nested too deeply\n"
        # the cap error's except clause must not load bsca to test the error
        assert cli_layers(*argv) == (2, {"terms", "textfmt", "unify"})


# imports only taggedunify.cli, wraps the traced names (those of the
# benchmark's own module aside) and runs three calls through cli.main
TRACED_RUN = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracing", "perfbench/tracing.py")
tracing = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = tracing
spec.loader.exec_module(tracing)
from taggedunify import cli
tracer = tracing.Tracer()
table = [entry for entry in tracing.wrap_table(tracer, "bench") if entry[0] != "bench"]
codes = []
with tracing.installed(table):
    for argv in (["unify", "golden/worked_example.problems"],
                 ["dnut", "check", "golden/protocol_original.terms"],
                 ["dnut", "tag", "golden/protocol_original.terms"]):
        codes.append(cli.main(argv))
names = ("bsca.unify_combined", "dnut.dnut_check", "dnut.dnut_tag")
print(json.dumps([codes, [tracer.stat(n).calls for n in names]]))
"""


def test_tracer_wraps_the_lazy_names():
    done = fresh("-c", TRACED_RUN)
    assert done.returncode == 0, done.stderr
    codes, calls = json.loads(done.stdout.splitlines()[-1])
    assert codes == [0, 1, 0]
    assert calls == [1, 1, 1]


def test_no_module_imports_dataclasses():
    for path in sorted((ROOT / "src" / "taggedunify").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "dataclasses" for n in names), path.name
