"""The benchmark's per-layer tracing patches public names of the package
from outside (perfbench/tracing.py).  A refactor that drops or renames one
of them must fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
import json
import pathlib
import sys

from taggedunify import cli
from taggedunify.acun import unify_acun  # noqa: F401  (patched in this module)
from taggedunify.bsca import unify_combined  # noqa: F401
from taggedunify.oracle import GenConfig, ground_unifiable, run_harness  # noqa: F401
from taggedunify.unify import unify_std  # noqa: F401

_BENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
_PATH = _BENCH / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_and_is_restored(capsys):
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    table = tracing.wrap_table(tracer, __name__)
    originals = [getattr(importlib.import_module(m), a) for m, a, _ in table]
    with tracing.installed(table):
        for module, attr, wrapper in table:
            assert getattr(importlib.import_module(module), attr) is wrapper
        assert cli.main(["unify", "-e", "X ~? a @std"]) == 0
    assert capsys.readouterr().out.strip() == "{ a/X }"
    assert tracer.stat("unify.unify_std").calls == 1
    assert tracer.stat("textfmt.parse").calls == 1
    for (module, attr, _), original in zip(table, originals):
        assert getattr(importlib.import_module(module), attr) is original


# every span one harness pass reaches on the first three protocols, whose
# pairs include one that enumerates identifications
HARNESS_SPANS = (
    "oracle.run_harness", "oracle.gen", "oracle.check_theorem", "oracle.free_unifiable",
    "dnut.dnut_check", "dnut.dnut_tag", "unify.unify_free_xor", "terms.acun_normal_form",
    "bsca.unify_combined", "bsca.purify", "bsca.variable_identifications",
    "bsca.split_problems", "bsca.solve_systems", "bsca.combine_unifiers", "bsca.verify",
    "unify.unify_std", "acun.unify_acun", "acun.build_gf2_system",
)


def test_harness_reaches_every_span_it_traces():
    # the traced benchmark run compares counts between two passes, so a name
    # the package still defines but no longer calls through its module
    # globals reads 0 in both and passes there; it must fail here
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    with tracing.installed(tracing.wrap_table(tracer, __name__)):
        report = run_harness(GenConfig(seed=20_260_809, samples=3))
    assert report.combined_unifiable_pairs == 1
    assert [name for name in HARNESS_SPANS if not tracer.stat(name).calls] == []


def _workloads(monkeypatch, name):
    """The benchmark's workloads module and the fingerprints it recorded
    for the workload ``name``."""
    monkeypatch.syspath_prepend(str(_BENCH))
    import workloads

    return workloads, json.loads((_BENCH / "fingerprints.json").read_text())[name]


def test_agreement_checks_match_the_recorded_fingerprints(monkeypatch):
    # the benchmark's agreement workload calls the solvers and the oracle
    # directly, so an API change that breaks it must fail here as well
    workloads, recorded = _workloads(monkeypatch, "agreement")
    agreement = workloads.Agreement(0)
    assert len(agreement.ops) == 100
    for op_id, problems in agreement.ops:
        assert agreement._check(op_id, problems) == (recorded[op_id], None), op_id


def test_harness_checks_match_the_recorded_fingerprints(monkeypatch):
    workloads, recorded = _workloads(monkeypatch, "harness")
    ops = workloads.Harness(0).run_pass().ops
    assert len(ops) == len(recorded) == 300
    for op in ops:
        assert (op.fingerprint, op.failure) == (recorded[op.id], None), op.id


def test_cli_checks_match_the_recorded_fingerprints(monkeypatch, capsys):
    # the benchmark runs these calls in fresh processes; in process they
    # must print the same
    workloads, recorded = _workloads(monkeypatch, "cli")
    monkeypatch.chdir(workloads.ROOT)
    monkeypatch.delenv("TAGGEDUNIFY_CAPS", raising=False)
    bench = workloads.Cli(0)
    assert set(bench.CALLS) == set(recorded)
    for call, argv in bench.CALLS.items():
        code = cli.main(argv)
        stdout = capsys.readouterr().out
        assert bench.check_output(call, code, stdout) == (recorded[call], None), call
