"""One workload in a fresh interpreter.

Sets the workload up, prints ``READY`` (the end of set-up, which run.py
times), then either times cold passes until the deadline (``--trace 0``)
or makes the traced run (``--trace 1``).  The last output line is a JSON
object for run.py.  Run through run.py, which puts ``src`` on the path.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads
from speed import Speedometer
from workloads import ROOT, WORKLOADS

FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"


def percentile_ms(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) of seconds, in milliseconds."""
    if len(values) == 1:
        return values[0] * 1e3
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


def check_ops(passes, recorded: dict | None) -> list[str]:
    """Failure reasons, one per failed operation: broken invariants, and
    fingerprint mismatches where the fixed corpus has recorded ones."""
    failures = []
    for p in passes:
        for op in p.ops:
            if op.failure is None and recorded is not None and recorded.get(op.id) != op.fingerprint:
                op.failure = f"fingerprint mismatch: got {op.fingerprint!r}"
            if op.failure is not None:
                failures.append(f"{op.id}: {op.failure}")
    return failures


def load_fingerprints(name: str) -> dict:
    return json.loads(FINGERPRINTS.read_text(encoding="utf-8"))[name]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def to_reference_time(passes, speed: Speedometer) -> None:
    """Replace wall times by reference seconds: an operation's by the median
    over its runs, a pass's by the sum of those plus the time between
    operations."""
    for p in passes:
        between = speed.ref_seconds(p.start, p.start + p.wall_s)
        for op in p.ops:
            runs = [speed.ref_seconds(a, a + d)
                    for a, d in [(op.start, op.latency_s), *op.runs]]
            between -= sum(runs)
            op.latency_s = statistics.median(runs)
        p.wall_s = between + sum(op.latency_s for op in p.ops)


def median_wall_s(passes) -> float:
    """A pass's time built from each operation's median over the passes,
    plus the median time between operations (generation, loop overhead),
    so that a stretch of contention the speed samples missed counts once at
    most."""
    by_op: dict[str, list[float]] = {}
    between = []
    for p in passes:
        for op in p.ops:
            by_op.setdefault(op.id, []).append(op.latency_s)
        between.append(p.wall_s - sum(op.latency_s for op in p.ops))
    return sum(statistics.median(v) for v in by_op.values()) + statistics.median(between)


def timed_pass(w, speed: Speedometer) -> workloads.Pass:
    if isinstance(w, workloads.Harness):
        return w.run_pass()
    return w.run_pass(speed=speed)


def timed_run(w, seconds: float) -> dict:
    deadline = time.perf_counter() + seconds
    speed = Speedometer()
    passes = []
    is_cli = isinstance(w, workloads.Cli)
    # a CLI child runs beside this process, so a timer sample would slow it
    with speed.sampling(timer=not is_cli):
        # once there are enough, a pass starts only if half of it would fit
        while len(passes) < w.MIN_PASSES or time.perf_counter() + passes[-1].wall_s / 2 <= deadline:
            passes.append(timed_pass(w, speed))
    held_out = [w.run_held_out()]
    failures = check_ops(passes, load_fingerprints(w.name)) + check_ops(held_out, None)
    to_reference_time(passes, speed)
    wall_s = median_wall_s(passes)
    latencies = [op.latency_s for p in passes for op in p.ops]
    metrics = {
        "pairs_per_s": passes[0].pairs / wall_s,
        "problems_per_s": len(passes[0].ops) / wall_s,
        "latency_p50_ms": percentile_ms(latencies, 50),
        "latency_p90_ms": percentile_ms(latencies, 90),
        "peak_rss_mb": peak_rss_mb(children=isinstance(w, workloads.Cli)),
    }
    attempted = sum(len(p.ops) for p in passes + held_out)
    return {"attempted": attempted, "failures": failures, "metrics": metrics,
            "passes": len(passes), "info": w.info}


def run_cli_in_process(w, tracer: tracing.Tracer | None = None) -> workloads.Pass:
    """One round of the CLI mix through ``cli.main`` in this process, each
    call from an empty cache, with its output checked like a real call."""
    from taggedunify import cli

    mains = {cmd: cli.main if tracer is None else tracer.span(f"cli.main.{cmd}", cli.main)
             for cmd in ("unify", "dnut", "parse")}
    out = workloads.Pass()
    t_pass = time.perf_counter()
    for call, argv in w.CALLS.items():
        workloads.acun_normal_form.cache_clear()
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = mains[argv[0]](argv)
        dt = time.perf_counter() - t0
        out.tally_cache()
        fp, failure = w.check_output(call, code, buf.getvalue())
        out.ops.append(workloads.Op(call, dt, fp, failure))
    out.wall_s = time.perf_counter() - t_pass
    return out


def fresh_start_s(code: str, env: dict) -> float:
    """Median wall time of five fresh interpreters running ``code``."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def traced_pass(w, tracer: tracing.Tracer) -> workloads.Pass:
    with tracing.installed(tracing.wrap_table(tracer, "workloads")):
        if isinstance(w, workloads.Cli):
            return run_cli_in_process(w, tracer)
        return w.run_pass()


def traced_run(w) -> dict:
    """An untraced pass, then two traced passes whose counts must agree."""
    is_cli = isinstance(w, workloads.Cli)
    if is_cli:
        untraced = [run_cli_in_process(w) for _ in range(3)]
    else:
        untraced = [w.run_pass()]
    tracer, second_tracer = (
        tracing.Tracer(keep_durations=("oracle.check_theorem",)) for _ in range(2))
    first, second = traced_pass(w, tracer), traced_pass(w, second_tracer)
    passes = untraced + [first, second]
    failures = check_ops(passes, load_fingerprints(w.name))
    counts = tracer.exact_counts()
    changed = sorted(k for k, v in second_tracer.exact_counts().items() if counts.get(k) != v)
    if changed:
        failures += [f"count differs between traced passes: {k}" for k in changed]

    metrics = layer_metrics(tracer, first)
    metrics["trace.wall_s"] = first.wall_s
    metrics["trace.untraced_wall_s"] = statistics.median(p.wall_s for p in untraced)
    metrics["trace.self_sum_s"] = tracer.self_sum_s()
    if is_cli:
        bare = fresh_start_s("pass", w.env)
        metrics["cli.import_s"] = fresh_start_s("import taggedunify.cli", w.env) - bare
        spawned = [op.latency_s for _ in range(2) for op in w.run_pass().ops]
        in_process = [op.latency_s for p in untraced for op in p.ops]
        metrics["cli.process_overhead_ms"] = (
            percentile_ms(spawned, 50) - percentile_ms(in_process, 50))
    else:
        metrics["cli.import_s"] = 0.0
        metrics["cli.process_overhead_ms"] = 0.0
    attempted = sum(len(p.ops) for p in passes)
    return {"attempted": attempted, "failures": failures, "metrics": metrics,
            "passes": len(passes), "info": w.info}


def layer_metrics(tracer: tracing.Tracer, traced: workloads.Pass) -> dict[str, float]:
    st = tracer.stat
    c = tracer.counters

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, float] = {}
    for name in ("terms.acun_normal_form", "unify.unify_std", "unify.unify_free_xor",
                 "acun.unify_acun", "bsca.unify_combined", "bsca.combine_unifiers",
                 "bsca.verify", "dnut.dnut_check", "dnut.dnut_tag",
                 "oracle.ground_unifiable"):
        m[f"{name}.calls"] = st(name).calls
    for name in ("terms.acun_normal_form", "unify.unify_std", "unify.unify_free_xor",
                 "acun.unify_acun", "acun.build_gf2_system", "bsca.unify_combined",
                 "bsca.purify", "bsca.variable_identifications", "bsca.split_problems",
                 "bsca.solve_systems", "bsca.combine_unifiers", "bsca.verify",
                 "dnut.dnut_check", "dnut.dnut_tag", "oracle.ground_unifiable",
                 "oracle.free_unifiable", "oracle.gen", "textfmt.parse", "textfmt.render",
                 "cli.main.unify", "cli.main.dnut", "cli.main.parse"):
        m[f"{name}.self_s"] = st(name).self_s
    for name in ("unify.unify_std", "acun.unify_acun"):
        m[f"{name}.fail_ratio"] = ratio(st(name).fails, st(name).calls)
    m["terms.nf_cache.hit_ratio"] = ratio(traced.nf_hits, traced.nf_hits + traced.nf_misses)
    m["terms.nf_cache.size"] = traced.nf_size
    m["bsca.variable_identifications.n"] = st("bsca.variable_identifications").n
    branches = st("bsca.solve_systems").n
    m["bsca.solve_systems.n"] = branches
    m["bsca.branch.std_fail"] = c["bsca.branch.std_fail"]
    m["bsca.branch.xor_fail"] = c["bsca.branch.xor_fail"]
    m["bsca.branch.success_ratio"] = ratio(c["bsca.branch.both_solved"], branches)
    m["bsca.branches_max_per_call"] = tracer.maxima.get("bsca.branches_max_per_call", 0)
    m["oracle.ground_unifiable.candidates"] = c["oracle.ground_unifiable.candidates"]
    checks = st("oracle.check_theorem").durations
    m["oracle.check_theorem.p50_ms"] = percentile_ms(checks, 50) if checks else 0.0
    m["oracle.check_theorem.p90_ms"] = percentile_ms(checks, 90) if checks else 0.0
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    w = WORKLOADS[args.workload](args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    result = traced_run(w) if args.trace else timed_run(w, args.seconds)
    result["python"] = sys.version.split()[0]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
