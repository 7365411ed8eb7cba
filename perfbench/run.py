"""Benchmark of taggedunify: one workload per run.

    python3 perfbench/run.py --workload harness|agreement|cli --seed N \
        --seconds S --trace 0|1

Run from the repository root.  Each run starts the workload in a fresh
interpreter (perfbench/worker.py) with ``src`` on ``PYTHONPATH``; set-up is
timed from launch to the worker's ``READY`` line, over several set-up-only
launches, in reference seconds (see speed.py).
With ``--trace 0`` the worker times cold passes over the workload's fixed
corpus for S seconds and the end-to-end metrics are printed; with
``--trace 1`` it makes the traced run and the per-layer metrics are
printed.  Every operation is checked (see workloads.py); the last line of
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import Speedometer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_LAUNCHES = 7  # set-up-only launches, before the measured run's
SETUP_SAMPLE_REPEATS = 15  # kernel runs per speed sample between launches
DEADLINE_S = 170


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


class WorkerError(Exception):
    pass


def launch(argv: list[str], env: dict) -> tuple[subprocess.Popen, float, float]:
    """Start a worker and wait for its READY line; returns it, the time of
    the launch and the time of READY."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    t_ready = time.perf_counter()
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise WorkerError(f"worker did not start (exit {proc.returncode})")
    return proc, t0, t_ready


def finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("worker timed out")
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}")
    return out


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="taggedunify benchmark")
    ap.add_argument("--workload", required=True, choices=("harness", "agreement", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "taggedunify" / "__init__.py").is_file():
        print("error: no taggedunify sources under src/ in this directory", file=sys.stderr)
        return 2

    # One CPU for this process and every child: the host slows its CPUs
    # separately, and the speed samples (speed.py) must see the CPU the
    # measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    started = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    worker_argv = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = []
        if not args.trace:
            speed = Speedometer()
            speed.sample(SETUP_SAMPLE_REPEATS)
            for _ in range(SETUP_LAUNCHES):
                proc, t_launch, t_ready = launch(worker_argv + ["--setup-only"], env)
                finish(proc, DEADLINE_S - (time.perf_counter() - started))
                speed.sample(SETUP_SAMPLE_REPEATS)
                setups.append(speed.ref_seconds(t_launch, t_ready))
        proc, _, _ = launch(worker_argv, env)
        out = finish(proc, DEADLINE_S - (time.perf_counter() - started))
        result = json.loads(out.strip().splitlines()[-1])
    except (WorkerError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        units = metric_units("per_layer")
        metrics = {k: result["metrics"][k] for k in units}
    else:
        units = metric_units("end_to_end")
        metrics = dict(result["metrics"], setup_s=statistics.median(setups))
    attempted, failed = result["attempted"], len(result["failures"])

    info = dict(result["info"], workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace, passes=result["passes"],
                python=result["python"], nproc=len(os.sched_getaffinity(0)),
                src_lines=src_line_count())
    print("info " + json.dumps(info, sort_keys=True))
    for reason in result["failures"][:20]:
        print(f"FAILED {reason}")
    for name, unit in units.items():
        print(f"{args.workload:<10} {name:<40} {metrics[name]:>14.6g} {unit}")
    print(f"{args.workload:<10} {'failed_ratio':<40} {failed / attempted:>14.6g} ratio"
          f"  ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
