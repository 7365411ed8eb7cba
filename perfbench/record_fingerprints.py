"""Rewrite fingerprints.json from the current tree: one cold pass of each
workload's fixed corpus, one fingerprint per operation.

    PYTHONPATH=src python3 perfbench/record_fingerprints.py

Only re-record when a change is meant to alter results; the benchmark
counts every operation whose fingerprint differs as failed.
"""

from __future__ import annotations

import json
from pathlib import Path

from workloads import WORKLOADS

OUT = Path(__file__).resolve().parent / "fingerprints.json"


def main() -> None:
    recorded = {}
    for name, workload in WORKLOADS.items():
        p = workload(0).run_pass()
        bad = [f"{op.id}: {op.failure}" for op in p.ops if op.failure]
        if bad:
            raise SystemExit(f"{name}: not recording failed operations: {bad}")
        recorded[name] = {op.id: op.fingerprint for op in p.ops}
        print(name, len(p.ops), "operations")
    OUT.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
