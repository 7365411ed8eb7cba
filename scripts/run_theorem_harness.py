#!/usr/bin/env python3
"""Run the tagged-protocol harness at scale and print the JSON report.

This is ``taggedunify prove-theorem --format json``: it takes the same
options and exits with the same codes.

Example:
    python scripts/run_theorem_harness.py --samples 10000 --seed 0 > report.json
"""

import sys

from taggedunify.cli import main

if __name__ == "__main__":
    raise SystemExit(main(["prove-theorem", "--format", "json", *sys.argv[1:]]))
