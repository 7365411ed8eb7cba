#!/usr/bin/env python3
"""Print one sha256 per search mode of the combined solver over generated
problem sets, with the number of traced branches in each mode.

A mode's digest is taken over ``repr((unifiers, traces))`` of
``unify_combined`` on every ``gen_problem`` set, in seed order and then
index order, hashed call by call; a call that exceeds a cap adds the
``repr`` of its ``ChoiceSpaceExceeded`` instead and counts as capped.  The
modes are the all-unifier search, ``first_only``, and both with
``prune=False, max_branches=20000``, so a change to the search that alters
any unifier, any attempted branch, its order, its states or a cap outcome
changes a digest.  Each output line is a mode's name, trace count, capped
call count and digest, separated by tabs.  The full run (seeds 1, 4 and
61, 150 sets each) takes about eight minutes on one core, nearly all of it
in the unpruned modes.

Example:
    python scripts/search_digest.py
    python scripts/search_digest.py --seeds 1 --count 5
"""

import argparse
import hashlib

from taggedunify.bsca import BscaConfig, ChoiceSpaceExceeded, unify_combined
from taggedunify.oracle import GenConfig, gen_problem

MODES = {
    "all": BscaConfig(),
    "first_only": BscaConfig(first_only=True),
    "all-unpruned": BscaConfig(prune=False, max_branches=20_000),
    "first_only-unpruned": BscaConfig(prune=False, max_branches=20_000, first_only=True),
}


def digest(cfg: BscaConfig, seeds: list[int], count: int) -> tuple[int, int, str]:
    """The number of traces and of capped calls, and the sha256, of one mode."""
    h = hashlib.sha256()
    traces = capped = 0
    for seed in seeds:
        for i in range(count):
            try:
                result = unify_combined(gen_problem(GenConfig(seed=seed), i), cfg)
            except ChoiceSpaceExceeded as exc:
                h.update(repr(exc).encode())
                capped += 1
                continue
            h.update(repr((result.unifiers, result.traces)).encode())
            traces += len(result.traces)
    return traces, capped, h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 4, 61])
    parser.add_argument("--count", type=int, default=150, help="sets per seed")
    args = parser.parse_args(argv)
    for name, cfg in MODES.items():
        traces, capped, hexdigest = digest(cfg, args.seeds, args.count)
        print(f"{name}\t{traces}\t{capped}\t{hexdigest}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
