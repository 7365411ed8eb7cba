"""The three workloads: their inputs, one cold pass over them, and the checks
each operation must pass.

An operation is a protocol (harness), a problem set (agreement) or a CLI
call (cli).  A harness pass, and every agreement or in-process CLI
operation, starts from an empty normal-form cache: the state a fresh
``prove-theorem`` or CLI process starts from.  Each operation yields a
fingerprint, compared with the one recorded in ``fingerprints.json`` for the
fixed corpus, and a failure reason when it breaks an invariant that holds
for any input (raised, hit a cap, disagreed with the oracle, produced a
counterexample or a malformed trace).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from taggedunify import oracle
from taggedunify.acun import unify_acun
from taggedunify.bsca import BscaConfig, ChoiceSpaceExceeded, unify_combined
from taggedunify.oracle import BoundExceeded, GenConfig, gen_problem, ground_unifiable, run_harness
from taggedunify.terms import Const, Problem, Theory, Var, acun_normal_form, is_pure, xor_of
from taggedunify.unify import unify_std

from speed import Speedometer

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Op:
    id: str
    latency_s: float
    fingerprint: object
    failure: str | None = None
    start: float = 0.0  # perf_counter at the call
    runs: list[tuple[float, float]] = field(default_factory=list)  # further (start, wall_s)


@dataclass
class Pass:
    start: float = 0.0  # perf_counter at the start of the pass
    wall_s: float = 0.0
    pairs: int = 0
    ops: list[Op] = field(default_factory=list)
    nf_hits: int = 0  # normal-form cache statistics, summed over cold starts
    nf_misses: int = 0
    nf_size: int = 0

    def tally_cache(self) -> None:
        """Add what the cache did since it was last emptied."""
        info = acun_normal_form.cache_info()
        self.nf_hits += info.hits
        self.nf_misses += info.misses
        self.nf_size = max(self.nf_size, info.currsize)


class Harness:
    """``run_harness`` on generated tagged protocols, the paper's central
    experiment, through its public entry point.  Latency is per protocol
    (one ``check_theorem`` call)."""

    name = "harness"
    SEED = 20_260_809
    SAMPLES = 300
    MIN_PASSES = 2  # timed passes at least; 300 operations each
    HELD_OUT_SAMPLES = 20

    def __init__(self, seed: int):
        self.corpus = GenConfig(seed=self.SEED, samples=self.SAMPLES)
        self.held_out = GenConfig(seed=seed, samples=self.HELD_OUT_SAMPLES)
        self.info = {"gen_seed": self.SEED, "protocols": self.SAMPLES,
                     "held_out_seed": seed, "held_out_protocols": self.HELD_OUT_SAMPLES}

    def run_pass(self, cfg: GenConfig | None = None) -> Pass:
        out = Pass()
        inner = oracle.check_theorem

        def timed_check(terms, *args, **kwargs):
            t0 = time.perf_counter()
            tr = inner(terms, *args, **kwargs)
            dt = time.perf_counter() - t0
            fp = [len(tr.pairs), sum(1 for p in tr.pairs if p.combined),
                  sum(1 for p in tr.pairs if p.free)]
            failure = None
            if tr.counterexamples:
                failure = "counterexample"
            elif tr.incomplete:
                failure = "caps hit"
            out.ops.append(Op(str(len(out.ops)), dt, fp, failure, t0))
            return tr

        oracle.check_theorem = timed_check
        acun_normal_form.cache_clear()
        try:
            out.start = time.perf_counter()
            report = run_harness(cfg or self.corpus)
            out.wall_s = time.perf_counter() - out.start
        finally:
            oracle.check_theorem = inner
        out.tally_cache()
        out.pairs = report.pairs_total
        return out

    def run_held_out(self) -> Pass:
        return self.run_pass(self.held_out)


def _xor_problems(rng: random.Random, count: int) -> list[list[Problem]]:
    """Random pure-xor problems, the shape of the xor half of acceptance c6."""
    pool = [Const("a"), Const("b"), Const("c"), Var("X"), Var("Y")]
    out = []
    for _ in range(count):
        sides = [xor_of([rng.choice(pool) for _ in range(rng.randint(1, 4))]) for _ in "lr"]
        out.append([Problem(*sides)])
    return out


def _std_pure(problems: list[Problem]) -> bool:
    return all(is_pure(s, Theory.STD) for p in problems for s in (p.lhs, p.rhs))


class Agreement:
    """The solver/oracle agreement sweep of acceptance c6: each mixed problem
    set goes to the combined solver (first unifier, full identification) and
    to the ground oracle, and to the standard solver and oracle where pure;
    each pure-xor problem to the xor solver and the oracle."""

    name = "agreement"
    SEED = 61
    XOR_SEED = 77
    MIN_PASSES = 3  # timed passes at least; the percentiles rest on a few sets
    SETS = 40
    XOR_SETS = 60
    HELD_OUT_SETS = 6
    HELD_OUT_XOR_SETS = 20
    CAPS = BscaConfig(first_only=True, keep_traces=False)
    SHORT_S = 0.15
    MIN_RUNS = 3
    MIN_RUNS_S = 0.01

    def __init__(self, seed: int):
        cfg = GenConfig(seed=self.SEED)
        self.cfg = cfg
        ops = [(f"c6:{i}", gen_problem(cfg, i)) for i in range(self.SETS)]
        ops += [(f"xor:{i}", ps) for i, ps in
                enumerate(_xor_problems(random.Random(self.XOR_SEED), self.XOR_SETS))]
        random.Random(seed).shuffle(ops)
        self.ops = ops
        held_cfg = GenConfig(seed=seed)
        self.held_out_ops = [(f"c6:{i}", gen_problem(held_cfg, i))
                             for i in range(self.HELD_OUT_SETS)]
        self.held_out_ops += [(f"xor:{i}", ps) for i, ps in enumerate(
            _xor_problems(random.Random(seed), self.HELD_OUT_XOR_SETS))]
        self.info = {"gen_seed": self.SEED, "xor_seed": self.XOR_SEED,
                     "mixed_sets": self.SETS, "xor_sets": self.XOR_SETS,
                     "order_seed": seed, "held_out_seed": seed,
                     "held_out_sets": len(self.held_out_ops)}

    def _check(self, op_id: str, problems: list[Problem]) -> tuple[str, str | None]:
        cfg = self.cfg
        if op_id.startswith("xor:"):
            solved = bool(unify_acun(problems))
            agree = solved == ground_unifiable(problems, Theory.ACUN, cfg)
            return str(int(solved)), None if agree else "xor solver disagrees with oracle"
        combined = bool(unify_combined(problems, self.CAPS).unifiers)
        if combined != ground_unifiable(problems, Theory.COMBINED, cfg):
            return str(int(combined)), "combined solver disagrees with oracle"
        if not _std_pure(problems):
            return f"{int(combined)}-", None
        std = unify_std(problems) is not None
        if std != ground_unifiable(problems, Theory.STD, cfg):
            return f"{int(combined)}{int(std)}", "std solver disagrees with oracle"
        return f"{int(combined)}{int(std)}", None

    def _timed_check(self, op_id: str, problems: list[Problem]) -> Op:
        acun_normal_form.cache_clear()
        t0 = time.perf_counter()
        try:
            verdict, failure = self._check(op_id, problems)
        except (BoundExceeded, ChoiceSpaceExceeded) as exc:
            verdict, failure = None, f"caps hit: {exc}"
        except Exception as exc:  # one broken problem set must not hide the others
            verdict, failure = None, f"raised {exc!r}"
        return Op(op_id, time.perf_counter() - t0, verdict, failure, t0)

    def run_pass(self, ops=None, speed: Speedometer | None = None) -> Pass:
        """One pass.  A timed pass (with ``speed``) decides a set that took
        under SHORT_S again until it has run MIN_RUNS times and MIN_RUNS_S
        in all, each time from an empty cache and checked, between two speed
        samples: one run that short times the CPU caches the previous set
        left as much as the set, and the machine's speed changes within
        tens of milliseconds."""
        out = Pass()
        out.start = time.perf_counter()
        for op_id, problems in ops or self.ops:
            op = self._timed_check(op_id, problems)
            out.tally_cache()
            if speed and op.latency_s < self.SHORT_S:
                speed.sample()
                total_s = op.latency_s
                while len(op.runs) + 1 < self.MIN_RUNS or total_s < self.MIN_RUNS_S:
                    again = self._timed_check(op_id, problems)
                    op.runs.append((again.start, again.latency_s))
                    total_s += again.latency_s
                    if op.failure is None and (again.failure or again.fingerprint != op.fingerprint):
                        op.failure = again.failure or "verdict differs between runs"
                speed.sample()
            out.ops.append(op)
            out.pairs += len(problems)
        out.wall_s = time.perf_counter() - out.start
        return out

    def run_held_out(self) -> Pass:
        return self.run_pass(self.held_out_ops)


TRACE_KEYS = frozenset((
    "gamma0", "gamma1", "gamma2", "var_id_partition", "gamma3", "gamma41", "gamma42",
    "var_split", "beta", "gamma51", "gamma52", "linear_order", "sigma1", "sigma2",
    "combined",
))


class Cli:
    """Fresh-process calls of ``python -m taggedunify.cli`` over a fixed mix
    of the golden files, one child at a time; the seed shuffles each round.
    A timed round samples the machine's speed before each call, while no
    child runs."""

    name = "cli"
    CALLS = {
        "unify-worked": ["unify", "golden/worked_example.problems"],
        "unify-boundary": ["unify", "golden/tag_arithmetic_boundary.problems"],
        "unify-explain": ["unify", "--explain", "golden/worked_example.problems"],
        "dnut-check-original": ["dnut", "check", "golden/protocol_original.terms"],
        "dnut-check-tagged": ["dnut", "check", "golden/protocol_tagged.terms"],
        "dnut-tag-original": ["dnut", "tag", "golden/protocol_original.terms"],
        "parse-worked": ["parse", "golden/worked_example.problems"],
    }
    MIN_PASSES = 3  # timed rounds at least
    # unification equations in each call's input
    PAIRS = {"unify-worked": 1, "unify-boundary": 1, "unify-explain": 1}

    def __init__(self, seed: int):
        import taggedunify.cli  # noqa: F401  (part of what a CLI user waits for)

        for argv in self.CALLS.values():
            (ROOT / argv[-1]).read_text(encoding="utf-8")
        self.rng = random.Random(seed)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.info = {"calls": list(self.CALLS), "order_seed": seed}

    def check_output(self, call: str, code: int, stdout: str) -> tuple[object, str | None]:
        """The fingerprint of one call and, for ``--explain``, the trace check.

        Pruning may change which branches ``--explain`` reports, so only its
        unifier line is fingerprinted; every further line must be one
        branch trace with the documented keys."""
        if call != "unify-explain":
            return [code, stdout], None
        lines = stdout.splitlines()
        for line in lines[1:]:
            try:
                keys = set(json.loads(line))
            except (ValueError, TypeError):
                return [code, lines[0]], "trace line is not a JSON object"
            if keys != TRACE_KEYS:
                return [code, lines[0]], "trace line keys differ from the documented 15"
        return [code, lines[0] if lines else ""], None

    def run_pass(self, speed: Speedometer | None = None) -> Pass:
        out = Pass()
        order = list(self.CALLS)
        self.rng.shuffle(order)
        out.start = time.perf_counter()
        for call in order:
            if speed:
                speed.sample()
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "taggedunify.cli", *self.CALLS[call]],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=60,
            )
            dt = time.perf_counter() - t0
            fp, failure = self.check_output(call, proc.returncode, proc.stdout)
            out.ops.append(Op(call, dt, fp, failure, t0))
            out.pairs += self.PAIRS.get(call, 0)
        out.wall_s = time.perf_counter() - out.start
        return out

    def run_held_out(self) -> Pass:
        return Pass()


WORKLOADS = {w.name: w for w in (Harness, Agreement, Cli)}

