"""Wall time converted to reference time, to cancel the host's speed drift.

On a shared host the same pure-Python loop runs up to twice as slow, in
stretches from tens of milliseconds to minutes (CPU time equals wall time,
so this is contention for the core, its caches and its clock, not
descheduling).
Timing the program alone then measures the neighbours.  So a run times a
fixed reference kernel now and then and converts every wall interval of
work into reference seconds: the stretch between two samples is scaled by
``REF_S / kernel time``, the mean of the two samples, and the samples' own
time is left out.  In-process work is sampled from a wall-clock timer every
``EVERY_S``, inside long operations too.  If the host slows the kernel and
the program alike, the two cancel; a change to the program does not,
because the kernel does not use it.  ``REF_S`` is the kernel's time on an
unloaded CPU of the 2-core host the benchmark was written on, so there
reference seconds read as wall seconds.

The kernel does what the program does: it builds, hashes, compares and
walks trees of frozen slotted dataclasses and keys dicts with them.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass

_clock = time.perf_counter

REF_S = 0.001  # kernel time on an unloaded CPU, seconds
EVERY_S = 0.05  # wall time between two timer samples, seconds


@dataclass(frozen=True, slots=True)
class _Leaf:
    name: str


@dataclass(frozen=True, slots=True)
class _Node:
    op: str
    left: object
    right: object


def _build(depth: int, k: int):
    if depth == 0:
        return _Leaf("abcde"[k % 5])
    return _Node("fgh"[k % 3], _build(depth - 1, 3 * k + 1), _build(depth - 1, k + depth))


def _walk(t, seen: dict) -> int:
    if isinstance(t, _Leaf):
        return 1
    if t in seen:
        return seen[t]
    n = _walk(t.left, seen) + _walk(t.right, seen) + 1
    seen[t] = n
    return n


def kernel() -> int:
    """The fixed reference work; the result only keeps it from being trivial."""
    total = 0
    for k in range(2):
        seen: dict = {}
        t, u = _build(6, k), _build(6, k + 1)
        total += _walk(t, seen) + _walk(u, seen) + (t == u) + len(seen)
    return total


class Speedometer:
    """Kernel samples, and the conversion of wall intervals that lie
    between the first and the last sample."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.times: list[float] = []

    def sample(self, repeats: int = 1) -> None:
        """Time the kernel; with ``repeats``, its median over as many runs."""
        times = []
        t0 = _clock()
        for _ in range(repeats):
            t = _clock()
            kernel()
            times.append(_clock() - t)
        self.starts.append(t0)
        self.ends.append(_clock())
        self.times.append(statistics.median(times))

    @contextmanager
    def sampling(self, timer: bool):
        """Sample at the start and the end of the block and, with ``timer``,
        from SIGALRM every EVERY_S in between.  The handler runs between
        two bytecodes of the main thread and touches nothing of the program."""
        def on_alarm(signum, frame):
            self.sample()
            signal.setitimer(signal.ITIMER_REAL, EVERY_S)

        old = signal.signal(signal.SIGALRM, on_alarm) if timer else None
        self.sample()
        if timer:
            signal.setitimer(signal.ITIMER_REAL, EVERY_S)
        try:
            yield self
        finally:
            if timer:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, old)
            self.sample()

    def ref_seconds(self, a: float, b: float) -> float:
        """Reference seconds of the work done in the wall interval [a, b].

        Time inside samples is left out; each stretch between two samples is
        scaled by the mean of their kernel times."""
        if not self.ends or a < self.ends[0] or b > self.starts[-1]:
            raise ValueError("interval not enclosed by speed samples")
        k = max(bisect_right(self.ends, a) - 1, 0)  # last sample ending by a
        total = 0.0
        while k + 1 < len(self.starts) and self.ends[k] < b:
            lo, hi = max(a, self.ends[k]), min(b, self.starts[k + 1])
            if hi > lo:
                total += (hi - lo) * 2 * REF_S / (self.times[k] + self.times[k + 1])
            k += 1
        return total
