"""Per-layer spans recorded from outside the package.

A wrapper replaces a public function's name in the namespace of a module
that calls it (``taggedunify.bsca.unify_std``, say), so the package itself
is untouched.  Consequences:

* a call from inside the defining module through its own global name is
  traced only when that module's namespace is wrapped too (the BS steps);
* direct recursion is not traced: a wrapper entered while the innermost open
  span has its own name calls straight through;
* a wrapped generator function gets one span per ``next()``;
* spans nest on one stack, and a span's self time is its duration minus the
  time covered by its child spans.

Spans are aggregated in memory per name (calls, items, failures and self
time), which keeps tracing cheap enough for the hundreds of thousands
of branches the agreement workload attempts.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

_clock = time.perf_counter


@dataclass
class Stat:
    calls: int = 0  # spans closed
    n: int = 0  # items yielded, for generator functions
    fails: int = 0  # calls whose result the layer reports as "no solution"
    errors: int = 0  # calls that raised
    self_s: float = 0.0
    durations: list | None = None  # kept only where percentiles are reported


class Tracer:
    def __init__(self, keep_durations: tuple[str, ...] = ()):
        self.stats: dict[str, Stat] = {}
        self.counters: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self._keep = set(keep_durations)
        self._stack: list[list] = []  # [name, child seconds] per open span

    def stat(self, name: str) -> Stat:
        if name not in self.stats:
            self.stats[name] = Stat(durations=[] if name in self._keep else None)
        return self.stats[name]

    def _close(self, stat: Stat, frame: list, dt: float) -> None:
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1][1] += dt
        stat.calls += 1
        stat.self_s += dt - frame[1]
        if stat.durations is not None:
            stat.durations.append(dt)

    def span(self, name: str, fn, failed=None):
        """Wrap a plain function; ``failed(result)`` marks negative answers."""
        stat = self.stat(name)
        stack = self._stack
        close = self._close

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close(stat, frame, _clock() - t0)
                stat.errors += 1
                raise
            close(stat, frame, _clock() - t0)
            if failed is not None and failed(result):
                stat.fails += 1
            return result

        return wrapper

    def gen_span(self, name: str, fn, on_item=None):
        """Wrap a generator function: one span per ``next()``."""
        stat = self.stat(name)
        stack = self._stack
        close = self._close

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def traced():
                while True:
                    frame = [name, 0.0]
                    stack.append(frame)
                    t0 = _clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        close(stat, frame, _clock() - t0)
                    stat.n += 1
                    if on_item is not None:
                        on_item(item)
                    yield item

            return traced()

        return wrapper

    def count(self, key: str, fn):
        """Count calls without opening a span (for the oracle's inner loop)."""
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def per_call_max(self, key: str, items: Stat, fn):
        """Record the most items of ``items`` yielded during one call of fn."""
        maxima = self.maxima

        def wrapper(*args, **kwargs):
            before = items.n
            try:
                return fn(*args, **kwargs)
            finally:
                maxima[key] = max(maxima.get(key, 0), items.n - before)

        return wrapper

    def self_sum_s(self) -> float:
        return sum(s.self_s for s in self.stats.values())

    def exact_counts(self) -> dict[str, int]:
        """Every count the trace holds; two traced passes must agree on all."""
        out: dict[str, int] = {}
        for name, s in sorted(self.stats.items()):
            for field in ("calls", "n", "fails", "errors"):
                out[f"{name}.{field}"] = getattr(s, field)
        out.update({k: v for k, v in sorted(self.counters.items())})
        out.update({k: v for k, v in sorted(self.maxima.items())})
        return out


def _is_none(result) -> bool:
    return result is None


def _is_empty(result) -> bool:
    return not result


def _classify_branch(counters: Counter):
    def on_item(attempt) -> None:
        if attempt.sigma1 is None:
            counters["bsca.branch.std_fail"] += 1
        elif attempt.sigma2 is None:
            counters["bsca.branch.xor_fail"] += 1
        else:
            counters["bsca.branch.both_solved"] += 1

    return on_item


def wrap_table(tracer: Tracer, bench_module: str) -> list[tuple[str, str, object]]:
    """(module, attribute, replacement) for every traced layer boundary.

    Callers are named by layer; ``"bench"`` stands for ``bench_module``, the
    benchmark's own module that calls into the package directly.
    """
    tu = {m: importlib.import_module(f"taggedunify.{m}") for m in
          ("terms", "unify", "acun", "bsca", "dnut", "oracle", "textfmt")}
    out: list[tuple[str, str, object]] = []

    def put(attr, wrapper, callers):
        for c in callers:
            out.append((bench_module if c == "bench" else f"taggedunify.{c}", attr, wrapper))

    def span(name, layer, attr, callers, failed=None):
        put(attr, tracer.span(name, getattr(tu[layer], attr), failed), callers)

    span("terms.acun_normal_form", "terms", "acun_normal_form", ["acun", "bsca", "oracle"])
    span("unify.unify_std", "unify", "unify_std", ["bsca", "cli", "bench"], _is_none)
    span("unify.unify_free_xor", "unify", "unify_free_xor", ["dnut", "oracle", "cli"], _is_none)
    span("acun.unify_acun", "acun", "unify_acun", ["bsca", "cli", "bench"], _is_empty)
    span("acun.build_gf2_system", "acun", "build_gf2_system", ["acun"])

    combined = tracer.span("bsca.unify_combined", tu["bsca"].unify_combined)
    put("unify_combined", tracer.per_call_max(
        "bsca.branches_max_per_call", tracer.stat("bsca.solve_systems"), combined),
        ["oracle", "cli", "bench"])
    for attr in ("purify_terms", "purify_problems"):
        span("bsca.purify", "bsca", attr, ["bsca"])
    put("variable_identifications", tracer.gen_span(
        "bsca.variable_identifications", tu["bsca"].variable_identifications), ["bsca"])
    span("bsca.split_problems", "bsca", "split_problems", ["bsca"])
    put("solve_systems", tracer.gen_span(
        "bsca.solve_systems", tu["bsca"].solve_systems, _classify_branch(tracer.counters)),
        ["bsca"])
    span("bsca.combine_unifiers", "bsca", "combine_unifiers", ["bsca"])
    put("equal_mod", tracer.span("bsca.verify", tu["terms"].equal_mod), ["bsca"])

    span("dnut.dnut_check", "dnut", "dnut_check", ["oracle", "cli"])
    span("dnut.dnut_tag", "dnut", "dnut_tag", ["oracle", "cli"])

    span("oracle.run_harness", "oracle", "run_harness", ["bench"])
    span("oracle.gen", "oracle", "gen_dnut_protocol", ["oracle"])
    span("oracle.check_theorem", "oracle", "check_theorem", ["oracle"])
    span("oracle.free_unifiable", "oracle", "free_unifiable", ["oracle"])
    span("oracle.ground_unifiable", "oracle", "ground_unifiable", ["bench"])
    put("equal_mod", tracer.count(
        "oracle.ground_unifiable.candidates", tu["terms"].equal_mod), ["oracle"])

    span("textfmt.parse", "textfmt", "parse_problem_file", ["cli"])
    # textfmt's own names are wrapped too, for the renderers other modules
    # import lazily; render_term's recursion passes straight through
    for attr in ("render_substitution", "render_term", "substitution_to_jsonable"):
        span("textfmt.render", "textfmt", attr, ["cli", "textfmt"])
    for attr in ("problem_to_jsonable", "render_problem_file"):
        span("textfmt.render", "textfmt", attr, ["textfmt"])
    return out


@contextmanager
def installed(table: list[tuple[str, str, object]]):
    """Put the wrappers in place for the duration of the block."""
    saved = []
    try:
        for module, attr, wrapper in table:
            mod = importlib.import_module(module)
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, wrapper)
        yield
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)
