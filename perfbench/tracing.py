"""Span tracing around no3l's layers, installed from outside the program.

The tracer replaces a layer's public functions at the module attributes
where their callers look them up (``no3l.experiments.sample_window``,
``no3l.construct.prefix_triple_counts``, ...) with wrappers that record a
span (name, start, end, parent) and update counters.  Spans stay in memory
and are written as JSONL when the run ends.  A span's self time is its
duration minus the time its child spans cover.

Wrappers only see calls made in this process, so the traced pass runs with
one worker.  A hook whose attribute no longer exists is skipped and named in
``Tracer.missing``; its metrics then read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter
from pathlib import Path
from typing import Callable

# Kernel calls on fewer points than this take the pure-Python path today.
SMALL_M = 192

# Spans that count as a kernel pass over a point set.
KERNELS = ("triples.prefix_triple_counts", "triples.count_collinear_triples")
# Spans whose kernel calls belong to a trial (one sampled set each).
TRIAL_SPANS = ("experiments.run_trials", "analytics.monte_carlo_moments")


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    """A call's argument, whether it was passed by position or by name."""
    return args[index] if len(args) > index else kwargs[name]


def _count_sample(counts: Counter, args, kwargs, result) -> None:
    counts["sampling.points_kept"] += len(result)
    counts["sampling.cells"] += ((1 << _arg(args, kwargs, 0, "cfg").window_exponent) - 1) ** 2


def _count_write(counts: Counter, args, kwargs, result) -> None:
    counts["sampling.bytes_written"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _count_read(counts: Counter, args, kwargs, result) -> None:
    counts["sampling.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_kernel(pairs: Callable[[int], int], found: Callable[[object], int]):
    def count(counts: Counter, args, kwargs, result) -> None:
        m = len(_arg(args, kwargs, 0, "ps"))
        counts["triples.points_in"] += m
        counts["triples.pairs_examined"] += pairs(m)
        counts["triples.triples_found"] += found(result)
        counts["triples.small_calls"] += m < SMALL_M
    return count


def _count_delete(counts: Counter, args, kwargs, result) -> None:
    counts["construct.victims"] += len(_arg(args, kwargs, 0, "sample")) - len(result)
    counts["construct.survivors"] += len(result)


def _count_greedy(counts: Counter, args, kwargs, result) -> None:
    counts["construct.greedy.accepted"] += len(result)


def _count_weights(counts: Counter, args, kwargs, result) -> None:
    counts["analytics.lines_scanned"] += result.line_count


def _count_mc(counts: Counter, args, kwargs, result) -> None:
    counts["experiments.trials"] += len(_arg(args, kwargs, 2, "seeds"))


def _count_trials(counts: Counter, args, kwargs, result) -> None:
    counts["experiments.trials"] += _arg(args, kwargs, 0, "manifest").trial_count


def _count_map(counts: Counter, args, kwargs, result) -> None:
    counts["parallel.items"] += len(_arg(args, kwargs, 1, "items"))


def _count_marked(counts: Counter, args, kwargs, result) -> None:
    counts["geom.points_marked"] += len(result)


# (span name, attribute, modules whose attribute callers use, counter).
SPAN_HOOKS = (
    ("sampling.sample_window", "sample_window", ("cli", "experiments", "analytics"), _count_sample),
    ("sampling.write_pointset", "write_pointset", ("cli", "experiments"), _count_write),
    ("sampling.read_pointset", "read_pointset", ("cli",), _count_read),
    ("sampling.shell_counts", "shell_counts", ("experiments", "analytics"), None),
    (
        "triples.prefix_triple_counts", "prefix_triple_counts", ("triples", "construct"),
        _count_kernel(lambda m: m * (m - 1) // 2, sum),
    ),
    (
        "triples.count_collinear_triples", "count_collinear_triples", ("cli",),
        _count_kernel(lambda m: m * (m - 1), int),
    ),
    ("triples.box_triple_counts", "box_triple_counts", ("experiments", "analytics"), None),
    (
        "construct.delete_max_of_triples", "delete_max_of_triples", ("cli", "experiments"),
        _count_delete,
    ),
    ("construct.greedy_construct", "greedy_construct", ("cli",), _count_greedy),
    ("construct.modular_parabola", "modular_parabola", ("cli",), None),
    ("construct.density_profile", "density_profile", ("experiments",), None),
    ("analytics.weight_sums", "weight_sums", ("experiments",), _count_weights),
    ("analytics.variance_bounds", "variance_bounds", ("experiments",), None),
    ("analytics.monte_carlo_moments", "monte_carlo_moments", ("experiments",), _count_mc),
    ("experiments.run_trials", "run_trials", ("cli",), _count_trials),
    ("experiments.lemma_report", "lemma_report", ("cli",), None),
    ("parallel.map_ordered", "map_ordered", ("experiments", "analytics"), _count_map),
)

# Hot leaf functions: counted per call, no span (a span each would cost more
# than the call on greedy's millions of line walks).
COUNT_HOOKS = (
    ("geom.line_points_in_rect", "line_points_in_rect", ("construct",), _count_marked),
)


class Tracer:
    """In-memory spans and counters for one run; one trace id per run."""

    def __init__(self) -> None:
        self.trace_id = f"{os.getpid()}-{time.time_ns()}"
        self.spans: list[list] = []  # [id, parent, name, start, end]
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        rec = [len(self.spans), parent, name, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def end(self, rec: list) -> None:
        rec[4] = time.perf_counter()
        self._stack.pop()

    def traced(self, name: str, fn: Callable, count=None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(rec)
            self.counts[name + ".calls"] += 1
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result
        return wrapper

    def counted(self, name: str, fn: Callable, count) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[name + ".calls"] += 1
            count(self.counts, args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        for hooks, make in ((SPAN_HOOKS, self.traced), (COUNT_HOOKS, self.counted)):
            for name, attr, modules, count in hooks:
                for mod_name in modules:
                    try:
                        module = importlib.import_module(f"no3l.{mod_name}")
                    except ModuleNotFoundError:
                        module = None
                    original = getattr(module, attr, None)
                    if original is None:
                        self.missing.append(f"no3l.{mod_name}.{attr}")
                        continue
                    self._patched.append((module, attr, original))
                    setattr(module, attr, make(name, original, count))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child = [0.0] * len(self.spans)
        for sid, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Counter = Counter()
        for sid, _, name, start, end in self.spans:
            out[name] += (end - start) - child[sid]
        return dict(out)

    def root_seconds(self) -> float:
        return sum(end - start for _, parent, _, start, end in self.spans if parent is None)

    def kernel_calls_in_trials(self) -> int:
        names = {rec[0]: rec[2] for rec in self.spans}
        parents = {rec[0]: rec[1] for rec in self.spans}
        total = 0
        for sid, parent, name, _, _ in self.spans:
            if name not in KERNELS:
                continue
            while parent is not None and names[parent] not in TRIAL_SPANS:
                parent = parents[parent]
            total += parent is not None
        return total

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({
                    "trace_id": self.trace_id, "id": sid, "parent": parent,
                    "name": name, "start": start, "end": end,
                }) + "\n")


def wrapper_cost(calls: int = 20000) -> tuple[float, float]:
    """Seconds one span wrapper and one count wrapper add per call."""
    def noop(*args):
        return ()

    def nocount(counts, args, kwargs, result):
        counts["noop.items"] += len(result)

    probe = Tracer()
    costs = []
    for fn in (noop, probe.traced("noop", noop, nocount), probe.counted("noop", noop, nocount)):
        probe.spans.clear()
        start = time.perf_counter()
        for _ in range(calls):
            fn(None)
        costs.append((time.perf_counter() - start) / calls)
    return max(0.0, costs[1] - costs[0]), max(0.0, costs[2] - costs[0])


# Per-layer metrics: name -> (unit, better, computed from inputs).
LAYER_METRICS = {
    "sampling.sample_window.calls": ("count", "lower", False),
    "sampling.sample_window.self_s": ("s", "lower", False),
    "sampling.points_per_s": ("1/s", "higher", False),
    "sampling.keep_ratio": ("ratio", "higher", True),
    "sampling.write_pointset.self_s": ("s", "lower", False),
    "sampling.read_pointset.self_s": ("s", "lower", False),
    "sampling.bytes_written": ("bytes", "lower", False),
    "sampling.bytes_read": ("bytes", "lower", False),
    "sampling.shell_counts.self_s": ("s", "lower", False),
    "triples.prefix_triple_counts.calls": ("count", "lower", False),
    "triples.prefix_triple_counts.self_s": ("s", "lower", False),
    "triples.count_collinear_triples.calls": ("count", "lower", False),
    "triples.count_collinear_triples.self_s": ("s", "lower", False),
    "triples.box_triple_counts.calls": ("count", "lower", False),
    "triples.box_triple_counts.self_s": ("s", "lower", False),
    "triples.points_in": ("count", "lower", False),
    "triples.pairs_examined": ("count", "lower", True),
    "triples.triples_found": ("count", "lower", False),
    "triples.passes_per_trial": ("count", "lower", True),
    "triples.small_calls": ("count", "lower", True),
    "construct.delete_max_of_triples.self_s": ("s", "lower", False),
    "construct.victims": ("count", "lower", False),
    "construct.survivors": ("count", "higher", False),
    "construct.greedy_construct.self_s": ("s", "lower", False),
    "construct.greedy.accepted": ("count", "higher", False),
    "geom.line_points_in_rect.calls": ("count", "lower", False),
    "geom.points_marked": ("count", "lower", False),
    "construct.modular_parabola.self_s": ("s", "lower", False),
    "construct.density_profile.self_s": ("s", "lower", False),
    "analytics.weight_sums.self_s": ("s", "lower", False),
    "analytics.lines_scanned": ("count", "lower", False),
    "analytics.variance_bounds.self_s": ("s", "lower", False),
    "analytics.monte_carlo_moments.self_s": ("s", "lower", False),
    "experiments.run_trials.self_s": ("s", "lower", False),
    "experiments.lemma_report.self_s": ("s", "lower", False),
    "experiments.trials": ("count", "higher", False),
    "parallel.map_ordered.calls": ("count", "lower", False),
    "parallel.items": ("count", "lower", False),
    "parallel.busy_ratio": ("ratio", "higher", False),
    "cli.main.calls": ("count", "lower", False),
    "trace.overhead_frac": ("ratio", "lower", False),
}


def layer_metrics(tracer: Tracer, traced_wall: float, busy_ratio: float) -> dict[str, float]:
    """Every per-layer metric of the traced pass, 0 where a layer did nothing."""
    counts = tracer.counts
    selfs = tracer.self_times()
    values: dict[str, float] = {}
    for name in LAYER_METRICS:
        if name.endswith(".self_s"):
            values[name] = selfs.get(name[: -len(".self_s")], 0.0)
        else:
            values[name] = counts.get(name, 0)
    sample_s = values["sampling.sample_window.self_s"]
    kept = counts.get("sampling.points_kept", 0)
    cells = counts.get("sampling.cells", 0)
    values["sampling.points_per_s"] = kept / sample_s if sample_s > 0 else 0.0
    values["sampling.keep_ratio"] = kept / cells if cells else 0.0
    trials = counts.get("experiments.trials", 0)
    values["triples.passes_per_trial"] = tracer.kernel_calls_in_trials() / trials if trials else 0.0
    values["parallel.busy_ratio"] = busy_ratio
    span_cost, count_cost = wrapper_cost()
    count_calls = sum(counts.get(name + ".calls", 0) for name, *_ in COUNT_HOOKS)
    overhead = len(tracer.spans) * span_cost + count_calls * count_cost
    values["trace.overhead_frac"] = overhead / traced_wall if traced_wall > 0 else 0.0
    return values
