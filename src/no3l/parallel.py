"""Worker-count resolution and an order-preserving parallel map.

Trials, chunks of Monte Carlo seeds and exact-scan tasks are
embarrassingly parallel.  The worker count is NO3L_THREADS when the
environment variable is set, else the cpu count; with one worker
everything runs serially in-process.  Results are returned in input order
either way, so downstream output is identical whatever the worker count.

Pools exist at one level only: no mapped function (a trial, a chunk of
Monte Carlo seeds, a scan task) maps again, so the triple-kernel calls and
everything else a worker does run serially inside that worker.

A batch whose tasks are of several kinds is a Plan: (fn, args) tasks,
each with an estimate of its cost, and the join that turns their results
into the batch's answer.  map_ordered(run_task, plan.tasks) runs them, so
tasks of several plans can share one map.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

A = TypeVar("A")
R = TypeVar("R")


def resolve_workers() -> int:
    raw = os.environ.get("NO3L_THREADS")
    if raw is None:
        return os.cpu_count() or 1
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(f"NO3L_THREADS must be an integer, got {raw!r}") from None
    if workers < 1:
        raise ValueError(f"NO3L_THREADS must be >= 1, got {workers}")
    return workers


def map_ordered(fn: Callable[[A], R], items: Sequence[A]) -> list[R]:
    """Apply fn to every item, preserving order; parallel when workers > 1.

    The pool never has more workers than there are items.
    """
    workers = min(resolve_workers(), len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    chunk = max(1, len(items) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunk))


@dataclass(frozen=True)
class Plan:
    """The tasks of one batch, their cost estimates, and the join of their results.

    tasks[i] is an (fn, args) pair that run_task calls as fn(args), and
    cells[i] its estimated cost in cell operations; join takes the results
    in task order.
    """

    tasks: list[tuple[Callable, object]]
    cells: list[int]
    join: Callable[[list], object]


def run_task(task: tuple[Callable[[A], R], A]) -> R:
    """fn(args) of one (fn, args) task of a Plan."""
    fn, args = task
    return fn(args)
