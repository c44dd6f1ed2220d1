"""Reproducible batch trials: sample, delete, verify, aggregate, persist.

One trial takes seed, rate and window, realizes the random set Q, removes
the largest member of every collinear triple to get S, and checks the two
facts the construction promises before anything is written down: S has no
collinear triple anywhere in the window, and each shell of S retains at
least the sampled count minus the triples of the next enclosing box.  A
violation aborts the whole run loudly, naming seed and shell; it would mean
the implementation, not the randomness, is wrong.

Aggregates are written byte-reproducibly: trials are keyed by ascending
seed, rows by ascending box exponent, JSON with sorted keys, no timestamps.
The trials need no sort: run_trials, the only maker of a TrialRunResult,
takes them from manifest.seeds, which ascend, through the order-keeping
map_ordered.
Rerunning a manifest must reproduce every output file exactly.

Every seeded batch lives here: a manifest's trials and the Monte Carlo
moments of X_T and Y_T share one batch check, one moment routine and the
event rules of _event_bounds; lemma_report sets those moments next to
the exact bounds of no3l.analytics.  A trial is one task of the pool;
the Monte Carlo maps contiguous chunks of seeds, one per worker (or
narrower, so that one block row of the sampler holds the chunk), hashes
each chunk's windows side by side in one sampler pass, and reads each
seed's X_T and Y_T as a trial does, through shell_counts and
box_triple_counts, from a PointSet that views the seed's slice of the
pass's arrays.  lemma_report runs those chunks and the exact phase's
tasks in one map, largest estimate first, and joins each in plan order.
"""

from __future__ import annotations

import io
import json
import math
import os
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from functools import partial
from itertools import pairwise
from pathlib import Path
from statistics import fmean, median
from typing import Iterable, Sequence

from .analytics import ENUMERATION_CAP, VARIANCE_CAP, _exact_plan
from .construct import delete_max_with_profile, density_profile
from .parallel import Plan, map_ordered, resolve_workers, run_task
from .sampling import (
    WINDOW_EXPONENT_CAP,
    PointSet,
    SamplerConfig,
    _block_row_seeds,
    _hash_seeds,
    decode_json,
    read_ascii,
    sample_window,
    shell_counts,
    write_pointset,
)
from .triples import box_triple_counts, count_collinear_triples

# JSON value types accepted for each manifest field annotation.
_JSON_FIELD_TYPES = {"int": int, "float": (int, float), "str": str}


def _check_batch(first_seed: int, last_seed: int, c: float, window_exponent: int) -> None:
    """Reject seeds first_seed .. last_seed, rate or window that the sampler refuses.

    Also a nonzero rate whose cube is not a positive finite float: k1_hat
    divides by c**3 and the triple-count threshold multiplies by it.
    """
    for seed in (first_seed, last_seed):
        SamplerConfig(seed=seed, c=c, window_exponent=window_exponent)
    try:
        cube = c**3
    except OverflowError:
        cube = math.inf
    if c != 0 and not 0.0 < cube < math.inf:
        raise ValueError(
            f"sampling rate {c!r} is out of range: c**3 must be a positive finite float"
        )


@dataclass(frozen=True)
class TrialManifest:
    """Complete description of a trial batch; trial i uses base_seed + i.

    t_exact_cap and log_base change no computation: they are only validated
    here and echoed into aggregate.json's manifest block.
    """

    base_seed: int
    trial_count: int
    c: float
    window_exponent: int
    t_exact_cap: int = 6
    out_dir: str = "trials"
    log_base: str = "ln"

    def __post_init__(self) -> None:
        if self.trial_count < 1:
            raise ValueError(f"need at least one trial, got {self.trial_count}")
        if not 1 <= self.t_exact_cap <= ENUMERATION_CAP:
            raise ValueError(
                f"exact-analytics cap must be in [1, {ENUMERATION_CAP}], got {self.t_exact_cap}"
            )
        if self.log_base != "ln":
            raise ValueError(f"density ratios are defined for log_base 'ln', got {self.log_base!r}")
        last_seed = self.base_seed + self.trial_count - 1
        _check_batch(self.base_seed, last_seed, self.c, self.window_exponent)

    @property
    def seeds(self) -> list[int]:
        return [self.base_seed + i for i in range(self.trial_count)]

    @classmethod
    def from_json_file(cls, path: str | os.PathLike) -> "TrialManifest":
        """The manifest a JSON file declares; each ValueError begins with the path."""
        # universal newlines, as a text-mode open reads, for the decoder's positions
        raw = decode_json(io.StringIO(read_ascii(path), newline=None).read(), path, "manifest")
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: manifest is not a JSON object")
        declared = {f.name: f for f in fields(cls)}
        unknown = sorted(set(raw) - set(declared))
        if unknown:
            raise ValueError(f"{path}: unknown manifest key(s) {', '.join(unknown)}")
        missing = sorted(
            name for name, f in declared.items()
            if f.default is MISSING and name not in raw
        )
        if missing:
            raise ValueError(f"{path}: missing manifest key(s) {', '.join(missing)}")
        for name, value in raw.items():
            # f.type is the annotation's text: "int", "float" or "str"
            allowed = _JSON_FIELD_TYPES[declared[name].type]
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise ValueError(
                    f"{path}: manifest key {name} must be {declared[name].type},"
                    f" got {value!r}"
                )
        try:
            return cls(**raw)
        except ValueError as exc:  # the range checks of __post_init__
            raise ValueError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class EventRecord:
    """Did trial statistics clear the per-shell thresholds?

    x_ok: X_T >= x_floor(T, c); y_ok: Y_T <= y_ceiling(T, c, k1_hat); e_ok
    is their conjunction.  With c = 0 both thresholds collapse to 0; by
    convention the degenerate X-side then counts as missed (a sample of
    nothing retains nothing) while the Y-side holds.
    """

    T: int
    x_ok: bool
    y_ok: bool
    e_ok: bool


def seed_moments(rows: Sequence[Sequence[int]]) -> tuple[list[float], list[float]]:
    """Per column of rows, one row of integer counts per seed: the mean and
    the sample variance (0.0 for a single seed), each correctly rounded.

    The mean is statistics.fmean.  The variance is the rational
    (n * sum(x**2) - sum(x)**2) / (n * (n - 1)) of exact integer sums,
    the one statistics.variance rounds, and int / int rounds it
    correctly, so it is the same float.
    """
    n = len(rows)
    columns = list(zip(*rows))
    means = [fmean(col) for col in columns]
    variances = [
        (n * sum(x * x for x in col) - sum(col) ** 2) / (n * (n - 1)) if n > 1 else 0.0
        for col in columns
    ]
    return means, variances


def normalized_moments(
    t_values: Sequence[int], means: Sequence[float], variances: Sequence[float], c: float
) -> tuple[float, float]:
    """(k1_hat, k2_hat): the largest normalized mean and variance of Y_T.

    Over the given exponents, k1_hat is the largest mean * sqrt(T) /
    (c**3 * 2**T) and k2_hat the largest var / (2**T * T**3.5); both are 0
    at c = 0, where every Y_T is 0.
    """
    k1_hat = k2_hat = 0.0
    if c > 0:
        for t, mean, var in zip(t_values, means, variances):
            k1_hat = max(k1_hat, mean * math.sqrt(t) / (c**3 * 2**t))
            k2_hat = max(k2_hat, var / (2**t * t**3.5))
    return k1_hat, k2_hat


def x_floor(t: int, c: float) -> float:
    """Floor of the event X on X_T: c * 2**(T-1) / sqrt(T)."""
    return c * 2 ** (t - 1) / math.sqrt(t)


def y_ceiling(t: int, c: float, k1_hat: float) -> float:
    """Ceiling of the event Y on Y_T: 2 * k1_hat * c**3 * 2**T / sqrt(T)."""
    return 2.0 * k1_hat * c**3 * 2**t / math.sqrt(t)


def _event_bounds(t: int, c: float, k1_hat: float) -> tuple[float, float]:
    """(x_min, y_max): a seed meets event X at T when X_T >= x_min and
    event Y when Y_T <= y_max.

    x_min is x_floor(T, c), or 1 where that floor is 0 (c = 0), so that
    X_T = 0 misses there (EventRecord's convention).
    """
    floor = x_floor(t, c)
    return (floor if floor > 0 else 1), y_ceiling(t, c, k1_hat)


def _seed_events(
    t_values: Sequence[int], x: Sequence[int], y: Sequence[int], c: float, k1_hat: float
) -> list[EventRecord]:
    """One seed's EventRecords; x[i] and y[i] are its X_T and Y_T at T = t_values[i]."""
    events = []
    for t, xt, yt in zip(t_values, x, y):
        x_min, y_max = _event_bounds(t, c, k1_hat)
        x_ok, y_ok = xt >= x_min, yt <= y_max
        events.append(EventRecord(T=t, x_ok=x_ok, y_ok=y_ok, e_ok=x_ok and y_ok))
    return events


@dataclass(frozen=True)
class TrialOutcome:
    seed: int
    x: list[int]
    y: list[int]
    q_size: int
    s_size: int
    density: list[tuple[int, int, float]]
    events: list[EventRecord] = field(default_factory=list)
    q_file: str | None = None
    s_file: str | None = None


@dataclass(frozen=True)
class TrialRunResult:
    manifest: TrialManifest
    t_values: list[int]
    trials: list[TrialOutcome]
    k1_hat: float
    k2_hat: float


def density_box_sides(window_exponent: int) -> list[int]:
    """The box sides used in trial density profiles: powers of two in [16, 2**(W-1)]."""
    return [1 << e for e in range(4, window_exponent)]


def _run_one_trial(args: tuple[int, float, int]) -> tuple[TrialOutcome, PointSet, PointSet]:
    """One trial's outcome, without events or file names, and its Q and S."""
    seed, c, w = args
    q = sample_window(SamplerConfig(seed=seed, c=c, window_exponent=w))
    x = shell_counts(q, w)
    s, y = delete_max_with_profile(q, w)
    survivors = count_collinear_triples(s)
    if survivors != 0:
        raise RuntimeError(f"seed {seed}: survivor set has {survivors} collinear triples")
    s_counts = shell_counts(s, w)
    for t in range(w):
        if s_counts[t] < x[t] - y[t + 1]:
            raise RuntimeError(
                f"seed {seed}, shell {t}: retained {s_counts[t]} points,"
                f" below the guaranteed {x[t]} - {y[t + 1]}"
            )
    density = density_profile(s, density_box_sides(w))
    outcome = TrialOutcome(
        seed=seed, x=x, y=y[:w], q_size=len(q), s_size=len(s), density=density
    )
    return outcome, q, s


def run_trials(manifest: TrialManifest, write_files: bool = True) -> TrialRunResult:
    """Run every trial of the manifest; verify, persist, and aggregate.

    Y_T here is indexed like X_T (per shell exponent T = 0 .. W-1), with
    Y_T the triples inside [1, 2**T]^2.  Each trial checks that S has no
    triple in the whole window and that shell T retains at least
    X_T - Y_(T+1) points for every T <= W - 1; Y_W, every triple of Q, is
    used by that check only and not reported.
    """
    w = manifest.window_exponent
    out_dir = Path(manifest.out_dir)
    resolve_workers()  # a bad NO3L_THREADS fails here, before the directory is made
    if write_files:
        # an unusable directory fails here, before any trial runs
        out_dir.mkdir(parents=True, exist_ok=True)
    outs = map_ordered(
        _run_one_trial, [(s, manifest.c, w) for s in manifest.seeds]
    )
    t_values = list(range(1, w))
    k1_hat, k2_hat = normalized_moments(
        t_values, *seed_moments([tr.y[1:] for tr, _, _ in outs]), manifest.c
    )

    trials = []
    for i, (tr, q, s) in enumerate(outs):
        tr = replace(tr, events=_seed_events(t_values, tr.x[1:], tr.y[1:], manifest.c, k1_hat))
        if write_files:
            tr = replace(tr, q_file=f"trial{i:04d}_q.tsv", s_file=f"trial{i:04d}_s.tsv")
            write_pointset(q, out_dir / tr.q_file)
            write_pointset(s, out_dir / tr.s_file)
        trials.append(tr)
    result = TrialRunResult(
        manifest=manifest, t_values=t_values, trials=trials,
        k1_hat=k1_hat, k2_hat=k2_hat,
    )
    if write_files:
        (out_dir / "aggregate.json").write_text(aggregate_json(result), encoding="ascii")
        (out_dir / "aggregate.csv").write_text(aggregate_csv(result), encoding="ascii")
        (out_dir / "density.csv").write_text(density_csv(result), encoding="ascii")
    return result


def json_text(doc: object) -> str:
    """doc as strict JSON with sorted keys, indented, newline-terminated."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _csv_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    return repr(value)


def csv_text(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """A header line, then one line per row, newline-terminated.

    A None cell is written empty, a bool as 0 or 1, anything else as its
    repr (exact for floats, plain digits for ints).
    """
    lines = [",".join(header)]
    lines += [",".join(map(_csv_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def aggregate_json(result: TrialRunResult) -> str:
    payload = asdict(result)
    for tr in payload["trials"]:
        tr["density"] = [{"n": n, "count": cnt, "ratio": r} for n, cnt, r in tr["density"]]
    return json_text(payload)


def aggregate_csv(result: TrialRunResult) -> str:
    rows = []
    for i, t in enumerate(result.t_values):
        for tr in result.trials:
            ev = tr.events[i]
            rows.append((t, tr.seed, tr.x[t], tr.y[t], ev.x_ok, ev.y_ok, ev.e_ok))
    return csv_text(("T", "seed", "x", "y", "x_ok", "y_ok", "e_ok"), rows)


def density_csv(result: TrialRunResult) -> str:
    sides = [n for n, _, _ in result.trials[0].density] if result.trials else []
    rows = [
        (n, tr.seed, tr.density[j][1], tr.density[j][2])
        for j, n in enumerate(sides)
        for tr in result.trials
    ]
    return csv_text(("n", "seed", "count", "ratio"), rows)


def verify_theorem(result: TrialRunResult, n_min: int, alpha: float) -> dict:
    """Regression-style density check: per-box medians of count*sqrt(ln n)/n.

    Flags ok iff the median ratio is >= alpha for every profiled box side
    n >= n_min.  This is a finite-range floor, not a proof: the asymptotic
    density statement only kicks in for sufficiently large n, with no
    computable threshold, so alpha is calibrated from pilot runs and the
    check guards against regressions.
    """
    if not result.trials:
        raise ValueError("no trials to verify")
    per_n = []
    failing = []
    if result.trials[0].density:
        for j, (n, _, _) in enumerate(result.trials[0].density):
            med = median(tr.density[j][2] for tr in result.trials)
            per_n.append({"n": n, "median_ratio": med})
            if n >= n_min and med < alpha:
                failing.append(n)
    return {
        "n_min": n_min,
        "alpha": alpha,
        "per_n": per_n,
        "failing": failing,
        "ok": not failing,
    }


@dataclass(frozen=True)
class TrialStatistics:
    """Seeded Monte Carlo moments of shell counts X_T and triple counts Y_T.

    Tail frequencies use the inclusive conventions
    x_tail_freq[i] = freq(X_T <= x_floor(T, c)) and
    y_tail_freq[i] = freq(Y_T >= y_ceiling(T, c, k1_hat)); k1_hat and
    k2_hat come from normalized_moments over the tested exponents.
    """

    t_values: list[int]
    c: float
    sample_size: int
    x_by_seed: list[list[int]]
    y_by_seed: list[list[int]]
    x_mean: list[float]
    x_var: list[float]
    y_mean: list[float]
    y_var: list[float]
    x_tail_freq: list[float]
    y_tail_freq: list[float]
    k1_hat: float
    k2_hat: float


def _mc_vectors(args: tuple[Sequence[int], float, int]) -> list[tuple[list[int], list[int]]]:
    """X_T and Y_T, T = 0 .. w - 1, of each seed of a chunk, from one
    _hash_seeds pass over all of them.

    Each seed's points are a slice of the pass's arrays, which a PointSet
    views as they are; its X_T and Y_T come from shell_counts and
    box_triple_counts, as a trial's do.
    """
    seeds, c, w = args
    xs, ys, ends = _hash_seeds(seeds, c, w)
    vectors = []
    for seed, (lo, hi) in zip(seeds, pairwise(ends.tolist())):
        meta = {"kind": "sampled", "seed": seed, "c": c, "window_exponent": w}
        q = PointSet._ordered(xs[lo:hi], ys[lo:hi], meta)
        vectors.append((shell_counts(q, w), box_triple_counts(q, w - 1)))
    return vectors


def monte_carlo_moments(
    t_values: Sequence[int], c: float, seeds: Sequence[int]
) -> TrialStatistics:
    """Sample X_T and Y_T over the given seeds and summarize their moments.

    Every input is checked before any sample is drawn.  The chunks of
    _mc_plan go through one map_ordered call, and _mc_join joins them.
    """
    plan = _mc_plan(t_values, c, seeds)
    return plan.join(map_ordered(run_task, plan.tasks))


def _mc_plan(t_values: Sequence[int], c: float, seeds: Sequence[int]) -> Plan:
    """The _mc_vectors tasks of monte_carlo_moments(t_values, c, seeds),
    checked before any is made, each estimated at its seeds times the
    (2**w - 1)**2 cells of one window."""
    ts = list(t_values)
    if not ts or sorted(set(ts)) != ts:
        raise ValueError(f"need strictly increasing box exponents, got {t_values}")
    if ts[0] < 1:
        raise ValueError("box exponents below 1 have no normalized moments")
    if ts[-1] >= WINDOW_EXPONENT_CAP:
        raise ValueError(
            f"box exponents must be at most {WINDOW_EXPONENT_CAP - 1}, so that the sampled"
            f" window 2**(T+1) stays within 2**{WINDOW_EXPONENT_CAP}; got {ts[-1]}"
        )
    if not seeds:
        raise ValueError("need at least one seed")
    w = ts[-1] + 1
    _check_batch(min(seeds), max(seeds), c, w)
    # Contiguous chunks, one per worker unless one block row of _hash_seeds
    # cannot hold that many seeds side by side.
    width = min(-(-len(seeds) // resolve_workers()), _block_row_seeds(w))
    chunks = [seeds[i:i + width] for i in range(0, len(seeds), width)]
    return Plan(
        [(_mc_vectors, (chunk, c, w)) for chunk in chunks],
        [len(chunk) * ((1 << w) - 1) ** 2 for chunk in chunks],
        partial(_mc_join, ts, c),
    )


def _mc_join(ts: list[int], c: float, outs: Sequence) -> TrialStatistics:
    """monte_carlo_moments' summary from its chunks' vectors, in seed order."""
    vectors = [v for chunk in outs for v in chunk]
    x_by_seed = [[xv[t] for t in ts] for xv, _ in vectors]
    y_by_seed = [[yv[t] for t in ts] for _, yv in vectors]
    x_mean, x_var = seed_moments(x_by_seed)
    y_mean, y_var = seed_moments(y_by_seed)
    k1_hat, k2_hat = normalized_moments(ts, y_mean, y_var, c)
    x_floors = [x_floor(t, c) for t in ts]
    y_ceilings = [y_ceiling(t, c, k1_hat) for t in ts]
    return TrialStatistics(
        t_values=ts,
        c=c,
        sample_size=len(vectors),
        x_by_seed=x_by_seed,
        y_by_seed=y_by_seed,
        x_mean=x_mean,
        x_var=x_var,
        y_mean=y_mean,
        y_var=y_var,
        x_tail_freq=[fmean(v <= f for v in col) for f, col in zip(x_floors, zip(*x_by_seed))],
        y_tail_freq=[fmean(v >= f for v in col) for f, col in zip(y_ceilings, zip(*y_by_seed))],
        k1_hat=k1_hat,
        k2_hat=k2_hat,
    )


def _map_plans(plans: Sequence[Plan]) -> list:
    """Each plan's join, from one map_ordered call over all their tasks.

    The tasks run largest estimate first (a stable sort), so the longest
    ones start while the others fill in behind them, and every result goes
    back to its plan position before the joins: neither the order nor the
    worker count can change a bit.
    """
    tasks = [task for plan in plans for task in plan.tasks]
    cells = [est for plan in plans for est in plan.cells]
    order = sorted(range(len(tasks)), key=cells.__getitem__, reverse=True)
    outs: list = [None] * len(tasks)
    for i, out in zip(order, map_ordered(run_task, [tasks[i] for i in order])):
        outs[i] = out
    joined, start = [], 0
    for plan in plans:
        joined.append(plan.join(outs[start:start + len(plan.tasks)]))
        start += len(plan.tasks)
    return joined


def _field_dict(obj: object) -> dict:
    """A dataclass's fields by name, values as they are (asdict copies them deeply)."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def lemma_report(
    t_values: Sequence[int],
    c: float,
    seeds: Sequence[int],
) -> dict:
    """Exact bounds next to Monte Carlo moments, per box exponent.

    The exact weight sums stop at ENUMERATION_CAP and the variance bounds
    at VARIANCE_CAP; the report echoes both as enum_cap and var_cap.
    Also reports, per exponent, the frequencies of trials missing the
    shell-count side, the triple-count side, and their joint event, the
    Chebyshev tail bound 4*sqrt(T) / (c*2**T) for the shell-count side, a
    summability proxy (the sum of the joint miss frequencies), and whether
    joint misses decay by at least a factor 1.5 per exponent over the top
    half of the range.  With c = 0 the X-side misses everywhere (the empty
    sample retains nothing), the Y-side never does, and the Chebyshev bound
    is None.  Every input is checked before any sample is drawn or any line
    family scanned.

    The Monte Carlo chunks and the exact phase's tasks share one pool map,
    largest estimate first (_map_plans); the report equals the one that
    monte_carlo_moments and exact_reports give when called apart.
    """
    ts = list(t_values)
    plans = [_mc_plan(ts, c, seeds)]
    if c > 0:
        plans.append(_exact_plan(ts, c))
    mc, *exact = _map_plans(plans)
    weights, bounds = exact[0] if exact else ([], [])
    x_miss, y_miss, miss_freq = [], [], []
    for t, xs, ys in zip(ts, zip(*mc.x_by_seed), zip(*mc.y_by_seed)):
        x_min, y_max = _event_bounds(t, c, mc.k1_hat)
        x_miss.append(fmean(x < x_min for x in xs))
        y_miss.append(fmean(y > y_max for y in ys))
        miss_freq.append(fmean(x < x_min or y > y_max for x, y in zip(xs, ys)))
    top_half = range(len(ts) // 2, len(ts) - 1)
    decay_ok = all(miss_freq[i + 1] <= miss_freq[i] / 1.5 for i in top_half)
    return {
        "t_values": ts,
        "c": c,
        "sample_size": mc.sample_size,
        "enum_cap": ENUMERATION_CAP,
        "var_cap": VARIANCE_CAP,
        "monte_carlo": _field_dict(mc),
        "weights": [_field_dict(w) for w in weights],
        "variance_bounds": [_field_dict(v) for v in bounds],
        "x_miss_freq": x_miss,
        "y_miss_freq": y_miss,
        "event_miss_freq": miss_freq,
        "chebyshev_x_bound": [
            4.0 * math.sqrt(t) / (c * 2**t) if c > 0 else None for t in ts
        ],
        "summability_proxy": math.fsum(miss_freq),
        "decay_ok": decay_ok,
    }


_LEMMA_COLUMNS = (
    "T", "c", "sample_size", "x_mean", "x_var", "x_tail_freq", "chebyshev_x_bound",
    "y_mean", "y_var", "y_tail_freq", "x_miss_freq", "y_miss_freq", "event_miss_freq",
    "exact_ey", "sum_w3", "sum_w4",
    "v1_bound", "v2_bound", "v3_bound", "var_bound_total", "k1_hat", "k2_hat",
)


def lemma_report_csv(report: dict) -> str:
    """One row per box exponent; blank cells past the exact caps and for a None bound.

    Each column is looked up by name in one merged row: the exponent's
    weight and variance rows, the monte_carlo block and the report itself.
    A per-exponent list gives the entry at the row's position.
    """
    weights = {row["T"]: row for row in report["weights"]}
    bounds = {row["T"]: row for row in report["variance_bounds"]}
    rows = []
    for i, t in enumerate(report["t_values"]):
        merged = {
            **weights.get(t, {}), **bounds.get(t, {}), **report["monte_carlo"], **report,
            "T": t,
        }
        cells = [merged.get(name) for name in _LEMMA_COLUMNS]
        rows.append([v[i] if isinstance(v, list) else v for v in cells])
    return csv_text(_LEMMA_COLUMNS, rows)
