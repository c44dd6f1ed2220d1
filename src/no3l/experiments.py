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
Rerunning a manifest must reproduce every output file exactly.
"""

from __future__ import annotations

import json
import math
import os
import statistics
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Sequence

from .analytics import (
    ENUMERATION_CAP,
    VARIANCE_CAP,
    exact_reports,
    monte_carlo_moments,
    normalized_moments,
    require_cubable_rate,
    require_moment_inputs,
    seed_moments,
    x_floor,
    y_ceiling,
)
from .construct import delete_max_with_profile, density_profile
from .parallel import map_ordered
from .sampling import PointSet, SamplerConfig, sample_window, shell_counts, write_pointset
from .triples import count_collinear_triples

# JSON value types accepted for each manifest field annotation.
_JSON_FIELD_TYPES = {"int": int, "float": (int, float), "str": str}


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
        for seed in (self.base_seed, self.base_seed + self.trial_count - 1):
            SamplerConfig(seed, self.c, self.window_exponent)
        require_cubable_rate(self.c)

    @property
    def seeds(self) -> list[int]:
        return [self.base_seed + i for i in range(self.trial_count)]

    @classmethod
    def from_json_file(cls, path: str | os.PathLike) -> "TrialManifest":
        with open(path, "r", encoding="ascii") as fh:
            try:
                raw = json.load(fh)
            except RecursionError as exc:
                raise ValueError(f"{path}: manifest is nested too deeply to decode") from exc
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
        return cls(**raw)


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


def _seed_events(
    t_values: Sequence[int], x: Sequence[int], y: Sequence[int], c: float, k1_hat: float
) -> list[EventRecord]:
    """One seed's EventRecords; x[i] and y[i] are its X_T and Y_T at T = t_values[i]."""
    events = []
    for t, xt, yt in zip(t_values, x, y):
        floor = x_floor(t, c)
        x_ok = xt >= floor if floor > 0 else xt > 0
        y_ok = yt <= y_ceiling(t, c, k1_hat)
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
    outs = map_ordered(
        _run_one_trial, [(s, manifest.c, w) for s in manifest.seeds]
    )
    t_values = list(range(1, w))
    k1_hat, k2_hat = normalized_moments(
        t_values, *seed_moments([tr.y[1:] for tr, _, _ in outs]), manifest.c
    )

    out_dir = Path(manifest.out_dir)
    if write_files:
        out_dir.mkdir(parents=True, exist_ok=True)
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


def aggregate_json(result: TrialRunResult) -> str:
    payload = asdict(result)
    payload["trials"].sort(key=lambda tr: tr["seed"])
    for tr in payload["trials"]:
        tr["density"] = [{"n": n, "count": cnt, "ratio": r} for n, cnt, r in tr["density"]]
    return json_text(payload)


def aggregate_csv(result: TrialRunResult) -> str:
    lines = ["T,seed,x,y,x_ok,y_ok,e_ok"]
    by_seed = sorted(result.trials, key=lambda tr: tr.seed)
    for t in result.t_values:
        for tr in by_seed:
            ev = tr.events[t - result.t_values[0]]
            lines.append(
                f"{t},{tr.seed},{tr.x[t]},{tr.y[t]},"
                f"{int(ev.x_ok)},{int(ev.y_ok)},{int(ev.e_ok)}"
            )
    return "\n".join(lines) + "\n"


def density_csv(result: TrialRunResult) -> str:
    lines = ["n,seed,count,ratio"]
    by_seed = sorted(result.trials, key=lambda tr: tr.seed)
    if by_seed and by_seed[0].density:
        for j, (n, _, _) in enumerate(by_seed[0].density):
            for tr in by_seed:
                lines.append(f"{n},{tr.seed},{tr.density[j][1]},{tr.density[j][2]!r}")
    return "\n".join(lines) + "\n"


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
            med = statistics.median(tr.density[j][2] for tr in result.trials)
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
    """
    ts = list(t_values)
    require_moment_inputs(ts, c, seeds)
    mc = monte_carlo_moments(ts, c, seeds)
    weights, bounds = exact_reports(ts, c) if c > 0 else ([], [])
    by_t = list(zip(*(
        _seed_events(ts, xv, yv, c, mc.k1_hat) for xv, yv in zip(mc.x_by_seed, mc.y_by_seed)
    )))
    x_miss = [statistics.fmean(not ev.x_ok for ev in col) for col in by_t]
    y_miss = [statistics.fmean(not ev.y_ok for ev in col) for col in by_t]
    miss_freq = [statistics.fmean(not ev.e_ok for ev in col) for col in by_t]
    top_half = range(len(ts) // 2, len(ts) - 1)
    decay_ok = all(miss_freq[i + 1] <= miss_freq[i] / 1.5 for i in top_half)
    return {
        "t_values": ts,
        "c": c,
        "sample_size": mc.sample_size,
        "enum_cap": ENUMERATION_CAP,
        "var_cap": VARIANCE_CAP,
        "monte_carlo": asdict(mc),
        "weights": [asdict(w) for w in weights],
        "variance_bounds": [asdict(v) for v in bounds],
        "x_miss_freq": x_miss,
        "y_miss_freq": y_miss,
        "event_miss_freq": miss_freq,
        "chebyshev_x_bound": [
            4.0 * math.sqrt(t) / (c * 2**t) if c > 0 else None for t in ts
        ],
        "summability_proxy": math.fsum(miss_freq),
        "decay_ok": decay_ok,
    }


def lemma_report_csv(report: dict) -> str:
    """One row per box exponent; blank cells past the exact caps and for a None bound."""
    mc = report["monte_carlo"]
    weights = {row["T"]: row for row in report["weights"]}
    bounds = {row["T"]: row for row in report["variance_bounds"]}
    header = (
        "T,c,sample_size,x_mean,x_var,x_tail_freq,chebyshev_x_bound,"
        "y_mean,y_var,y_tail_freq,x_miss_freq,y_miss_freq,event_miss_freq,"
        "exact_ey,sum_w3,sum_w4,"
        "v1_bound,v2_bound,v3_bound,var_bound_total,k1_hat,k2_hat"
    )
    lines = [header]
    for i, t in enumerate(report["t_values"]):
        wrow = weights.get(t)
        brow = bounds.get(t)
        cheb = report["chebyshev_x_bound"][i]
        cells = [
            str(t),
            repr(report["c"]),
            str(report["sample_size"]),
            repr(mc["x_mean"][i]),
            repr(mc["x_var"][i]),
            repr(mc["x_tail_freq"][i]),
            repr(cheb) if cheb is not None else "",
            repr(mc["y_mean"][i]),
            repr(mc["y_var"][i]),
            repr(mc["y_tail_freq"][i]),
            repr(report["x_miss_freq"][i]),
            repr(report["y_miss_freq"][i]),
            repr(report["event_miss_freq"][i]),
            repr(wrow["exact_ey"]) if wrow else "",
            repr(wrow["sum_w3"]) if wrow else "",
            repr(wrow["sum_w4"]) if wrow else "",
            repr(brow["v1_bound"]) if brow else "",
            repr(brow["v2_bound"]) if brow else "",
            repr(brow["v3_bound"]) if brow else "",
            repr(brow["var_bound_total"]) if brow else "",
            repr(mc["k1_hat"]),
            repr(mc["k2_hat"]),
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
