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
from dataclasses import MISSING, asdict, dataclass, field, fields
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
    x_floor,
    y_ceiling,
)
from .construct import delete_max_with_profile, density_profile
from .parallel import map_ordered
from .sampling import SamplerConfig, sample_window, shell_counts, write_pointset
from .triples import box_triple_counts

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
        SamplerConfig(self.base_seed, self.c, self.window_exponent)
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


def _x_ok(x: int, t: int, c: float) -> bool:
    thr = x_floor(t, c)
    return x >= thr if thr > 0 else x > 0


def _y_ok(y: int, t: int, c: float, k1_hat: float) -> bool:
    return y <= y_ceiling(t, c, k1_hat)


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


def _run_one_trial(args: tuple[int, float, int]) -> dict:
    seed, c, w = args
    q = sample_window(SamplerConfig(seed=seed, c=c, window_exponent=w))
    x = shell_counts(q, w)
    s, y = delete_max_with_profile(q, w)
    survivors = box_triple_counts(s, w)[w]
    if survivors != 0:
        raise RuntimeError(
            f"seed {seed}: survivor set has {survivors} collinear"
            f" triples inside the box of exponent {w}"
        )
    s_counts = shell_counts(s, w)
    for t in range(w):
        if s_counts[t] < x[t] - y[t + 1]:
            raise RuntimeError(
                f"seed {seed}, shell {t}: retained {s_counts[t]} points,"
                f" below the guaranteed {x[t]} - {y[t + 1]}"
            )
    density = density_profile(s, density_box_sides(w))
    return {
        "seed": seed,
        "x": x,
        "y": y[:w],
        "q": q,
        "s": s,
        "density": density,
    }


def run_trials(manifest: TrialManifest, write_files: bool = True) -> TrialRunResult:
    """Run every trial of the manifest; verify, persist, and aggregate.

    Y_T here is indexed like X_T (per shell exponent T = 0 .. W-1), with
    Y_T the triples inside [1, 2**T]^2.  Each trial checks that S has no
    triple in the whole window and that shell T retains at least
    X_T - Y_(T+1) points for every T <= W - 1; Y_W, every triple of Q, is
    used by that check only and not reported.
    """
    w = manifest.window_exponent
    raws = map_ordered(
        _run_one_trial, [(s, manifest.c, w) for s in manifest.seeds]
    )
    t_values = list(range(1, w))
    ys = [[raw["y"][t] for raw in raws] for t in t_values]
    k1_hat, k2_hat = normalized_moments(
        t_values,
        [statistics.fmean(y) for y in ys],
        [statistics.variance(y) if len(y) > 1 else 0.0 for y in ys],
        manifest.c,
    )

    out_dir = Path(manifest.out_dir)
    if write_files:
        out_dir.mkdir(parents=True, exist_ok=True)
    trials = []
    for i, raw in enumerate(raws):
        events = []
        for t in t_values:
            x_ok = _x_ok(raw["x"][t], t, manifest.c)
            y_ok = _y_ok(raw["y"][t], t, manifest.c, k1_hat)
            events.append(EventRecord(T=t, x_ok=x_ok, y_ok=y_ok, e_ok=x_ok and y_ok))
        q_file = s_file = None
        if write_files:
            q_file = f"trial{i:04d}_q.tsv"
            s_file = f"trial{i:04d}_s.tsv"
            write_pointset(raw["q"], out_dir / q_file)
            write_pointset(raw["s"], out_dir / s_file)
        trials.append(
            TrialOutcome(
                seed=raw["seed"],
                x=raw["x"],
                y=raw["y"],
                q_size=len(raw["q"]),
                s_size=len(raw["s"]),
                density=raw["density"],
                events=events,
                q_file=q_file,
                s_file=s_file,
            )
        )
    result = TrialRunResult(
        manifest=manifest, t_values=t_values, trials=trials,
        k1_hat=k1_hat, k2_hat=k2_hat,
    )
    if write_files:
        (out_dir / "aggregate.json").write_text(aggregate_json(result), encoding="ascii")
        (out_dir / "aggregate.csv").write_text(aggregate_csv(result), encoding="ascii")
        (out_dir / "density.csv").write_text(density_csv(result), encoding="ascii")
    return result


def aggregate_json(result: TrialRunResult) -> str:
    payload = {
        "manifest": asdict(result.manifest),
        "t_values": result.t_values,
        "k1_hat": result.k1_hat,
        "k2_hat": result.k2_hat,
        "trials": [
            {
                "seed": tr.seed,
                "x": tr.x,
                "y": tr.y,
                "q_size": tr.q_size,
                "s_size": tr.s_size,
                "density": [
                    {"n": n, "count": cnt, "ratio": ratio}
                    for n, cnt, ratio in tr.density
                ],
                "events": [asdict(e) for e in tr.events],
                "q_file": tr.q_file,
                "s_file": tr.s_file,
            }
            for tr in sorted(result.trials, key=lambda tr: tr.seed)
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


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
    sample retains nothing) and the Y-side never does.  Every input is
    checked before any sample is drawn or any line family scanned.
    """
    ts = list(t_values)
    require_moment_inputs(ts, c, seeds)
    mc = monte_carlo_moments(ts, c, seeds)
    weights, bounds = exact_reports(ts, c) if c > 0 else ([], [])
    x_miss = []
    y_miss = []
    miss_freq = []
    for i, t in enumerate(ts):
        xm = ym = joint = 0
        for xv, yv in zip(mc.x_by_seed, mc.y_by_seed):
            x_ok = _x_ok(xv[i], t, c)
            y_ok = _y_ok(yv[i], t, c, mc.k1_hat)
            xm += not x_ok
            ym += not y_ok
            joint += not (x_ok and y_ok)
        x_miss.append(xm / mc.sample_size)
        y_miss.append(ym / mc.sample_size)
        miss_freq.append(joint / mc.sample_size)
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
            4.0 * math.sqrt(t) / (c * 2**t) if c > 0 else math.inf for t in ts
        ],
        "summability_proxy": math.fsum(miss_freq),
        "decay_ok": decay_ok,
    }


def lemma_report_csv(report: dict) -> str:
    """One row per box exponent; exact columns blank beyond their caps."""
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
        cells = [
            str(t),
            repr(report["c"]),
            str(report["sample_size"]),
            repr(mc["x_mean"][i]),
            repr(mc["x_var"][i]),
            repr(mc["x_tail_freq"][i]),
            repr(report["chebyshev_x_bound"][i]),
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
