"""Exact first- and second-moment analysis of triple counts in dyadic boxes.

For the random set that keeps each point x of the box [1, 2**T]^2
independently with probability p(x), the expected number of collinear
triples is

    E[Y_T] = sum over lines L of e3(p restricted to L),

with e3 the third elementary symmetric function.  Writing W(L) for the sum
of p over the line and W_j(L) for the sum of p**j, Newton's identities give

    e3 = (W**3 - 3*W*W_2 + 2*W_3) / 6,

so everything reduces to per-line power sums.  Those are computed without
materializing any line: for a canonical direction (a, b) the offset
k = b*x - a*y indexes the parallel family, and weighted bincounts over k
accumulate W, W_2, W_3 per line in one vectorized pass per direction.

Lines with a single box point would be enumerated wastefully, so each
direction is scanned over disjoint rectangles: F, the points with an
in-box neighbour at +(a, b), plus the points with a neighbour at -(a, b)
but none at +(a, b), which are the last points of the lines.  Every point
of every line with at least two box points is counted exactly once, and
one-point lines drop out altogether.  The offset bins span only the
offsets of F, which every line with two or more points reaches; a box
point outside the rectangles may fall outside the bins, so the beta pass
below visits only the rectangles' points.

Most directions need no bincount.  Three box points on a line of a
scanned direction (a, b), |a| <= b, are p, p + (a, b) and p + 2(a, b),
whose y values span 2b <= n - 1.  So when 2b >= n every line holds at most
two box points, and those with two are the pairs (p, p + (a, b)) with p in
F: W over them is P[F] + P[F + (a, b)], the sum of two slices of the grid.
Such a direction adds nothing to E[Y_T], and nothing to beta either, as a
pair leaves no third point to pair with.  When 2b < n the line through
(1, 1), or through (n, 1) if a < 0, holds three points, so the cut-off
is exact.  At T = 6 to 8 the two-point directions are three quarters of
those scanned and half of their cells.

The probability grid is symmetric under the mirror (x, y) -> (y, x),
which maps direction (a, b) to (b, a) for a >= 0 and to (-b, -a) for
a < 0, and maps each line onto a line of the mirror direction with the
same weights.  So the exact sums and beta visit one direction of each
mirror pair, the one with |a| < b, and count it twice; the diagonals
(1, 1) and (-1, 1) are their own mirrors and count once.  For beta, a
mirror direction adds the transpose of its partner's contribution.

The same pass serves the variance split for Y_T.  With

    beta(x) = sum over pairs {y, z} such that x, y, z are collinear
              of p(y) * p(z),

the three variance contributions are bounded by sum_w3 and sum_w4 (the sums
of W**3 and W**4 over lines with >= 2 points), E[Y_T] itself, and
sum of p(x) * beta(x)**2.  beta also satisfies the exact identity
sum of p(x) * beta(x) = 3 * E[Y_T], which makes a sharp self-test.

One scan per exponent serves both reports: exact_reports builds beta
only where T <= VARIANCE_CAP, and weight_sums, variance_bounds and
beta_box_grid are single-exponent calls of the same scan.  The scans run
on the worker pool, every exponent's tasks in one map, largest box first:
a scan without beta deals its directions round-robin to one task per
worker, and math.fsum joins their per-direction parts, rounding the exact
sum once; a scan with beta is one task, so beta and v1 are summed in one
order.  Neither the dealing nor the worker count changes a bit of the
output.

Caps: full line-family scans are quartic-ish in the box side, so exact
enumeration is allowed up to box exponent 7 and the variance machinery up
to 6.  Desk-scale Monte Carlo estimates for the same quantities have no cap
beyond the sampling window's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .parallel import map_ordered, resolve_workers
from .sampling import (
    WINDOW_EXPONENT_CAP,
    SamplerConfig,
    sample_window,
    shell_counts,
    shell_probability,
)
from .triples import box_triple_counts

ENUMERATION_CAP = 7
VARIANCE_CAP = 6


def _require_cap(T: int, cap: int, what: str) -> None:
    if T < 0:
        raise ValueError(f"box exponent must be >= 0, got {T}")
    if T > cap:
        raise ValueError(f"{what} is capped at box exponent {cap}, got {T}")


def require_cubable_rate(c: float) -> None:
    """Reject a nonzero rate whose cube is not a positive finite float.

    The normalized moment k1_hat divides by c**3 and the triple-count
    threshold multiplies by it, so such a rate would overflow or divide by
    zero there.
    """
    try:
        cube = c**3
    except OverflowError:
        cube = math.inf
    if c != 0 and not 0.0 < cube < math.inf:
        raise ValueError(
            f"sampling rate {c!r} is out of range: c**3 must be a positive finite float"
        )


def _box_directions(n: int) -> list[tuple[int, int]]:
    """Canonical directions realized by point pairs of [1, n]^2, by (b, a)."""
    dirs = [(1, 0), (0, 1)] if n >= 2 else []
    for b in range(1, n):
        for a in range(-(n - 1), n):
            if a != 0 and math.gcd(a, b) == 1:
                dirs.append((a, b))
    return sorted(dirs, key=lambda d: (d[1], d[0]))


def _probability_grids(T: int, c: float) -> tuple[np.ndarray, ...]:
    """P, P**2, P**3 over the box, with P[x-1, y-1] the inclusion probability."""
    n = 1 << T
    shells = np.array([v.bit_length() - 1 for v in range(1, n + 1)], dtype=np.int64)
    table = np.array([shell_probability(t, c) for t in range(T + 1)])
    grid_t = np.maximum.outer(shells, shells)
    P = table[grid_t]
    return P, P * P, P * P * P


def _interval_minus(lo: int, hi: int, cut_lo: int, cut_hi: int) -> tuple[int, int]:
    """[lo, hi] minus [cut_lo, cut_hi], two intervals of equal length.

    Equal lengths make the difference a single (possibly empty) interval.
    """
    if lo > cut_lo:
        return max(lo, cut_hi + 1), hi
    return lo, min(hi, cut_lo - 1)


def _neighbour_rects(n: int, a: int, b: int) -> list[tuple[int, int, int, int]]:
    """Disjoint rectangles covering the box points on lines with >= 2 points.

    The first is F, the points with an in-box neighbour at +(a, b); the
    others cover the points with a neighbour at -(a, b) but none at +(a, b),
    the last point of each line.  Rectangles are (x_lo, x_hi, y_lo, y_hi),
    inclusive, and may be empty.
    """
    fx = (max(1, 1 - a), min(n, n - a))
    fy = (1, n - b)
    bx = (max(1, 1 + a), min(n, n + a))
    by = (1 + b, n)
    both_x = (max(fx[0], bx[0]), min(fx[1], bx[1]))
    return [
        (*fx, *fy),
        (*_interval_minus(*bx, *fx), *by),
        (*both_x, *_interval_minus(*by, *fy)),
    ]


def _direction_line_sums(
    n: int, a: int, b: int, grids: Sequence[np.ndarray]
) -> tuple[int, np.ndarray, list[np.ndarray], list]:
    """Per-line point counts and sums of each grid for one direction.

    Returns (kmin, cnt, sums, parts), indexed by offset: bin j describes
    the line with offset kmin + j, and sums[i] holds the line sums of
    grids[i].  The bins span only the offsets of F, the points with an
    in-box neighbour at +(a, b), because every line with >= 2 box points
    has all but its last point there.  A box point on no such line may
    have an offset outside the bins, so lookups go through parts: one
    (rect, bin index array) per nonempty rectangle of _neighbour_rects,
    which between them hold each point of each line with >= 2 box points
    exactly once.  Every bin is either such a line (cnt >= 2) or empty,
    with cnt and all sums exactly zero.
    """
    rects = _neighbour_rects(n, a, b)
    fx_lo, fx_hi, fy_lo, fy_hi = rects[0]
    kmin = b * fx_lo + min(-a * fy_lo, -a * fy_hi)
    kmax = b * fx_hi + max(-a * fy_lo, -a * fy_hi)
    span = kmax - kmin + 1
    parts = []
    for x_lo, x_hi, y_lo, y_hi in rects:
        if x_lo > x_hi or y_lo > y_hi:
            continue
        xs = np.arange(x_lo, x_hi + 1, dtype=np.int64)
        ys = np.arange(y_lo, y_hi + 1, dtype=np.int64)
        parts.append(((x_lo, x_hi, y_lo, y_hi), np.add.outer(b * xs - kmin, -a * ys)))
    idx = np.concatenate([k.ravel() for _, k in parts])
    cnt = np.bincount(idx, minlength=span)
    sums = [
        np.bincount(
            idx,
            weights=np.concatenate(
                [grid[x_lo - 1 : x_hi, y_lo - 1 : y_hi].ravel()
                 for (x_lo, x_hi, y_lo, y_hi), _ in parts]
            ),
            minlength=span,
        )
        for grid in grids
    ]
    return kmin, cnt, sums, parts


@dataclass(frozen=True)
class LineWeightReport:
    """Aggregates over all lines with >= 2 points in [1, 2**T]^2."""

    T: int
    c: float
    sum_w3: float
    sum_w4: float
    exact_ey: float
    line_count: int


@dataclass(frozen=True)
class VarianceBoundReport:
    """Upper bound sum for Var[Y_T], split into its three contributions."""

    T: int
    c: float
    v1_bound: float
    v2_bound: float
    v3_bound: float
    var_bound_total: float


def _scan_chunk(args: tuple[int, float, list[tuple[int, int]], bool]) -> tuple:
    """Per-direction parts of one slice of an exponent's scanned directions.

    Only one direction of each x<->y mirror pair is scanned (|a| < b, which
    takes (0, 1) for the axes), and its parts count twice; the two diagonal
    directions, |a| == b, are their own mirrors and count once.  Returns the
    w3, w4 and e3 parts of each direction and the slice's line count; a beta
    scan, which always gets every direction, also returns v1 and beta.  The
    grids are symmetric, so a mirror's beta contribution is the transpose of
    its partner's: paired directions accumulate in one grid, the diagonal
    ones in another, and beta is paired + paired.T + diagonal.
    """
    T, c, dirs, want_beta = args
    n = 1 << T
    grids = _probability_grids(T, c)
    P, P2, _ = grids
    w3_parts: list[float] = []
    w4_parts: list[float] = []
    ey_parts: list[float] = []
    line_count = 0
    paired = np.zeros((n, n)) if want_beta else None
    diagonal = np.zeros((n, n)) if want_beta else None
    for a, b in dirs:
        mult = 2 if abs(a) < b else 1
        if 2 * b >= n:
            # two-point direction: its lines are the pairs (p, p + (a, b)), p in F
            x_lo, x_hi, y_lo, y_hi = _neighbour_rects(n, a, b)[0]
            w1 = (P[x_lo - 1 : x_hi, y_lo - 1 : y_hi]
                  + P[x_lo + a - 1 : x_hi + a, y_lo + b - 1 : y_hi + b])
            line_count += mult * w1.size
        else:
            _, cnt, (w1, w2, w3), parts = _direction_line_sums(n, a, b, grids)
            # empty bins hold zero sums, so only e3 needs a mask
            line_count += mult * int(np.count_nonzero(cnt))
            rich = np.flatnonzero(cnt >= 3)
            r1 = w1[rich]
            e3 = r1**3 - 3.0 * r1 * w2[rich] + 2.0 * w3[rich]
            ey_parts.append(mult * float(np.sum(e3)) / 6.0)
            if want_beta:
                acc = paired if mult == 2 else diagonal
                # every point of parts lies on a line with >= 2 box points
                for (x_lo, x_hi, y_lo, y_hi), k in parts:
                    box = (slice(x_lo - 1, x_hi), slice(y_lo - 1, y_hi))
                    acc[box] += 0.5 * ((w1[k] - P[box]) ** 2 - (w2[k] - P2[box]))
        sq = w1 * w1
        w3_parts.append(mult * float(np.sum(sq * w1)))
        w4_parts.append(mult * float(np.sum(sq * sq)))
    if not want_beta:
        return w3_parts, w4_parts, ey_parts, line_count, None, None
    beta = paired + paired.T + diagonal
    return w3_parts, w4_parts, ey_parts, line_count, float((P * beta**2).sum()), beta


def _family_scans(
    requests: Sequence[tuple[int, float, bool]],
) -> list[tuple[LineWeightReport, VarianceBoundReport | None, np.ndarray | None]]:
    """One family scan per (T, c, want_beta) request, all on the worker pool.

    A weight-only scan deals its directions round-robin into one task per
    worker, dirs[k::w]; a beta scan is one task, so beta and v1 are summed
    in one order whatever the worker count.  Every task of every request
    goes through one map_ordered call, largest box first, and math.fsum
    joins the per-direction parts: it rounds the exact sum once, so neither
    the dealing nor the worker count can change a bit.  Returns, per
    request, its weight report and, for a beta scan, its variance report
    and beta grid.
    """
    workers = resolve_workers()
    tasks = []  # (request index, task args), largest box first
    for i, (T, c, want_beta) in sorted(enumerate(requests), key=lambda r: r[1][0], reverse=True):
        if c <= 0:
            raise ValueError(f"sampling rate must be > 0, got {c}")
        dirs = [(a, b) for a, b in _box_directions(1 << T) if abs(a) <= b]
        if want_beta:
            slices = [dirs]
        else:
            slices = [dirs[k::workers] for k in range(min(workers, len(dirs)))]
        tasks += [(i, (T, c, dirs_k, want_beta)) for dirs_k in slices]
    outs = map_ordered(_scan_chunk, [args for _, args in tasks])
    reports = []
    for i, (T, c, want_beta) in enumerate(requests):
        mine = [out for (owner, _), out in zip(tasks, outs) if owner == i]
        weights = LineWeightReport(
            T=T, c=c,
            sum_w3=math.fsum(p for out in mine for p in out[0]),
            sum_w4=math.fsum(p for out in mine for p in out[1]),
            exact_ey=math.fsum(p for out in mine for p in out[2]),
            line_count=sum(out[3] for out in mine),
        )
        bounds = beta = None
        if want_beta:
            v1, beta = mine[0][4:]
            bounds = VarianceBoundReport(
                T=T, c=c, v1_bound=v1, v2_bound=weights.sum_w4, v3_bound=weights.exact_ey,
                var_bound_total=v1 + weights.sum_w4 + weights.exact_ey,
            )
        reports.append((weights, bounds, beta))
    return reports


def weight_sums(T: int, c: float) -> LineWeightReport:
    """Exact sums of W**3, W**4 and e3 over the box's line families."""
    _require_cap(T, ENUMERATION_CAP, "line family enumeration")
    return _family_scans([(T, c, False)])[0][0]


def beta_box_grid(T: int, c: float) -> np.ndarray:
    """beta over the whole box; entry [x-1, y-1] is beta at the point (x, y)."""
    _require_cap(T, VARIANCE_CAP, "beta")
    return _family_scans([(T, c, True)])[0][2]


def variance_bounds(T: int, c: float) -> VarianceBoundReport:
    """The three-part upper bound for Var[Y_T].

    v1 bounds the covariance of triple pairs sharing one point by
    sum of p(x) * beta(x)**2; v2 bounds pairs sharing two points by sum_w4;
    v3 is the diagonal E[Y_T].
    """
    _require_cap(T, VARIANCE_CAP, "variance bounds")
    return _family_scans([(T, c, True)])[0][1]


def exact_reports(
    t_values: Sequence[int], c: float
) -> tuple[list[LineWeightReport], list[VarianceBoundReport]]:
    """Weight and variance reports for many exponents, one family scan each.

    The first list holds weight_sums for each T up to ENUMERATION_CAP, the
    second variance_bounds for each T up to VARIANCE_CAP; exponents past a
    cap are left out of that cap's list.
    """
    ts = [t for t in t_values if t <= ENUMERATION_CAP]
    for t in ts:
        _require_cap(t, ENUMERATION_CAP, "line family enumeration")
    scans = _family_scans([(t, c, t <= VARIANCE_CAP) for t in ts])
    return [w for w, _, _ in scans], [v for _, v, _ in scans if v is not None]


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


def require_moment_inputs(t_values: Sequence[int], c: float, seeds: Sequence[int]) -> None:
    """Reject exponents, rate or seeds that monte_carlo_moments cannot sample.

    The exponents must be strictly increasing and >= 1, and the largest, T,
    must leave the sampled window 2**(T+1) within the sampler's cap.
    """
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
    for seed in seeds:
        SamplerConfig(seed=seed, c=c, window_exponent=ts[-1] + 1)
    require_cubable_rate(c)


def _mc_vectors(args: tuple[int, float, int]) -> tuple[list[int], list[int]]:
    seed, c, w = args
    ps = sample_window(SamplerConfig(seed=seed, c=c, window_exponent=w))
    return shell_counts(ps, w), box_triple_counts(ps, w - 1)


def monte_carlo_moments(
    t_values: Sequence[int], c: float, seeds: Sequence[int]
) -> TrialStatistics:
    """Sample X_T and Y_T over the given seeds and summarize their moments."""
    ts = list(t_values)
    require_moment_inputs(ts, c, seeds)
    w = ts[-1] + 1
    vectors = map_ordered(_mc_vectors, [(s, c, w) for s in seeds])
    x_by_seed = [[xv[t] for t in ts] for xv, _ in vectors]
    y_by_seed = [[yv[t] for t in ts] for _, yv in vectors]
    x_arr = np.array(x_by_seed, dtype=np.int64)
    y_arr = np.array(y_by_seed, dtype=np.int64)
    nseed = len(seeds)
    ddof = 1 if nseed > 1 else 0
    x_mean = x_arr.mean(axis=0)
    x_var = x_arr.var(axis=0, ddof=ddof)
    y_mean = [float(v) for v in y_arr.mean(axis=0)]
    y_var = [float(v) for v in y_arr.var(axis=0, ddof=ddof)]
    k1_hat, k2_hat = normalized_moments(ts, y_mean, y_var, c)
    x_thresh = np.array([x_floor(t, c) for t in ts])
    y_thresh = np.array([y_ceiling(t, c, k1_hat) for t in ts])
    return TrialStatistics(
        t_values=ts,
        c=c,
        sample_size=nseed,
        x_by_seed=x_by_seed,
        y_by_seed=y_by_seed,
        x_mean=[float(v) for v in x_mean],
        x_var=[float(v) for v in x_var],
        y_mean=y_mean,
        y_var=y_var,
        x_tail_freq=[float(v) for v in (x_arr <= x_thresh).mean(axis=0)],
        y_tail_freq=[float(v) for v in (y_arr >= y_thresh).mean(axis=0)],
        k1_hat=k1_hat,
        k2_hat=k2_hat,
    )
