"""Exact first- and second-moment analysis of triple counts in dyadic boxes.

The random set keeps each point x of the box [1, n]^2, n = 2**T,
independently with probability P(x) = p_s, s the shell of x.  Its expected
number of collinear triples, E[Y_T], is counted rather than scanned.  A
collinear triple with middle point q and ends p, r has exactly two forms
q = p + i*w, r = p + g*w with 1 <= i < g, gcd(i, g) = 1 and w a nonzero
integer vector, one from each end: w is the largest common divisor of
q - p and r - p (Moebius inversion over that divisor; with every P = 1 this
is the classical count of collinear grid triples, OEIS A000938).  Shells
0 .. s fill the square [1, m_s]^2, with m_s = 2**(s+1) - 1 for s < T and
m_T = n, and p_s does not grow with s, so

    P(x) = sum over s of delta_s * [x in [1, m_s]^2],
    delta_s = p_s - p_(s+1) >= 0,  p_(T+1) = 0.

For shells (s1, s2, s3), write mj = m_sj.  The p with p, p + i*w and
p + g*w in the three squares number L(w_x) * L(w_y), where L(v) counts the
t in [1, m1] with t + i*v in [1, m2] and t + g*v in [1, m3]:
L(0) = L0 = min(m1, m2, m3), L(k) = max(0, min(m1, m2 - i*k, m3 - g*k))
for k > 0, and L(-k) is the same with m1 and m3 swapped and i replaced by
g - i.  Summing over w != 0 gives X**2 - L0**2 with X the sum of L(v) over
all v, so

    E[Y_T] = 1/2 * sum over coprime 1 <= i < g <= n - 1 and shells
             (s1, s2, s3) of delta_s1 * delta_s2 * delta_s3 * (X**2 - L0**2).

X**2 - L0**2 is an integer.  The count sums it per shell triple in int64
over every (i, g), exactly, and one math.fsum weights those sums by the
deltas, so no bit depends on how the g are dealt out.  A t in [1, m1] has
at most ceil(n/g) values v with t + g*v in [1, m3], so X <= n*ceil(n/g),
and each int64 sum stays below n**2 times the sum over g of
phi(g) * ceil(n/g)**2.  That bound is 0.86 * 2**63 at T = 15 and
14.6 * 2**63 at T = 16, which sets MEAN_CAP.  The count costs about
n**2 * (T + 1)**3 cell operations, against the scan's n**4.

Lines are named by direction and offset.  An unoriented direction is the
coprime vector (a, b) normalized so that b > 0, or b == 0 and a > 0; the
line with direction (a, b) and offset k is {(x, y) : b*x - a*y == k},
and walking it means stepping by (a, b).

The scans give what needs per-line data.  Writing W(L) for the sum of P
over a line L and W_2(L) for the sum of P**2, sum_w3 and sum_w4 are the
sums of W**3 and W**4 over the lines with two or more box points, and
beta (below) needs W and W_2.  Those are computed without materializing
any line: for a canonical direction (a, b) the offset k = b*x - a*y
indexes the parallel family, and every box point is binned by its
offset, shifted so that the smallest is bin 0.  One unweighted bincount
marks the lines with two or more box points, and their number is the
direction's line count.  A weighted bincount accumulates W per line,
plus one for W_2 in a scan that builds beta, and sum_w3 and sum_w4 take
the marked bins only.  The lines with one box point hold about one box
cell in eight over the scanned directions.  They are binned too, not cut
out: each adds exactly zero to beta, as its W and W_2 are its one
point's P and P**2.

Most directions are counted, not scanned.  Three box points on a line of
a scanned direction (a, b), |a| <= b, are p, p + (a, b) and p + 2(a, b),
whose y values span 2b <= n - 1.  So when 2b >= n every line holds at most
two box points, and those with two are the pairs (p, p + (a, b)) with
both in the box.  When 2b < n the line through (1, 1), or through (n, 1)
if a < 0, holds three points, so the cut-off is exact.  A two-point direction adds
nothing to beta, as a pair leaves no third point to pair with, and W over
a pair is p_s + p_s', s the shell of p and s' that of p + (a, b): one of
(T + 1)**2 values.  So the scans take only the directions with 2b < n,
and the pairs are counted by shell pair.  In the nested squares above,
the pairs with p in [1, m_j]^2 and p + (a, b) in [1, m_j']^2 number
Lx * Ly, the lengths of the ranges [max(1, 1 - a), min(m_j, m_j' - a)] of
x and [1, min(m_j, m_j' - b)] of y.  Summed over the two-point directions,
each with its mirror multiplicity (below), they give N(j, j'), and

    C(s, s') = N(s, s') - N(s-1, s') - N(s, s'-1) + N(s-1, s'-1)

counts the pairs with p in shell s and p + (a, b) in shell s'.  The sum
over a is one matrix product of the (b, a) grid of multiplicities with
Lx, so no temporary grows with the number of directions.  C is integer
and does not depend on c, so each exponent has one: sum_w3 and sum_w4
weight it by (p_s + p_s')**3 and **4, and the two-point directions have
N(T, T) lines.  At T = 7 they are 7,460 of the 9,917 directions with
|a| <= b.

The probability grid is symmetric under the mirror (x, y) -> (y, x),
which maps direction (a, b) to (b, a) for a >= 0 and to (-b, -a) for
a < 0, and maps each line onto a line of the mirror direction with the
same weights.  So the scans visit one direction of each mirror pair, the
one with |a| < b, and count it twice; the diagonals (1, 1) and (-1, 1)
are their own mirrors and count once.  For beta, a mirror direction adds
the transpose of its partner's contribution.

The variance split for Y_T uses, besides E[Y_T],

    beta(x) = sum over pairs {y, z} such that x, y, z are collinear
              of p(y) * p(z).

The three variance contributions are bounded by sum of p(x) * beta(x)**2,
sum_w4, and E[Y_T] itself.  beta also satisfies the exact identity
sum of p(x) * beta(x) = 3 * E[Y_T], which ties the scan to the count.

The exact phase has two entries.  exact_mean(T, c) counts E[Y_T] alone.
exact_reports(t_values, c) gives, per exponent, one count of E[Y_T], one
count of shell pairs and one scan, which builds beta and the variance
bounds where T <= VARIANCE_CAP.  Its docstring says how the work is dealt
to the worker pool; neither the dealing nor the worker count changes a
bit of the output.

Caps: the scans are quartic in the box side, so exact_reports leaves out
exponents past 7 (ENUMERATION_CAP), and its variance reports those past 6
(VARIANCE_CAP).  exact_mean runs to MEAN_CAP and raises past it.
Nothing here samples: Monte Carlo moments live in no3l.experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .parallel import map_ordered, resolve_workers
from .sampling import shell_probability

ENUMERATION_CAP = 7
VARIANCE_CAP = 6
MEAN_CAP = 15
# cells of one (i, k, shell triple) temporary in _mean_counts
_MEAN_BLOCK = 1 << 16


def _require_cap(T: int, cap: int, what: str) -> None:
    if T < 0:
        raise ValueError(f"box exponent must be >= 0, got {T}")
    if T > cap:
        raise ValueError(f"{what} is capped at box exponent {cap}, got {T}")


def _box_directions(n: int) -> list[tuple[int, int]]:
    """Canonical directions realized by point pairs of [1, n]^2, by (b, a).

    gcd(a, 0) = |a| and gcd(0, b) = b, so the coprime (b, a) grid holds the
    axes only as (±1, 0) and (0, 1); a > 0 keeps (1, 0).
    """
    b = np.arange(n)[:, None]
    a = np.arange(-(n - 1), n)
    bi, ai = np.nonzero((np.gcd(a, b) == 1) & ((b > 0) | (a > 0)))
    return list(zip((ai - (n - 1)).tolist(), bi.tolist()))


def _probability_grids(T: int, c: float) -> tuple[np.ndarray, np.ndarray]:
    """P and P**2 over the box, with P[x-1, y-1] the inclusion probability."""
    n = 1 << T
    shells = np.array([v.bit_length() - 1 for v in range(1, n + 1)], dtype=np.int64)
    table = np.array([shell_probability(t, c) for t in range(T + 1)])
    grid_t = np.maximum.outer(shells, shells)
    P = table[grid_t]
    return P, P * P


def _deal(items: Sequence, workers: int) -> list:
    """items dealt round-robin into one nonempty slice per worker, items[k::w]."""
    return [items[k::workers] for k in range(min(workers, len(items)))]


def _mean_counts(args: tuple[int, Sequence[int]]) -> np.ndarray:
    """Sum of X**2 - L0**2 over the coprime (i, g), g in gs, per shell triple.

    Entry (s1 * (T + 1) + s2) * (T + 1) + s3 belongs to shells (s1, s2, s3);
    X and L0 are as in the module docstring.  Every L(v) and X fits int32
    (X <= n*ceil(n/2) < 2**31 for T <= MEAN_CAP), and the sums are exact in
    int64.  Temporaries hold at most _MEAN_BLOCK (i, k, shell triple)
    cells: the coprime i are taken in chunks, and the k in chunks too when
    one i has more than that.
    """
    T, gs = args
    n = 1 << T
    m = np.array([(2 << s) - 1 for s in range(T)] + [n], dtype=np.int32)
    m1, m2, m3 = (side.ravel() for side in np.meshgrid(m, m, m, indexing="ij"))
    l0 = np.minimum(np.minimum(m1, m2), m3)
    l0_sq = l0.astype(np.int64) ** 2
    total = np.zeros(m1.size, dtype=np.int64)
    rows = max(1, _MEAN_BLOCK // m1.size)
    for g in gs:
        iv = np.arange(1, g, dtype=np.int32)
        iv = iv[np.gcd(iv, g) == 1]
        ks = np.arange(1, (n - 1) // g + 1, dtype=np.int32)
        kc = min(len(ks), rows)
        ic = max(1, rows // kc)
        for i0 in range(0, len(iv), ic):
            ii = iv[i0 : i0 + ic, None, None]
            x = np.repeat(l0[None, :], len(ii), axis=0)
            for k0 in range(0, len(ks), kc):
                kk = ks[k0 : k0 + kc, None]
                # k > 0, then v = -k: the end constraints are free of i
                fwd = np.minimum(m1, m3 - g * kk)
                bwd = np.minimum(m3, m1 - g * kk)
                for ends, step in ((fwd, ii), (bwd, g - ii)):
                    side = np.minimum(ends, m2 - step * kk)
                    x += np.maximum(side, 0, out=side).sum(axis=1, dtype=np.int32)
            x = x.astype(np.int64)
            total += (x * x).sum(axis=0) - len(ii) * l0_sq
    return total


def _count_tasks(T: int, workers: int) -> list[tuple]:
    """_mean_counts tasks for exponent T, its g dealt one slice per worker."""
    return [(_mean_counts, (T, gs)) for gs in _deal(range(2, 1 << T), workers)]


def _call(task: tuple) -> object:
    """Run one task of the exact phase, a (_mean_counts or _scan_chunk, args) pair."""
    fn, args = task
    return fn(args)


def _mean_from_counts(T: int, c: float, parts: Sequence[np.ndarray]) -> float:
    """E[Y_T] from _mean_counts' per-shell-triple integer sums over slices of the g."""
    counts = sum(parts, np.zeros((T + 1) ** 3, dtype=np.int64))
    p = [shell_probability(s, c) for s in range(T + 1)] + [0.0]
    delta = np.array([p[s] - p[s + 1] for s in range(T + 1)])
    weights = np.multiply.outer(np.multiply.outer(delta, delta), delta).ravel()
    return 0.5 * math.fsum((weights * counts).tolist())


def exact_mean(T: int, c: float) -> float:
    """E[Y_T], the expected number of collinear triples in [1, 2**T]^2.

    Counted by coprime (i, g) pairs and shell triples (module docstring),
    with the g dealt across the worker pool; the result does not depend on
    the worker count.  Allowed for 0 <= T <= MEAN_CAP.
    """
    _require_cap(T, MEAN_CAP, "the exact mean")
    shell_probability(0, c)  # reject a bad rate before counting
    return _mean_from_counts(T, c, map_ordered(_call, _count_tasks(T, resolve_workers())))


def _direction_line_sums(
    n: int, a: int, b: int, grids: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Offset bins of one direction over the whole box, and each grid's line sums.

    Returns (idx, multi, sums).  idx[x-1, y-1] is the bin of the line
    through (x, y): its offset b*x - a*y less the smallest offset in the
    box.  multi marks the bins whose line holds two or more box points,
    and sums[i] holds the line sums of grids[i] per bin.  A bin that no
    box point reaches has all sums exactly zero.
    """
    v = np.arange(n)
    idx = np.add.outer(b * v, -a * v + max(a, 0) * (n - 1)).ravel()
    multi = np.bincount(idx) >= 2
    sums = [np.bincount(idx, weights=grid.ravel()) for grid in grids]
    return idx.reshape(n, n), multi, sums


def _pair_counts(T: int) -> np.ndarray:
    """C[s, s'], the two-point lines (p, p + (a, b)) with p in shell s and p + (a, b) in s'.

    Summed over the scanned directions with 2b >= n, each counted with its
    mirror multiplicity (module docstring).  N[j, j'], the pairs with p in
    the square [1, m_j]^2 and p + (a, b) in [1, m_j']^2, is the sum over
    (b, a) of mult * Lx * Ly, Lx and Ly the lengths of the x and y ranges
    that allow it; C is N differenced in both shells.  The sum over a is a
    matrix product, so no temporary grows with the number of directions.
    """
    n = 1 << T
    m = np.array([(2 << s) - 1 for s in range(T)] + [n], dtype=np.int64)
    a = np.arange(-(n - 1), n)
    b = np.arange((n + 1) // 2, n)[:, None]
    mult = np.where(np.abs(a) < b, 2, 1) * ((np.abs(a) <= b) & (np.gcd(a, b) == 1))
    # over (a or b, j, j'): p in [1, m_j] and p + (a or b) in [1, m_j'], per axis
    lo, hi = m[:, None], m[None, :]
    a, b = a[:, None, None], b[:, :, None]
    lx = np.maximum(np.minimum(lo, hi - a) - np.maximum(1, 1 - a) + 1, 0)
    ly = np.maximum(np.minimum(lo, hi - b), 0)
    N = (np.tensordot(mult, lx, axes=1) * ly).sum(axis=0)
    return np.diff(np.diff(N, axis=0, prepend=0), axis=1, prepend=0)


def _pair_parts(T: int, c: float, counts: np.ndarray) -> tuple[list[float], list[float]]:
    """The w3 and w4 parts of the two-point lines: C[s, s'] * (p_s + p_s')**3 and **4."""
    p = np.array([shell_probability(s, c) for s in range(T + 1)])
    w = np.add.outer(p, p)
    sq = w * w
    return (counts * (sq * w)).ravel().tolist(), (counts * (sq * sq)).ravel().tolist()


@dataclass(frozen=True)
class LineWeightReport:
    """Aggregates over all lines with >= 2 points in [1, 2**T]^2, and E[Y_T]."""

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


def _scan_chunk(args: tuple[int, float, list[tuple[int, int]]]) -> tuple:
    """Per-direction parts of one slice of an exponent's bincount directions.

    The slice holds scanned directions with 2b < n; the two-point ones,
    2b >= n, are counted by _pair_counts instead.  Only one direction of
    each x<->y mirror pair is scanned (|a| < b, which takes (0, 1) for the
    axes), and its parts count twice; the two diagonal directions,
    |a| == b, are their own mirrors and count once.  Returns the w3 and w4
    parts of each direction and the slice's line count, its marked bins.
    Where T <= VARIANCE_CAP the slice holds every such direction and the
    scan also returns v1 and beta, else None for both.  The grids are
    symmetric, so a mirror's beta contribution is the transpose of its
    partner's: paired directions accumulate in one grid, the diagonal ones
    in another, and beta is paired + paired.T + diagonal.
    """
    T, c, dirs = args
    n = 1 << T
    want_beta = T <= VARIANCE_CAP
    P, P2 = _probability_grids(T, c)
    grids = (P, P2) if want_beta else (P,)
    w3_parts: list[float] = []
    w4_parts: list[float] = []
    line_count = 0
    paired = np.zeros((n, n)) if want_beta else None
    diagonal = np.zeros((n, n)) if want_beta else None
    for a, b in dirs:
        mult = 2 if abs(a) < b else 1
        idx, multi, sums = _direction_line_sums(n, a, b, grids)
        line_count += mult * int(np.count_nonzero(multi))
        w1 = sums[0]
        if want_beta:
            # a one-point line's sums are its own P and P**2: it adds 0
            acc = paired if mult == 2 else diagonal
            acc += 0.5 * ((w1[idx] - P) ** 2 - (sums[1][idx] - P2))
        w = w1[multi]
        sq = w * w
        w3_parts.append(mult * float(np.sum(sq * w)))
        w4_parts.append(mult * float(np.sum(sq * sq)))
    if not want_beta:
        return w3_parts, w4_parts, line_count, None, None
    beta = paired + paired.T + diagonal
    return w3_parts, w4_parts, line_count, float((P * beta**2).sum()), beta


def exact_reports(
    t_values: Sequence[int], c: float
) -> tuple[list[LineWeightReport], list[VarianceBoundReport]]:
    """Weight and variance reports for many exponents, on one map.

    The first list holds, for each T in t_values up to ENUMERATION_CAP,
    the exact sums of W**3 and W**4 over the box's line families, its line
    count and E[Y_T]; the second, for each T up to VARIANCE_CAP, the
    three-part upper bound for Var[Y_T].  Exponents past a cap are left
    out of that cap's list.  v1 bounds the covariance of triple pairs
    sharing one point by sum of p(x) * beta(x)**2, v2 bounds pairs sharing
    two points by sum_w4, and v3 is the diagonal E[Y_T].

    Each exponent is planned once, largest box first.  Its count of E[Y_T]
    deals its g round-robin into one task per worker.  Its scan is one
    task where T <= VARIANCE_CAP, so beta and v1 are summed in one order
    whatever the worker count; past that it deals the directions with
    2b < n the same way, dirs[k::w].  Its _pair_counts, which the
    two-point directions need, is made in the calling process.  Every
    task goes through one map_ordered call, and each exponent joins its
    own run of the results.  The counts add as integers and math.fsum
    joins the shell-pair parts and the scans' per-direction parts: it
    rounds the exact sum once, so neither the dealing nor the worker
    count can change a bit.
    """
    ts = [t for t in t_values if t <= ENUMERATION_CAP]
    if ts:
        if min(ts) < 0:
            raise ValueError(f"box exponent must be >= 0, got {min(ts)}")
        if c <= 0:
            raise ValueError(f"sampling rate must be > 0, got {c}")
        shell_probability(0, c)  # reject a non-finite rate before scanning
    workers = resolve_workers()
    tasks: list[tuple] = []
    runs = {}  # T -> (start, end of its counts, end of its scans) in tasks
    for T in sorted(set(ts), reverse=True):
        n = 1 << T
        start = len(tasks)
        tasks += _count_tasks(T, workers)
        mid = len(tasks)
        dirs = [(a, b) for a, b in _box_directions(n) if abs(a) <= b and 2 * b < n]
        slices = [dirs] if T <= VARIANCE_CAP else _deal(dirs, workers)
        tasks += [(_scan_chunk, (T, c, part)) for part in slices]
        runs[T] = (start, mid, len(tasks))
    outs = map_ordered(_call, tasks)
    done = {}
    for T, (start, mid, end) in runs.items():
        scans = outs[mid:end]
        pairs = _pair_counts(T)
        pair_w3, pair_w4 = _pair_parts(T, c, pairs)
        weights = LineWeightReport(
            T=T, c=c,
            sum_w3=math.fsum([*pair_w3, *(p for out in scans for p in out[0])]),
            sum_w4=math.fsum([*pair_w4, *(p for out in scans for p in out[1])]),
            exact_ey=_mean_from_counts(T, c, outs[start:mid]),
            line_count=int(pairs.sum()) + sum(out[2] for out in scans),
        )
        bounds = None
        if T <= VARIANCE_CAP:
            v1 = scans[0][3]
            bounds = VarianceBoundReport(
                T=T, c=c, v1_bound=v1, v2_bound=weights.sum_w4, v3_bound=weights.exact_ey,
                var_bound_total=v1 + weights.sum_w4 + weights.exact_ey,
            )
        done[T] = weights, bounds
    return [done[t][0] for t in ts], [done[t][1] for t in ts if t <= VARIANCE_CAP]
