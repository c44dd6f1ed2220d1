"""Exact counting of collinear triples.

One kernel does the counting.  It orders the points by (inf_norm, x, y)
and, for every point, groups the points before it by the direction of the
difference vector: a line through the point holding j earlier points
contributes C(j, 2) triples whose largest member it is.  Every triple has
exactly one largest member, so these per-point counts sum to the total;
they also drive the deletion construction and the whole profile
T -> triples inside [1, 2**T]^2, because a triple of positive-quadrant
points lies in that box exactly when its largest member does.  The counts
are exact.

The points act as anchors in row blocks of consecutive ones, at most
_PAIR_BLOCK row cells a block.  Anchors a .. b - 1 make the 2-D block of
differences xs[:b - 1] - xs[a:b, None], one row per anchor, with no index
gather.  In row i the cells j >= i are not earlier points (j = i is
0 / 0); they get distinct sentinels, above every key, so they make no run.
Each difference becomes a direction key and each row is sorted on its own,
so that each run of equal keys in row i is one line through anchor i;
every row but the last ends in a sentinel, so runs read off the flattened
block never cross rows.

Only the direction key depends on the set's coordinate span s:

- s <= 2**21 (every window, greedy set and parabola p < 2**21): the float
  key.  Of a difference (dx, dy), it is q = dy / (|dx| + |dy|) signed by
  dx, computed as dy / (dx + copysign(dy, dx)), in [-1, 1].  For dx != 0
  it is r / (1 + |r|) of the slope r = dy / dx, which increases strictly
  with r; along the vertical it is +1 upward and -1 downward.  So two
  differences have the same exact key when and only when they lie on one
  line through the anchor, except that the two sides of a vertical line
  differ, which splits no line: its earlier points lie on one side of the
  anchor (below).  The key is exact in float64: shifted to [0, s], the
  coordinates and the sums above are integers below 2**23; a key is a
  fraction whose denominator |dx| + |dy| is at most 2s <= 2**22, so two
  distinct keys differ by at least 2**-44, while a correctly rounded
  quotient errs by at most 2**-54, and equal fractions round to the same
  float.  No gcd, no class bit and no sign normalization are needed.
- s > 2**21: the gcd key, the difference divided by its gcd, packed as
  a * (s + 1) + b in int64, with the sentinels s * (s + 1) + s + 1 + j.
  It needs s * (s + 1) + s < 2**63: a set whose span is wider is rejected
  with ValueError, whatever the set's size.  Below 2**63 there is then room
  for more than 5 * 10**9 sentinels, more points than any set in memory.

One side: the earlier points on a line through an anchor o lie on one side
of it.  Were p and r earlier points on either side, convexity of the norm
along the line would give norm(o) <= max(norm(p), norm(r)) <= norm(o), so
the norm would equal norm(o) on the whole segment from p to r, which then
lies in one edge of the square of that norm.  Along an edge one coordinate
is fixed and the other is monotone, so the (inf_norm, x, y) order is
monotone along the segment, and o, inside it, is not larger than both.

A large call is spread over the worker pool.  The caller's process takes
the points in PointSet order (any other input is made a PointSet, which
sorts it and rejects duplicates) and rejects spans too wide to key; only
then are the anchors 2 .. m - 1 cut into consecutive ranges of about
_TASK_PAIRS pairs each, in closed form, since the anchors before a hold
a * (a - 1) / 2 pairs.  The ranges go through one parallel.map_ordered
call; each task runs the block loop over its anchors, and the counts are
joined in anchor order, so they are the same at any worker count.  A set
with fewer pairs is one range, counted in-process with no pool.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import combinations
from typing import Callable, Iterable, Sequence

import numpy as np

from .geom import Point
from .parallel import map_ordered
from .sampling import PointSet

BRUTE_FORCE_CAP = 2000

# Row cells, earlier-point pairs and the sentinels after them, keyed and
# sorted together per block of anchors.  It bounds the block's temporaries.
# The kernel alone took 16.5 / 13.4 / 12.4 / 12.2 ns a pair at 2**13 /
# 2**14 / 2**15 / 2**16 on the W = 12, c = 1.0, seed 1 Q (one worker, best
# of 5).  The benchmark's construct-verify took a median wall time of 2.00
# / 1.88 / 1.91 / 1.87 s and CPU time of 2.58 / 2.33 / 2.26 / 2.23 s (4
# interleaved runs each), and 1.81 / 1.66 s wall at 2**14 / 2**15 in
# another 4 each; 2**16 peaked 1.1 MB higher (2-core Xeon).
_PAIR_BLOCK = 1 << 15

# Earlier-point pairs per pool task: prefix_triple_counts cuts its anchors
# into ranges of about this many pairs, so a set with fewer pairs (a W = 13
# trial's Q, a parabola p = 2003, a greedy W = 10 set) is counted
# in-process.  With 2 workers, the benchmark's construct-verify took a
# median wall time of 2.00 / 1.91 / 1.94 s and CPU time of 2.32 / 2.26 /
# 1.85 s at 2**21 / 2**22 / 2**23 (4 interleaved runs each, 2-core Xeon):
# 2**23 leaves its W = 12 Qs whole, which saves CPU time but not wall time.
_TASK_PAIRS = 1 << 22

# Widest span the float key counts exactly (see the module docstring).
_FLOAT_KEY_SPAN = 1 << 21


def _as_points(obj: PointSet | Iterable[Point]) -> list[Point]:
    pts = list(obj.points) if isinstance(obj, PointSet) else [tuple(p) for p in obj]
    if len(set(pts)) != len(pts):
        raise ValueError("point set contains duplicates")
    return pts


def _packed_coords(pts: Sequence[Point]) -> tuple[np.ndarray, np.ndarray, int]:
    """Coordinate arrays and their span s, the larger coordinate range.

    The gcd key needs s * (s + 1) + s to fit in int64; wider sets are
    rejected.
    """
    try:
        xs = np.array([p[0] for p in pts], dtype=np.int64)
        ys = np.array([p[1] for p in pts], dtype=np.int64)
    except OverflowError as exc:
        raise ValueError(f"coordinates must fit in int64 ({exc})") from exc
    s = max(int(xs.max()) - int(xs.min()), int(ys.max()) - int(ys.min()))
    if s * (s + 1) + s > np.iinfo(np.int64).max:
        raise ValueError(
            f"coordinate span {s} too large to pack directions exactly in int64"
        )
    return xs, ys, s


def _float_keys(dx: np.ndarray, dy: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Direction keys in [-1, 1]: q = dy / (|dx| + |dy|), signed by dx.
    Exact for spans up to _FLOAT_KEY_SPAN (see the module docstring).  Takes
    float64 differences and a third array of their shape, and overwrites all
    three: the keys are returned in dy."""
    # sgn(dx) * (|dx| + |dy|); a zero difference is +0.0, so sgn(0) = 1
    dx += np.copysign(dy, dx, out=t)
    dy /= dx
    return dy


def _gcd_keys(dx: np.ndarray, dy: np.ndarray, t: np.ndarray, s: int) -> np.ndarray:
    """Direction keys in [-(s * (s + 1) + s), s * (s + 1) + s]: the
    gcd-reduced difference (a, b), packed as a * (s + 1) + b.  Takes int64
    differences and a third array of their shape, and overwrites dx and t:
    the keys are returned in dx.

    The differences are not signed: the earlier points on a line through an
    anchor lie on one side of it (see the module docstring), so their
    differences share a sign and reduce to one (a, b).  Packing is
    one-to-one on one anchor's differences, although b may be negative: two
    packings agree only for b < 0 < b2 with b2 - b = s + 1, which would take
    two differences whose y parts differ by more than the span s.
    """
    np.gcd(dx, dy, out=t)
    dx *= s + 1
    dx += dy
    dx //= t
    return dx


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The runs of equal keys in a sorted array: the position of each run's
    first key, and C(L, 2) for a run of L keys."""
    # A run of L equal keys marks L - 1 consecutive positions of ``same``;
    # ``bounds`` holds where each run of marks starts in it, and its end.
    same = np.flatnonzero(keys[1:] == keys[:-1])
    new = np.ones(len(same) + 1, dtype=bool)
    np.not_equal(same[1:] - same[:-1], 1, out=new[1:-1])
    bounds = np.flatnonzero(new)
    marks = bounds[1:] - bounds[:-1]
    return same[bounds[:-1]], marks * (marks + 1) // 2


def _row_counts(
    xs: np.ndarray,
    ys: np.ndarray,
    keys_of: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    sentinels: np.ndarray,
    work: list[np.ndarray],
    lo: int,
    hi: int,
) -> np.ndarray:
    """Prefix triple counts of the anchors lo .. hi - 1, one row of keys each.

    Row i - lo holds the keys of xs[:hi - 1] - xs[i]; the cells j >= i are
    not earlier points (j == i is 0 / 0) and get sentinels[j], distinct and
    above every key, so they make no run.  The rows are computed in the
    three arrays of ``work``, each of at least (hi - lo) * (hi - 1) cells.
    """
    n = hi - 1
    cells = (hi - lo) * n
    dx, dy, t = (w[:cells].reshape(hi - lo, n) for w in work)
    np.subtract(xs[:n], xs[lo:hi, None], out=dx)
    np.subtract(ys[:n], ys[lo:hi, None], out=dy)
    with np.errstate(invalid="ignore", divide="ignore"):
        keys = keys_of(dx, dy, t)
    # The cells lo + r .. n - 1 of row r: the upper triangle of keys[:k, lo:].
    k = hi - lo - 1
    np.copyto(keys[:k, lo:], sentinels[lo:n], where=np.arange(k) >= np.arange(k)[:, None])
    keys.sort(axis=1)
    # Every row but the last ends in a sentinel, so no run crosses rows.
    first, triples = _runs(keys.ravel())
    out = np.zeros(hi - lo, dtype=np.int64)
    np.add.at(out, first // n, triples)
    return out


def count_collinear_triples(ps: PointSet | Iterable[Point]) -> int:
    """Number of unordered collinear triples.

    Every triple has exactly one largest member, so this is the sum of the
    per-point prefix counts.
    """
    return sum(prefix_triple_counts(ps))


def count_collinear_triples_bruteforce(ps: PointSet | Iterable[Point]) -> int:
    """Reference counter: test all C(m, 3) triples.  Guarded at 2000 points."""
    pts = _as_points(ps)
    if len(pts) > BRUTE_FORCE_CAP:
        raise ValueError(
            f"brute force capped at {BRUTE_FORCE_CAP} points, got {len(pts)}"
        )
    total = 0
    for (px, py), (qx, qy), (rx, ry) in combinations(pts, 3):
        if (qx - px) * (ry - py) == (qy - py) * (rx - px):
            total += 1
    return total


def prefix_triple_counts(ps: PointSet | Iterable[Point]) -> list[int]:
    """Per-point counts of triples whose largest member is that point.

    Entry i refers to the i-th point in (inf_norm, x, y) order (PointSet
    storage order).  Summing a prefix of the result counts the triples among
    the corresponding smallest points.
    """
    pts = ps.points if isinstance(ps, PointSet) else PointSet(ps).points
    m = len(pts)
    if m < 3:
        return [0] * m
    xs, ys, s = _packed_coords(pts)
    # A range's anchors compare only with the points before its end.
    tasks = [(xs[:hi], ys[:hi], s, lo, hi) for lo, hi in _anchor_ranges(m)]
    return [0, 0] + np.concatenate(map_ordered(_range_counts, tasks)).tolist()


def _anchor_ranges(m: int) -> list[tuple[int, int]]:
    """Consecutive ranges of the anchors 2 .. m - 1, of about _TASK_PAIRS
    pairs each.

    Anchor i has i earlier points, so the anchors before a hold
    a * (a - 1) / 2 pairs.  The set's P pairs make n = ceil(P / _TASK_PAIRS)
    ranges; the k-th cut is the largest a whose anchors before it hold at
    most k * P / n pairs.
    """
    pairs = m * (m - 1) // 2
    n = -(-pairs // _TASK_PAIRS)
    cuts = [2]
    for k in range(1, n):
        cut = (1 + math.isqrt(1 + 8 * (k * pairs // n))) // 2
        if cut > cuts[-1]:
            cuts.append(cut)
    cuts.append(m)
    return list(zip(cuts, cuts[1:]))


def _range_counts(task: tuple[np.ndarray, np.ndarray, int, int, int]) -> np.ndarray:
    """Prefix triple counts of the anchors lo .. hi - 1 of a set of span s,
    given the coordinates of its first hi points, one block at a time."""
    xs, ys, s, lo, hi = task
    if s <= _FLOAT_KEY_SPAN:
        # Shifted to [0, s], the coordinates and their differences are exact
        # in float64.
        xs = (xs - xs.min()).astype(np.float64)
        ys = (ys - ys.min()).astype(np.float64)
        keys_of, top = _float_keys, 2
    else:
        keys_of, top = partial(_gcd_keys, s=s), s * (s + 1) + s + 1
    # Above every key: [-1, 1] for the float key, |key| <= s * (s + 1) + s
    # for the gcd key.
    sentinels = top + np.arange(hi, dtype=xs.dtype)
    # A block of several rows holds at most _PAIR_BLOCK cells, a block of one
    # row at most hi - 1, and no block more than the whole range.
    size = min(max(_PAIR_BLOCK, hi - 1), (hi - lo) * (hi - 1))
    work = [np.empty(size, dtype=xs.dtype) for _ in range(3)]
    counts = np.zeros(hi - lo, dtype=np.int64)
    a = lo
    while a < hi:
        # The most rows r, of a + r - 1 cells each, that hold at most
        # _PAIR_BLOCK cells: r * r + (a - 1) * r <= _PAIR_BLOCK.
        r = (math.isqrt((a - 1) ** 2 + 4 * _PAIR_BLOCK) - (a - 1)) // 2
        b = min(a + max(r, 1), hi)
        counts[a - lo: b - lo] = _row_counts(xs, ys, keys_of, sentinels, work, a, b)
        a = b
    return counts


def box_profile(points: Sequence[Point], counts: Sequence[int], t_max: int) -> list[int]:
    """The profile [triples in [1, 2**T]^2 for T = 0 .. t_max] from prefix counts.

    ``points`` is a positive-quadrant set in (inf_norm, x, y) order and
    ``counts`` holds the prefix_triple_counts of its leading points, at
    least all those of norm <= 2**t_max.  A triple lies in the box of
    exponent T exactly when its largest member has norm <= 2**T, so each
    entry is a prefix sum of the counts.
    """
    for p in points:
        if p[0] < 1 or p[1] < 1:
            raise ValueError(f"point {p} outside the positive quadrant")
    profile = []
    acc = 0
    idx = 0
    for T in range(t_max + 1):
        bound = 1 << T
        while idx < len(counts) and max(points[idx]) <= bound:
            acc += counts[idx]
            idx += 1
        profile.append(acc)
    return profile


def box_triple_counts(ps: PointSet | Iterable[Point], t_max: int) -> list[int]:
    """The profile [triples in [1, 2**T]^2 for T = 0 .. t_max], in one pass.

    Requires a positive-quadrant set.  The set is ordered once; only the
    points of the largest box, which lead that order, go through the kernel,
    as a PointSet, so they are not sorted again.
    """
    if t_max < 0:
        raise ValueError(f"box exponent must be >= 0, got {t_max}")
    ordered = ps if isinstance(ps, PointSet) else PointSet(ps)
    return box_profile(ordered.points, prefix_triple_counts(ordered.in_box(1 << t_max)), t_max)
