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

- s <= 2**13 (every window up to W = 13, every greedy set and every
  parabola of modulus p below 2**13): the int32 key, the float key q
  below scaled by 2**30 and truncated, trunc(2**30 * dy / (dx +
  copysign(dy, dx))).  Shifted to [0, s], the coordinates, differences and
  sums are exact in float32, and so is 2**30 * dy; one float64 division
  writes the quotient straight into an int32 buffer.  The key is exact:
  two distinct keys q are fractions with denominators at most 2s, so they
  differ by at least 1 / (4 * s**2), which is 2**28 / s**2 >= 4 units
  after scaling.  A correctly rounded quotient errs by at most 2**-23
  units, and equal fractions round to the same float.  The least nonzero
  |q| is 1 / (2s), at least 2**16 units from 0, while q = 0 is computed
  as 0 exactly.  So the quotients of distinct keys are more than 1 apart
  and never both inside (-1, 1), and truncate to distinct integers.  Keys
  lie in [-2**30, 2**30]; the sentinels are 2**30 + 1 + j, below 2**31
  for the at most (s + 1)**2 points of the set.
- 2**13 < s <= 2**21 (the windows of W = 14 .. 20 and the wider
  parabolas): the float key.  Of a
  difference (dx, dy), it is q = dy / (|dx| + |dy|) signed by dx,
  computed as dy / (dx + copysign(dy, dx)), in [-1, 1].
  For dx != 0 it is r / (1 + |r|) of the slope r = dy / dx, which
  increases strictly with r; along the vertical it is +1 upward and -1
  downward.  So two
  differences have the same exact key when and only when they lie on one
  line through the anchor, except that the two sides of a vertical line
  differ, which splits no line: its earlier points lie on one side of the
  anchor (below).  The key is exact in float64: shifted to [0, s], the
  coordinates and the sums above are integers below 2**23; a key is a
  fraction whose denominator |dx| + |dy| is at most 2s <= 2**22, so two
  distinct keys differ by at least 2**-44, while a correctly rounded
  quotient errs by at most 2**-54, and equal fractions round to the same
  float.  No gcd, no class bit and no sign normalization are needed.  The
  sentinels are 2 + j.
- s > 2**21: the gcd key, the difference divided by its gcd, packed as
  a * (s + 1) + b in int64, with the sentinels s * (s + 1) + s + 1 + j.
  It needs s * (s + 1) + s < 2**63: a set whose span is wider is rejected
  with ValueError, whatever the set's size.  Below 2**63 there is then room
  for more than 5 * 10**9 sentinels, more points than any set in memory.

In every key the j >= i cells get their sentinels after keying, so the
0 / 0 of the diagonal never reaches the sort.

One side: the earlier points on a line through an anchor o lie on one side
of it.  Were p and r earlier points on either side, convexity of the norm
along the line would give norm(o) <= max(norm(p), norm(r)) <= norm(o), so
the norm would equal norm(o) on the whole segment from p to r, which then
lies in one edge of the square of that norm.  Along an edge one coordinate
is fixed and the other is monotone, so the (inf_norm, x, y) order is
monotone along the segment, and o, inside it, is not larger than both.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import accumulate
from typing import Callable, Iterable, Sequence

import numpy as np

from .sampling import Point, PointSet

# Row cells, earlier-point pairs and the sentinels after them, keyed and
# sorted together per block of anchors.  It bounds the block's temporaries.
# With the int32 key, the kernel alone took 10.3 / 8.2 / 7.1 / 6.7 ns a
# pair at 2**13 / 2**14 / 2**15 / 2**16 on the W = 12, c = 1.0, seed 1 Q
# (one worker; median of 5 processes, each the best of 5).  The benchmark's
# construct-verify took a median wall time of 0.871 s at 2**15 and 0.853 s
# at 2**16, 2**15 faster in 2 of 5 interleaved pairs, and the same peak
# RSS, 40.4 MB (2-core Xeon).
_PAIR_BLOCK = 1 << 15

# Widest spans the int32 and the float key count exactly (see the module
# docstring); the int32 key is the faster.
_INT32_KEY_SPAN = 1 << 13
_FLOAT_KEY_SPAN = 1 << 21

# The int32 key's scale: its keys lie in [-2**30, 2**30], and its sentinels
# start above them, at 2**30 + 1.
_INT32_KEY_SCALE = 1 << 30


def _int32_keys(dx: np.ndarray, dy: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Direction keys in [-2**30, 2**30]: trunc(2**30 * q) of the float key
    q.  Exact for spans up to _INT32_KEY_SPAN (see the module docstring).
    Takes float32 differences and a third float32 array of their shape, and
    overwrites all three: the keys are returned in an int32 view of t."""
    dx += np.copysign(dy, dx, out=t)
    dy *= _INT32_KEY_SCALE
    keys = t.view(np.int32)
    np.divide(dy, dx, out=keys, dtype=np.float64, casting="unsafe")
    return keys


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


def prefix_triple_counts(ps: PointSet | Iterable[Point]) -> list[int]:
    """Per-point counts of triples whose largest member is that point.

    Entry i refers to the i-th point in (inf_norm, x, y) order (PointSet
    storage order).  Summing a prefix of the result counts the triples among
    the corresponding smallest points.
    """
    ordered = ps if isinstance(ps, PointSet) else PointSet(ps)
    return _anchor_counts(ordered.xs, ordered.ys).tolist()


def _anchor_counts(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Prefix triple counts of the points (xs[i], ys[i]), a PointSet's
    columns: the anchors 2 .. m - 1 one block at a time, and 0 for the
    first two points, which have fewer than two earlier points.

    The key depends on the set's span s, the larger coordinate range; the
    gcd key needs s * (s + 1) + s to fit in int64, and wider sets are
    rejected.
    """
    m = len(xs)
    if m < 3:
        return np.zeros(m, dtype=np.int64)
    s = max(int(xs.max()) - int(xs.min()), int(ys.max()) - int(ys.min()))
    if s * (s + 1) + s > np.iinfo(np.int64).max:
        raise ValueError(
            f"coordinate span {s} too large to pack directions exactly in int64"
        )
    # Shifted to [0, s], the coordinates and their differences are exact
    # in float32 up to _INT32_KEY_SPAN and in float64 up to _FLOAT_KEY_SPAN.
    if s > _FLOAT_KEY_SPAN:
        keys_of = partial(_gcd_keys, s=s)
        sentinels = s * (s + 1) + s + 1 + np.arange(m, dtype=np.int64)
    elif s > _INT32_KEY_SPAN:
        xs = (xs - xs.min()).astype(np.float64)
        ys = (ys - ys.min()).astype(np.float64)
        keys_of, sentinels = _float_keys, 2 + np.arange(m, dtype=np.float64)
    else:
        xs = (xs - xs.min()).astype(np.float32)
        ys = (ys - ys.min()).astype(np.float32)
        keys_of = _int32_keys
        sentinels = _INT32_KEY_SCALE + 1 + np.arange(m, dtype=np.int32)
    # A block of several rows holds at most _PAIR_BLOCK cells, a block of one
    # row at most m - 1, and no block more than all the anchors' rows.
    size = min(max(_PAIR_BLOCK, m - 1), (m - 2) * (m - 1))
    work = [np.empty(size, dtype=xs.dtype) for _ in range(3)]
    counts = np.zeros(m, dtype=np.int64)
    a = 2
    while a < m:
        # The most rows r, of a + r - 1 cells each, that hold at most
        # _PAIR_BLOCK cells: r * r + (a - 1) * r <= _PAIR_BLOCK.
        r = (math.isqrt((a - 1) ** 2 + 4 * _PAIR_BLOCK) - (a - 1)) // 2
        b = min(a + max(r, 1), m)
        counts[a:b] = _row_counts(xs, ys, keys_of, sentinels, work, a, b)
        a = b
    return counts


def box_profile(ps: PointSet, counts: Sequence[int], t_max: int) -> list[int]:
    """The profile [triples in [1, 2**T]^2 for T = 0 .. t_max] from prefix counts.

    ps lies in the positive quadrant, and ``counts`` are the
    prefix_triple_counts of its leading members, at least all those of
    norm <= 2**t_max.  A triple lies in the box of exponent T exactly when
    its largest member has norm <= 2**T, so each entry is a prefix sum of
    the counts.
    """
    sums = [0, *accumulate(counts)]
    return [sums[k] for k in ps.norm_prefixes(1 << T for T in range(t_max + 1))]


def box_triple_counts(ps: PointSet | Iterable[Point], t_max: int) -> list[int]:
    """The profile [triples in [1, 2**T]^2 for T = 0 .. t_max], in one pass.

    Any set: only the members of the largest box count, and those lead
    the set's order once the members off the positive quadrant are left
    out.  They go through the kernel as a PointSet, so they are not sorted
    again, and their own counts give the profile.
    """
    if t_max < 0:
        raise ValueError(f"box exponent must be >= 0, got {t_max}")
    ordered = ps if isinstance(ps, PointSet) else PointSet(ps)
    box = ordered.in_box(1 << t_max)
    return box_profile(box, prefix_triple_counts(box), t_max)
