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

The points act as anchors in blocks of consecutive ones.  A block's
(anchor, earlier point) directions become uint64 keys, which carry the
anchor in their high part, and are sorted once; each run of equal keys is
one line through one anchor.  Only the direction key depends on the set's
coordinate span s:

- s <= 2**21 (every window, greedy set and parabola p < 2**21): the float
  key.  Of a difference (dx, dy), take r = dy / dx with class bit 0 if
  |dy| <= |dx|, else r = dx / dy with class bit 1; the key is
  (rint(r * 2**44) + 2**44) * 2 + class, in [0, 2**46].  It is exact:
  two distinct slopes in [-1, 1] with denominators <= s differ by at
  least 1 / s**2 >= 2**-42, a correctly rounded quotient errs by at most
  2**-54 and scaling by 2**44 is exact, so distinct directions round at
  least 2 apart; and equal directions, (k dx, k dy) and (-dx, -dy)
  included, have the same exact quotient, so the same float.  No gcd and
  no sign normalization are needed.
- s > 2**21: the gcd key, the difference divided by its gcd, packed as
  a * (s + 1) + b.  No sign normalization is needed here either: the
  earlier points on a line through an anchor lie on one side of it (see
  _gcd_keys).  It needs
  s * (s + 1) + s < 2**63: a set whose span is wider is rejected with
  ValueError, whatever the set's size.

A large call is spread over the worker pool.  The caller's process sorts
the points (a PointSet is taken as stored: it is already in that order,
without duplicates) and rejects duplicates and spans too wide to key; only
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

from .geom import Point, norm_lex_key
from .parallel import map_ordered
from .sampling import PointSet

BRUTE_FORCE_CAP = 2000

# Earlier-point pairs keyed and sorted together per block of anchors.  It
# bounds the block's temporaries (a few arrays of this many words).  With
# the float key, the benchmark's construct-verify took a median wall time of
# 4.47 / 3.89 / 4.08 / 5.33 s at 2**13 / 2**14 / 2**15 / 2**16 (4 runs each,
# 2-core Xeon), and 2**16 peaked 2 MB higher.
_PAIR_BLOCK = 1 << 14

# Earlier-point pairs per pool task: prefix_triple_counts cuts its anchors
# into ranges of about this many pairs, so a set with fewer pairs (a W = 13
# trial's Q, a parabola p = 2003, a greedy W = 10 set) is counted
# in-process.  With 2 workers, the benchmark's construct-verify took a
# median wall time of 2.31 / 2.35 / 3.14 s at 2**21 / 2**22 / 2**23 against
# 3.11 s unsplit (4 runs each, 2-core Xeon): 2**23 leaves its W = 12 Qs
# whole.  2**22 peaked 0.25 MB lower than 2**21.
_TASK_PAIRS = 1 << 22

# Widest span the float key counts exactly (see the module docstring).  Its
# keys lie in [0, 2**46], so a block's anchor offsets start at bit 47.
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


def _float_keys(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Direction keys in [0, 2**46] from the quotient of the smaller difference
    by the larger one; exact for spans up to _FLOAT_KEY_SPAN."""
    steep = np.abs(dy) > np.abs(dx)
    r = np.where(steep, dx, dy) / np.where(steep, dy, dx)
    r *= 2.0**44
    np.rint(r, out=r)
    r += 2.0**44
    r *= 2
    r += steep
    return r.astype(np.uint64)


def _gcd_keys(dx: np.ndarray, dy: np.ndarray, s: int) -> np.ndarray:
    """Direction keys in [0, 2 * (s * (s + 1) + s)]: the gcd-reduced
    difference (a, b), packed as a * (s + 1) + b and shifted by
    s * (s + 1) + s.  Overwrites dx.

    The differences are not signed.  The anchor is the largest of the points
    it is compared with, and the (inf_norm, x, y) key is convex along any
    line, so the earlier points on a line through the anchor all lie on one
    side of it: their differences share a sign and reduce to one (a, b).
    Packing is one-to-one on one anchor's differences, although b may be
    negative: two packings agree only for b < 0 < b2 with b2 - b = s + 1,
    which would take two differences whose y parts differ by more than the
    span s.  The shift covers the most negative packing, -(s * (s + 1) + s),
    so every key stays in its anchor's range.
    """
    g = np.gcd(dx, dy)
    dx *= s + 1
    dx += dy
    dx //= g
    # Unsigned arithmetic wraps mod 2**64, so adding the shift turns a
    # negative packed direction into its place in [0, 2 * (s * (s + 1) + s)].
    keys = dx.view(np.uint64)
    keys += np.uint64(s * (s + 1) + s)
    return keys


def _block_counts(
    xs: np.ndarray,
    ys: np.ndarray,
    keys_of: Callable[[np.ndarray, np.ndarray], np.ndarray],
    radix: int,
    lo: int,
    hi: int,
) -> np.ndarray:
    """Prefix triple counts of the anchors lo .. hi - 1.

    The key of anchor i and earlier point j is keys_of(their difference),
    which lies in [0, radix), plus (i - lo) * radix; the caller keeps that
    below 2**64.
    """
    sizes = np.arange(lo, hi)  # anchor i has i earlier points
    starts = np.cumsum(sizes) - sizes
    j = np.arange(int(sizes.sum())) - np.repeat(starts, sizes)
    keys = keys_of(xs[j] - np.repeat(xs[lo:hi], sizes), ys[j] - np.repeat(ys[lo:hi], sizes))
    keys += np.repeat(np.arange(hi - lo, dtype=np.uint64) * np.uint64(radix), sizes)
    keys.sort()
    # A line holding L earlier points is a run of L equal keys, which marks
    # L - 1 consecutive positions of ``same``.
    same = np.flatnonzero(keys[1:] == keys[:-1])
    firsts = np.flatnonzero(np.diff(same, prepend=-2) != 1)
    marks = np.diff(firsts, append=len(same))
    owner = (keys[same[firsts]] // np.uint64(radix)).astype(np.intp)
    out = np.zeros(hi - lo, dtype=np.int64)
    np.add.at(out, owner, marks * (marks + 1) // 2)
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
    pts = _ordered_points(ps)
    m = len(pts)
    if m < 3:
        return [0] * m
    xs, ys, s = _packed_coords(pts)
    # A range's anchors compare only with the points before its end.
    tasks = [(xs[:hi], ys[:hi], s, lo, hi) for lo, hi in _anchor_ranges(m)]
    return [0, 0] + np.concatenate(map_ordered(_range_counts, tasks)).tolist()


def _ordered_points(ps: PointSet | Iterable[Point]) -> Sequence[Point]:
    """The points in (inf_norm, x, y) order; a PointSet is stored in it,
    without duplicates."""
    if isinstance(ps, PointSet):
        return ps.points
    return sorted(_as_points(ps), key=norm_lex_key)


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
        keys_of, radix = _float_keys, 1 << 47
    else:
        keys_of, radix = partial(_gcd_keys, s=s), 2 * (s * (s + 1) + s) + 1
    # The accepted spans give radix <= 2**64 - 1, so a block holds at least
    # one anchor.
    max_anchors = (2**64 - 1) // radix
    counts = np.zeros(hi - lo, dtype=np.int64)
    a = lo
    while a < hi:
        # The largest b with a + ... + (b - 1) <= _PAIR_BLOCK, that is
        # b * (b - 1) <= 2 * _PAIR_BLOCK + a * (a - 1).
        b = (1 + math.isqrt(1 + 4 * (2 * _PAIR_BLOCK + a * (a - 1)))) // 2
        b = min(max(b, a + 1), a + max_anchors, hi)
        counts[a - lo: b - lo] = _block_counts(xs, ys, keys_of, radix, a, b)
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

    Requires a positive-quadrant set.  Only the points of the largest box,
    which lead such a set's (inf_norm, x, y) order, go through the kernel.
    """
    if t_max < 0:
        raise ValueError(f"box exponent must be >= 0, got {t_max}")
    pts = _ordered_points(ps)
    top = 1 << t_max
    inside = [p for p in pts if max(p) <= top]
    return box_profile(pts, prefix_triple_counts(inside), t_max)
