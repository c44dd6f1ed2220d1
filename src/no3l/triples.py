"""Exact counting and enumeration of collinear triples.

One kernel does the counting.  It orders the points by (inf_norm, x, y)
and, for every point, buckets the points before it by the canonical
direction of the difference vector: a line through the point holding j
earlier points contributes C(j, 2) triples whose largest member it is.
Every triple has exactly one largest member, so these per-point counts sum
to the total; they also drive the deletion construction and the whole
profile T -> triples inside [1, 2**T]^2, because a triple of
positive-quadrant points lies in that box exactly when its largest member
does.  All arithmetic is integer-exact.  The numpy path packs normalized
directions into int64 keys, sized from the set's coordinate span (a set
too wide to pack exactly is rejected with ValueError), and must return the
same numbers as the scalar path used for small sets.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, Sequence

import numpy as np

from .geom import Point, canonical_direction, norm_lex_key
from .sampling import PointSet

BRUTE_FORCE_CAP = 2000

# Below this size the pure-Python bucketing path tends to win; above it the
# per-anchor numpy path does.  Both are exact, the cutover is performance only.
_VECTOR_MIN_POINTS = 192


def _as_points(obj: PointSet | Iterable[Point]) -> list[Point]:
    pts = list(obj.points) if isinstance(obj, PointSet) else [tuple(p) for p in obj]
    if len(set(pts)) != len(pts):
        raise ValueError("point set contains duplicates")
    return pts


def _pair_sum(counts: Iterable[int]) -> int:
    return sum(n * (n - 1) // 2 for n in counts)


def _packed_coords(pts: Sequence[Point]) -> tuple[np.ndarray, np.ndarray, np.int64]:
    """Coordinate arrays and the multiplier that packs directions into int64.

    A normalized direction (a, b) of two members has |a| <= s, the larger
    coordinate span, and 0 <= b <= s; so a * (s + 1) + b is collision-free,
    and fits in int64 while s * (s + 1) + s does.
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
    return xs, ys, np.int64(s + 1)


def _direction_keys(
    xs: np.ndarray, ys: np.ndarray, mult: np.int64, i: int
) -> np.ndarray:
    """Packed directions from point i to each of the points before it."""
    dx = xs[:i] - xs[i]
    dy = ys[:i] - ys[i]
    g = np.gcd(dx, dy)
    a = dx // g
    b = dy // g
    flip = (b < 0) | ((b == 0) & (a < 0))
    np.negative(a, out=a, where=flip)
    np.negative(b, out=b, where=flip)
    return a * mult + b


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


def enumerate_collinear_triples(
    ps: PointSet | Iterable[Point],
) -> Iterator[tuple[Point, Point, Point]]:
    """Yield each collinear triple once, members ordered by (inf_norm, x, y).

    Triples are grouped by their largest member, which is visited in
    increasing order.
    """
    pts = sorted(_as_points(ps), key=norm_lex_key)
    for i, (xi, yi) in enumerate(pts):
        buckets: dict[tuple[int, int], list[Point]] = {}
        for p in pts[:i]:
            d = canonical_direction((p[0] - xi, p[1] - yi))
            buckets.setdefault(d, []).append(p)
        for members in buckets.values():
            for p, q in combinations(members, 2):
                yield (p, q, (xi, yi))


def prefix_triple_counts(ps: PointSet | Iterable[Point]) -> list[int]:
    """Per-point counts of triples whose largest member is that point.

    Entry i refers to the i-th point in (inf_norm, x, y) order (PointSet
    storage order).  Summing a prefix of the result counts the triples among
    the corresponding smallest points.
    """
    pts = sorted(_as_points(ps), key=norm_lex_key)
    m = len(pts)
    counts = [0] * m
    if m < 3:
        return counts
    if m >= _VECTOR_MIN_POINTS:
        xs, ys, mult = _packed_coords(pts)
        for i in range(2, m):
            _, sizes = np.unique(
                _direction_keys(xs, ys, mult, i), return_counts=True
            )
            counts[i] = int((sizes * (sizes - 1) // 2).sum())
    else:
        for i in range(2, m):
            xi, yi = pts[i]
            buckets: dict[tuple[int, int], int] = {}
            for xj, yj in pts[:i]:
                d = canonical_direction((xj - xi, yj - yi))
                buckets[d] = buckets.get(d, 0) + 1
            counts[i] = _pair_sum(buckets.values())
    return counts


def triples_within_box(ps: PointSet | Iterable[Point], T: int) -> int:
    """Collinear triples among members lying in [1, 2**T]^2."""
    if T < 0:
        raise ValueError(f"box exponent must be >= 0, got {T}")
    n = 1 << T
    pts = [p for p in _as_points(ps) if 1 <= p[0] <= n and 1 <= p[1] <= n]
    return count_collinear_triples(pts)


def box_triple_counts(ps: PointSet | Iterable[Point], t_max: int) -> list[int]:
    """The profile [triples in [1, 2**T]^2 for T = 0 .. t_max], in one pass.

    Requires a positive-quadrant set: then a triple lies in the box of
    exponent T exactly when its largest member has norm <= 2**T, so the
    profile is a cumulative sum of the per-point counts.
    """
    if t_max < 0:
        raise ValueError(f"box exponent must be >= 0, got {t_max}")
    pts = sorted(_as_points(ps), key=norm_lex_key)
    for p in pts:
        if p[0] < 1 or p[1] < 1:
            raise ValueError(f"point {p} outside the positive quadrant")
    top = 1 << t_max
    inside = [p for p in pts if max(p) <= top]
    counts = prefix_triple_counts(inside)
    norms = [max(p) for p in inside]
    profile = []
    acc = 0
    idx = 0
    for T in range(t_max + 1):
        bound = 1 << T
        while idx < len(inside) and norms[idx] <= bound:
            acc += counts[idx]
            idx += 1
        profile.append(acc)
    return profile
