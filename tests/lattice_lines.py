"""Lattice lines in exact integer arithmetic, kept as test oracles.

An unoriented direction is the coprime vector (a, b) normalized so that
b > 0, or b == 0 and a > 0; the line with direction (a, b) and offset k is
{(x, y) : b*x - a*y == k}, walked by stepping by (a, b).  The tests use
these to enumerate triples by direction, to key point pairs by their line,
to walk the lines the greedy baseline blocks, to test three points for
collinearity, and to list the directions of a box one gcd at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from no3l.geom import Point

Direction = tuple[int, int]


def canonical_direction(v: tuple[int, int]) -> Direction:
    """Reduce v by its gcd and fix the sign so b > 0, or b == 0 and a > 0."""
    a, b = v
    if a == 0 and b == 0:
        raise ValueError("zero vector has no direction")
    g = math.gcd(a, b)
    a //= g
    b //= g
    if b < 0 or (b == 0 and a < 0):
        a, b = -a, -b
    return (a, b)


@dataclass(frozen=True)
class LatticeLine:
    """The set {(x, y) : b*x - a*y == k} for canonical direction (a, b)."""

    direction: Direction
    offset: int

    def __post_init__(self) -> None:
        if self.direction != canonical_direction(self.direction):
            raise ValueError(f"direction {self.direction} is not canonical")

    def contains(self, p: Point) -> bool:
        a, b = self.direction
        return b * p[0] - a * p[1] == self.offset


def collinear(p: Point, q: Point, r: Point) -> bool:
    """True iff p, q, r lie on one line (repeated points count as collinear)."""
    return (q[0] - p[0]) * (r[1] - p[1]) == (q[1] - p[1]) * (r[0] - p[0])


def box_directions(n: int) -> list[Direction]:
    """Canonical directions realized by point pairs of [1, n]^2, by (b, a)."""
    dirs = [(1, 0), (0, 1)] if n >= 2 else []
    for b in range(1, n):
        for a in range(-(n - 1), n):
            if a != 0 and math.gcd(a, b) == 1:
                dirs.append((a, b))
    return sorted(dirs, key=lambda d: (d[1], d[0]))


def line_through(p: Point, q: Point) -> LatticeLine:
    """The unique lattice line containing two distinct points."""
    if p == q:
        raise ValueError(f"need two distinct points, got {p} twice")
    a, b = canonical_direction((q[0] - p[0], q[1] - p[1]))
    return LatticeLine((a, b), b * p[0] - a * p[1])


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with u*a + v*b == g == gcd(a, b)."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


def _ceil_div(p: int, q: int) -> int:
    # q > 0
    return -((-p) // q)


def line_points_in_rect(line: LatticeLine, n: int) -> list[Point]:
    """All points of the line inside [1, n]^2, ordered along the direction."""
    if n < 1:
        raise ValueError(f"box side must be >= 1, got {n}")
    a, b = line.direction
    k = line.offset
    # Base solution of b*x - a*y = k from u*b + v*a = 1.
    g, u, v = _xgcd(b, a)
    assert g == 1
    x0 = u * k
    y0 = -v * k
    # Parametrize (x0 + s*a, y0 + s*b) and intersect both coordinate ranges.
    lo, hi = None, None
    for base, step in ((x0, a), (y0, b)):
        if step > 0:
            slo = _ceil_div(1 - base, step)
            shi = (n - base) // step
        elif step < 0:
            slo = _ceil_div(base - n, -step)
            shi = (base - 1) // (-step)
        else:
            if not 1 <= base <= n:
                return []
            continue
        lo = slo if lo is None else max(lo, slo)
        hi = shi if hi is None else min(hi, shi)
    assert lo is not None and hi is not None
    return [(x0 + s * a, y0 + s * b) for s in range(lo, hi + 1)]
