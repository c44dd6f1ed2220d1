"""Counts that the package derives another way, kept as test oracles.

``count_collinear_triples_bruteforce`` tests all C(m, 3) triples of a set
with the cross product, against which the triple kernel is checked;
``shell_size`` is the closed-form number of positive-quadrant points in a
dyadic shell, which the acceptance tests use as E[X_T] / p_T, and
``shell_index`` is a point's shell, found from its norm alone, against
which the sampler's shell bisections and the exact shell-pair counts are
checked.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from no3l.sampling import Point, PointSet, inf_norm

BRUTE_FORCE_CAP = 2000

# Shell sizes are kept within 64-bit range; nothing in the package needs
# shells beyond exponent 30.
SHELL_EXPONENT_CAP = 30


def _as_points(obj: PointSet | Iterable[Point]) -> list[Point]:
    pts = list(obj) if isinstance(obj, PointSet) else [tuple(p) for p in obj]
    if len(set(pts)) != len(pts):
        raise ValueError("point set contains duplicates")
    return pts


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


def shell_size(T: int) -> int:
    """Number of positive-quadrant points in shell T: 3*4**T - 2*2**T."""
    if T < 0:
        raise ValueError(f"shell exponent must be >= 0, got {T}")
    if T > SHELL_EXPONENT_CAP:
        raise OverflowError(f"shell exponent {T} exceeds cap {SHELL_EXPONENT_CAP}")
    return 3 * 4**T - 2 * 2**T


def shell_index(p: Point) -> int:
    """Exponent T with 2**T <= inf_norm(p) < 2**(T+1); the origin has no shell."""
    m = inf_norm(p)
    if m == 0:
        raise ValueError("the origin lies in no shell")
    return m.bit_length() - 1
