"""Constructions of point sets with no three collinear members.

The randomized route takes a sampled set Q and deletes every point that is
the largest member, in the (inf_norm, x, y) order, of some collinear triple
of Q.  What survives contains no triple at all: a triple of survivors would
still have a largest member, and that member would have been deleted.  The
deletion rule never looks at points larger than the victim, so the survivor
set restricted to any norm prefix depends only on Q restricted to that
prefix, and each shell loses at most the number of triples living in the
next enclosing box.

Two deterministic baselines are included for comparison: the classical
parabola t -> t**2 - 1 reduced mod a prime, which is triple-free because a
quadratic residue equation mod p has at most two roots, and a greedy scan
that accepts points in (inf_norm, x, y) order whenever they close no triple.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .sampling import PointSet
from .triples import box_profile, prefix_triple_counts

GREEDY_WINDOW_CAP = 13
PARABOLA_MODULUS_CAP = 1 << 32
# Cells marked per scatter in the greedy scan; bounds its memory at W = 13.
_SCATTER_CELLS = 1 << 20


def delete_max_of_triples(sample: PointSet) -> PointSet:
    """Remove each point that closes a triple of smaller-or-equal points."""
    return _survivors(sample, prefix_triple_counts(sample))


def delete_max_with_profile(sample: PointSet, t_max: int) -> tuple[PointSet, list[int]]:
    """delete_max_of_triples(sample) and box_triple_counts(sample, t_max).

    Both come from one kernel pass over the whole sample: a point's prefix
    count depends only on the points before it, so the counts of the
    points inside the box are a prefix of the sample's counts.  They take
    in triples through every member, so a member off the positive quadrant
    raises ValueError.
    """
    low = min(sample.points, key=min, default=(1, 1))
    if min(low) < 1:
        raise ValueError(f"point {low} outside the positive quadrant")
    counts = prefix_triple_counts(sample)
    return _survivors(sample, counts), box_profile(sample, counts, t_max)


def _survivors(sample: PointSet, counts: Sequence[int]) -> PointSet:
    """The members of sample whose prefix triple count is 0."""
    survivors = [p for p, t in zip(sample.points, counts) if t == 0]
    meta = {
        "kind": "constructed",
        "seed": sample.meta.get("seed"),
        "c": sample.meta.get("c"),
        "window_exponent": sample.meta.get("window_exponent"),
    }
    # A subset of the sample's members: ordered, distinct and in its window.
    return PointSet._ordered(tuple(survivors), meta)


def _is_prime(n: int) -> bool:
    """Trial division by 2 and the odd numbers up to isqrt(n).

    About 2**15 divisions below PARABOLA_MODULUS_CAP, a few milliseconds.
    """
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    return all(n % d for d in range(3, math.isqrt(n) + 1, 2))


def modular_parabola(p: int) -> PointSet:
    """The p points (t, ((t*t - 1) mod p) + 1) for t = 1 .. p; triple-free."""
    if p >= PARABOLA_MODULUS_CAP:
        raise ValueError(f"modulus {p} exceeds cap {PARABOLA_MODULUS_CAP}")
    if not _is_prime(p):
        raise ValueError(f"modulus must be prime, got {p}")
    pts = [(t, ((t * t - 1) % p) + 1) for t in range(1, p + 1)]
    return PointSet(pts, {"kind": "baseline"})


def greedy_construct(window_exponent: int) -> PointSet:
    """Greedy scan of [1, 2**W - 1]^2 in (inf_norm, x, y) order.

    A candidate is rejected iff it lies on a line through two already
    accepted points.  Rather than rescanning accepted pairs, each newly
    accepted point blocks, in one vectorized step, every grid cell on the
    lines through it and the earlier accepted points; the scan then only
    visits the cells of each norm layer that are still free.
    """
    if not 1 <= window_exponent <= GREEDY_WINDOW_CAP:
        raise ValueError(
            f"window exponent must be in [1, {GREEDY_WINDOW_CAP}],"
            f" got {window_exponent}"
        )
    n = (1 << window_exponent) - 1
    blocked = np.zeros((n + 1, n + 1), dtype=bool)
    flat = blocked.reshape(-1)
    # A row holds at most two members of a triple-free set.
    xs = np.empty(2 * n, dtype=np.int64)
    ys = np.empty(2 * n, dtype=np.int64)
    m = 0
    for norm in range(1, n + 1):
        # The layer in scan order: (x, norm) for x < norm, then (norm, y).
        column = [(int(x), norm) for x in np.flatnonzero(~blocked[1:norm, norm]) + 1]
        row = [(norm, int(y)) for y in np.flatnonzero(~blocked[norm, 1 : norm + 1]) + 1]
        for x, y in column + row:
            if blocked[x, y]:
                continue
            _block_lines(flat, x, y, xs[:m], ys[:m], n)
            xs[m] = x
            ys[m] = y
            m += 1
    accepted = zip(xs[:m].tolist(), ys[:m].tolist())
    meta = {"kind": "baseline", "window_exponent": window_exponent}
    return PointSet(accepted, meta)


def _block_lines(
    flat: np.ndarray, cx: int, cy: int, xs: np.ndarray, ys: np.ndarray, n: int
) -> None:
    """Set every cell of [1, n]^2 on a line through (cx, cy) and some (xs, ys).

    ``flat`` is the (n + 1) x (n + 1) grid indexed by x * (n + 1) + y.  The
    line to a prior point is (cx, cy) + s * (a, b) with (a, b) the reduced
    difference; its cells inside the box form one parameter range [lo, hi],
    hence one arithmetic run of flat indices.
    """
    a = xs - cx
    b = ys - cy
    g = np.gcd(a, b)
    a //= g
    b //= g
    lo, hi = _param_range(cx, a, n)
    lo_y, hi_y = _param_range(cy, b, n)
    np.maximum(lo, lo_y, out=lo)
    np.minimum(hi, hi_y, out=hi)
    counts = hi - lo + 1
    strides = a * (n + 1) + b
    starts = (cx * (n + 1) + cy) + lo * strides
    ends = np.cumsum(counts)
    first = 0
    while first < len(counts):
        # Lines in chunks of about _SCATTER_CELLS cells, at least one line each.
        done = int(ends[first - 1]) if first else 0
        last = int(np.searchsorted(ends, done + _SCATTER_CELLS, side="right"))
        last = max(last, first + 1)
        chunk = slice(first, last)
        _scatter_runs(flat, starts[chunk], strides[chunk], counts[chunk])
        first = last


def _param_range(c: int, step: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Bounds [lo, hi] of the integers s with 1 <= c + s * step <= n.

    Where step is 0 the coordinate never leaves [1, n]; the bounds returned
    there, -n and n, are looser than the other coordinate's.
    """
    size = np.abs(step)
    forward = step > 0
    behind = np.where(forward, c - 1, n - c)
    ahead = np.where(forward, n - c, c - 1)
    still = size == 0
    size[still] = 1
    behind[still] = n
    ahead[still] = n
    return -(behind // size), ahead // size


def _scatter_runs(
    flat: np.ndarray, starts: np.ndarray, strides: np.ndarray, counts: np.ndarray
) -> None:
    """flat[start + i * stride] = True for i < count, for every run (count >= 1)."""
    steps = np.repeat(strides, counts)
    heads = np.cumsum(counts) - counts
    # Each run's head is reached from the previous run's last cell.
    steps[heads[0]] = starts[0]
    steps[heads[1:]] = starts[1:] - (starts[:-1] + (counts[:-1] - 1) * strides[:-1])
    flat[np.cumsum(steps, out=steps)] = True


def density_profile(
    ps: PointSet, side_lengths: Sequence[int]
) -> list[tuple[int, int, float]]:
    """Rows (n, members in [1, n]^2, count * sqrt(ln n) / n).

    The natural logarithm is used.  For sets carrying a window exponent W the
    profile is allowed for n <= 2**W - 1, the side of the window: the
    deletion rule is prefix-closed (module docstring), so a repaired set
    restricted to [1, n]^2 is exact for every box inside the window.
    """
    w = ps.meta.get("window_exponent")
    rows = []
    for n in side_lengths:
        if n < 2:
            raise ValueError(f"density needs box side >= 2, got {n}")
        if w is not None and n.bit_length() > w:
            raise ValueError(
                f"box side {n} exceeds 2**{w} - 1, the side of a window of exponent {w}"
            )
        count = len(ps.in_box(n))
        rows.append((n, count, count * math.sqrt(math.log(n)) / n))
    return rows
