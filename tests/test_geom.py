"""Exact-geometry unit tests: norms, shells, directions, line walking.

Oracle policy: closed-form counts are checked against brute-force scans
over small rectangles, and hypothesis drives the line/rectangle
intersection walker against a full-grid membership filter.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from no3l.sampling import inf_norm, norm_lex_key, shell_index
from brute_force import SHELL_EXPONENT_CAP, shell_size
from lattice_lines import (
    LatticeLine,
    canonical_direction,
    collinear,
    line_points_in_rect,
    line_through,
)

coord = st.integers(min_value=-50, max_value=50)
point = st.tuples(coord, coord)


def test_inf_norm_examples():
    assert inf_norm((3, -7)) == 7
    assert inf_norm((0, 0)) == 0
    assert inf_norm((5, 5)) == 5


def test_norm_lex_order_is_total_and_norm_major():
    pts = [(2, 1), (1, 2), (1, 1), (2, 2), (3, 1), (1, 3)]
    ordered = sorted(pts, key=norm_lex_key)
    assert ordered == [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)]


def test_shell_index_examples():
    assert shell_index((1, 1)) == 0
    assert shell_index((2, 3)) == 1
    assert shell_index((4, 4)) == 2
    assert shell_index((7, 1)) == 2
    assert shell_index((8, 8)) == 3
    with pytest.raises(ValueError):
        shell_index((0, 0))


def test_shell_size_closed_form():
    # positive-quadrant shell: (2**(T+1) - 1)**2 - (2**T - 1)**2
    for t in range(0, 12):
        lo, hi = 1 << t, 1 << (t + 1)
        brute = (hi - 1) ** 2 - (lo - 1) ** 2
        assert shell_size(t) == brute == 3 * 4**t - 2 * 2**t
    with pytest.raises(OverflowError):
        shell_size(SHELL_EXPONENT_CAP + 1)


@given(point)
def test_shell_membership(p):
    if p == (0, 0):
        return
    t = shell_index(p)
    assert (1 << t) <= inf_norm(p) < (1 << (t + 1))


def test_canonical_direction_examples():
    assert canonical_direction((2, -4)) == (-1, 2)
    assert canonical_direction((-3, 0)) == (1, 0)
    assert canonical_direction((0, 7)) == (0, 1)
    assert canonical_direction((6, 9)) == (2, 3)
    with pytest.raises(ValueError):
        canonical_direction((0, 0))


@given(coord, coord)
def test_canonical_direction_is_primitive_and_oriented(a, b):
    if (a, b) == (0, 0):
        return
    ca, cb = canonical_direction((a, b))
    assert math.gcd(abs(ca), abs(cb)) == 1
    assert cb > 0 or (cb == 0 and ca > 0)
    # parallel to the input
    assert a * cb - b * ca == 0


def test_collinear_examples():
    assert collinear((1, 1), (2, 2), (3, 3))
    assert collinear((2, 1), (4, 2), (6, 3))
    assert not collinear((1, 1), (2, 2), (3, 4))
    # repeated points are degenerate-collinear
    assert collinear((1, 1), (1, 1), (9, 2))


@given(point, point, point)
def test_collinear_matches_cross_product(p, q, r):
    cross = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    assert collinear(p, q, r) == (cross == 0)


def test_lattice_line_canonicality_enforced():
    with pytest.raises(ValueError):
        LatticeLine((2, 4), 0)
    with pytest.raises(ValueError):
        LatticeLine((1, -1), 3)
    line = LatticeLine((1, 2), 1)
    assert line.contains((1, 1))
    assert line.contains((3, 2)) is False


def test_line_through_examples():
    line = line_through((2, 1), (4, 2))
    assert line.direction == (2, 1)
    assert line.offset == 0
    assert line_points_in_rect(line, 8) == [(2, 1), (4, 2), (6, 3), (8, 4)]
    with pytest.raises(ValueError):
        line_through((5, 5), (5, 5))


@given(point, point, st.integers(min_value=1, max_value=30))
@settings(max_examples=200)
def test_line_points_in_rect_matches_grid_scan(p, q, n):
    if p == q:
        return
    line = line_through(p, q)
    got = line_points_in_rect(line, n)
    brute = [
        (x, y)
        for x in range(1, n + 1)
        for y in range(1, n + 1)
        if line.contains((x, y))
    ]
    assert sorted(got) == sorted(brute)
    # ordered along the direction: consecutive gaps equal the direction
    a, b = line.direction
    for u, v in zip(got, got[1:]):
        assert (v[0] - u[0], v[1] - u[1]) == (a, b)
