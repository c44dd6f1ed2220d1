"""Collinear-triple counting tests.

The vectorized anchor/direction counter is held against the cubic
brute-force oracle on random sets and on full grids; the per-anchor
prefix counts are cross-checked against the triple enumerator, whose
output is itself checked against itertools.combinations.
"""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from no3l.geom import collinear, norm_lex_key
from no3l.sampling import PointSet, SamplerConfig, sample_window
from no3l.triples import (
    box_triple_counts,
    count_collinear_triples,
    count_collinear_triples_bruteforce,
    enumerate_collinear_triples,
    prefix_triple_counts,
    triples_within_box,
)

# full-grid triple counts, brute-force verified; OEIS-style regression row
GRID_TRIPLES = {1: 0, 2: 0, 3: 8, 4: 44, 5: 152}


def _grid(n):
    return [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]


def test_full_grid_counts():
    for n, want in GRID_TRIPLES.items():
        assert count_collinear_triples(_grid(n)) == want
        assert count_collinear_triples_bruteforce(_grid(n)) == want


def test_small_hand_cases():
    assert count_collinear_triples([]) == 0
    assert count_collinear_triples([(1, 1)]) == 0
    assert count_collinear_triples([(1, 1), (2, 2)]) == 0
    assert count_collinear_triples([(1, 1), (2, 2), (3, 3)]) == 1
    assert count_collinear_triples([(1, 1), (2, 2), (3, 3), (4, 4)]) == 4
    # four on a line plus one off it
    assert count_collinear_triples([(1, 1), (2, 2), (3, 3), (4, 4), (1, 2)]) == 4


def test_duplicate_points_rejected():
    with pytest.raises(ValueError):
        count_collinear_triples([(1, 1), (1, 1), (2, 2)])


random_sets = st.lists(
    st.tuples(st.integers(1, 100), st.integers(1, 100)),
    min_size=0,
    max_size=50,
    unique=True,
)


@given(random_sets)
@settings(max_examples=120, deadline=None)
def test_fast_counter_equals_bruteforce(pts):
    assert count_collinear_triples(pts) == count_collinear_triples_bruteforce(pts)


@given(random_sets)
@settings(max_examples=60, deadline=None)
def test_enumerator_matches_combinations(pts):
    want = {
        tuple(sorted(tr, key=norm_lex_key))
        for tr in combinations(pts, 3)
        if collinear(*tr)
    }
    got = list(enumerate_collinear_triples(pts))
    assert {tuple(sorted(tr, key=norm_lex_key)) for tr in got} == want
    assert len(got) == len(want)
    for p, q, anchor in got:
        # the anchor is the largest member in norm-lex order
        assert norm_lex_key(anchor) > norm_lex_key(p)
        assert norm_lex_key(anchor) > norm_lex_key(q)


@given(random_sets)
@settings(max_examples=60, deadline=None)
def test_prefix_counts_match_enumeration(pts):
    ordered = sorted(pts, key=norm_lex_key)
    counts = prefix_triple_counts(ordered)
    assert sum(counts) == count_collinear_triples(pts)
    by_anchor = {}
    for _, _, anchor in enumerate_collinear_triples(pts):
        by_anchor[anchor] = by_anchor.get(anchor, 0) + 1
    for p, cnt in zip(ordered, counts):
        assert cnt == by_anchor.get(p, 0)


def test_vectorized_path_on_a_large_set():
    # push the input over the vectorization threshold and compare routes
    ps = sample_window(SamplerConfig(seed=3, c=6.0, window_exponent=5))
    assert len(ps) > 192
    n_fast = count_collinear_triples(ps)
    ordered = sorted(ps.points, key=norm_lex_key)
    assert sum(prefix_triple_counts(ordered)) == n_fast
    assert sum(1 for _ in enumerate_collinear_triples(ps)) == n_fast


def test_wide_coordinates_pack_without_collisions():
    # a * 2**22 + b packing made (1, 2**22 + 1) and (2, 1) the same direction
    rng = random.Random(2024)
    pts = {(rng.randint(10**6, 10**7), rng.randint(10**6, 10**7)) for _ in range(200)}
    pts |= {(1, 1), (2, 2**22 + 2), (3, 2)}
    assert len(pts) > 192
    want = count_collinear_triples_bruteforce(pts)
    assert sum(prefix_triple_counts(pts)) == want
    assert count_collinear_triples(pts) == want


@pytest.mark.parametrize(
    "far",
    [(1, 2**62), (1, -(2**62)), (1, 2**64)],
    ids=["span-too-wide", "negative-span-too-wide", "beyond-int64"],
)
def test_unpackable_coordinates_are_rejected(far):
    pts = [(i, i * i) for i in range(1, 200)] + [far]
    with pytest.raises(ValueError):
        count_collinear_triples(pts)
    with pytest.raises(ValueError):
        prefix_triple_counts(pts)


def test_triples_within_box():
    ps = PointSet(_grid(3))
    assert triples_within_box(ps, 1) == 0
    assert triples_within_box(ps, 2) == 8


def test_box_triple_counts_cumulative():
    ps = PointSet(_grid(3))
    assert box_triple_counts(ps, 3) == [0, 0, 8, 8]
    q = sample_window(SamplerConfig(seed=8, c=0.6, window_exponent=6))
    counts = box_triple_counts(q, 6)
    for t in range(7):
        assert counts[t] == count_collinear_triples(q.in_box(1 << t))
    assert counts == sorted(counts)


def test_box_triple_counts_requires_positive_quadrant():
    with pytest.raises(ValueError):
        box_triple_counts(PointSet([(-1, 2), (3, 3)]), 2)
