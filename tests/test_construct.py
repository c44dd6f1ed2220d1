"""Constructions: deletion repair and the two baselines.

Greedy sizes and the parabola's density value act as regression pins;
triple-freeness of every construction is the load-bearing property and
is asserted by the exact counter (brute force where cheap).
"""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from no3l import construct
from no3l.construct import (
    delete_max_of_triples,
    delete_max_with_profile,
    density_profile,
    greedy_construct,
    modular_parabola,
)
from no3l.sampling import PointSet, SamplerConfig, norm_lex_key, sample_window
from no3l.triples import box_triple_counts, count_collinear_triples, prefix_triple_counts
from brute_force import count_collinear_triples_bruteforce
from lattice_lines import line_points_in_rect, line_through

GREEDY_SIZES = {1: 1, 2: 4, 3: 8, 4: 20, 5: 46, 6: 84, 7: 162, 8: 340, 9: 646, 10: 1336}


def _reference_greedy(window_exponent):
    """The greedy scan one cell at a time, walking each accepted pair's line."""
    n = (1 << window_exponent) - 1
    blocked = set()
    accepted = []
    for norm in range(1, n + 1):
        layer = [(x, norm) for x in range(1, norm)] + [(norm, y) for y in range(1, norm + 1)]
        for cand in layer:
            if cand in blocked:
                continue
            for prior in accepted:
                blocked.update(line_points_in_rect(line_through(cand, prior), n))
            accepted.append(cand)
    return accepted


def test_delete_max_on_a_hand_case():
    # (1,1),(2,2),(3,3) are collinear; (3,3) and (3,1) are each the largest
    # member of a triple and must go, nothing else
    ps = PointSet([(1, 1), (2, 2), (3, 3), (1, 2), (3, 1)])
    # (3,1): collinear with (1,2)? need a third: (1,2),(2,2)? not collinear with (3,1)
    out = delete_max_of_triples(ps)
    survivors = set(out.points)
    assert (3, 3) not in survivors
    assert count_collinear_triples(out) == 0
    assert out.meta["kind"] == "constructed"


def test_delete_max_deletes_exactly_prefix_positives():
    q = sample_window(SamplerConfig(seed=21, c=0.7, window_exponent=6))
    s = delete_max_of_triples(q)
    ordered = sorted(q.points, key=norm_lex_key)
    counts = prefix_triple_counts(ordered)
    want = tuple(p for p, k in zip(ordered, counts) if k == 0)
    assert s.points == want
    assert s.meta["seed"] == q.meta["seed"]
    assert s.meta["c"] == q.meta["c"]
    assert s.meta["window_exponent"] == q.meta["window_exponent"]


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=20, deadline=None)
def test_delete_max_output_is_triple_free(seed):
    q = sample_window(SamplerConfig(seed=seed, c=0.8, window_exponent=6))
    s = delete_max_of_triples(q)
    assert count_collinear_triples(s) == 0
    assert set(s.points) <= set(q.points)


@pytest.mark.parametrize("seed,c,w", [(1, 0.8, 6), (5, 3.0, 5), (9, 0.3, 8)])
def test_delete_max_with_profile_is_the_two_separate_passes(seed, c, w):
    q = sample_window(SamplerConfig(seed=seed, c=c, window_exponent=w))
    s, profile = delete_max_with_profile(q, w)
    assert s == delete_max_of_triples(q)
    assert profile == box_triple_counts(q, w)


@pytest.mark.parametrize("off", [(0, 3), (2, -1)], ids=["on-an-axis", "below-the-axis"])
def test_delete_max_with_profile_rejects_a_sample_off_the_positive_quadrant(off):
    # its counts would take in triples through that member
    sample = PointSet([(1, 1), (2, 2), (3, 3), off])
    with pytest.raises(ValueError, match=re.escape(f"point {off} outside the positive")):
        delete_max_with_profile(sample, 2)


def test_modular_parabola_small_sets():
    assert modular_parabola(2).points == ((1, 1), (2, 2))
    assert modular_parabola(3).points == ((1, 1), (2, 1), (3, 3))
    assert modular_parabola(5).points == ((1, 1), (2, 4), (3, 4), (4, 1), (5, 5))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 31, 101])
def test_modular_parabola_is_triple_free_bruteforce(p):
    ps = modular_parabola(p)
    assert len(ps) == p
    assert ps.meta["kind"] == "baseline"
    assert count_collinear_triples_bruteforce(ps) == 0


def test_modular_parabola_larger_prime_fast_counter():
    ps = modular_parabola(257)
    assert len(ps) == 257
    assert count_collinear_triples(ps) == 0


def test_modular_parabola_rejects_composites_and_huge_moduli():
    with pytest.raises(ValueError, match="prime"):
        modular_parabola(100)
    with pytest.raises(ValueError, match="prime"):
        modular_parabola(1)
    with pytest.raises(ValueError):
        modular_parabola(2**32 + 15)  # prime, but past the supported range


def test_is_prime_matches_a_sieve():
    limit = 10**5
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for d in range(2, math.isqrt(limit - 1) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytes(len(range(d * d, limit, d)))
    assert [n for n in range(limit) if construct._is_prime(n)] == [
        n for n in range(limit) if sieve[n]
    ]
    assert construct._is_prime(4294967291)  # the largest prime below 2**32
    # 151 * 751 * 28351: the smallest strong pseudoprime to bases 2, 3, 5 and 7
    assert not construct._is_prime(3215031751)


def test_greedy_sizes_and_triple_freeness():
    for w, size in GREEDY_SIZES.items():
        ps = greedy_construct(w)
        assert len(ps) == size
        assert count_collinear_triples(ps) == 0
        assert ps.meta["window_exponent"] == w


@pytest.mark.parametrize("w", range(1, 10))
def test_greedy_matches_reference_walk(w):
    assert greedy_construct(w).points == tuple(_reference_greedy(w))


@pytest.mark.parametrize("cells", [1, 7, 64])
def test_greedy_chunked_scatter_matches_reference_walk(monkeypatch, cells):
    # chunks of one line, of a few lines, and lines longer than a chunk
    monkeypatch.setattr(construct, "_SCATTER_CELLS", cells)
    for w in (4, 6):
        assert greedy_construct(w).points == tuple(_reference_greedy(w))


def test_greedy_smallest_windows():
    assert greedy_construct(1).points == ((1, 1),)
    assert greedy_construct(2).points == ((1, 1), (1, 2), (2, 1), (2, 2))


def test_greedy_rejects_oversized_window():
    with pytest.raises(ValueError):
        greedy_construct(14)


def test_density_profile_values():
    ps = PointSet([(1, 1), (2, 2), (5, 3)])
    rows = density_profile(ps, [2, 4])
    assert rows[0] == (2, 2, 2 * math.sqrt(math.log(2)) / 2)
    assert rows[1] == (4, 2, 2 * math.sqrt(math.log(4)) / 4)


@given(
    pts=st.sets(st.tuples(st.integers(-6, 12), st.integers(-6, 12)), max_size=40),
    sides=st.lists(st.integers(2, 14), max_size=5),
)
@settings(max_examples=200, deadline=None)
def test_density_profile_counts_like_the_direct_box_test(pts, sides):
    # members off the positive quadrant and past the box must not count
    rows = density_profile(PointSet(pts), sides)
    assert [count for _, count, _ in rows] == [
        sum(1 for x, y in pts if 1 <= x <= n and 1 <= y <= n) for n in sides
    ]


def test_density_profile_validation():
    ps = PointSet([(1, 1)], {"window_exponent": 4})
    with pytest.raises(ValueError):
        density_profile(ps, [1])
    with pytest.raises(ValueError):
        density_profile(ps, [16])  # box reaches past the window [1, 15]^2
    density_profile(ps, [8, 15])


@given(
    seed=st.integers(1, 2**32),
    w=st.integers(1, 9),
    c=st.sampled_from([0.3, 1.0, 3.0]),
)
@settings(max_examples=100, deadline=None)
def test_repair_is_exact_on_every_box_of_the_window(seed, w, c):
    # the deletion rule is prefix-closed, so the repair of a window is the
    # repair of any larger window restricted to it, out to its side 2**W - 1
    def repaired(window):
        cfg = SamplerConfig(seed=seed, c=c, window_exponent=window)
        return delete_max_of_triples(sample_window(cfg))

    n = (1 << w) - 1
    small, large = repaired(w), repaired(w + 1)
    assert small.points == large.in_box(n).points
    sides = [n] if n >= 2 else []
    assert density_profile(small, sides) == density_profile(large, sides)


def test_parabola_density_pin():
    rows = density_profile(modular_parabola(101), [101])
    assert rows[0][1] == 101
    assert rows[0][2] == pytest.approx(2.148283155648077, rel=1e-12)
