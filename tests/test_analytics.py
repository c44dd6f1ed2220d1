"""Exact line-family analytics against independent small-scale oracles.

The scan under test walks coprime direction families with bincount
tricks, the count of E[Y_T] sums over coprime (i, g) pairs and shell
triples, and the two-point directions are counted by shell pair; the
oracle here rebuilds every line from point pairs with a dictionary and
evaluates elementary symmetric sums with itertools.combinations.  Slow
and obviously correct.
"""

import math
from itertools import combinations

import numpy as np
import pytest

from no3l import analytics
from no3l.analytics import (
    ENUMERATION_CAP,
    MEAN_CAP,
    VARIANCE_CAP,
    LineWeightReport,
    _box_directions,
    _deal,
    _direction_line_sums,
    _mean_counts,
    _pair_counts,
    _pair_parts,
    _probability_grids,
    exact_mean,
    exact_reports,
    monte_carlo_moments,
    normalized_moments,
    x_floor,
    y_ceiling,
)
from no3l.parallel import map_ordered
from no3l.sampling import SamplerConfig, sample_window, shell_index, shell_probability
from no3l.triples import box_triple_counts, count_collinear_triples
from beta_grid import beta_box_grid
from lattice_lines import box_directions, collinear, line_through

# number of lines with at least two points in [1, 2**T]^2
LINE_COUNTS = {1: 6, 2: 62, 3: 938, 4: 14946}

# exact_ey at c=0.5, normalized by c**3 * 2**T / sqrt(T); the increments
# decelerate once the box is a few shells wide, consistent with an
# O(c**3 * 2**T / sqrt(T)) expected triple count
EY_NORM_HALF = {
    2: 1.0027087272498116,
    3: 3.49676466662054,
    4: 6.522537991570144,
    5: 9.216594739518001,
    6: 11.158470631443617,
    7: 12.351870072868996,
}


# exact_reports([T], 0.5)'s weight report as (sum_w3, sum_w4, exact_ey,
# line_count) and its variance report as (v1, v2, v3, total), recorded
# from the full direction walk with full-span bins that the mirror-paired
# scan replaced
WEIGHT_SUMS_HALF = {
    5: (383.1236734257433, 216.9879748313323, 16.487145886903374, 239050),
    6: (1153.301713501195, 539.1441782290568, 36.44341247582463, 3825234),
    7: (3763.4744150723413, 1496.4246204685535, 74.697089004326, 61193214),
}
VARIANCE_BOUNDS_HALF = {
    5: (117.95387267504967, 216.9879748313323, 16.487145886903374, 351.42899339328534),
    6: (330.49198148734246, 539.1441782290568, 36.44341247582463, 906.079572192224),
}


def _prob(p, c):
    return shell_probability(shell_index(p), c)


def _oracle_scan(T, c):
    """Pair-built line dictionary; returns (w3, w4, ey, line_count)."""
    n = 1 << T
    pts = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
    lines = {}
    for p, q in combinations(pts, 2):
        key = line_through(p, q)
        lines.setdefault(key, set()).update((p, q))
    w3 = []
    w4 = []
    ey = []
    for members in lines.values():
        probs = [_prob(p, c) for p in members]
        w = math.fsum(probs)
        w3.append(w**3)
        w4.append(w**4)
        ey.append(math.fsum(a * b * d for a, b, d in combinations(probs, 3)))
    return math.fsum(w3), math.fsum(w4), math.fsum(ey), len(lines)


@pytest.mark.parametrize("T,c", [(1, 0.5), (2, 0.5), (2, 0.1), (3, 0.3), (4, 0.3)])
def test_weight_sums_against_pair_oracle(T, c):
    want_w3, want_w4, want_ey, want_lines = _oracle_scan(T, c)
    (got,), _ = exact_reports([T], c)
    assert got.line_count == want_lines
    assert got.sum_w3 == pytest.approx(want_w3, rel=1e-11)
    assert got.sum_w4 == pytest.approx(want_w4, rel=1e-11)
    assert got.exact_ey == pytest.approx(want_ey, rel=1e-11)


def test_line_count_field_matches_enumeration():
    for T, want in LINE_COUNTS.items():
        assert exact_reports([T], 0.2)[0][0].line_count == want


def _bin_counts(n, a, b, grids=()):
    """Direction (a, b)'s bins and two-point mark, its points per bin from a
    grid of ones, and the other grids' line sums."""
    idx, multi, sums = _direction_line_sums(n, a, b, (np.ones((n, n)), *grids))
    return idx, multi, sums[0], sums[1:]


def _line_count(n, a, b):
    """Lines of direction (a, b) with >= 2 points in [1, n]^2, in closed form.

    Each has one first point: a neighbour at +(a, b) in the box, none at
    -(a, b).
    """
    return (n - abs(a)) * (n - abs(b)) - max(0, n - 2 * abs(a)) * max(0, n - 2 * abs(b))


@pytest.mark.parametrize("c", [0.1, 0.5, 3.0, 30.0])
@pytest.mark.parametrize("T", [1, 2, 3])
def test_exact_mean_against_pair_oracle(T, c):
    assert exact_mean(T, c) == pytest.approx(_oracle_scan(T, c)[2], rel=1e-11)


def test_exact_mean_pins():
    for T, (_, _, ey, _) in WEIGHT_SUMS_HALF.items():
        assert exact_mean(T, 0.5) == pytest.approx(ey, rel=1e-12)
    for T, want in EY_NORM_HALF.items():
        assert exact_mean(T, 0.5) * math.sqrt(T) / (0.5**3 * 2**T) == pytest.approx(want, rel=1e-12)


def test_exact_mean_counts_every_grid_triple():
    # at a saturating rate every point is kept: the grid's collinear triples
    for T in (2, 3, 4):
        n = 1 << T
        assert exact_mean(T, 1e6) == count_collinear_triples(
            [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
        )


def test_exact_mean_past_the_scan_cap():
    # k1 = E[Y_T] * sqrt(T) / (c**3 * 2**T), as the T = 8 and 9 scans gave it
    for T, k1 in [(8, 12.9355), (9, 13.1044)]:
        assert round(exact_mean(T, 0.1) * math.sqrt(T) / (0.1**3 * 2**T), 4) == k1


@pytest.mark.parametrize("T", [5, 6])
def test_mean_counts_do_not_depend_on_the_dealing(monkeypatch, T):
    gs = range(2, 1 << T)
    want = _mean_counts((T, gs))
    for workers in (1, 2, 3):
        parts = [_mean_counts((T, part)) for part in _deal(gs, workers)]
        assert len(parts) == workers
        assert np.array_equal(sum(parts), want)
    # one (i, k) row per block: every i and every k in its own chunk
    monkeypatch.setattr(analytics, "_MEAN_BLOCK", 1)
    assert np.array_equal(_mean_counts((T, gs)), want)
    for workers in ("1", "2"):
        monkeypatch.setenv("NO3L_THREADS", workers)
        assert exact_mean(T, 0.3) == exact_reports([T], 0.3)[0][0].exact_ey


def test_mean_cap_is_where_the_int64_sums_stop_being_provably_exact():
    # X <= n * ceil(n/g), so each per-triple sum is below n**2 times the
    # sum over g of phi(g) * ceil(n/g)**2 (module docstring)
    def bound(T):
        n = 1 << T
        phi = list(range(n))
        for p in range(2, n):
            if phi[p] == p:
                for k in range(p, n, p):
                    phi[k] -= phi[k] // p
        return n * n * sum(phi[g] * ((n + g - 1) // g) ** 2 for g in range(2, n))

    assert bound(MEAN_CAP) < 2**63 <= bound(MEAN_CAP + 1)
    n = 1 << MEAN_CAP
    assert n * (n // 2) < 2**31  # X fits the int32 temporaries
    with pytest.raises(ValueError):
        exact_mean(MEAN_CAP + 1, 0.5)
    with pytest.raises(ValueError):
        exact_mean(-1, 0.5)
    with pytest.raises(ValueError):
        exact_mean(3, -0.5)


def _beta_brute(x, T, c):
    """beta at x from every pair of other box points collinear with it."""
    n = 1 << T
    others = [
        (a, b)
        for a in range(1, n + 1)
        for b in range(1, n + 1)
        if (a, b) != x
    ]
    return math.fsum(
        _prob(y, c) * _prob(z, c)
        for y, z in combinations(others, 2)
        if collinear(x, y, z)
    )


def test_beta_grid_matches_brute():
    grid = beta_box_grid(3, 0.4)
    assert grid.shape == (8, 8)
    for x in [(1, 1), (5, 2), (8, 8), (4, 7)]:
        assert grid[x[0] - 1, x[1] - 1] == pytest.approx(_beta_brute(x, 3, 0.4), rel=1e-11)


@pytest.mark.parametrize("T", [1, 2, 3, 4, 5])
def test_beta_identity_ties_back_to_expectation(T):
    # summing p(x) * beta(x) triple-counts the expectation; beta comes from
    # the scan and exact_ey from the count, two independent computations
    c = 0.5
    n = 1 << T
    grid = beta_box_grid(T, c)
    xs = np.arange(1, n + 1)
    shells = np.maximum(np.maximum.outer(xs, xs), 1)
    probs = np.vectorize(lambda m: shell_probability(int(m).bit_length() - 1, c))(shells)
    lhs = float((probs * grid).sum())
    assert lhs == pytest.approx(3.0 * exact_reports([T], c)[0][0].exact_ey, rel=1e-9)


def test_expectation_below_cubed_weight_sum():
    for T in range(1, 7):
        (ws,), _ = exact_reports([T], 0.5)
        assert ws.exact_ey <= ws.sum_w3


def test_ey_normalization_pins_and_deceleration():
    got = {
        T: exact_reports([T], 0.5)[0][0].exact_ey * math.sqrt(T) / (0.5**3 * 2**T)
        for T in EY_NORM_HALF
    }
    for T, want in EY_NORM_HALF.items():
        assert got[T] == pytest.approx(want, rel=1e-12)
    inc = [got[T + 1] - got[T] for T in range(4, 7)]
    assert all(a > b > 0 for a, b in zip(inc, inc[1:]))


def test_cubed_weight_sum_keeps_growing():
    # the cubed-weight majorant is dominated by two-point lines and its
    # normalized value grows with T; only exact_ey settles down.  pinned
    # so any change in behavior is noticed.
    norm = {
        T: exact_reports([T], 0.5)[0][0].sum_w3 * math.sqrt(T) / (0.5**3 * 2**T)
        for T in (4, 5, 6)
    }
    assert norm[5] / norm[4] > 1.5
    assert norm[6] / norm[5] > 1.5


def test_variance_bounds_composition():
    T, c = 4, 0.5
    (ws,), (vb,) = exact_reports([T], c)
    assert vb.v2_bound == ws.sum_w4
    assert vb.v3_bound == ws.exact_ey
    assert vb.v1_bound >= 0.0
    assert vb.var_bound_total == pytest.approx(
        vb.v1_bound + vb.v2_bound + vb.v3_bound, rel=1e-15
    )
    # v1 is sum of p * beta**2 over the box
    n = 1 << T
    grid = beta_box_grid(T, c)
    xs = np.arange(1, n + 1)
    shells = np.maximum.outer(xs, xs)
    probs = np.vectorize(lambda m: shell_probability(int(m).bit_length() - 1, c))(shells)
    assert vb.v1_bound == pytest.approx(float((probs * grid**2).sum()), rel=1e-12)


def test_caps_are_enforced():
    # past a cap an exponent is left out of that cap's list
    assert exact_reports([ENUMERATION_CAP + 1], 0.5) == ([], [])
    weights, bounds = exact_reports([VARIANCE_CAP + 1], 0.5)
    assert [w.T for w in weights] == [VARIANCE_CAP + 1] and bounds == []
    with pytest.raises(ValueError):
        exact_reports([-1], 0.5)
    for c in (0.0, -0.5):
        with pytest.raises(ValueError):
            exact_reports([3], c)
    # the rate is checked only when there are exponents to scan
    assert exact_reports([ENUMERATION_CAP + 1], 0.0) == ([], [])


@pytest.mark.parametrize("c", [math.nan, math.inf])
def test_non_finite_rates_are_rejected(c):
    # min(1.0, nan) is 1.0, which would count the full grid's triples
    with pytest.raises(ValueError, match="finite"):
        shell_probability(3, c)
    with pytest.raises(ValueError):
        exact_mean(3, c)
    with pytest.raises(ValueError):
        exact_reports([3], c)


def test_monte_carlo_moments_deterministic_and_consistent():
    a = monte_carlo_moments([2, 3], 0.5, range(1, 31))
    b = monte_carlo_moments([2, 3], 0.5, range(1, 31))
    assert a == b
    assert a.sample_size == 30
    # one row recomputed directly
    q = sample_window(SamplerConfig(seed=1, c=0.5, window_exponent=4))
    y = box_triple_counts(q, 3)
    assert a.y_by_seed[0] == [y[2], y[3]]
    assert a.y_mean[0] == pytest.approx(
        sum(r[0] for r in a.y_by_seed) / 30, rel=1e-12
    )


def test_monte_carlo_moments_validation():
    with pytest.raises(ValueError):
        monte_carlo_moments([3, 2], 0.5, [1])
    with pytest.raises(ValueError):
        monte_carlo_moments([0, 1], 0.5, [1])
    with pytest.raises(ValueError):
        monte_carlo_moments([2], -0.5, [1])
    with pytest.raises(ValueError):
        monte_carlo_moments([2], 0.5, [])


def test_monte_carlo_zero_rate_degenerates():
    mc = monte_carlo_moments([2, 3], 0.0, [1, 2, 3])
    assert mc.k1_hat == 0.0
    assert mc.x_mean == [0.0, 0.0]
    assert mc.y_mean == [0.0, 0.0]


def test_normalized_moments_hand_values():
    # T = 1: mean 2 * sqrt(1) / (0.5**3 * 2) = 8, var 4 / (2 * 1) = 2;
    # T = 4: mean 64 * 2 / (0.5**3 * 16) = 64, var 6144 / (16 * 128) = 3
    assert normalized_moments([1, 4], [2.0, 64.0], [4.0, 6144.0], 0.5) == (64.0, 3.0)
    assert normalized_moments([1, 4], [0.0, 0.0], [0.0, 0.0], 0.0) == (0.0, 0.0)


def test_event_thresholds_hand_values():
    # x: 0.5 * 2**3 / sqrt(4) = 2; y: 2 * 64 * 0.5**3 * 2**4 / sqrt(4) = 128
    assert x_floor(4, 0.5) == 2.0
    assert y_ceiling(4, 0.5, 64.0) == 128.0
    assert x_floor(3, 0.0) == y_ceiling(3, 0.0, 0.0) == 0.0


def test_weight_report_shape():
    (rep,), _ = exact_reports([2], 0.3)
    assert isinstance(rep, LineWeightReport)
    assert rep.T == 2
    assert rep.c == 0.3
    # every direction's lines with two or more points, from a grid of ones
    assert rep.line_count == sum(
        np.count_nonzero(_bin_counts(4, a, b)[2] >= 2) for a, b in _box_directions(4)
    )


def _mirror(a, b):
    return (b, a) if a >= 0 else (-b, -a)


def _sorted_line_rows(n, a, b, grids):
    _, _, cnt, sums = _bin_counts(n, a, b, grids)
    keep = cnt > 0
    rows = np.column_stack([cnt[keep]] + [w[keep] for w in sums])
    # round the sort key so last-bit differences cannot reorder near ties
    return rows[np.lexsort(np.round(rows, 12).T[::-1])]


@pytest.mark.parametrize("T", [3, 4])
def test_mirror_directions_have_equal_line_sums(T):
    n = 1 << T
    grids = _probability_grids(T, 0.5)
    dirs = _box_directions(n)
    for a, b in dirs:
        assert _mirror(a, b) in dirs
        mine = _sorted_line_rows(n, a, b, grids)
        theirs = _sorted_line_rows(n, *_mirror(a, b), grids)
        assert mine.shape == theirs.shape
        np.testing.assert_array_equal(mine[:, 0], theirs[:, 0])
        np.testing.assert_allclose(mine, theirs, rtol=1e-15, atol=0)


def test_bins_hold_exactly_the_lines_with_two_points():
    # idx is each box point's offset bin, the mark holds exactly the
    # offsets with two or more box points, and a bin that no box point
    # reaches has zero count and sums
    for T in (3, 4):
        n = 1 << T
        grids = _probability_grids(T, 0.5)
        for a, b in _box_directions(n):
            idx, multi, cnt, sums = _bin_counts(n, a, b, grids)
            members = {}
            for x in range(1, n + 1):
                for y in range(1, n + 1):
                    members.setdefault(b * x - a * y, []).append((x, y))
            kmin = min(members)
            assert len(multi) == len(cnt) == max(members) - kmin + 1
            for k, m in members.items():
                assert all(idx[x - 1, y - 1] == k - kmin for x, y in m)
                assert cnt[k - kmin] == len(m)
                assert sums[0][k - kmin] == pytest.approx(
                    math.fsum(_prob(p, 0.5) for p in m), rel=1e-15
                )
            want = {k - kmin for k, m in members.items() if len(m) >= 2}
            assert set(np.flatnonzero(multi).tolist()) == want
            empty = np.ones(len(cnt), dtype=bool)
            empty[[k - kmin for k in members]] = False
            for w in (cnt, *sums):
                assert not w[empty].any()


def test_beta_grid_is_symmetric_and_matches_brute():
    grid = beta_box_grid(4, 0.5)
    np.testing.assert_allclose(grid, grid.T, rtol=1e-15, atol=0)
    for x in [(1, 2), (3, 7), (16, 5), (9, 14)]:
        assert grid[x[0] - 1, x[1] - 1] == pytest.approx(_beta_brute(x, 4, 0.5), rel=1e-11)


def _two_point_directions(n):
    """The scanned directions (|a| <= b) with 2b >= n, and their mirror multiplicities."""
    return [
        (a, b, 2 if abs(a) < b else 1)
        for a, b in box_directions(n)
        if abs(a) <= b and 2 * b >= n
    ]


@pytest.mark.parametrize("c", [0.05, 0.5, 3.0, 30.0])
def test_pair_counts_weight_like_the_bincount_path(c):
    # The two-point directions' w3 and w4, counted by shell pair, must equal
    # what the bincount path's bins give summed over them, and their line
    # count the closed form's.
    for T in range(1, 7):
        n = 1 << T
        grids = _probability_grids(T, c)
        w3, w4, lines = [], [], 0
        for a, b, mult in _two_point_directions(n):
            _, multi, sums = _direction_line_sums(n, a, b, grids[:1])
            w1 = sums[0][multi]
            w3.append(mult * float(np.sum(w1**3)))
            w4.append(mult * float(np.sum(w1**4)))
            lines += mult * _line_count(n, a, b)
        counts = _pair_counts(T)
        got_w3, got_w4 = _pair_parts(T, c, counts)
        assert math.fsum(got_w3) == pytest.approx(math.fsum(w3), rel=1e-14)
        assert math.fsum(got_w4) == pytest.approx(math.fsum(w4), rel=1e-14)
        assert counts.sum() == lines


@pytest.mark.parametrize("T", range(0, 5))
def test_pair_counts_match_pair_enumeration(T):
    n = 1 << T
    want = np.zeros((T + 1, T + 1), dtype=np.int64)
    for a, b, mult in _two_point_directions(n):
        for x in range(1, n + 1):
            for y in range(1, n + 1):
                if 1 <= x + a <= n and y + b <= n:
                    want[shell_index((x, y)), shell_index((x + a, y + b))] += mult
    got = _pair_counts(T)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)


def test_box_directions_equal_the_gcd_loop():
    # every side to 2**6, then both sides of 2**7 and 2**8 (all n <= 2**8 take 5 s)
    for n in [*range(1, 65), 100, 127, 128, 129, 255, 256]:
        assert _box_directions(n) == box_directions(n)


@pytest.mark.parametrize("T", range(1, 6))
def test_closed_form_line_count_equals_the_nonzero_bins(T):
    n = 1 << T
    for a, b in _box_directions(n):
        _, multi, cnt, _ = _bin_counts(n, a, b)
        assert _line_count(n, a, b) == np.count_nonzero(multi) == np.count_nonzero(cnt >= 2)
        if abs(a) <= b:
            # a scanned direction has no three-point line iff 2b >= n
            assert (cnt.max() <= 2) == (2 * b >= n)


@pytest.mark.parametrize("T", sorted(WEIGHT_SUMS_HALF))
def test_weight_sums_pins(T):
    w3, w4, ey, lines = WEIGHT_SUMS_HALF[T]
    (got,), _ = exact_reports([T], 0.5)
    assert got.line_count == lines
    assert got.sum_w3 == pytest.approx(w3, rel=1e-12)
    assert got.sum_w4 == pytest.approx(w4, rel=1e-12)
    assert got.exact_ey == pytest.approx(ey, rel=1e-12)


@pytest.mark.parametrize("T", sorted(VARIANCE_BOUNDS_HALF))
def test_variance_bounds_pins(T):
    got = exact_reports([T], 0.5)[1][0]
    want = VARIANCE_BOUNDS_HALF[T]
    assert (got.v1_bound, got.v2_bound, got.v3_bound, got.var_bound_total) == (
        pytest.approx(want, rel=1e-12)
    )


@pytest.fixture(scope="module")
def serial_reports_half():
    """exact_reports([T], 0.5) for T = 1 .. VARIANCE_CAP, one call each, on 1 worker."""
    ts = range(1, VARIANCE_CAP + 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("NO3L_THREADS", "1")
        reports = [exact_reports([t], 0.5) for t in ts]
    return [w for (w,), _ in reports], [v for _, (v,) in reports]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_one_scan_per_exponent_equals_the_per_exponent_reports(
    monkeypatch, serial_reports_half, workers
):
    monkeypatch.setenv("NO3L_THREADS", workers)
    # all exponents in one call and one map; ENUMERATION_CAP + 1 is left out
    ts = [*range(1, VARIANCE_CAP + 1), ENUMERATION_CAP + 1]
    assert exact_reports(ts, 0.5) == serial_reports_half


@pytest.mark.parametrize("workers", ["2", "3"])
def test_exact_reports_deals_each_exponent_counts_then_scans(monkeypatch, workers):
    ts = range(1, ENUMERATION_CAP + 1)
    monkeypatch.setenv("NO3L_THREADS", "1")
    want = exact_reports(ts, 0.3)
    tasks = []

    def recording(fn, items):
        tasks.extend(items)
        return map_ordered(fn, items)

    monkeypatch.setattr(analytics, "map_ordered", recording)
    monkeypatch.setenv("NO3L_THREADS", workers)
    assert exact_reports(ts, 0.3) == want
    counts = [args for fn, args in tasks if fn is analytics._mean_counts]
    scans = [args for fn, args in tasks if fn is analytics._scan_chunk]
    assert len(scans) + len(counts) == len(tasks)
    # the tasks run largest box first
    assert [args[0] for _, args in tasks] == sorted((args[0] for _, args in tasks), reverse=True)
    for t in ts:
        n = 1 << t
        # the count deals its g one slice per worker
        mine = [gs for T, gs in counts if T == t]
        assert sorted(g for gs in mine for g in gs) == list(range(2, n))
        assert len(mine) == min(int(workers), n - 2)
        # the scans cover the directions with 2b < n once each; at T = 1 there are none
        parts = [dirs for T, _, dirs in scans if T == t]
        dirs = [(a, b) for a, b in _box_directions(n) if abs(a) <= b and 2 * b < n]
        assert sorted(d for part in parts for d in part) == sorted(dirs)
        if t <= VARIANCE_CAP:
            # one beta scan, summed in one order whatever the worker count
            assert len(parts) == 1
        else:
            # one task per worker, or per direction if there are fewer
            assert len(parts) == min(int(workers), len(dirs))
