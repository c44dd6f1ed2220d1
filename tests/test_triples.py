"""Collinear-triple counting tests.

The blocked anchor/direction counter is held against the cubic
brute-force oracle on random sets and on full grids, at several anchor
block sizes, so that short rows full of sentinels are exercised too; its
per-point prefix counts are cross-checked against a slow triple
enumerator kept here as an oracle, whose output is itself checked against
itertools.combinations.
The int32 and float keys are checked directly on near-colliding
directions, and the one-side property they rest on is checked on sets with
runs through points.  Sets whose span straddles either key's limit, and
near-colliding directions just below it, check the choice of direction key;
test_triples_float_key.py and test_triples_gcd_key.py run the small-span
oracle tests again with the float and the gcd key.
"""

import math
import random
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from no3l import sampling, triples
from no3l.sampling import PointSet, SamplerConfig, norm_lex_key, sample_window
from no3l.triples import box_triple_counts, count_collinear_triples, prefix_triple_counts
from brute_force import count_collinear_triples_bruteforce
from lattice_lines import canonical_direction, collinear


def enumerate_collinear_triples(pts):
    """Yield each collinear triple once, members ordered by (inf_norm, x, y).

    Triples are grouped by their largest member, which is visited in
    increasing order.
    """
    pts = sorted(pts, key=norm_lex_key)
    for i, (xi, yi) in enumerate(pts):
        buckets = {}
        for p in pts[:i]:
            d = canonical_direction((p[0] - xi, p[1] - yi))
            buckets.setdefault(d, []).append(p)
        for members in buckets.values():
            for p, q in combinations(members, 2):
                yield (p, q, (xi, yi))


def _counts_by_largest(pts):
    """prefix_triple_counts computed from the enumerator."""
    by_largest = Counter(t[2] for t in enumerate_collinear_triples(pts))
    return [by_largest[p] for p in sorted(pts, key=norm_lex_key)]


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


def test_non_integer_points_rejected():
    # (0.5, 0), (1, 1), (2, 2) are not collinear; truncated, (0, 0) would be
    with pytest.raises(TypeError):
        count_collinear_triples([(0.5, 0), (1, 1), (2, 2)])


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


# Small negative coordinates, and collinear runs far out at 10**6 - 10**7
# where the direction keys need a wide packing multiplier.
_small_points = st.tuples(st.integers(-40, 40), st.integers(-40, 40))
_wide = st.integers(10**6, 10**7)
_wide_runs = st.builds(
    lambda x, y, a, b, k: [(x + i * a, y + i * b) for i in range(k)],
    _wide, _wide, st.integers(-3000, 3000), st.integers(-3000, 3000), st.integers(1, 4),
)
mixed_sets = st.lists(st.one_of(_small_points.map(lambda p: [p]), _wide_runs), max_size=25).map(
    lambda groups: list(dict.fromkeys(p for g in groups for p in g))
)


def _wide_set(seed):
    """The wide-span reproducer's shape, plus a few collinear runs and a patch
    of negative coordinates: 200 random points in the 10**6 - 10**7 range and
    (1, 1), (2, 2**22 + 2), (3, 2)."""
    rng = random.Random(seed)
    pts = {(rng.randint(10**6, 10**7), rng.randint(10**6, 10**7)) for _ in range(200)}
    pts |= {(1, 1), (2, 2**22 + 2), (3, 2)}
    pts |= {(rng.randint(-30, 0), rng.randint(-30, 30)) for _ in range(20)}
    for _ in range(5):
        x, y = rng.randint(10**6, 10**7), rng.randint(10**6, 10**7)
        a, b = rng.randint(-3000, 3000), rng.randint(1, 3000)
        pts.update((x + i * a, y + i * b) for i in range(3))
    return list(pts)


@given(mixed_sets)
@settings(max_examples=120, deadline=None)
def test_counter_equals_bruteforce_on_mixed_sets(pts):
    assert count_collinear_triples(pts) == count_collinear_triples_bruteforce(pts)


@given(st.integers(0, 2**32))
@settings(max_examples=4, deadline=None, phases=[Phase.generate])  # a seed has nothing to shrink
def test_counter_equals_bruteforce_on_wide_sets(seed):
    pts = _wide_set(seed)
    assert count_collinear_triples(pts) == count_collinear_triples_bruteforce(pts)


def test_vectorized_path_on_a_large_set():
    ps = sample_window(SamplerConfig(seed=3, c=6.0, window_exponent=5))
    assert len(ps) > 192  # several anchor blocks
    counts = _counts_by_largest(tuple(ps))
    assert prefix_triple_counts(ps) == counts
    assert count_collinear_triples(ps) == sum(counts)


@pytest.mark.parametrize("block", [1, 7, 64])
@given(pts=mixed_sets)
@settings(max_examples=40, deadline=None)
def test_anchor_blocks_of_any_size_agree_with_oracles(block, pts):
    # 1 puts one anchor in each block; 7 and 64 put several anchors' rows,
    # and their sentinel cells, in each block.
    want, total = _counts_by_largest(pts), count_collinear_triples_bruteforce(pts)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(triples, "_PAIR_BLOCK", block)
        assert prefix_triple_counts(pts) == want
        assert count_collinear_triples(pts) == total


@pytest.mark.parametrize("block", [1, 7, 64])
def test_anchor_blocks_of_any_size_on_a_wide_set(block, monkeypatch):
    monkeypatch.setattr(triples, "_PAIR_BLOCK", block)
    pts = _wide_set(block)
    assert prefix_triple_counts(pts) == _counts_by_largest(pts)


def _no_sort(p):
    """Stands in for norm_lex_key where nothing may be sorted."""
    raise AssertionError("a PointSet's points were sorted again")


@given(
    pts=st.lists(st.tuples(st.integers(1, 40), st.integers(1, 40)), max_size=60, unique=True),
    t_max=st.integers(0, 6),
    rnd=st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_box_triple_counts_of_a_pointset_sort_nothing_and_match_a_shuffled_list(pts, t_max, rnd):
    ps = PointSet(pts)
    shuffled = list(ps)
    rnd.shuffle(shuffled)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampling, "norm_lex_key", _no_sort)
        got = box_triple_counts(ps, t_max)
    want = [
        count_collinear_triples_bruteforce([p for p in pts if max(p) <= 1 << t])
        for t in range(t_max + 1)
    ]
    assert got == box_triple_counts(shuffled, t_max) == want


def test_a_pointset_and_a_shuffled_list_of_its_points_give_the_same_counts():
    ps = sample_window(SamplerConfig(seed=3, c=6.0, window_exponent=5))
    shuffled = list(ps)
    random.Random(5).shuffle(shuffled)
    assert prefix_triple_counts(ps) == prefix_triple_counts(shuffled)
    assert box_triple_counts(ps, 4) == box_triple_counts(shuffled, 4)


@given(random_sets, st.sampled_from([2**53 + 1, 2**62 - 101, -(2**62)]))
@settings(max_examples=40, deadline=None)
def test_sets_far_from_the_origin_are_counted_exactly(pts, offset):
    # Coordinates beyond 2**53 are not exact in float64; with a small span
    # the float key must still see exact differences.
    far = [(x + offset, y + offset) for x, y in pts]
    assert prefix_triple_counts(far) == _counts_by_largest(far)
    assert count_collinear_triples(far) == count_collinear_triples(pts)


def test_full_span_differences_of_consecutive_anchors():
    # Span 19: anchor (-10, -3) sees (9, 4) at (19, 7), and the next anchor,
    # (9, 10), sees (-10, -3) at (-19, -13).  Unsigned gcd keys shifted by
    # only s * (s + 1) wrap the second into the first anchor's range, onto
    # the first's key, and made one spurious triple.
    pts = [
        (0, -2), (3, -4), (-5, 3), (5, 5), (-6, 6), (-3, -6), (-7, -8), (-6, 8),
        (-9, -5), (1, 9), (6, 9), (9, 4), (-10, -3), (9, 10),
    ]
    assert prefix_triple_counts(pts) == _counts_by_largest(pts)
    assert count_collinear_triples(pts) == count_collinear_triples_bruteforce(pts)


def test_wide_coordinates_pack_without_collisions():
    # a * 2**22 + b packing made (1, 2**22 + 1) and (2, 1) the same direction
    rng = random.Random(2024)
    pts = {(rng.randint(10**6, 10**7), rng.randint(10**6, 10**7)) for _ in range(200)}
    pts |= {(1, 1), (2, 2**22 + 2), (3, 2)}
    want = count_collinear_triples_bruteforce(pts)
    assert sum(prefix_triple_counts(pts)) == want
    assert count_collinear_triples(pts) == want


@pytest.mark.parametrize(
    "far",
    [(1, 2**62), (1, -(2**62)), (1, 2**64)],
    ids=["span-too-wide", "negative-span-too-wide", "beyond-int64"],
)
def test_unpackable_coordinates_are_rejected(far):
    # the accepted span does not depend on the set's size
    for size in (4, 200):
        pts = [(i, i * i) for i in range(1, size)] + [far]
        with pytest.raises(ValueError):
            count_collinear_triples(pts)
        with pytest.raises(ValueError):
            prefix_triple_counts(pts)


# The widest span s with s * (s + 1) + s < 2**63, the widest the gcd key packs.
WIDEST_SPAN = 3037000498


def test_widest_accepted_span_is_counted_exactly():
    s = WIDEST_SPAN
    assert s * (s + 1) + s < 2**63 <= (s + 1) * (s + 2) + s + 1
    assert (2**64 - 1) // (2 * (s * (s + 1) + s) + 1) == 1
    h = s // 2
    pts = [
        (0, 0), (h, h), (s, s), (0, s), (s, 0), (h + 1, h - 1), (1, 2), (2, 4),
        (3, 6), (s, 1), (s - 1, s - 2), (7, s - 5), (s - 9, 11), (h, 3),
    ]
    assert count_collinear_triples_bruteforce(pts) > 0
    assert prefix_triple_counts(pts) == _counts_by_largest(pts)
    with pytest.raises(ValueError):
        prefix_triple_counts(pts + [(-1, 0)])  # span s + 1


def _gcd_key_counts(pts):
    """prefix_triple_counts with every set keyed by the gcd key."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(triples, "_FLOAT_KEY_SPAN", 0)
        return prefix_triple_counts(pts)


# The widest span the int32 key takes; the float key takes spans up to 2**21.
INT32_LIMIT = 2**14 - 1


@st.composite
def straddling_sets(draw, limit=2**21):
    """Sets of span s in [limit - 8, limit + 8], so both keys that meet at
    that limit (INT32_LIMIT or 2**21): a box of side s that may hold the origin, two points fixing the span, random points, and
    horizontal, vertical or sloped runs that extend to both sides of a point,
    so that the runs' anchors lie at their left and right ends."""
    s = draw(st.integers(limit - 8, limit + 8))
    x0, y0 = draw(st.integers(-2 * s, s)), draw(st.integers(-2 * s, s))

    def inside():
        return draw(st.integers(x0, x0 + s)), draw(st.integers(y0, y0 + s))

    pts = {(x0, inside()[1]), (x0 + s, inside()[1])}
    pts.update(inside() for _ in range(draw(st.integers(0, 8))))
    steps = st.integers(-s // 3, s // 3)
    for _ in range(draw(st.integers(0, 4))):
        cx, cy = inside()
        a, b = draw(st.one_of(
            st.tuples(steps, st.just(0)), st.tuples(st.just(0), steps), st.tuples(steps, steps)
        ))
        pts.update(
            (cx + i * a, cy + i * b)
            for i in range(-3, 4)
            if x0 <= cx + i * a <= x0 + s and y0 <= cy + i * b <= y0 + s
        )
    if draw(st.booleans()):
        pts = {(y, x) for x, y in pts}
    return sorted(pts)


def _key_of_span(s):
    """The name of the key function the kernel takes for span s, at the current limits."""
    if s > triples._FLOAT_KEY_SPAN:
        return "_gcd_keys"
    return "_float_keys" if s > triples._INT32_KEY_SPAN else "_int32_keys"


def _forbid_keys(mp, *names):
    """Make the key functions named raise, through the MonkeyPatch mp."""

    def unused(*args, **kwargs):
        raise AssertionError("the set's span takes another key")

    for name in names:
        mp.setattr(triples, name, unused)


def _check_straddling_set(pts, limit):
    """The kernel counts pts exactly, with the two keys its span does not take forced to raise."""
    xs, ys = zip(*pts)
    s = max(max(xs) - min(xs), max(ys) - min(ys))
    assert abs(s - limit) <= 8
    with pytest.MonkeyPatch.context() as mp:
        _forbid_keys(mp, *{"_int32_keys", "_float_keys", "_gcd_keys"} - {_key_of_span(s)})
        assert prefix_triple_counts(pts) == _counts_by_largest(pts)
        assert count_collinear_triples(pts) == count_collinear_triples_bruteforce(pts)


@given(straddling_sets())
@settings(max_examples=150, deadline=None)
def test_spans_straddling_the_float_key_limit_are_counted_exactly(pts):
    _check_straddling_set(pts, 2**21)


@given(straddling_sets(INT32_LIMIT))
@settings(max_examples=150, deadline=None)
def test_spans_straddling_the_int32_key_limit_are_counted_exactly(pts):
    _check_straddling_set(pts, INT32_LIMIT)


# Farey neighbours p/q, p2/q2 (|p2 * q - p * q2| == 1) with q, q2 in
# (2**20, 2**21]: slopes 1/(q * q2) ~ 2**-42 apart.  Near 1, p + q and
# p2 + q2 are near 2**22, so the keys p / (p + q) are 2**-44
# apart, the float key's margin.
FAREY_PAIRS = [
    ((1, 2**21), (1, 2**21 - 1)),  # near 0
    ((699051, 2**21), (699050, 2**21 - 3)),  # near 1/3
    ((1048573, 2**21 - 3), (699049, 1398100)),  # near 1/2
    ((2**21 - 1, 2**21), (2**21 - 2, 2**21 - 1)),  # near 1, keys 2**-44 apart
]
# The same with q, q2 in (2**13, 2**14): near 1, p + q and p2 + q2 are
# just below 2**15, so the keys p / (p + q) are just over 2**-30 apart,
# 1 unit of the int32 key, its margin.
INT32_FAREY_PAIRS = [
    ((1, 2**14 - 1), (1, 2**14 - 2)),  # near 0
    ((5461, 2**14 - 2), (5460, 2**14 - 5)),  # near 1/3
    ((8191, 2**14 - 1), (8190, 2**14 - 3)),  # near 1/2
    ((2**14 - 2, 2**14 - 1), (2**14 - 3, 2**14 - 2)),  # near 1, keys 1 unit apart
]
FLIPS = pytest.mark.parametrize(
    "flip",
    [lambda x, y: (x, y), lambda x, y: (y, x), lambda x, y: (-x, y), lambda x, y: (-y, -x)],
    ids=["as-is", "transposed", "x-negated", "negated-transposed"],
)


def _farey_set(pair, flip, span):
    """An anchor o and three points before it, b, c and d = 2c - b, as
    flipped: b and c lie along the two Farey-neighbour directions from o;
    d lies on the line through b and c, whose direction from o is a Farey
    neighbour of c's too.  The one triple is b, c, d.  Also returns the
    differences from the anchor, as the kernel keys them, in float64."""
    (p, q), (p2, q2) = pair
    assert abs(p2 * q - p * q2) == 1 and span // 2 < min(q, q2) <= max(q, q2) <= span
    o = (span + 1, span + 1)
    steps = [(q, p), (q2, p2), (2 * q2 - q, 2 * p2 - p)]
    pts = [flip(*o)] + [flip(o[0] - a, o[1] - b) for a, b in steps]
    dx, dy = (np.array(v, dtype=np.float64) - v0 for v, v0 in zip(zip(*pts[1:]), pts[0]))
    return pts, dx, dy


def _check_one_triple(pts, monkeypatch, *unused_keys):
    """The kernel counts the one triple of a Farey set without the keys
    named, which its span must not take."""
    _forbid_keys(monkeypatch, *unused_keys)
    assert count_collinear_triples_bruteforce(pts) == 1
    assert prefix_triple_counts(pts) == _counts_by_largest(pts)
    assert sum(prefix_triple_counts(pts)) == 1


@pytest.mark.parametrize("pair", FAREY_PAIRS)
@FLIPS
def test_farey_neighbour_directions_get_distinct_float_keys(pair, flip, monkeypatch):
    pts, dx, dy = _farey_set(pair, flip, 2**21)
    assert len(set(triples._float_keys(dx, dy, np.empty(3)).tolist())) == 3
    _check_one_triple(pts, monkeypatch, "_gcd_keys")


@pytest.mark.parametrize("pair", INT32_FAREY_PAIRS)
@FLIPS
def test_farey_neighbour_directions_get_distinct_int32_keys(pair, flip, monkeypatch):
    pts, dx, dy = _farey_set(pair, flip, INT32_LIMIT)
    keys = triples._int32_keys(dx.astype(np.float32), dy.astype(np.float32), np.empty(3, np.float32))
    assert len(set(keys.tolist())) == 3
    _check_one_triple(pts, monkeypatch, "_float_keys", "_gcd_keys")


@st.composite
def runs_through_points(draw):
    """Small sets around the origin, negative coordinates included, with
    runs that pass through a point and extend to both sides of it."""
    pts = set(draw(st.lists(st.tuples(st.integers(-12, 12), st.integers(-12, 12)), max_size=12)))
    for _ in range(draw(st.integers(1, 4))):
        cx, cy = draw(st.integers(-12, 12)), draw(st.integers(-12, 12))
        a, b = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda d: d != (0, 0)))
        back, ahead = draw(st.integers(0, 4)), draw(st.integers(0, 4))
        pts.update((cx + i * a, cy + i * b) for i in range(-back, ahead + 1))
    return sorted(pts)


@given(runs_through_points())
@settings(max_examples=150, deadline=None)
def test_earlier_points_on_a_line_through_an_anchor_lie_on_one_side(pts):
    # The direction keys need not tell opposite directions apart: on each
    # line through an anchor, the points before it in (inf_norm, x, y) order
    # all lie on one side of it.
    ordered = sorted(pts, key=norm_lex_key)
    for i, (ox, oy) in enumerate(ordered):
        diffs = [(px - ox, py - oy) for px, py in ordered[:i]]
        for (ax, ay), (bx, by) in combinations(diffs, 2):
            if ax * by == ay * bx:
                assert ax * bx + ay * by > 0


@given(runs_through_points())
@settings(max_examples=150, deadline=None)
def test_runs_through_points_are_counted_exactly(pts):
    assert prefix_triple_counts(pts) == _counts_by_largest(pts)


_near = st.integers(-3, 3)


def _differences(span):
    """A nonzero difference within span, and a second one: a small offset
    of it, or a multiple of its primitive direction, so parallel or nearly."""
    return st.tuples(st.integers(-span, span), st.integers(-span, span)), st.one_of(
        st.tuples(_near, _near).map(lambda e: ("offset", e)),
        st.integers(-8, 8).map(lambda k: ("multiple", k)),
    )


def _check_key_pair(d, other, span, keys_of, dtype, scale):
    """keys_of gives d and the difference that other makes of it one key
    when and only when they are parallel, with up and down along the
    vertical kept apart, and keys in [-scale, scale]."""
    kind, e = other
    if kind == "offset":
        d2 = (d[0] + e[0], d[1] + e[1])
    else:
        g = math.gcd(*d) or 1
        d2 = (d[0] // g * e, d[1] // g * e)
    assume(d != (0, 0) and d2 != (0, 0) and max(map(abs, d2)) <= span)
    dx, dy = (np.array(v, dtype=dtype) for v in zip(d, d2))
    keys = keys_of(dx, dy, np.empty(2, dtype=dtype)).tolist()
    parallel = d[0] * d2[1] == d[1] * d2[0]
    split_vertical = d[0] == d2[0] == 0 and d[1] * d2[1] < 0
    assert (keys[0] == keys[1]) == (parallel and not split_vertical)
    assert all(-scale <= k <= scale for k in keys)


@given(*_differences(2**21))
@settings(max_examples=300, deadline=None)
def test_float_keys_agree_exactly_on_one_line_through_the_anchor(d, other):
    _check_key_pair(d, other, 2**21, triples._float_keys, np.float64, 1)


@given(*_differences(INT32_LIMIT))
@settings(max_examples=300, deadline=None)
def test_int32_keys_agree_exactly_on_one_line_through_the_anchor(d, other):
    _check_key_pair(d, other, INT32_LIMIT, triples._int32_keys, np.float32, 2**30)


_small_negative_sets = st.lists(
    st.tuples(st.integers(-60, 60), st.integers(-60, 60)), max_size=40, unique=True
)


@given(st.one_of(random_sets, _small_negative_sets, straddling_sets(INT32_LIMIT), straddling_sets()))
@settings(max_examples=150, deadline=None)
def test_float_and_gcd_keys_give_identical_prefix_counts(pts):
    assert prefix_triple_counts(pts) == _gcd_key_counts(pts)


def test_triples_within_box():
    ps = PointSet(_grid(3))
    assert box_triple_counts(ps, 1)[1] == 0
    assert box_triple_counts(ps, 2)[2] == 8


def test_box_triple_counts_cumulative():
    ps = PointSet(_grid(3))
    assert box_triple_counts(ps, 3) == [0, 0, 8, 8]
    q = sample_window(SamplerConfig(seed=8, c=0.6, window_exponent=6))
    counts = box_triple_counts(q, 6)
    for t in range(7):
        assert counts[t] == count_collinear_triples(q.in_box(1 << t))
    assert counts == sorted(counts)


@given(
    pts=st.lists(st.tuples(st.integers(-12, 20), st.integers(-12, 20)), max_size=60, unique=True),
    t_max=st.integers(0, 5),
)
@settings(max_examples=100, deadline=None)
def test_box_triple_counts_of_any_set_count_each_box(pts, t_max):
    # members on the axes, off the positive quadrant or past every box
    # count in no box, wherever they fall in the set's order
    ps = PointSet(pts)
    got = box_triple_counts(ps, t_max)
    assert got == [count_collinear_triples(ps.in_box(1 << t)) for t in range(t_max + 1)]
    with pytest.raises(ValueError, match="box exponent"):
        box_triple_counts(ps, -1)
