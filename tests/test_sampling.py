"""Sampler and file-format tests.

The counter-based kernel is pinned by frozen values (any change to the
mixing constants is a format break: persisted samples would no longer
reproduce).  The vectorized window sampler is checked cell-by-cell
against a scan with the scalar hash of ``scalar_hash.py``, the
PointSet text format round-trips under hypothesis, and the reader is
checked against the row-by-row reader of ``row_reader.py`` on mutated
files.
"""

import hashlib
import math
import os
import pickle
import re
import subprocess
import sys
from itertools import pairwise
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from no3l import sampling
from no3l.sampling import (
    WINDOW_EXPONENT_CAP,
    PointSet,
    SamplerConfig,
    _keep_bound,
    inf_norm,
    norm_lex_key,
    read_pointset,
    sample_window,
    sample_windows,
    shell_counts,
    shell_probability,
    write_pointset,
)
from brute_force import shell_index
from row_reader import read_pointset as read_pointset_by_rows
from scalar_hash import MASK64, mix64, point_uniform

# kernel regression values; these freeze the mixing constants
KERNEL_PINS = [
    (0, 1, 1, 0.34779104067507427),
    (42, 3, 5, 0.4448675227070733),
    (2**64 - 1, 1023, 1, 0.09239519044215272),
]


def test_point_uniform_pinned_values():
    for seed, x, y, want in KERNEL_PINS:
        assert point_uniform(seed, x, y) == want


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(1, 10**6), st.integers(1, 10**6))
def test_point_uniform_in_unit_interval(seed, x, y):
    u = point_uniform(seed, x, y)
    assert 0.0 <= u < 1.0
    assert u == point_uniform(seed, x, y)


def test_shell_probability_values():
    assert shell_probability(0, 0.3) == 0.3
    assert shell_probability(0, 7.0) == 1.0
    assert shell_probability(3, 0.5) == 0.5 / (8 * math.sqrt(3))
    assert shell_probability(1, 100.0) == 1.0
    with pytest.raises(ValueError):
        shell_probability(-1, 0.5)
    with pytest.raises(ValueError):
        shell_probability(2, -0.5)


def test_sampler_config_validation():
    SamplerConfig(seed=0, c=0.0, window_exponent=1)
    with pytest.raises(ValueError):
        SamplerConfig(seed=-1, c=0.1, window_exponent=5)
    with pytest.raises(ValueError):
        SamplerConfig(seed=2**64, c=0.1, window_exponent=5)
    with pytest.raises(ValueError):
        SamplerConfig(seed=1, c=-0.1, window_exponent=5)
    with pytest.raises(ValueError):
        SamplerConfig(seed=1, c=math.inf, window_exponent=5)
    with pytest.raises(ValueError):
        SamplerConfig(seed=1, c=0.1, window_exponent=0)
    with pytest.raises(ValueError):
        SamplerConfig(seed=1, c=0.1, window_exponent=WINDOW_EXPONENT_CAP + 1)


def _chunk_points(seeds: list[int], c: float, w: int) -> list[list[tuple[int, int]]]:
    """Each seed's points, in order, from one _hash_seeds pass over the chunk."""
    x, y, ends = sampling._hash_seeds(seeds, c, w)
    pts = list(zip(x.tolist(), y.tolist()))
    return [pts[lo:hi] for lo, hi in pairwise(ends.tolist())]


def _reference_scan(cfg: SamplerConfig) -> list[tuple[int, int]]:
    limit = (1 << cfg.window_exponent) - 1
    out = []
    for x in range(1, limit + 1):
        for y in range(1, limit + 1):
            if point_uniform(cfg.seed, x, y) < shell_probability(shell_index((x, y)), cfg.c):
                out.append((x, y))
    return out


@pytest.mark.parametrize("seed,c,w", [(42, 0.5, 6), (7, 0.15, 5), (123456, 1.3, 4)])
def test_sample_window_matches_scalar_scan(seed, c, w):
    cfg = SamplerConfig(seed=seed, c=c, window_exponent=w)
    ps = sample_window(cfg)
    assert sorted(ps) == sorted(_reference_scan(cfg))
    assert ps.meta["kind"] == "sampled"
    assert ps.meta["seed"] == seed
    assert ps.meta["c"] == c
    assert ps.meta["window_exponent"] == w


@pytest.mark.parametrize(
    "block,seed,c,w",
    [(7, 42, 0.5, 6), (7, 5, 3.0, 5), (64, 7, 0.15, 7), (64, 9, 40.0, 6), (64, 11, 1.0, 5)],
)
def test_sample_window_matches_scalar_scan_across_blocks(monkeypatch, block, seed, c, w):
    # Tiny blocks split the window into many blocks.  A block of 7 cells
    # holds a single row wider than itself; 64 cells at w = 5 hold two rows
    # each, some from two shells (rows 1-2, 3-4, 7-8, 15-16) and some from
    # one, the last block partial.  c = 3.0 and 40.0 saturate the low
    # shells (probability 1).
    monkeypatch.setattr(sampling, "_BLOCK_CELLS", block)
    cfg = SamplerConfig(seed=seed, c=c, window_exponent=w)
    assert sorted(sample_window(cfg)) == sorted(_reference_scan(cfg))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_block_spanning_every_shell_matches_the_scalar_scan(seed):
    # W = 8, c = 0.5, the window of each Monte Carlo seed of `lemmas --tmax 7`:
    # at the default block size the whole 255-row window is one block whose rows
    # span all eight shells, so every cell takes its column's weak bound
    n = 255
    assert min(sampling._BLOCK_CELLS // n, n) == n
    cfg = SamplerConfig(seed=seed, c=0.5, window_exponent=8)
    assert sorted(sample_window(cfg)) == sorted(_reference_scan(cfg))


@pytest.mark.parametrize(
    "block,seeds,c,w",
    [(100, [4], 0.8, 9), (100, [2, 5, 1, 7], 2.0, 6), (40, [11, 3, 8], 0.4, 4)],
)
def test_rows_wider_than_a_block_are_cut_into_tiles(monkeypatch, block, seeds, c, w):
    # 100-cell blocks cut each 511-cell row at W = 9 into 6 tiles, the last
    # of 11 cells, and each 4 * 63-cell row of a chunk at W = 6 into 3,
    # whose edges fall inside a seed's columns; 40 cells cut 3 * 15 into
    # 40 + 5.  sample_windows takes the same seeds in passes of 1, 1 and 2
    # seeds (_block_row_seeds), whose rows are cut into tiles at W = 9 only.
    monkeypatch.setattr(sampling, "_BLOCK_CELLS", block)
    refs = [sorted(_reference_scan(SamplerConfig(s, c, w)), key=norm_lex_key) for s in seeds]
    assert _chunk_points(seeds, c, w) == refs
    assert [list(ps) for ps in sample_windows(seeds, c, w)] == refs


def test_sample_windows_hash_one_block_row_of_seeds_a_pass(monkeypatch):
    # 45 cells a block hold three rows of the W = 4 window side by side:
    # seven seeds take passes of 3, 3 and 1, and each seed's set is the one
    # sample_window gives it alone, with its meta and read-only columns
    monkeypatch.setattr(sampling, "_BLOCK_CELLS", 45)
    hash_seeds, passes = sampling._hash_seeds, []

    def recording(seeds, c, w):
        passes.append(list(seeds))
        return hash_seeds(seeds, c, w)

    monkeypatch.setattr(sampling, "_hash_seeds", recording)
    seeds = [9, 1, 4, 2**64 - 1, 0, 7, 3]
    sets = sample_windows(seeds, 0.7, 4)
    assert passes == [seeds[:3], seeds[3:6], seeds[6:]]
    assert sets == [sample_window(SamplerConfig(s, 0.7, 4)) for s in seeds]
    for seed, ps in zip(seeds, sets):
        assert ps.meta == {"kind": "sampled", "seed": seed, "c": 0.7, "window_exponent": 4}
        assert not any(col.flags.writeable for col in (ps.xs, ps.ys, ps.norms))
    assert sample_windows([], 0.7, 4) == []


@pytest.mark.parametrize(
    "seeds,c,w",
    [([1, -1], 0.5, 4), ([2**64, 3], 0.5, 4), ([1], -0.5, 4), ([], math.nan, 4),
     ([1], 0.5, 0), ([], 0.5, WINDOW_EXPONENT_CAP + 1)],
)
def test_sample_windows_checks_as_the_sampler_config_does(seeds, c, w):
    with pytest.raises(ValueError):
        sample_windows(seeds, c, w)


def _xorshift30(v: int) -> int:
    return v ^ (v >> 30)


@given(st.integers(0, MASK64), st.integers(0, MASK64))
def test_first_xorshift_distributes_over_xor(a, b):
    # the block loop applies it to row and column words, not to their xor
    assert _xorshift30(a ^ b) == _xorshift30(a) ^ _xorshift30(b)


def _last_words(seed: int, x: int, y: int) -> tuple[int, int]:
    """(z, h): the second mix's word before and after its last xorshift."""
    v = mix64(seed ^ ((x * sampling._X_SALT) & MASK64))
    v ^= (y * sampling._Y_SALT) & MASK64
    z = (_xorshift30(v) * sampling._MIX_MUL1) & MASK64
    z = ((z ^ (z >> 27)) * sampling._MIX_MUL2) & MASK64
    return z, z ^ (z >> 31)


def _rate_with_bound(t: int, bound: int) -> float:
    """A rate c whose shell-t keep bound is exactly ``bound``."""
    k = (bound + 1) >> 11
    c = k * 2.0**-53 * (1 << t) * math.sqrt(t)
    for _ in range(64):
        got = _keep_bound(shell_probability(t, c)) >> 11
        if got == k - 1:
            return c
        c = math.nextafter(c, math.inf if got < k - 1 else 0.0)
    raise AssertionError(f"no rate gives bound {bound:#x} on shell {t}")


@pytest.mark.parametrize("bound_at", ["between-h-and-z", "just-below-h"])
def test_filter_edge_cells_match_the_scalar_scan(monkeypatch, bound_at):
    # A shell bound in [h, z) keeps the cell although z > bound: the coarse
    # test must compare z against bound | (2**33 - 1).  A bound just below h
    # passes that coarse test and drops the cell only in the exact recheck.
    # The coarse test meets the cell's own shell bound where its row y or
    # its column x lies in the cell's shell: cell (5, 9) in a block of row 9
    # alone, and cell (9, 5) in column 9 of the one block of rows 1 .. 15,
    # once for one seed and once as the middle seed of a chunk of three,
    # whose rows hold the three seeds' columns side by side.
    w, t = 4, 3
    placements = (((5, 9), 15, False), ((9, 5), 1 << 16, False), ((9, 5), 1 << 16, True))
    for (x, y), block, in_chunk in placements:
        monkeypatch.setattr(sampling, "_BLOCK_CELLS", block)
        # the first seed whose cell of shell 3 has room for a bound in [h, z),
        # with h below 2**63, where a rate reaches every bound
        z, h, seed = next(
            (z, h, s) for s in range(100) for z, h in [_last_words(s, x, y)]
            if z >> 11 > h >> 11 and h >> 63 == 0
        )
        assert (h >> 11) * 2.0**-53 == point_uniform(seed, x, y)
        if bound_at == "between-h-and-z":
            bound = ((h >> 11) << 11) | 0x7FF
            assert h <= bound < z
        else:
            bound = ((h >> 11) << 11) - 1
            assert bound < h and z <= bound | ((1 << 33) - 1)
        c = _rate_with_bound(t, bound)
        assert _keep_bound(shell_probability(t, c)) == bound
        chunk = [seed + 1, seed, seed + 2] if in_chunk else [seed]
        refs = {s: _reference_scan(SamplerConfig(seed=s, c=c, window_exponent=w)) for s in chunk}
        assert ((x, y) in refs[seed]) == (bound_at == "between-h-and-z")
        assert [sorted(pts) for pts in _chunk_points(chunk, c, w)] == [sorted(refs[s]) for s in chunk]


@given(
    seeds=st.lists(st.integers(0, MASK64), min_size=1, max_size=5),
    w=st.integers(1, 6),
    fraction=st.floats(min_value=0.0, max_value=1.0),
    log_scale=st.booleans(),
    block=st.sampled_from([1, 7, 64, 1 << 16]),
)
@settings(max_examples=60, deadline=None)
def test_sample_window_matches_scalar_scan_hypothesis(seeds, w, fraction, log_scale, block):
    # c from 1e-6 (or 0) up to the rate that saturates every shell of the
    # window.  A chunk of seeds hashed side by side gives each seed the
    # points sample_window gives it alone, in the same order.  At w <= 6 a
    # block of 2**16 cells holds the whole window, rows of every shell at
    # once; 1, and 7 from w = 3, give one-row blocks, one bound each; 64
    # gives both kinds for one seed (at w = 4 rows 1-4 span shells, 9-12 do
    # not), and blocks narrower than one row of a chunk (5 seeds at w = 4
    # make rows of 75 cells).
    saturation = max(1.0, (1 << (w - 1)) * math.sqrt(w - 1))
    c = 1e-6 * (saturation / 1e-6) ** fraction if log_scale else fraction * saturation
    with mock.patch.object(sampling, "_BLOCK_CELLS", block):
        chunk = _chunk_points(seeds, c, w)
        alone = [sample_window(SamplerConfig(seed=s, c=c, window_exponent=w)) for s in seeds]
    for seed, got, ps in zip(seeds, chunk, alone):
        assert tuple(got) == tuple(ps)
        assert sorted(got) == sorted(_reference_scan(SamplerConfig(seed=seed, c=c, window_exponent=w)))


@given(
    st.integers(0, WINDOW_EXPONENT_CAP),
    st.integers(0, WINDOW_EXPONENT_CAP),
    st.one_of(st.floats(min_value=0.0, max_value=1e7), st.sampled_from([5e-324, 6e-322])),
)
def test_cell_bound_is_the_smaller_shell_bound(sx, sy, c):
    # the sampler bounds cell (x, y) by min(b(x), b(y)), b the bound of a
    # coordinate's shell: the cell's shell is the higher one and p does not
    # grow with T
    def b(t):
        return _keep_bound(shell_probability(t, c))

    assert b(max(sx, sy)) == min(b(sx), b(sy))


@pytest.mark.parametrize("c,first_zero", [(5e-324, 1), (6e-322, 7), (1e-310, None)])
def test_subnormal_rates_match_the_scalar_scan(c, first_zero):
    # p underflows to 0.0 on every shell from first_zero on (1e-310 stays
    # subnormal through shell 20), where the keep bound would be -1: the
    # sampler cuts the window there
    w = 8
    zero_shells = [t for t in range(w) if shell_probability(t, c) == 0.0]
    assert zero_shells == ([] if first_zero is None else list(range(first_zero, w)))
    cfg = SamplerConfig(seed=3, c=c, window_exponent=w)
    got = tuple(sample_window(cfg))
    assert sorted(got) == sorted(_reference_scan(cfg))
    assert all(shell_probability(shell_index(p), c) > 0.0 for p in got)


# A W = 9 large window: blocks of 7 or 64 cells cut each of its rows into
# 73 or 8 tiles, so the test makes 2 * 511 * 73 block passes at most.
REUSE_CONFIGS = [(1, 1.0, 9), (2, 0.5, 8), (3, 0.5, 8)]


@pytest.fixture(scope="module")
def fresh_samples():
    """Each of REUSE_CONFIGS's points, sampled in a process of its own."""
    src = os.path.dirname(os.path.dirname(sampling.__file__))
    paths = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    code = (
        "import sys\n"
        "from no3l.sampling import SamplerConfig, sample_window\n"
        "seed, c, w = sys.argv[1:]\n"
        "print(tuple(sample_window(SamplerConfig(int(seed), float(c), int(w)))))\n"
    )
    out = {}
    for args in REUSE_CONFIGS:
        proc = subprocess.run(
            [sys.executable, "-c", code, *map(str, args)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
            check=True,
        )
        out[args] = proc.stdout.strip()
    return out


@pytest.mark.parametrize("block", [7, 64, 1 << 16])
def test_reused_scratch_leaks_no_stale_cells(monkeypatch, fresh_samples, block):
    # The block buffers come from np.empty each call, which may hand back
    # memory an earlier call filled: a chunk of two small windows after a
    # large window, a single small one after the chunk, and the large one
    # again must read only what their own blocks wrote.
    monkeypatch.setattr(sampling, "_BLOCK_CELLS", block)
    large, small, other = REUSE_CONFIGS
    assert str(tuple(sample_window(SamplerConfig(*large)))) == fresh_samples[large]
    chunk = _chunk_points([small[0], other[0]], 0.5, 8)
    assert [str(tuple(pts)) for pts in chunk] == [fresh_samples[small], fresh_samples[other]]
    for args in (small, large):
        assert str(tuple(sample_window(SamplerConfig(*args)))) == fresh_samples[args]


# sha256 of write_pointset(sample_window(cfg)) at benchmark scale, where the
# scalar scan cannot reach
WINDOW_FILE_PINS = [
    ((1, 0.1, 13), 754, "d72e9078f30924907113968f873342c02882bbb9f4af8991ecae2b6d77d481d6"),
    ((1, 1.0, 12), 3979, "64b0193456e99eb085be1d5c2dab76e08525011b19cb63a6637946d59a4bd091"),
    ((1, 0.5, 8), 160, "17a53f657c3e0d6d511b5d9db66a52de4efe58bc9387f47babf11cb66d16331f"),
]


@pytest.mark.parametrize("cfg_args,size,digest", WINDOW_FILE_PINS)
def test_sample_window_file_bytes_pinned(tmp_path, cfg_args, size, digest):
    ps = sample_window(SamplerConfig(*cfg_args))
    path = tmp_path / "q.tsv"
    write_pointset(ps, path)
    assert len(ps) == size
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def _float_keep(h: int, p: float) -> bool:
    return (h >> 11) * 2.0**-53 < p


probabilities = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    st.integers(1, 2**53).map(lambda k: k * 2.0**-53),
    st.just(1.0),
    st.builds(
        shell_probability,
        st.integers(0, WINDOW_EXPONENT_CAP),
        st.floats(min_value=1e-6, max_value=1e7),
    ),
)


@given(st.integers(0, 2**64 - 1), probabilities)
@settings(max_examples=500)
def test_integer_threshold_matches_float_compare(h, p):
    b = _keep_bound(p)
    assert 0 <= b < 1 << 64
    bound = np.uint64(b)
    # the random word, and both words at the edge of the bound
    for word in (h, b, b + 1):
        if word < 1 << 64:
            assert bool(np.uint64(word) <= bound) == _float_keep(word, p)


def test_sample_window_zero_rate_is_empty():
    assert len(sample_window(SamplerConfig(seed=5, c=0.0, window_exponent=8))) == 0


def test_sample_window_saturates():
    w = 4
    cfg = SamplerConfig(seed=9, c=float(2**w) * math.sqrt(w), window_exponent=w)
    ps = sample_window(cfg)
    assert len(ps) == ((1 << w) - 1) ** 2


def test_sample_window_deterministic_and_seed_sensitive():
    a = sample_window(SamplerConfig(seed=1, c=0.2, window_exponent=6))
    b = sample_window(SamplerConfig(seed=1, c=0.2, window_exponent=6))
    other = sample_window(SamplerConfig(seed=2, c=0.2, window_exponent=6))
    assert a == b
    assert tuple(a) != tuple(other)


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=3, max_value=6))
@settings(max_examples=25, deadline=None)
def test_sample_window_monotone_in_rate(seed, w):
    lo = sample_window(SamplerConfig(seed=seed, c=0.1, window_exponent=w))
    hi = sample_window(SamplerConfig(seed=seed, c=0.4, window_exponent=w))
    assert set(lo) <= set(hi)


@given(
    st.integers(0, 2**64 - 1),
    st.sampled_from([1, 2, 5, 8]),
    st.sampled_from([0.0, 0.05, 1.0, 30.0]),
)
@settings(max_examples=40, deadline=None)
def test_sample_window_equals_the_checked_constructor(seed, w, c):
    # the sampler hands PointSet its points already ordered and unchecked
    ps = sample_window(SamplerConfig(seed=seed, c=c, window_exponent=w))
    assert ps == PointSet(list(ps), ps.meta)
    assert all(type(v) is int for p in ps for v in p)


def test_shell_counts_partition_the_sample():
    ps = sample_window(SamplerConfig(seed=11, c=0.3, window_exponent=7))
    counts = shell_counts(ps, 7)
    assert len(counts) == 7
    assert sum(counts) == len(ps)
    # recount by definition
    for t in range(7):
        assert counts[t] == sum(1 for p in ps if shell_index(p) == t)
    with pytest.raises(ValueError, match="window exponent must be >= 1"):
        shell_counts(ps, 0)


@given(
    st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)), max_size=60, unique=True),
    st.integers(1, 7),
)
@settings(max_examples=100, deadline=None)
def test_shell_counts_equal_the_per_point_count(pts, w):
    # shell_counts bisects the norm-ordered members; the origin, which has
    # no shell, and a member past the window are still errors
    ps = PointSet(pts)
    if (0, 0) in pts:
        with pytest.raises(ValueError, match="origin"):
            shell_counts(ps, w)
        return
    shells = [shell_index(p) for p in ps]
    if any(t >= w for t in shells):
        with pytest.raises(ValueError, match="outside window"):
            shell_counts(ps, w)
        return
    assert shell_counts(ps, w) == [shells.count(t) for t in range(w)]


def test_pointset_sorts_and_rejects_duplicates():
    ps = PointSet([(3, 1), (1, 1), (1, 2)])
    assert tuple(ps) == ((1, 1), (1, 2), (3, 1))
    with pytest.raises(ValueError):
        PointSet([(1, 1), (1, 1)])


def test_pointset_takes_integer_coordinates_only():
    ps = PointSet([(np.int64(3), np.uint8(4)), (True, 2)])
    assert tuple(ps) == ((1, 2), (3, 4))
    assert all(type(v) is int for p in ps for v in p)
    # a float or a string is refused, never truncated to (1, 2) or parsed
    for bad in [(1.5, 2), (1, 2.0), ("3", "4"), (np.float64(1.0), 1)]:
        with pytest.raises(TypeError):
            PointSet([bad])


INT64_EDGE = 2**63 - 1


def test_pointset_takes_coordinates_below_2_63_in_absolute_value():
    ps = PointSet([(INT64_EDGE, 1), (-INT64_EDGE, INT64_EDGE), (1, 1)])
    assert tuple(ps) == ((1, 1), (-INT64_EDGE, INT64_EDGE), (INT64_EDGE, 1))
    assert ps.norms.tolist() == [1, INT64_EDGE, INT64_EDGE]
    # -2**63 fits in int64, but its absolute value, the norm, does not
    for far in (2**63, -(2**63), 2**70):
        with pytest.raises(ValueError, match=re.escape(f"point (1, {far}) does not fit in int64")):
            PointSet([(1, 1), (1, far)])


@given(st.lists(st.tuples(st.integers(-2, 9), st.integers(-2, 9)), min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_the_checked_constructor_names_the_first_bad_point_in_order(pts):
    # the first duplicate, else the first point outside the window, in
    # (inf_norm, x, y) order, whatever the order the points come in
    ordered = sorted(pts, key=norm_lex_key)
    dups = [q for p, q in pairwise(ordered) if p == q]
    outside = [p for p in ordered if min(p) < 1 or max(p) > 7]
    if dups:
        want = f"duplicate point {dups[0]}"
    elif outside:
        want = f"point {outside[0]} outside declared window [1, 2**3 - 1]^2"
    else:
        assert tuple(PointSet(pts, {"window_exponent": 3})) == tuple(ordered)
        return
    with pytest.raises(ValueError) as exc:
        PointSet(pts, {"window_exponent": 3})
    assert str(exc.value) == want


def test_pointset_window_validation():
    PointSet([(1, 1), (7, 7)], {"window_exponent": 3})
    with pytest.raises(ValueError):
        PointSet([(8, 1)], {"window_exponent": 3})
    with pytest.raises(ValueError):
        PointSet([(0, 1)], {"window_exponent": 3})


def test_pointset_in_box():
    ps = PointSet([(1, 1), (2, 5), (9, 9)])
    assert tuple(ps.in_box(5)) == ((1, 1), (2, 5))
    assert tuple(ps.in_box(1)) == ((1, 1),)


@pytest.mark.parametrize("n, lead", [(10**30, 4), (2**63, 4), (INT64_EDGE, 4), (-(10**30), 0)])
def test_norm_prefix_and_in_box_take_any_int(n, lead):
    # the side is clamped to the int64 norms' range before the bisection
    ps = PointSet([(1, 1), (0, 2), (3, INT64_EDGE), (-INT64_EDGE, 5)])
    assert ps.norm_prefix(n) == lead
    assert ps.norm_prefixes([n, 2, -1]) == [lead, 2, 0]
    assert tuple(ps.in_box(n)) == (((1, 1), (3, INT64_EDGE)) if lead else ())


def test_a_pointset_stays_read_only_through_pickle_and_in_box():
    # a pool returns Q and S pickled, and numpy unpickles a read-only
    # array as writeable; in_box views the leading members when all lie in
    # the quadrant, and copies them when some do not
    q = sample_window(SamplerConfig(seed=1, c=0.5, window_exponent=8))
    back = pickle.loads(pickle.dumps(q))
    assert back == q
    assert tuple(back) == tuple(q)
    mixed = PointSet([(0, 1), (1, 1), (2, -2), (2, 2)], {"kind": "baseline"})
    assert pickle.loads(pickle.dumps(mixed)) == mixed
    for ps in (q, back, q.in_box(100), back.in_box(1 << 8), mixed.in_box(2)):
        for column in (ps.xs, ps.ys, ps.norms):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 7
    assert tuple(mixed.in_box(2)) == ((1, 1), (2, 2))


@given(
    st.lists(st.tuples(st.integers(-20, 20), st.integers(-20, 20)), max_size=60, unique=True),
    st.integers(-2, 22),
)
@settings(max_examples=100, deadline=None)
def test_pointset_in_box_equals_a_filtered_rebuild(pts, n):
    # in_box takes its members and their norms from the leading points
    # without sorting or norming again; that must be the set the
    # constructor builds from a filter.
    ps = PointSet(pts, {"kind": "sampled", "seed": 3})
    assert ps.norm_prefix(n) == sum(1 for p in pts if inf_norm(p) <= n)
    box = ps.in_box(n)
    rebuilt = PointSet([(x, y) for x, y in pts if 1 <= x <= n and 1 <= y <= n], ps.meta)
    assert box == rebuilt
    assert np.array_equal(box.norms, rebuilt.norms)
    assert box.meta is not ps.meta


def test_pointset_equality_includes_meta():
    a = PointSet([(1, 1)], {"kind": "sampled"})
    b = PointSet([(1, 1)], {"kind": "sampled"})
    c = PointSet([(1, 1)], {"kind": "constructed"})
    assert a == b
    assert a != c


points_strategy = st.lists(
    st.tuples(st.integers(1, 400), st.integers(1, 400)), max_size=60, unique=True
)


@given(points_strategy)
@settings(max_examples=60)
def test_roundtrip_through_file(tmp_path_factory, pts):
    path = tmp_path_factory.mktemp("ps") / "set.tsv"
    ps = PointSet(pts, {"kind": "sampled", "seed": 3, "c": 0.25, "window_exponent": 9})
    write_pointset(ps, path)
    assert read_pointset(path) == ps


def test_read_pointset_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("#nope v1\n#meta {}\n1\t1\n", encoding="ascii")
    with pytest.raises(ValueError, match="bad.tsv"):
        read_pointset(path)


def test_read_pointset_rejects_bad_meta(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("#no3l v1\n#meta not-json\n1\t1\n", encoding="ascii")
    with pytest.raises(ValueError, match=r"bad\.tsv:2"):
        read_pointset(path)


NULL_META = '{"c": null, "kind": null, "seed": null, "window_exponent": null}'


def test_read_pointset_rejects_wrong_field_count(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text(f"#no3l v1\n#meta {NULL_META}\n1\t1\t1\n", encoding="ascii")
    with pytest.raises(ValueError, match=r"bad\.tsv:3"):
        read_pointset(path)


@pytest.mark.parametrize("far", [2**63, -(2**63)])
def test_read_pointset_refuses_a_coordinate_of_2_63_naming_its_line(tmp_path, far):
    ok = f"#no3l v1\n#meta {NULL_META}\n1\t1\n{-INT64_EDGE}\t{INT64_EDGE}\n"
    path = tmp_path / "wide.tsv"
    path.write_text(ok, encoding="ascii")
    assert tuple(read_pointset(path)) == ((1, 1), (-INT64_EDGE, INT64_EDGE))
    path.write_text(ok + f"1\t{far}\n", encoding="ascii")
    with pytest.raises(ValueError) as exc:
        read_pointset(path)
    assert str(exc.value) == (
        f"{path}:5: point (1, {far}) does not fit in int64:"
        " coordinates must be below 2**63 in absolute value"
    )


def test_read_pointset_rejects_out_of_order_rows(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text(f"#no3l v1\n#meta {NULL_META}\n2\t2\n1\t1\n", encoding="ascii")
    with pytest.raises(ValueError, match="order"):
        read_pointset(path)


# Ways a field can be written that int() reads but the writer never emits,
# "{}" standing for the field as written; each is also a row mutation.
FIELD_FORMS = ("0{}", "-0", "+{}", " {}", "{}_0", "{}\r")
ROW_MUTATIONS = (
    "swap", "duplicate", "third-field", "empty-field", "edge-value", "negate",
    "past-window", "drop-newline", *FIELD_FORMS,
)


@st.composite
def mutated_writer_output(draw) -> str:
    """A file as write_pointset writes it, with one or two row mutations.

    Under a null window the points may be anywhere in [-40, 40]^2; under
    window 6 they lie in it.  The mutations change the rows' form, order,
    values or count: "edge-value" writes 0 or +-2**70 into a field, and
    "past-window" appends a point of norm 2**6, past every other, so only
    the window can refuse it.
    """
    window = draw(st.sampled_from([None, 6]))
    lo, hi = (-40, 40) if window is None else (1, 2**6 - 1)
    coord = st.integers(lo, hi)
    pts = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=12, unique=True))
    ps = PointSet(pts, {"kind": "sampled", "seed": 3, "window_exponent": window})
    rows = [f"{x}\t{y}" for x, y in ps]
    newline = "\n"
    for kind in draw(st.lists(st.sampled_from(ROW_MUTATIONS), min_size=1, max_size=2)):
        i = draw(st.integers(0, len(rows) - 1))
        fields = rows[i].split("\t")
        k = draw(st.integers(0, 1))
        if kind == "drop-newline":
            newline = ""
        elif kind == "swap":
            j = (i + draw(st.integers(1, max(1, len(rows) - 1)))) % len(rows)
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == "duplicate":
            rows.insert(i, rows[i])
        elif kind == "past-window":
            rows.append(f"{2**6}\t{draw(st.integers(1, 2**6))}")
        elif kind == "third-field":
            rows[i] += f"\t{draw(coord)}"
        else:
            if kind in FIELD_FORMS:
                fields[k] = kind.format(fields[k])
            elif kind == "empty-field":
                fields[k] = ""
            elif kind == "edge-value":
                fields[k] = str(draw(st.sampled_from([0, 2**70, -(2**70)])))
            else:
                fields[k] = fields[k][1:] if fields[k].startswith("-") else "-" + fields[k]
            rows[i] = "\t".join(fields)
    header = f"{sampling.FORMAT_MAGIC}\n{sampling._meta_line(ps.meta)}\n"
    return header + "\n".join(rows) + newline


def _read_outcome(read, path):
    try:
        return read(path)
    except ValueError as exc:
        return f"ValueError: {exc}"


@given(mutated_writer_output())
@example(f"#no3l v1\n#meta {NULL_META}\n1\t1\n{'9' * 5000}\t1\n")  # past int()'s digit limit
@settings(max_examples=300, deadline=None)
def test_read_pointset_agrees_with_the_row_oracle(tmp_path_factory, text):
    # the same set, or the same first failing line and check
    path = tmp_path_factory.mktemp("rows") / "in.tsv"
    path.write_text(text, encoding="ascii")
    assert _read_outcome(read_pointset, path) == _read_outcome(read_pointset_by_rows, path)


def test_written_file_layout_is_stable(tmp_path):
    path = tmp_path / "ps.tsv"
    write_pointset(PointSet([(2, 1), (1, 1)], {"kind": "sampled", "seed": 1}), path)
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines[0] == "#no3l v1"
    assert lines[1].startswith("#meta {")
    assert lines[2:] == ["1\t1", "2\t1"]


@pytest.mark.parametrize("rate", [math.nan, math.inf])
def test_a_meta_value_that_is_not_json_is_never_written(tmp_path, rate):
    path = tmp_path / "ps.tsv"
    with pytest.raises(ValueError, match="JSON"):
        write_pointset(PointSet([(1, 1)], {"kind": "sampled", "c": rate}), path)
    assert not path.exists()
