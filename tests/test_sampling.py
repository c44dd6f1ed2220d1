"""Sampler and file-format tests.

The counter-based kernel is pinned by frozen values (any change to the
mixing constants is a format break: persisted samples would no longer
reproduce).  The vectorized window sampler is checked cell-by-cell
against a scan with the scalar hash of ``scalar_hash.py``, and the
PointSet text format round-trips under hypothesis.
"""

import hashlib
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from no3l import sampling
from no3l.sampling import (
    WINDOW_EXPONENT_CAP,
    PointSet,
    SamplerConfig,
    _keep_bound,
    inf_norm,
    read_pointset,
    sample_window,
    shell_counts,
    shell_index,
    shell_probability,
    write_pointset,
)
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
    assert sorted(ps.points) == sorted(_reference_scan(cfg))
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
    assert sorted(sample_window(cfg).points) == sorted(_reference_scan(cfg))


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
def test_filter_edge_cells_match_the_scalar_scan(bound_at):
    # A shell bound in [h, z) keeps the cell although z > bound: the coarse
    # test must compare z against bound | (2**33 - 1).  A bound just below h
    # passes that coarse test and drops the cell only in the exact recheck.
    w, t, x, y = 4, 3, 9, 5
    # the first seed whose cell (9, 5) of shell 3 has room for a bound in [h, z)
    seed = next(
        s for s in range(100) if _last_words(s, x, y)[0] >> 11 > _last_words(s, x, y)[1] >> 11
    )
    z, h = _last_words(seed, x, y)
    assert (h >> 11) * 2.0**-53 == point_uniform(seed, x, y)
    if bound_at == "between-h-and-z":
        bound = ((h >> 11) << 11) | 0x7FF
        assert h <= bound < z
    else:
        bound = ((h >> 11) << 11) - 1
        assert bound < h and z <= bound | ((1 << 33) - 1)
    cfg = SamplerConfig(seed=seed, c=_rate_with_bound(t, bound), window_exponent=w)
    assert _keep_bound(shell_probability(t, cfg.c)) == bound
    ref = _reference_scan(cfg)
    assert ((x, y) in ref) == (bound_at == "between-h-and-z")
    assert sorted(sample_window(cfg).points) == sorted(ref)


@given(
    seed=st.integers(0, MASK64),
    w=st.integers(1, 6),
    fraction=st.floats(min_value=0.0, max_value=1.0),
    log_scale=st.booleans(),
    block=st.sampled_from([1, 7, 64, 1 << 16]),
)
@settings(max_examples=60, deadline=None)
def test_sample_window_matches_scalar_scan_hypothesis(seed, w, fraction, log_scale, block):
    # c from 1e-6 (or 0) up to the rate that saturates every shell of the
    # window.  At w <= 6 a block of 2**16 cells is the whole window, rows
    # of every shell at once; 1, and 7 from w = 3, give one-row blocks, one
    # bound each; 64 gives both kinds (at w = 4 rows 1-4 span shells, 9-12
    # do not).
    saturation = max(1.0, (1 << (w - 1)) * math.sqrt(w - 1))
    c = 1e-6 * (saturation / 1e-6) ** fraction if log_scale else fraction * saturation
    cfg = SamplerConfig(seed=seed, c=c, window_exponent=w)
    with mock.patch.object(sampling, "_BLOCK_CELLS", block):
        got = sample_window(cfg)
    assert sorted(got.points) == sorted(_reference_scan(cfg))


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
    got = sample_window(cfg).points
    assert sorted(got) == sorted(_reference_scan(cfg))
    assert all(shell_probability(shell_index(p), c) > 0.0 for p in got)


REUSE_CONFIGS = [(1, 1.0, 12), (2, 0.5, 8)]


@pytest.fixture(scope="module")
def fresh_samples():
    """Each of REUSE_CONFIGS's points, sampled in a process of its own."""
    src = os.path.dirname(os.path.dirname(sampling.__file__))
    paths = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    code = (
        "import sys\n"
        "from no3l.sampling import SamplerConfig, sample_window\n"
        "seed, c, w = sys.argv[1:]\n"
        "print(sample_window(SamplerConfig(int(seed), float(c), int(w))).points)\n"
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
    # The block buffers outlive each call and only grow: a small window
    # after a large one, and a large one after it, must read only what
    # their own blocks wrote.
    monkeypatch.setattr(sampling, "_BLOCK_CELLS", block)
    for args in (REUSE_CONFIGS[0], REUSE_CONFIGS[1], REUSE_CONFIGS[0]):
        assert str(sample_window(SamplerConfig(*args)).points) == fresh_samples[args]


# sha256 of write_pointset(sample_window(cfg)) at benchmark scale, where the
# scalar scan cannot reach
WINDOW_FILE_PINS = [
    ((1, 0.1, 13), 754, "d72e9078f30924907113968f873342c02882bbb9f4af8991ecae2b6d77d481d6"),
    ((1, 1.0, 12), 3979, "64b0193456e99eb085be1d5c2dab76e08525011b19cb63a6637946d59a4bd091"),
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
    assert a.points != other.points


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=3, max_value=6))
@settings(max_examples=25, deadline=None)
def test_sample_window_monotone_in_rate(seed, w):
    lo = sample_window(SamplerConfig(seed=seed, c=0.1, window_exponent=w))
    hi = sample_window(SamplerConfig(seed=seed, c=0.4, window_exponent=w))
    assert set(lo.points) <= set(hi.points)


@given(
    st.integers(0, 2**64 - 1),
    st.sampled_from([1, 2, 5, 8]),
    st.sampled_from([0.0, 0.05, 1.0, 30.0]),
)
@settings(max_examples=40, deadline=None)
def test_sample_window_equals_the_checked_constructor(seed, w, c):
    # the sampler hands PointSet its points already ordered and unchecked
    ps = sample_window(SamplerConfig(seed=seed, c=c, window_exponent=w))
    assert ps == PointSet(list(ps.points), ps.meta)
    assert all(type(v) is int for p in ps.points for v in p)


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
    assert ps.points == ((1, 1), (1, 2), (3, 1))
    with pytest.raises(ValueError):
        PointSet([(1, 1), (1, 1)])


def test_pointset_window_validation():
    PointSet([(1, 1), (7, 7)], {"window_exponent": 3})
    with pytest.raises(ValueError):
        PointSet([(8, 1)], {"window_exponent": 3})
    with pytest.raises(ValueError):
        PointSet([(0, 1)], {"window_exponent": 3})


def test_pointset_in_box():
    ps = PointSet([(1, 1), (2, 5), (9, 9)])
    assert ps.in_box(5).points == ((1, 1), (2, 5))
    assert ps.in_box(1).points == ((1, 1),)


@given(
    st.lists(st.tuples(st.integers(-20, 20), st.integers(-20, 20)), max_size=60, unique=True),
    st.integers(-2, 22),
)
@settings(max_examples=100, deadline=None)
def test_pointset_in_box_equals_a_filtered_rebuild(pts, n):
    # in_box takes its members from the leading points without sorting
    # again; that must be the set the constructor builds from a filter.
    ps = PointSet(pts, {"kind": "sampled", "seed": 3})
    assert ps.norm_prefix(n) == sum(1 for p in pts if inf_norm(p) <= n)
    box = ps.in_box(n)
    assert box == PointSet([(x, y) for x, y in pts if 1 <= x <= n and 1 <= y <= n], ps.meta)
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


def test_read_pointset_rejects_out_of_order_rows(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text(f"#no3l v1\n#meta {NULL_META}\n2\t2\n1\t1\n", encoding="ascii")
    with pytest.raises(ValueError, match="order"):
        read_pointset(path)


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
