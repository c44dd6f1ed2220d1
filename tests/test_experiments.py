"""Trial harness tests: manifests, persisted artifacts, invariants.

The two load-bearing invariants live here: byte-identical reruns for a
fixed manifest, and the aggregate file contents agreeing exactly with
statistics recomputed from the persisted per-trial point files.
"""

import json
import math
import statistics
from dataclasses import asdict, fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from no3l import analytics, experiments, parallel
from no3l.analytics import exact_reports
from no3l.construct import delete_max_of_triples
from no3l.experiments import (
    _JSON_FIELD_TYPES,
    EventRecord,
    TrialManifest,
    _run_one_trial,
    density_box_sides,
    lemma_report,
    lemma_report_csv,
    monte_carlo_moments,
    run_trials,
    seed_moments,
    verify_theorem,
)
from no3l.parallel import map_ordered, resolve_workers
from no3l.sampling import PointSet, SamplerConfig, read_pointset, sample_window, shell_counts
from no3l.triples import box_triple_counts, count_collinear_triples


def _manifest(tmp_path, **kw):
    args = dict(base_seed=40, trial_count=3, c=0.3, window_exponent=7,
                out_dir=str(tmp_path / "trials"))
    args.update(kw)
    return TrialManifest(**args)


def test_every_manifest_field_has_a_json_type_check():
    # from_json_file looks each field's annotation up in this map
    for f in fields(TrialManifest):
        assert f.type in _JSON_FIELD_TYPES, f.name


def test_manifest_validation():
    TrialManifest(base_seed=0, trial_count=1, c=0.0, window_exponent=2)
    with pytest.raises(ValueError):
        TrialManifest(base_seed=0, trial_count=0, c=0.1, window_exponent=5)
    with pytest.raises(ValueError):
        TrialManifest(base_seed=0, trial_count=1, c=-0.1, window_exponent=5)
    with pytest.raises(ValueError):
        TrialManifest(base_seed=0, trial_count=1, c=0.1, window_exponent=0)
    with pytest.raises(ValueError):
        TrialManifest(base_seed=0, trial_count=1, c=0.1, window_exponent=5,
                      log_base="log2")
    with pytest.raises(ValueError):
        TrialManifest(base_seed=0, trial_count=1, c=0.1, window_exponent=5,
                      t_exact_cap=8)
    # the last trial's seed must fit in 64 bits too, not only the first
    TrialManifest(base_seed=2**64 - 2, trial_count=2, c=0.1, window_exponent=5)
    with pytest.raises(ValueError, match="seed must fit in 64 bits"):
        TrialManifest(base_seed=2**64 - 2, trial_count=3, c=0.1, window_exponent=5)


def test_manifest_seeds_and_file_round_trip(tmp_path):
    man = _manifest(tmp_path, base_seed=9, trial_count=4)
    assert man.seeds == [9, 10, 11, 12]
    path = tmp_path / "man.json"
    path.write_text(json.dumps(man.__dict__), encoding="ascii")
    assert TrialManifest.from_json_file(path) == man


def test_density_box_sides():
    assert density_box_sides(13) == [16, 32, 64, 128, 256, 512, 1024, 2048, 4096]
    assert density_box_sides(5) == [16]
    assert density_box_sides(4) == []


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("run")
    man = _manifest(tmp)
    return man, run_trials(man)


def test_run_trials_per_trial_contents(small_run):
    from pathlib import Path

    man, res = small_run
    assert res.t_values == list(range(1, 7))
    assert [tr.seed for tr in res.trials] == man.seeds
    for tr in res.trials:
        # file names are relative: the output directory is relocatable
        q = read_pointset(Path(man.out_dir) / tr.q_file)
        s = read_pointset(Path(man.out_dir) / tr.s_file)
        assert len(q) == tr.q_size and len(s) == tr.s_size
        assert tr.x == shell_counts(q, man.window_exponent)
        y = box_triple_counts(q, man.window_exponent)
        assert tr.y == y[:-1]
        assert tuple(s) == tuple(delete_max_of_triples(q))
        assert count_collinear_triples(s) == 0
        # per-shell retention: the deletion rule charges each removed
        # point to a triple whose largest member it is
        s_counts = shell_counts(s, man.window_exponent)
        for t in range(man.window_exponent):
            assert s_counts[t] >= tr.x[t] - y[t + 1]


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_one_trial_pass_matches_the_separate_passes(seed):
    c, w = 0.8, 8
    tr, got_q, got_s = _run_one_trial((seed, c, w))
    q = sample_window(SamplerConfig(seed=seed, c=c, window_exponent=w))
    s = delete_max_of_triples(q)
    assert got_q == q
    assert tr.x == shell_counts(q, w)
    assert tr.y == box_triple_counts(q, w - 1)
    assert tr.y[w - 1] > 0
    assert got_s == s
    assert (tr.q_size, tr.s_size) == (len(q), len(s))


def _patched_repair(monkeypatch, edit):
    """Make every trial's repair hand back edit(S, W) in place of S."""
    real = experiments.delete_max_with_profile

    def repair(q, w):
        s, y = real(q, w)
        return PointSet(edit(s, w), s.meta), y

    monkeypatch.setattr(experiments, "delete_max_with_profile", repair)
    monkeypatch.setenv("NO3L_THREADS", "1")


def test_a_triple_in_the_outer_shell_aborts_the_run(tmp_path, monkeypatch):
    # three points on the window's last column lie outside the box of
    # exponent W - 1, in shell W - 1
    _patched_repair(monkeypatch, lambda pts, w: {*pts, *(((1 << w) - 1, y) for y in (1, 2, 3))})
    with pytest.raises(RuntimeError, match=r"seed 40: survivor set has \d+ collinear"):
        run_trials(_manifest(tmp_path, trial_count=1), write_files=False)


def test_a_short_outer_shell_aborts_the_run(tmp_path, monkeypatch):
    # seed 40 at c = 0.3, W = 7 samples 26 points in shell 6 and 16 triples,
    # so at least 10 must survive there
    _patched_repair(monkeypatch, lambda pts, w: [p for p in pts if max(p) < 1 << (w - 1)])
    with pytest.raises(RuntimeError, match=r"seed 40, shell 6: retained 0 points"):
        run_trials(_manifest(tmp_path, trial_count=1), write_files=False)


def test_run_trials_events_match_thresholds(small_run):
    man, res = small_run
    for tr in res.trials:
        for ev, t in zip(tr.events, res.t_values):
            x_thr = man.c * 2 ** (t - 1) / math.sqrt(t)
            y_thr = 2.0 * res.k1_hat * man.c**3 * 2**t / math.sqrt(t)
            assert ev.T == t
            assert ev.x_ok == (tr.x[t] >= x_thr)
            assert ev.y_ok == (tr.y[t] <= y_thr)
            assert ev.e_ok == (ev.x_ok and ev.y_ok)


def test_run_trials_and_monte_carlo_share_normalized_moments(small_run):
    # both take their moments from seed_moments, so they agree to the bit
    man, res = small_run
    mc = monte_carlo_moments(range(1, man.window_exponent), man.c, man.seeds)
    assert res.k1_hat > 0.0
    assert mc.k1_hat == res.k1_hat
    assert mc.k2_hat == res.k2_hat


def test_run_trials_rerun_is_byte_identical(small_run):
    man, res = small_run
    import pathlib

    out = pathlib.Path(man.out_dir)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    rerun = run_trials(man)
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert before == after
    assert rerun == res


def test_aggregate_recompute_equality(small_run):
    man, res = small_run
    import pathlib

    doc = json.loads((pathlib.Path(man.out_dir) / "aggregate.json").read_text())
    assert doc["manifest"]["base_seed"] == man.base_seed
    assert doc["k1_hat"] == res.k1_hat
    assert doc["k2_hat"] == res.k2_hat
    for row, tr in zip(doc["trials"], res.trials):
        q = read_pointset(pathlib.Path(man.out_dir) / tr.q_file)
        assert row["seed"] == tr.seed
        assert row["x"] == shell_counts(q, man.window_exponent)
        assert row["y"] == box_triple_counts(q, man.window_exponent - 1)
        assert [d["n"] for d in row["density"]] == [n for n, _, _ in tr.density]
        assert [d["count"] for d in row["density"]] == [k for _, k, _ in tr.density]


def test_csv_outputs_have_fixed_headers(small_run):
    man, res = small_run
    import pathlib

    agg = (pathlib.Path(man.out_dir) / "aggregate.csv").read_text().splitlines()
    assert agg[0] == "T,seed,x,y,x_ok,y_ok,e_ok"
    assert len(agg) == 1 + len(res.t_values) * len(res.trials)
    den = (pathlib.Path(man.out_dir) / "density.csv").read_text().splitlines()
    assert den[0] == "n,seed,count,ratio"
    assert len(den) == 1 + len(res.trials[0].density) * len(res.trials)


def test_run_trials_zero_rate_trial(tmp_path):
    man = _manifest(tmp_path, trial_count=1, c=0.0)
    res = run_trials(man, write_files=False)
    tr = res.trials[0]
    assert tr.q_size == tr.s_size == 0
    assert tr.x == [0] * 7 and tr.y == [0] * 7
    assert all(ratio == 0.0 for _, _, ratio in tr.density)
    assert res.k1_hat == 0.0


def test_run_trials_without_files(tmp_path):
    man = _manifest(tmp_path, trial_count=2)
    res = run_trials(man, write_files=False)
    assert not (tmp_path / "trials").exists()
    assert all(tr.q_file is None and tr.s_file is None for tr in res.trials)


def test_worker_count_does_not_change_results(tmp_path, monkeypatch):
    man = _manifest(tmp_path, trial_count=2, window_exponent=6)
    monkeypatch.setenv("NO3L_THREADS", "1")
    serial = run_trials(man, write_files=False)
    monkeypatch.setenv("NO3L_THREADS", "2")
    pooled = run_trials(man, write_files=False)
    assert serial == pooled


def test_resolve_workers(monkeypatch):
    monkeypatch.setenv("NO3L_THREADS", "3")
    assert resolve_workers() == 3
    monkeypatch.setenv("NO3L_THREADS", "0")
    with pytest.raises(ValueError):
        resolve_workers()
    monkeypatch.setenv("NO3L_THREADS", "soon")
    with pytest.raises(ValueError):
        resolve_workers()
    monkeypatch.delenv("NO3L_THREADS")
    assert resolve_workers() >= 1


def test_map_ordered_preserves_order(monkeypatch):
    monkeypatch.setenv("NO3L_THREADS", "2")
    assert map_ordered(_square, [3, 1, 2]) == [9, 1, 4]


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs serially."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize(
    "threads, items, pool_size",
    [("64", 20, 20), ("2", 20, 2), ("64", 1, None), ("1", 5, None)],
)
def test_map_ordered_pool_never_exceeds_items(monkeypatch, threads, items, pool_size):
    monkeypatch.setenv("NO3L_THREADS", threads)
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    assert map_ordered(_square, list(range(items))) == [v * v for v in range(items)]
    assert _RecordingPool.sizes == ([] if pool_size is None else [pool_size])


def _square(v):
    return v * v


def test_verify_theorem_semantics(small_run):
    _, res = small_run
    report = verify_theorem(res, n_min=16, alpha=0.0)
    assert report["ok"] and report["failing"] == []
    assert [row["n"] for row in report["per_n"]] == [16, 32, 64]
    strict = verify_theorem(res, n_min=32, alpha=math.inf)
    assert not strict["ok"]
    assert strict["failing"] == [32, 64]
    with pytest.raises(ValueError):
        verify_theorem(type(res)(res.manifest, res.t_values, [], 0.0, 0.0), 16, 0.0)


def test_event_record_degenerate_convention():
    ev = EventRecord(T=3, x_ok=False, y_ok=True, e_ok=False)
    assert not ev.e_ok


def test_monte_carlo_reads_each_seed_through_the_trials_routines(monkeypatch):
    # X_T and Y_T of every seed come from shell_counts and box_triple_counts,
    # the routines a trial uses, on the seed's own sampled set
    monkeypatch.setenv("NO3L_THREADS", "1")
    calls = []
    for name in ("shell_counts", "box_triple_counts"):
        def spy(q, t, real=getattr(experiments, name), name=name):
            calls.append((name, q.meta["seed"]))
            return real(q, t)
        monkeypatch.setattr(experiments, name, spy)
    seeds = range(7, 12)
    mc = monte_carlo_moments([2, 3], 0.5, seeds)
    assert calls == [(n, s) for s in seeds for n in ("shell_counts", "box_triple_counts")]
    for seed, x, y in zip(seeds, mc.x_by_seed, mc.y_by_seed):
        q = sample_window(SamplerConfig(seed=seed, c=0.5, window_exponent=4))
        assert x == shell_counts(q, 4)[2:] and y == box_triple_counts(q, 3)[2:]


def test_lemma_report_zero_rate_degenerates():
    rep = lemma_report([2, 3, 4], 0.0, [1, 2, 3, 4])
    assert rep["x_miss_freq"] == [1.0, 1.0, 1.0]
    assert rep["y_miss_freq"] == [0.0, 0.0, 0.0]
    assert rep["event_miss_freq"] == [1.0, 1.0, 1.0]
    # the bound 4 * sqrt(T) / (c * 2**T) has no value at c = 0
    assert rep["chebyshev_x_bound"] == [None] * 3
    cells = [row.split(",") for row in lemma_report_csv(rep).splitlines()]
    column = cells[0].index("chebyshev_x_bound")
    assert [row[column] for row in cells[1:]] == [""] * 3
    assert rep["weights"] == [] and rep["variance_bounds"] == []
    assert rep["summability_proxy"] == 3.0


def test_lemma_report_echoes_caps_and_is_deterministic():
    a = lemma_report([2, 3], 0.4, range(1, 21))
    b = lemma_report([2, 3], 0.4, range(1, 21))
    assert a == b
    assert a["enum_cap"] == 7 and a["var_cap"] == 6
    assert a["sample_size"] == 20
    assert len(a["weights"]) == 2 and len(a["variance_bounds"]) == 2
    # exact_ey rides along for every T under the cap
    assert a["weights"][0]["T"] == 2


def test_lemma_report_moments_are_the_statistics_of_each_column():
    rep = lemma_report([3, 4, 5], 0.5, range(1, 41))
    mc = rep["monte_carlo"]
    for name in ("x", "y"):
        columns = list(zip(*mc[f"{name}_by_seed"]))
        assert mc[f"{name}_mean"] == [statistics.fmean(col) for col in columns]
        assert mc[f"{name}_var"] == [statistics.variance(col) for col in columns]
    single = lemma_report([3, 4], 0.5, [7])["monte_carlo"]
    assert single["x_var"] == single["y_var"] == [0.0, 0.0]


def test_lemma_report_maps_every_task_once_largest_estimate_first(monkeypatch):
    ts, c, seeds = [2, 3, 4], 0.4, range(1, 11)
    plans = [experiments._mc_plan(ts, c, seeds), analytics._exact_plan(ts, c)]
    tasks = [task for plan in plans for task in plan.tasks]
    cells = [est for plan in plans for est in plan.cells]
    want = [tasks[i] for i in sorted(range(len(tasks)), key=lambda i: -cells[i])]
    calls = []

    def recording(fn, items):
        calls.append(list(items))
        return map_ordered(fn, items)

    monkeypatch.setattr(experiments, "map_ordered", recording)
    monkeypatch.setattr(analytics, "map_ordered", recording)
    lemma_report(ts, c, seeds)
    assert calls == [want]


@pytest.mark.parametrize("workers", ["1", "2", "3"])
def test_lemma_report_equals_its_parts_called_apart(monkeypatch, workers):
    monkeypatch.setenv("NO3L_THREADS", workers)
    ts, seeds = range(3, 8), range(1, 201)
    rep = lemma_report(ts, 0.5, seeds)
    weights, bounds = exact_reports(ts, 0.5)
    assert rep["monte_carlo"] == asdict(monte_carlo_moments(ts, 0.5, seeds))
    assert rep["weights"] == [asdict(w) for w in weights]
    assert rep["variance_bounds"] == [asdict(v) for v in bounds]


@st.composite
def _count_columns(draw):
    """One to four columns of n >= 2 counts: arbitrary or constant, up to 10**12."""
    n = draw(st.integers(2, 40))
    value = st.integers(0, 10**12)
    column = st.one_of(st.lists(value, min_size=n, max_size=n), value.map(lambda v: [v] * n))
    return draw(st.lists(column, min_size=1, max_size=4))


@given(_count_columns())
@example([[0, 1], [7, 7]])
@example([[10**12, 0, 1], [10**12] * 3])
@settings(max_examples=300, deadline=None)
def test_seed_moments_variance_is_statistics_variance_to_the_bit(columns):
    _, variances = seed_moments(list(zip(*columns)))
    assert [v.hex() for v in variances] == [
        float(statistics.variance(col)).hex() for col in columns
    ]


# Where each lemma CSV column lives in a lemma_report; "T" is the row's exponent.
_LEMMA_CSV_SOURCES = {
    "report": ("c", "sample_size", "chebyshev_x_bound",
               "x_miss_freq", "y_miss_freq", "event_miss_freq"),
    "monte_carlo": ("x_mean", "x_var", "x_tail_freq", "y_mean", "y_var", "y_tail_freq",
                    "k1_hat", "k2_hat"),
    "weights": ("exact_ey", "sum_w3", "sum_w4"),
    "variance_bounds": ("v1_bound", "v2_bound", "v3_bound", "var_bound_total"),
}


def _lemma_cell(report, i, name):
    """The CSV cell for column name in row i: the value's repr, or empty if None or absent."""
    t = report["t_values"][i]
    source = next((k for k, names in _LEMMA_CSV_SOURCES.items() if name in names), None)
    if name == "T":
        value = t
    elif source in ("weights", "variance_bounds"):
        rows = [row for row in report[source] if row["T"] == t]
        value = rows[0][name] if rows else None
    else:
        value = (report if source == "report" else report["monte_carlo"])[name]
        if isinstance(value, list):
            value = value[i]
    return "" if value is None else repr(value)


@pytest.mark.parametrize("c", [0.0, 0.4])
def test_lemma_report_csv_cells_are_the_report_values(c):
    # 7 is past VARIANCE_CAP and 8 past ENUMERATION_CAP too
    rep = lemma_report([5, 6, 7, 8], c, range(1, 6))
    lines = lemma_report_csv(rep).splitlines()
    assert lines[0] == (
        "T,c,sample_size,x_mean,x_var,x_tail_freq,chebyshev_x_bound,"
        "y_mean,y_var,y_tail_freq,x_miss_freq,y_miss_freq,event_miss_freq,"
        "exact_ey,sum_w3,sum_w4,"
        "v1_bound,v2_bound,v3_bound,var_bound_total,k1_hat,k2_hat"
    )
    header = lines[0].split(",")
    assert set(header) == {"T"}.union(*_LEMMA_CSV_SOURCES.values())
    assert len(lines) == 1 + len(rep["t_values"])
    for i, line in enumerate(lines[1:]):
        assert line.split(",") == [_lemma_cell(rep, i, name) for name in header]


def test_lemma_report_csv_one_row_per_exponent():
    rep = lemma_report([2, 3, 4], 0.4, range(1, 11))
    lines = lemma_report_csv(rep).splitlines()
    assert lines[0].startswith("T,c,sample_size,")
    assert len(lines) == 4
    # beyond both caps the exact columns go blank
    rep_high = lemma_report([7, 8], 0.4, range(1, 4))
    rows = lemma_report_csv(rep_high).splitlines()
    t7 = rows[1].split(",")
    t8 = rows[2].split(",")
    header = rows[0].split(",")
    i_ey = header.index("exact_ey")
    i_v1 = header.index("v1_bound")
    assert t7[i_ey] != "" and t7[i_v1] == ""
    assert t8[i_ey] == "" and t8[i_v1] == ""
