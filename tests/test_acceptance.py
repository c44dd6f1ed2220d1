"""Acceptance gate: ten numbered end-to-end checks.

One test per criterion, in order, so `pytest -v` prints one pass/fail
line for each.  Every test also prints a `criterion N: PASS/FAIL`
summary with the measured quantities (visible with -rA, or on failure).

Shared material: criteria 1, 2 and 8 read the same 20-trial run at
rate 0.1 in the exponent-13 window (seeds 1..20, frozen); thresholds
marked "frozen" were set from a pilot of that run and act as
regression floors, not as theorems.
"""

import json
import math
import random
import statistics
import time
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from no3l.analytics import exact_reports
from no3l.construct import _is_prime, greedy_construct, modular_parabola
from no3l.experiments import TrialManifest, monte_carlo_moments, run_trials
from no3l.sampling import read_pointset, shell_counts, shell_probability, write_pointset
from no3l.triples import count_collinear_triples
from beta_grid import beta_box_grid
from brute_force import count_collinear_triples_bruteforce, shell_size

BIG = dict(base_seed=1, trial_count=20, c=0.1, window_exponent=13)


def _criterion(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def big_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("accept")
    man = TrialManifest(out_dir=str(tmp / "trials"), **BIG)
    t0 = time.time()
    result = run_trials(man)
    return man, result, time.time() - t0


def test_criterion_01_constructed_sets_have_no_triples(big_run):
    man, result, setup_seconds = big_run
    t0 = time.time()
    worst_fast = worst_brute = 0
    for tr in result.trials:
        s = read_pointset(Path(man.out_dir) / tr.s_file)
        worst_fast = max(worst_fast, count_collinear_triples(s.in_box(1 << 12)))
        worst_brute = max(
            worst_brute, count_collinear_triples_bruteforce(s.in_box(64))
        )
    elapsed = setup_seconds + time.time() - t0
    ok = worst_fast == 0 and worst_brute == 0 and elapsed < 120.0
    _criterion(
        1,
        ok,
        f"20 trials, max triples fast={worst_fast} brute(64)={worst_brute}, "
        f"{elapsed:.1f}s < 120s",
    )


def test_criterion_02_per_shell_retention_guarantee(big_run):
    man, result, _ = big_run
    worst_slack = None
    for tr in result.trials:
        s = read_pointset(Path(man.out_dir) / tr.s_file)
        kept = shell_counts(s, man.window_exponent)
        for t in range(12):
            slack = kept[t] - (tr.x[t] - tr.y[t + 1])
            worst_slack = slack if worst_slack is None else min(worst_slack, slack)
    _criterion(2, worst_slack >= 0, f"min over trials and T<=11 of kept-(x-y) = {worst_slack}")


def test_criterion_03_fast_counter_equals_bruteforce():
    t0 = time.time()
    rng = random.Random(20240917)
    mismatches = 0
    for _ in range(500):
        size = rng.randrange(0, 51)
        pts = set()
        while len(pts) < size:
            pts.add((rng.randint(1, 100), rng.randint(1, 100)))
        pts = sorted(pts)
        if count_collinear_triples(pts) != count_collinear_triples_bruteforce(pts):
            mismatches += 1
    for n in range(1, 6):
        grid = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
        if count_collinear_triples(grid) != count_collinear_triples_bruteforce(grid):
            mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 30.0
    _criterion(3, ok, f"500 random sets + grids n<=5, mismatches={mismatches}, {elapsed:.1f}s < 30s")


def test_criterion_04_exact_expectation_oracle():
    t0 = time.time()
    seeds = range(1, 1001)
    worst_z = 0.0
    majorant_ok = True
    details = []
    for c in (0.3, 0.5):
        mc = monte_carlo_moments([5, 6], c, seeds)
        for i, t in enumerate((5, 6)):
            (ws,), _ = exact_reports([t], c)
            se = math.sqrt(mc.y_var[i] / mc.sample_size)
            z = (mc.y_mean[i] - ws.exact_ey) / se
            worst_z = max(worst_z, abs(z))
            majorant_ok = majorant_ok and ws.exact_ey <= ws.sum_w3
            details.append(f"c={c} T={t} z={z:+.2f}")
    elapsed = time.time() - t0
    ok = worst_z <= 4.0 and majorant_ok and elapsed < 300.0
    _criterion(
        4,
        ok,
        f"{'; '.join(details)}; |z|max={worst_z:.2f} <= 4, "
        f"ey<=sum_w3 everywhere={majorant_ok}, {elapsed:.1f}s < 300s",
    )


def test_criterion_05_shell_count_mean_and_tail():
    c = 0.1
    ts = list(range(4, 11))
    mc = monte_carlo_moments(ts, c, range(1, 201))
    worst_z = 0.0
    tail_ok = True
    for i, t in enumerate(ts):
        mean = shell_size(t) * shell_probability(t, c)
        se = math.sqrt(mc.x_var[i] / mc.sample_size)
        worst_z = max(worst_z, abs((mc.x_mean[i] - mean) / se))
        freq = mc.x_tail_freq[i]
        cheb = 4.0 * math.sqrt(t) / (c * 2**t)
        freq_se = math.sqrt(freq * (1.0 - freq) / mc.sample_size)
        tail_ok = tail_ok and freq <= cheb + 3.0 * freq_se
    ok = worst_z <= 4.0 and tail_ok
    _criterion(
        5,
        ok,
        f"T in [4,10], 200 seeds: |z|max={worst_z:.2f} <= 4, "
        f"all tail freqs under Chebyshev+3se={tail_ok}",
    )


def test_criterion_06_variance_bound_chain():
    c = 0.5
    ts = [3, 4, 5, 6]
    mc = monte_carlo_moments(ts, c, range(1, 2001))
    y = np.array(mc.y_by_seed, dtype=float)
    n = mc.sample_size
    bound_ok = True
    margins = []
    ratios = {}
    for i, t in enumerate(ts):
        var = float(y[:, i].var(ddof=1))
        m4 = float(np.mean((y[:, i] - y[:, i].mean()) ** 4))
        se_var = math.sqrt((m4 - (n - 3) / (n - 1) * var**2) / n)
        total = exact_reports([t], c)[1][0].var_bound_total
        bound_ok = bound_ok and var <= total + 4.0 * se_var
        margins.append(f"T={t} var={var:.1f}<=bound={total:.1f}+4se")
        if t >= 4:
            ratios[t] = var / (2**t * t**3.5)
    spread = max(ratios.values()) / min(ratios.values())
    ok = bound_ok and spread <= 4.0
    _criterion(
        6,
        ok,
        f"{'; '.join(margins)}; normalized-ratio spread over T in [4,6] "
        f"= {spread:.2f} <= 4 (frozen)",
    )


def test_criterion_07_beta_identity():
    c = 0.5
    worst_rel = 0.0
    for t in range(1, 6):
        n = 1 << t
        grid = beta_box_grid(t, c)
        xs = np.arange(1, n + 1)
        shells = np.maximum.outer(xs, xs)
        probs = np.vectorize(
            lambda m: shell_probability(int(m).bit_length() - 1, c)
        )(shells)
        lhs = float((probs * grid).sum())
        rhs = 3.0 * exact_reports([t], c)[0][0].exact_ey
        if rhs:
            worst_rel = max(worst_rel, abs(lhs - rhs) / rhs)
    ok = worst_rel <= 1e-9
    _criterion(7, ok, f"T<=5, c=0.5: max relative gap {worst_rel:.2e} <= 1e-9")


def test_criterion_08_density_does_not_collapse(big_run):
    _, result, _ = big_run
    sides = [n for n, _, _ in result.trials[0].density]
    med = {
        n: statistics.median(tr.density[j][2] for tr in result.trials)
        for j, n in enumerate(sides)
    }
    ok = med[4096] >= 0.5 * med[256]
    _criterion(
        8,
        ok,
        f"median r(4096)={med[4096]:.4f} >= 0.5 * median r(256)={0.5 * med[256]:.4f} "
        f"(floor frozen from pilot)",
    )


def test_criterion_09_baselines():
    bad = []
    for p in range(2, 1010):
        if not _is_prime(p):
            continue
        ps = modular_parabola(p)
        wrong_size = len(ps) != p
        triples = (
            count_collinear_triples_bruteforce(ps)
            if p <= 101
            else count_collinear_triples(ps)
        )
        if wrong_size or triples:
            bad.append(p)
    greedy_bad = [w for w in range(1, 11) if count_collinear_triples(greedy_construct(w))]
    ok = not bad and not greedy_bad
    _criterion(
        9,
        ok,
        f"parabola p<=1009 failures={bad or 'none'}, "
        f"greedy W<=10 failures={greedy_bad or 'none'}",
    )


def test_criterion_10_determinism_and_round_trips(big_run, tmp_path):
    big_man, _, _ = big_run
    man_a = TrialManifest(
        base_seed=77, trial_count=3, c=0.25, window_exponent=8,
        out_dir=str(tmp_path / "a"),
    )
    run_trials(man_a)
    snapshot = {p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()}
    run_trials(man_a)
    identical = snapshot == {
        p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()
    }
    # a twin differing only in output directory must agree on every file
    # except the aggregate JSON, whose manifest echo names that directory
    run_trials(replace(man_a, out_dir=str(tmp_path / "b")))
    files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    identical = identical and files_b == sorted(snapshot) and all(
        (tmp_path / "b" / name).read_bytes() == snapshot[name]
        for name in files_b
        if name != "aggregate.json"
    )
    round_trips = True
    for d in (tmp_path / "a", Path(big_man.out_dir)):
        for f in sorted(d.glob("*.tsv")):
            ps = read_pointset(f)
            copy = tmp_path / "copy.tsv"
            write_pointset(ps, copy)
            round_trips = round_trips and copy.read_bytes() == f.read_bytes()
    ok = identical and round_trips
    _criterion(
        10,
        ok,
        f"twin manifests byte-identical={identical}, "
        f"all emitted PointSet files round-trip={round_trips}",
    )
