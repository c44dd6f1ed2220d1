"""Smoke test of the benchmark harness at tiny sizes (W <= 6, T <= 4).

    python -m pytest perfbench/test_smoke.py -q

Runs every workload once untraced and once traced, as separate processes,
and checks the result line against BENCHMARK.json.  Also checks that the
benchmark fails cleanly where the program's sources are missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, _close  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _) in LAYER_METRICS.items()
    ]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_runs_and_checks_its_outputs(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["cli.main.calls"]["value"] == len(
            WORKLOADS[workload](3, "smoke").argvs()
        )


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = _run("--workload", "stats-w13", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(outer)
    outer[3], outer[4], inner[3], inner[4] = 0.0, 10.0, 2.0, 5.0
    assert tracer.self_times() == {"outer": 7.0, "inner": 3.0}
    assert tracer.root_seconds() == 10.0


def test_close_is_exact_on_integers_and_relative_on_floats():
    assert _close({"a": [1, 2.0]}, {"a": [1, 2.0 * (1 + 1e-13)]})
    assert not _close({"a": [1, 2.0]}, {"a": [1, 2.0 * (1 + 1e-11)]})
    assert not _close(2, 3)
    assert not _close(True, 1)
