"""Smoke tests for the narrative scripts under demos/.

Each script runs in a subprocess at a small size, in a temporary working
directory (build_and_repair writes its point files there), and must exit 0:
the demos use the library API, so a change that removes or renames what
they call shows here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import no3l

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "script, flags",
    [
        ("build_and_repair.py", ["--window", "8"]),
        ("expectation_and_variance.py", ["--tmax", "4", "--trials", "20"]),
        ("density_curve.py", ["--window", "8", "--trials", "3"]),
    ],
)
def test_demo_runs(tmp_path, script, flags):
    # the child imports the package this suite imported
    src = os.path.dirname(os.path.dirname(no3l.__file__))
    paths = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script), *flags],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
