"""The package's module layering, read from the source with ast and
observed in a fresh interpreter.

Only module-level imports count: a command that imports a module when it
runs (the cli's batch commands and experiments) does not make that
module load with its importer.  The expected sets are the layering the
package docstring states.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import no3l

LAYERS = {
    "__init__": set(),
    "sampling": set(),
    "parallel": set(),
    "triples": {"sampling"},
    "construct": {"sampling", "triples"},
    "analytics": {"parallel", "sampling"},
    "experiments": {"analytics", "construct", "parallel", "sampling", "triples"},
    "cli": {"construct", "sampling", "triples"},
}

IMPORT_PROBE = """
import json, sys
import {name}
print(json.dumps({{
    "no3l": sorted(m for m in sys.modules if m.partition(".")[0] == "no3l"),
    "numpy": "numpy" in sys.modules,
}}))
"""


def _package_imports(path: Path) -> set[str]:
    """The package modules that path imports at module level."""
    found = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.add(node.module)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("no3l."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("no3l.")}
    return found


def _closure(module: str) -> set[str]:
    """module and every package module it loads through LAYERS."""
    return {module}.union(*map(_closure, LAYERS[module]))


def test_module_imports_follow_the_layering():
    src = Path(no3l.__file__).parent
    seen = {path.stem: _package_imports(path) for path in sorted(src.glob("*.py"))}
    assert seen == LAYERS


def test_experiments_takes_sampled_sets_from_the_sampler_alone():
    # how seeds share a sampler pass, and how a pass's arrays become
    # PointSets, is decided in no3l.sampling: experiments imports none of
    # its private names and builds no set through PointSet._ordered
    tree = ast.parse((Path(no3l.__file__).parent / "experiments.py").read_text(encoding="utf-8"))
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module, node.level) in (("sampling", 1), ("no3l.sampling", 0))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    ordered = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "_ordered"
    ]
    assert private == [] and ordered == []


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_a_fresh_import_loads_exactly_its_layer(module):
    # the child imports the package this suite imported
    src = os.path.dirname(os.path.dirname(no3l.__file__))
    paths = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    name = "no3l" if module == "__init__" else f"no3l.{module}"
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE.format(name=name)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    expected = {"no3l"} | {f"no3l.{m}" for m in _closure(module) - {"__init__"}}
    assert set(loaded["no3l"]) == expected
    if module in ("__init__", "parallel"):
        assert not loaded["numpy"]
