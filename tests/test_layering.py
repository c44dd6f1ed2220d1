"""The package's module layering, read from the source with ast.

Only module-level imports count: a command that imports a module when it
runs (the cli's batch commands and experiments) does not make that
module load with its importer.  The expected sets are the layering the
package docstring states.
"""

import ast
from pathlib import Path

import no3l

LAYERS = {
    "__init__": {"construct", "sampling", "triples"},
    "sampling": set(),
    "parallel": set(),
    "triples": {"sampling"},
    "construct": {"sampling", "triples"},
    "analytics": {"parallel", "sampling"},
    "experiments": {"analytics", "construct", "parallel", "sampling", "triples"},
    "cli": {"construct", "sampling", "triples"},
}


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


def test_module_imports_follow_the_layering():
    src = Path(no3l.__file__).parent
    seen = {path.stem: _package_imports(path) for path in sorted(src.glob("*.py"))}
    assert seen == LAYERS
