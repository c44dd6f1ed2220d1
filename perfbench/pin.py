"""Write expected.json: each workload's outputs at the default seed.

Run from the repository root, at a commit whose outputs are trusted:

    python3 perfbench/pin.py

The benchmark then counts any byte (or, for lemmas-t7 floats, any value
beyond 1e-12 relative) that differs from these pins as a failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import OUT, WORKERS, import_no3l, run_pass
from workloads import DEFAULT_SEED, EXPECTED, WORKLOADS


def main() -> int:
    cli = import_no3l()
    os.environ["NO3L_THREADS"] = str(WORKERS)
    pins = {}
    for name, cls in WORKLOADS.items():
        workload = cls(DEFAULT_SEED)
        work = OUT / f"pin-{name}"
        shutil.rmtree(work, ignore_errors=True)
        calls, wall, _ = run_pass(workload, work, cli.main)
        pins[name] = workload.pins_of(work, calls)
        shutil.rmtree(work)
        print(f"{name}: pinned in {wall:.1f} s")
    text = json.dumps(pins, sort_keys=True, separators=(",", ":"))
    EXPECTED.write_text(text + "\n", encoding="ascii")
    print(f"wrote {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
