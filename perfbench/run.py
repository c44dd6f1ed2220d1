"""Benchmark of the no3l command line: end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload stats-w13 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

Each workload is a fixed list of ``no3l`` command lines (see workloads.py),
called in-process through ``no3l.cli.main`` from the checkout's ``src``.

``--trace 0`` repeats the workload's calls with NO3L_THREADS=2 while another
pass still fits in ``--seconds`` (at least once) and reports the medians of
wall_s and cpu_s, plus setup_s and peak_rss_mb.  ``--trace 1`` makes one
untraced pass with 2 workers and one traced pass with 1 worker, compares
their output bytes, and reports the per-layer metrics of the traced pass.
Every output is checked.  The last line of standard output is one JSON
object: correct, attempted, failed and metrics.  Reports and span traces go
to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import LAYER_METRICS, Tracer, layer_metrics
from workloads import WORKLOADS, Call, Checks, output_files

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# Worker count of untimed-vs-traced comparisons and of every timed pass: the
# nproc of the 2-core machine the workloads were sized on.  Set here, never
# inherited from the environment.
WORKERS = 2
SETUP_REPEATS = 9

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

_IMPORT_PROBE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import numpy, no3l.cli\n"
    "print(time.perf_counter() - start)\n"
)


def import_no3l():
    """Import no3l.cli from this checkout's src, or raise ImportError."""
    sys.path.insert(0, str(SRC))
    import no3l.cli

    home = Path(no3l.cli.__file__).resolve().parent
    if home != SRC / "no3l":
        raise ImportError(f"no3l imported from {home}, not from {SRC / 'no3l'}")
    return no3l.cli


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def setup_samples(workload, scratch: Path, count: int) -> list[float]:
    """Seconds of fresh-interpreter imports plus writing the workload's inputs."""
    samples = []
    for i in range(count):
        probe = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        start = time.perf_counter()
        work = scratch / f"setup{i}"
        work.mkdir(parents=True)
        workload.prepare(work)
        samples.append(float(probe.stdout) + time.perf_counter() - start)
    shutil.rmtree(scratch)
    return samples


def _call(main, argv: list[str]) -> Call:
    out, err = io.StringIO(), io.StringIO()
    status = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(list(argv))
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback from main is a failed check, not a crash
            traceback.print_exc()
    return Call(list(argv), status, out.getvalue(), err.getvalue(), time.perf_counter() - start)


def run_pass(workload, work: Path, main) -> tuple[list[Call], float, float]:
    """The workload's calls, run in work; returns calls, wall and cpu seconds."""
    work.mkdir(parents=True)
    workload.prepare(work)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        cpu0 = _cpu_seconds()
        start = time.perf_counter()
        calls = [_call(main, argv) for argv in workload.argvs()]
        wall = time.perf_counter() - start
        cpu = _cpu_seconds() - cpu0
    finally:
        os.chdir(cwd)
    return calls, wall, cpu


def timed_run(workload, run_dir: Path, seconds: float, main, checks: Checks) -> dict:
    os.environ["NO3L_THREADS"] = str(WORKERS)
    # Set-up time drifts with the machine over seconds, so half the set-ups
    # run before the passes and half after them.
    setups = setup_samples(workload, run_dir / "setup", SETUP_REPEATS // 2 + 1)
    walls, cpus, call_seconds = [], [], []
    start = time.perf_counter()
    while True:
        work = run_dir / f"pass{len(walls)}"
        calls, wall, cpu = run_pass(workload, work, main)
        workload.check(work, calls, checks)
        shutil.rmtree(work)
        walls.append(wall)
        cpus.append(cpu)
        call_seconds.append([call.seconds for call in calls])
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    setups += setup_samples(workload, run_dir / "setup", SETUP_REPEATS // 2)
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": _peak_rss_mb(),
    }
    passes = {"wall_s": walls, "cpu_s": cpus, "call_seconds": call_seconds, "setup_s": setups}
    return {"metrics": metrics, "passes": passes}


def compare_outputs(a: Path, calls_a, b: Path, calls_b, checks: Checks) -> None:
    """The traced pass must print and write exactly what the untraced one did."""
    files_a, files_b = output_files(a), output_files(b)
    checks.check(files_a.keys() == files_b.keys(), "traced pass wrote other files")
    for name in sorted(files_a.keys() & files_b.keys()):
        checks.check(
            files_a[name].read_bytes() == files_b[name].read_bytes(),
            f"{name}: traced (1 worker) and untraced ({WORKERS} workers) bytes differ",
        )
    for ca, cb in zip(calls_a, calls_b):
        checks.check(
            (ca.status, ca.stdout, ca.stderr) == (cb.status, cb.stdout, cb.stderr),
            f"{' '.join(ca.argv)}: traced and untraced output differ",
        )


def traced_run(workload, run_dir: Path, main, checks: Checks) -> dict:
    os.environ["NO3L_THREADS"] = str(WORKERS)
    untraced = run_dir / "untraced"
    calls_a, wall_a, cpu_a = run_pass(workload, untraced, main)

    os.environ["NO3L_THREADS"] = "1"
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_dir / "traced"
        calls_b, wall_b, _ = run_pass(workload, traced, tracer.traced("cli.main", main))
    finally:
        tracer.uninstall()

    workload.check(untraced, calls_a, checks)
    workload.check(traced, calls_b, checks)
    compare_outputs(untraced, calls_a, traced, calls_b, checks)
    metrics = layer_metrics(tracer, wall_b, cpu_a / (wall_a * WORKERS))
    trace_file = OUT / f"trace-{workload.name}-seed{workload.seed}.jsonl"
    tracer.write_jsonl(trace_file)
    return {
        "metrics": metrics,
        "untraced": {"wall_s": wall_a, "cpu_s": cpu_a, "workers": WORKERS},
        "traced": {
            "wall_s": wall_b, "workers": 1, "spans": len(tracer.spans),
            "unattributed_frac": 1.0 - tracer.root_seconds() / wall_b,
            "missing_hooks": tracer.missing, "trace_file": trace_file.name,
        },
    }


def git_commit() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="ascii").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text(encoding="ascii").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="ascii").splitlines():
            sha, _, ref_name = line.partition(" ")
            if ref_name == name:
                return sha
    return None


def environment(workload, trace: int) -> dict:
    import numpy

    seeds = workload.program_seeds()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "NO3L_THREADS": [WORKERS, 1] if trace else [WORKERS],
        "git_commit": git_commit(),
        "workload_seed": workload.seed,
        "program_seeds": {"first": seeds[0], "last": seeds[-1], "count": len(seeds)},
        "argv": workload.argvs(),
    }


def run_one(args) -> int:
    try:
        cli = import_no3l()
    except ImportError as exc:
        print(f"error: cannot import no3l from {SRC}: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.size)
    run_dir = OUT / f"work-{workload.name}-{os.getpid()}"
    OUT.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    try:
        if args.trace:
            result = traced_run(workload, run_dir, cli.main, checks)
            units = {name: spec[0] for name, spec in LAYER_METRICS.items()}
        else:
            result = timed_run(workload, run_dir, args.seconds, cli.main, checks)
            units = END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics = {
        name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()
    }
    failed_frac = checks.failed / checks.attempted if checks.attempted else 1.0
    report = {
        "workload": workload.name,
        "why": workload.why,
        "trace": args.trace,
        "size": args.size,
        "environment": environment(workload, args.trace),
        "metrics": {
            name: {**m, "computed": LAYER_METRICS[name][2]} if args.trace else m
            for name, m in metrics.items()
        },
        "failed_frac": failed_frac,
        "failures": checks.failures,
        **{k: v for k, v in result.items() if k != "metrics"},
    }
    report_file = OUT / f"{workload.name}-seed{workload.seed}-trace{args.trace}.json"
    report_file.write_text(json.dumps(report, indent=2) + "\n", encoding="ascii")

    for failure in checks.failures:
        print(f"FAILED: {failure}")
    env = report["environment"]
    print(f"environment: {env['nproc']} cpus, python {env['python']}, numpy {env['numpy']}, "
          f"NO3L_THREADS {env['NO3L_THREADS']}, commit {env['git_commit']}, seed {workload.seed}")
    for name, m in report["metrics"].items():
        label = "  [computed]" if m.get("computed") else ""
        print(f"{workload.name}  {name:42s} {m['value']:.6g} {m['unit']}{label}")
    print(f"{workload.name}  {'failed_frac':42s} {failed_frac:.6g} ratio "
          f"({checks.failed} of {checks.attempted} checks)")
    print(f"report: {report_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process of its own, then one table."""
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        rows.append((name, json.loads(proc.stdout.splitlines()[-1])))
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, result in rows:
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        metrics = dict(result["metrics"])
        metrics["failed_frac"] = {"value": result["failed"] / result["attempted"], "unit": "ratio"}
        for metric, m in metrics.items():
            print(f"{name:18s} {metric:42s} {m['value']:.6g} {m['unit']}")
            total["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(total))
    return 0


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1, pinned)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure passes while another fits in this time (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny sizes (W <= 6, T <= 4) for testing the harness")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
