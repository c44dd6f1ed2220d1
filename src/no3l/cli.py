"""Batch command line front end for the sampling/repair pipeline.

Subcommands mirror the library layers: ``sample`` draws a seeded random
window, ``construct`` repairs it by deletion (or builds a baseline set),
``verify`` counts collinear triples exactly, and ``stats`` / ``lemmas``
/ ``bench`` drive the experiment harness and write JSON/CSV reports.

Importing this module loads only what the file commands run: sampling,
triples and construct.  ``stats``, ``lemmas`` and ``bench`` import the
experiments module (and with it analytics and the process pool in
parallel) when they run, so a ``sample``, ``construct`` or ``verify``
process never pays for it.

Every command is deterministic given its flags.  Worker parallelism is
taken from the NO3L_THREADS environment variable (default: machine
parallelism) and never changes output bytes, only wall time.

Exit status: 0 on success, 1 when a requested check fails (a verified
set that still contains a triple, a bench run whose density floor is
violated), 2 on usage errors including flag values outside their
domain and a bench --nmin past every box side the window profiles.
"""

import argparse
import functools
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .construct import (
    PARABOLA_MODULUS_CAP,
    _is_prime,
    delete_max_of_triples,
    greedy_construct,
    modular_parabola,
)
from .sampling import SamplerConfig, read_pointset, sample_window, write_pointset
from .triples import count_collinear_triples


def _u64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"must fit in an unsigned 64-bit word, got {text}")
    return value


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value) or value < 0.0:
        raise argparse.ArgumentTypeError(f"must be finite and nonnegative, got {text}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _prime_int(text: str) -> int:
    value = int(text)
    # the cap comes first: trial division past it would not finish
    if value >= PARABOLA_MODULUS_CAP or not _is_prime(value):
        raise argparse.ArgumentTypeError(
            f"must be a prime below {PARABOLA_MODULUS_CAP}, got {text}"
        )
    return value


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="ascii")
        print(f"wrote {out}")


def _cmd_sample(args: argparse.Namespace) -> int:
    cfg = SamplerConfig(seed=args.seed, c=args.c, window_exponent=args.window)
    ps = sample_window(cfg)
    write_pointset(ps, args.out)
    print(f"wrote {len(ps)} points to {args.out}")
    return 0


def _cmd_construct(args: argparse.Namespace) -> int:
    # each method reads one input flag; before any file is read or written,
    # it must be given and no other method's may be
    inputs = {"delete-max": ("--in", args.infile), "greedy": ("--window", args.window),
              "parabola": ("--p", args.p)}
    for method, (flag, value) in inputs.items():
        if method == args.method and value is None:
            raise ValueError(f"--method {method} needs {flag}")
        if method != args.method and value is not None:
            raise ValueError(f"--method {args.method} does not read {flag}")
    if args.method == "delete-max":
        ps = delete_max_of_triples(read_pointset(args.infile))
    elif args.method == "greedy":
        ps = greedy_construct(args.window)
    else:
        ps = modular_parabola(args.p)
    write_pointset(ps, args.out)
    print(f"wrote {len(ps)} points to {args.out}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    ps = read_pointset(args.infile)
    triples = count_collinear_triples(ps.in_box(args.box) if args.box is not None else ps)
    print(f"triples: {triples}")
    return 0 if triples == 0 else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    from .experiments import TrialManifest, run_trials

    manifest = TrialManifest.from_json_file(args.manifest)
    if args.out is not None:
        manifest = replace(manifest, out_dir=args.out)
    result = run_trials(manifest)
    print(
        f"wrote {manifest.trial_count} trials to {manifest.out_dir}"
        f" (k1_hat={result.k1_hat!r}, k2_hat={result.k2_hat!r})"
    )
    return 0


def _cmd_lemmas(args: argparse.Namespace) -> int:
    from .experiments import json_text, lemma_report, lemma_report_csv

    if args.tmax < args.tmin:
        raise ValueError(f"--tmax must be at least --tmin, got {args.tmin}..{args.tmax}")
    seeds = range(args.base_seed, args.base_seed + args.trials)
    report = lemma_report(range(args.tmin, args.tmax + 1), args.c, seeds)
    if args.format == "json":
        text = json_text(report)
    else:
        text = lemma_report_csv(report)
    _emit(text, args.out)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .experiments import (
        TrialManifest,
        csv_text,
        density_box_sides,
        json_text,
        run_trials,
        verify_theorem,
    )

    manifest = TrialManifest(
        base_seed=args.base_seed,
        trial_count=args.trials,
        c=args.c,
        window_exponent=args.window,
    )
    sides = density_box_sides(args.window)
    if not sides or sides[-1] < args.nmin:
        profiled = f"{sides[0]} to {sides[-1]}" if sides else "none"
        raise ValueError(
            f"--nmin {args.nmin} leaves no box side to check"
            f" (window {args.window} profiles sides: {profiled})"
        )
    result = run_trials(manifest, write_files=False)
    check = verify_theorem(result, n_min=args.nmin, alpha=args.alpha)
    if args.format == "json":
        doc = {
            "manifest": asdict(manifest),
            "k1_hat": result.k1_hat,
            "k2_hat": result.k2_hat,
            "density_check": check,
        }
        text = json_text(doc)
    else:
        text = csv_text(
            ("n", "median_ratio", "ok"),
            (
                (row["n"], row["median_ratio"], row["n"] not in check["failing"])
                for row in check["per_n"]
            ),
        )
    _emit(text, args.out)
    if not check["ok"]:
        failing = ", ".join(str(n) for n in check["failing"])
        print(f"density floor {args.alpha} violated at n = {failing}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="no3l",
        description="Randomized no-three-in-line constructions and their diagnostics.",
        epilog=(
            "NO3L_THREADS caps worker parallelism (default: machine parallelism); "
            "outputs are identical for any worker count."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw a seeded random window and write it")
    p.add_argument("--seed", type=_u64, required=True, help="64-bit sampling seed")
    p.add_argument("--c", type=_nonnegative_float, required=True, help="density constant")
    p.add_argument("--window", type=_positive_int, required=True, help="window exponent W")
    p.add_argument("--out", required=True, help="output PointSet path")
    p.set_defaults(run=_cmd_sample)

    p = sub.add_parser("construct", help="repair a sample or build a baseline set")
    p.add_argument("--in", dest="infile", help="input PointSet (delete-max only)")
    p.add_argument(
        "--method",
        choices=("delete-max", "greedy", "parabola"),
        required=True,
        help="delete-max repairs --in; greedy/parabola generate",
    )
    p.add_argument("--p", type=_prime_int, help="prime modulus for --method parabola")
    p.add_argument("--window", type=_positive_int, help="window exponent for --method greedy")
    p.add_argument("--out", required=True, help="output PointSet path")
    p.set_defaults(run=_cmd_construct)

    p = sub.add_parser("verify", help="count collinear triples in a PointSet file")
    p.add_argument("--in", dest="infile", required=True, help="input PointSet path")
    p.add_argument("--box", type=_positive_int, help="restrict the count to [1,n]^2")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("stats", help="run the trials named by a manifest file")
    p.add_argument("--manifest", required=True, help="JSON manifest path")
    p.add_argument("--out", help="override the manifest's output directory")
    p.set_defaults(run=_cmd_stats)

    p = sub.add_parser("lemmas", help="exact bounds next to Monte Carlo moments")
    p.add_argument("--tmin", type=_positive_int, required=True, help="smallest box exponent")
    p.add_argument("--tmax", type=_positive_int, required=True, help="largest box exponent")
    p.add_argument("--c", type=_nonnegative_float, required=True, help="density constant")
    p.add_argument("--trials", type=_positive_int, required=True, help="number of seeds")
    p.add_argument("--base-seed", type=_u64, default=1, help="first seed (default 1)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(run=_cmd_lemmas)

    p = sub.add_parser("bench", help="sampled density profile against a fixed floor")
    p.add_argument("--window", type=_positive_int, required=True, help="window exponent W")
    p.add_argument("--c", type=_nonnegative_float, required=True, help="density constant")
    p.add_argument("--trials", type=_positive_int, required=True, help="number of trials")
    p.add_argument("--nmin", type=_positive_int, required=True, help="first box side checked")
    p.add_argument("--alpha", type=_nonnegative_float, required=True, help="median ratio floor")
    p.add_argument("--base-seed", type=_u64, default=1, help="first seed (default 1)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(run=_cmd_bench)

    return parser


# Built on the first main call of a process, not at import, and reused by
# every later call: parsing leaves the parser as it was.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
