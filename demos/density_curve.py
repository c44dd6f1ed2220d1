#!/usr/bin/env python3
"""Median density curve of the repaired sets across dyadic box sides.

The quantity tracked is r(n) = |S ∩ [1,n]^2| * sqrt(ln n) / n.  If the
repaired sets kept a constant fraction of the n / sqrt(log n) target,
r(n) would be flat in n; collapse toward zero would mean the deletion
step eats the density at scale.  The script runs a batch of seeded
trials, prints the per-n medians, and compares against the classical
modular-parabola baseline, which manages r(p) around 2.15 on its own
p x p box but is a single box-bound set rather than one set dense in
every box.

Writes a plottable CSV (columns n, median_ratio) when --out is given.

Usage: python3 demos/density_curve.py [--window 12] [--c 0.1] [--trials 10]
"""

import argparse
from pathlib import Path

from no3l.construct import density_profile, modular_parabola
from no3l.experiments import TrialManifest, csv_text, run_trials, verify_theorem


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--window", type=int, default=12)
    ap.add_argument("--c", type=float, default=0.1)
    ap.add_argument("--trials", type=int, default=10)
    ap.add_argument("--base-seed", type=int, default=1)
    ap.add_argument("--out", help="write n,median_ratio CSV here")
    args = ap.parse_args()

    man = TrialManifest(
        base_seed=args.base_seed,
        trial_count=args.trials,
        c=args.c,
        window_exponent=args.window,
    )
    res = run_trials(man, write_files=False)

    per_n = verify_theorem(res, n_min=0, alpha=0.0)["per_n"]
    rows = [(row["n"], row["median_ratio"]) for row in per_n]
    print(f"{args.trials} trials at c={args.c}, window 2^{args.window}-1\n")
    print("      n   median r(n)")
    for n, med in rows:
        print(f"{n:>7} {med:>12.4f}")

    p = 101
    base = density_profile(modular_parabola(p), [p])[0][2]
    print(f"\nmodular parabola p={p} for comparison: r({p}) = {base:.4f}")
    print("(denser, but defined on one box only; the sampled sets extend)")

    if args.out:
        Path(args.out).write_text(csv_text(("n", "median_ratio"), rows), encoding="ascii")
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
