#!/usr/bin/env python3
"""Walk through one randomized build: sample, repair, verify.

The construction takes a seeded random subset Q of the window, with the
inclusion probability on the dyadic shell of norms [2^T, 2^(T+1))
scaled like c / (2^T sqrt(T)), then deletes from every collinear triple
its largest member under the (norm, x, y) order.  Deleting the largest
member is what makes the per-shell guarantee work: a triple charges the
shell of its largest point, so shell T loses at most Y_(T+1) points,
the number of triples inside the box [1, 2^(T+1)]^2.

This script prints that bookkeeping for one realization, checks the
survivor set is triple free, and writes both point files next to the
chosen output stem.

Usage: python3 demos/build_and_repair.py [--seed 1] [--c 0.1] [--window 10]
"""

import argparse
import math
from pathlib import Path

from no3l.construct import delete_max_with_profile
from no3l.sampling import SamplerConfig, sample_window, shell_counts, write_pointset
from no3l.triples import count_collinear_triples


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--c", type=float, default=0.1)
    ap.add_argument("--window", type=int, default=10)
    ap.add_argument("--out-stem", default="demo_run")
    args = ap.parse_args()

    cfg = SamplerConfig(seed=args.seed, c=args.c, window_exponent=args.window)
    q = sample_window(cfg)
    w = args.window
    # one kernel pass over Q gives both S and Y_T for T = 0 .. w - 1
    s, y = delete_max_with_profile(q, w - 1)

    x = shell_counts(q, w)
    kept = shell_counts(s, w)

    print(f"sampled |Q| = {len(q)}, repaired |S| = {len(s)} "
          f"(seed={args.seed}, c={args.c}, window 2^{w}-1)")
    print()
    print("  T   X_T  kept  floor = X_T - Y_(T+1)")
    for t in range(w - 1):
        floor = x[t] - y[t + 1]
        print(f"{t:>3} {x[t]:>5} {kept[t]:>5}  {floor:>5}")
    print()

    box = 1 << (w - 1)
    triples = count_collinear_triples(s.in_box(box))
    print(f"collinear triples of S inside [1,{box}]^2: {triples}")
    if triples:
        raise SystemExit("repair failed, which should be impossible")

    half = box // 2
    for n in (half, box):
        count = len(s.in_box(n))
        ratio = count * math.sqrt(math.log(n)) / n
        print(f"density at n={n}: {count} points, n/sqrt(ln n) ratio {ratio:.4f}")

    out = Path(f"{args.out_stem}_q.tsv")
    write_pointset(q, out)
    write_pointset(s, Path(f"{args.out_stem}_s.tsv"))
    print(f"wrote {args.out_stem}_q.tsv and {args.out_stem}_s.tsv")


if __name__ == "__main__":
    main()
