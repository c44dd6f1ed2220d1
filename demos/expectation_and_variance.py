#!/usr/bin/env python3
"""Exact triple-count moments against Monte Carlo, per box exponent.

For each box [1, 2^T]^2 the expected number of collinear triples in the
random sample, E[Y_T], is counted exactly (``exact_mean``, and the
``exact_ey`` of ``exact_reports``): each triple is written through its
middle point as p, p + i*w, p + g*w with gcd(i, g) = 1, and the
inclusion probabilities as a sum of nested squares, one per shell, so
the count is a sum of integers over coprime (i, g) and triples of
shells.  The script tabulates that exact value next to the sampled
mean, the normalized mean mean * sqrt(T) / (c^3 2^T), and the sampled
variance next to its three-part upper bound (triple pairs sharing one
point, sharing two points, and the diagonal).

Two things are worth staring at in the output.  Over the exponents the
scans reach (T <= 7), the normalized mean rises, by less at every step
from T = 4 on; exact_mean carries on past that cap and finds it peaking
near 13.1 at T = 9 (c = 0.5) before it falls slowly, the finite-scale
face of an O(c^3 2^T / sqrt(T)) expectation.  The cubed-weight sum,
the classical majorant for that expectation, grows much faster; it is
dominated by the huge family of lines carrying just two box points, so
it is a loose certificate here, and the exact value is the one worth
trusting.

Usage: python3 demos/expectation_and_variance.py [--c 0.5] [--tmax 6] [--trials 400]
"""

import argparse
import math

from no3l.analytics import exact_reports
from no3l.experiments import monte_carlo_moments


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--c", type=float, default=0.5)
    ap.add_argument("--tmax", type=int, default=6)
    ap.add_argument("--trials", type=int, default=400)
    ap.add_argument("--base-seed", type=int, default=1)
    args = ap.parse_args()

    ts = list(range(2, args.tmax + 1))
    seeds = range(args.base_seed, args.base_seed + args.trials)
    mc = monte_carlo_moments(ts, args.c, seeds)
    # one exact family scan per exponent serves both tables
    weights, bounds = exact_reports(ts, args.c)

    print(f"c={args.c}, {args.trials} seeds\n")
    print("  T    exact_ey   mc_mean      z    ey_norm    sum_w3_norm")
    prev_norm = None
    for i, ws in enumerate(weights):
        t = ws.T
        se = math.sqrt(mc.y_var[i] / mc.sample_size) or float("nan")
        z = (mc.y_mean[i] - ws.exact_ey) / se
        scale = args.c**3 * 2**t / math.sqrt(t)
        note = ""
        if prev_norm is not None:
            note = f"  (+{ws.exact_ey / scale - prev_norm:.2f})"
        prev_norm = ws.exact_ey / scale
        print(f"{t:>3} {ws.exact_ey:>11.4f} {mc.y_mean[i]:>9.4f} {z:>+6.2f} "
              f"{prev_norm:>9.4f}{note:<10} {ws.sum_w3 / scale:>9.1f}")

    print("\n  T    mc_var    v1+v2+v3 bound")
    for i, vb in enumerate(bounds):
        print(f"{vb.T:>3} {mc.y_var[i]:>9.2f} {vb.var_bound_total:>13.2f}"
              f"   = {vb.v1_bound:.2f} + {vb.v2_bound:.2f} + {vb.v3_bound:.2f}")


if __name__ == "__main__":
    main()
