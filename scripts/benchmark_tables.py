#!/usr/bin/env python3
"""Benchmark table runs: final-time residual norm and iteration count for
the two example problems over a list of sizes. Runtime columns are
hardware-dependent and only informative."""

import argparse
import sys
import time

from dlekrylov import ProblemSpec, SolverConfig, build_problem, solve


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--example", choices=["convdiff", "heat"], default="convdiff")
    ap.add_argument("--sizes", type=int, nargs="+", default=[2500, 6400])
    ap.add_argument("--methods", nargs="+", choices=["eba_exp", "eba_bdf"],
                    default=["eba_exp", "eba_bdf"])
    ap.add_argument("--m-max", type=int, default=30)
    ap.add_argument("--tol", type=float, default=1e-10)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    print(f"{'n':>8} {'method':>8} {'residual':>12} {'m':>4} {'time [s]':>9}")
    for n in args.sizes:
        # ProblemSpec defaults: grid [0, 2] with h = 1e-3, B of 2 columns,
        # and on heat_fem dt = 0.01, alpha = 0.05
        if args.example == "convdiff":
            n0 = int(round(n ** 0.5))
            if n0 * n0 != n:
                print(f"skipping n={n}: not a perfect square", file=sys.stderr)
                continue
            spec = ProblemSpec(kind="convdiff", n0=n0, seed=args.seed)
        else:
            spec = ProblemSpec(kind="heat_fem", n=n, seed=args.seed)
        op, B, grid = build_problem(spec)
        for method in args.methods:
            config = SolverConfig(method=method, m_max=args.m_max, tol=args.tol)
            t0 = time.perf_counter()
            traj = solve(op, B, None, grid, config)
            elapsed = time.perf_counter() - t0
            print(f"{n:>8} {method:>8} {traj.final_residual:>12.3e} "
                  f"{traj.iterations[-1].m:>4} {elapsed:>9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
