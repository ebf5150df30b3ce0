#!/usr/bin/env python3
"""Residual norm at the final time versus the number of Arnoldi
iterations, for both solvers on the convection-diffusion benchmark.
Writes one CSV per method (plot-ready) and prints the per-m ratios.

Each method walks one Krylov basis up to `--m-max`, with no tolerance
stop, and runs the full grid at every m, as `dlekrylov sweep` does on its
`m` axis: each value is the residual at tf of the grid over every node of
step m."""

import argparse
import os
import sys
import time

import numpy as np

from dlekrylov import (SolverConfig, TimeGrid, gen_convdiff, gen_random_block,
                       wrap_sparse)
from dlekrylov.solvers import full_grid_run, krylov_steps


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n0", type=int, default=80, help="n = n0^2")
    ap.add_argument("--m-max", type=int, default=19)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--h", type=float, default=1e-3)
    ap.add_argument("--out-prefix", default="runs/residual_vs_m")
    args = ap.parse_args()

    n = args.n0 * args.n0
    A = gen_convdiff(args.n0)
    B = gen_random_block(n, 2, seed=args.seed)
    op = wrap_sparse(A)
    grid = TimeGrid(0.0, 2.0, args.h)

    curves = {}
    for name in ("eba_exp", "eba_bdf"):
        config = SolverConfig(method=name, m_max=args.m_max, bdf_order=2)
        t0 = time.perf_counter()
        rows = [(step.m, full_grid_run(step, grid, config)[2].residual_final)
                for step in krylov_steps(op, B, np.zeros((n, 0)), grid, config)]
        elapsed = time.perf_counter() - t0
        curves[name] = dict(rows)
        path = f"{args.out_prefix}_{name}.csv"
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            fh.write("m,residual_tf\n")
            for m, r in rows:
                fh.write(f"{m},{r:.17g}\n")
        print(f"{name}: {elapsed:.1f}s -> {path}")

    print("\n m   exp residual   bdf residual   ratio")
    for m in sorted(curves["eba_exp"]):
        re_ = curves["eba_exp"][m]
        rb = curves["eba_bdf"].get(m, np.nan)
        print(f"{m:3d}   {re_:.4e}    {rb:.4e}    {re_ / rb:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
