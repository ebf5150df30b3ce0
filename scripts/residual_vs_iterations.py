#!/usr/bin/env python3
"""Residual norm at the final time versus the number of Arnoldi
iterations, for both solvers on the convection-diffusion benchmark.
Writes one CSV per method (plot-ready) and prints the per-m ratios.

Values for m below the last step come from each solver's probe pass,
which reaches tf by one composed step once its decision is made, so they
agree with a full grid run at rounding level. On eba-bdf that pass runs
the PSD-screened grid only over its first `_PROBE_STRIDE` (10) steps and the
unscreened recurrence from there to tf, so a value there also differs
from a full grid run where that run clips. The last step's value is from
the full grid."""

import argparse
import sys
import time

import numpy as np

from dlekrylov import (SolverConfig, TimeGrid, gen_convdiff, gen_random_block,
                       solve_eba_bdf, solve_eba_exp, wrap_sparse)


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
    for name, solver, extra in (("eba_exp", solve_eba_exp, {}),
                                ("eba_bdf", solve_eba_bdf, {"bdf_order": 2})):
        t0 = time.perf_counter()
        traj = solver(op, B, None, grid,
                      SolverConfig(m_max=args.m_max, tol=1e-300, **extra))
        elapsed = time.perf_counter() - t0
        rows = [(r.m, r.residual_final) for r in traj.iterations]
        curves[name] = dict(rows)
        path = f"{args.out_prefix}_{name}.csv"
        import os

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
