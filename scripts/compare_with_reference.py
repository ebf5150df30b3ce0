#!/usr/bin/env python3
"""Desk-scale sanity run: both solvers against the dense reference on the
convection-diffusion benchmark (n = n0^2), reporting the relative
differences at the final time and the x11 trace. Mirrors the small
validation experiment before trusting the large runs."""

import argparse
import json
import os
import sys

from dlekrylov.cli import main as cli_main


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n0", type=int, default=10)
    ap.add_argument("--s", type=int, default=2)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--h", type=float, default=1e-3)
    ap.add_argument("--tf", type=float, default=2.0)
    ap.add_argument("--out", default="runs/compare")
    args = ap.parse_args()

    cfg = {
        "problem": {"kind": "convdiff", "n0": args.n0, "s": args.s,
                    "seed": args.seed, "t0": 0.0, "tf": args.tf, "h": args.h},
        "solver": {"m_max": 30, "tol": 1e-10, "bdf_order": 2},
    }
    # the config stays next to the outputs it produced
    os.makedirs(args.out, exist_ok=True)
    cfg_path = os.path.join(args.out, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    code = cli_main(["compare", "--config", cfg_path, "--out", args.out])
    report = json.load(open(os.path.join(args.out, "compare.json")))
    print(json.dumps(report, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
