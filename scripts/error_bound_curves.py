#!/usr/bin/env python3
"""Upper bound of the error norm versus the measured error norm at the
final time, as a function of the Arnoldi iteration count, on a desk-scale
stable problem. Writes the plot-ready sweep CSV via the CLI."""

import argparse
import json
import os
import sys

from dlekrylov.cli import main as cli_main


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n0", type=int, default=10)
    ap.add_argument("--m-max", type=int, default=12)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", default="runs/bounds")
    args = ap.parse_args()

    cfg = {
        "problem": {"kind": "convdiff", "n0": args.n0, "s": 2,
                    "seed": args.seed, "t0": 0.0, "tf": 2.0, "h": 1e-3},
        "solver": {"m_max": args.m_max, "tol": 1e-10},
        "sweep": {"axis": "m", "values": list(range(1, args.m_max + 1))},
    }
    # the config stays next to the outputs it produced
    os.makedirs(args.out, exist_ok=True)
    cfg_path = os.path.join(args.out, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    code = cli_main(["sweep", "--config", cfg_path, "--out", args.out])
    print(open(os.path.join(args.out, "sweep.csv")).read())
    return code


if __name__ == "__main__":
    sys.exit(main())
