"""Command-line front end: problem setup, solver runs, oracle comparisons
and machine-readable reporting.

A JSON configuration file holds every setting of a run; each subcommand
takes only that file and an output directory.
CSV cells carry 17 significant digits so that identical configurations
reproduce byte-identical files.
"""

import argparse
import dataclasses
import itertools
import json
import math
import numbers
import os
import sys
import time

import numpy as np

from .analysis import (ORACLE_MAX_N, SizeGuardError, StabilityError,
                       error_bound_stable, reference_stream)
from .dense import frob_norm, log_norm_mu2
from .mmio import (MatrixMarketParseError, published, write_matrix_market,
                   write_matrix_market_array)
from .problems import (InputError, ProblemSpec, build_problem, dense_matrix,
                       gen_convdiff, gen_random_block, heat_fem_matrices)
from .solvers import (SolverConfig, TimeGrid, full_grid_run, krylov_steps,
                      solve)
from .sparsela import FactorizationError


def _fmt(x):
    return format(float(x), ".17g")


def _atomic_write(path, text):
    with published(path) as tmp, open(tmp, "w") as fh:
        fh.write(text)


def _finite_or_null(value):
    """`value` with each non-finite float in it, at any depth, as None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _write_json(path, obj):
    """`obj` as strict JSON (RFC 8259), a non-finite float as null."""
    _atomic_write(path, json.dumps(_finite_or_null(obj), indent=2,
                                   allow_nan=False) + "\n")


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(c) if isinstance(c, (int, float, np.floating))
                              else str(c) for c in row))
    _atomic_write(path, "\n".join(lines) + "\n")


class ConfigError(ValueError):
    pass


def load_config(path):
    """The configuration object of the JSON file `path`: its sections are
    objects among problem, solver, output (at most `write_factor`, a bool)
    and sweep (at most `axis` and `values`); anything else, a file that
    cannot be read as UTF-8 text, a NaN, Infinity or -Infinity token,
    which strict JSON (RFC 8259) does not have, and a key given twice in
    one object, whose value JSON leaves open, is a ConfigError."""
    def refuse(token):
        raise ConfigError(f"{path}: {token} is not a JSON number")

    def unique(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"{path}: key {key!r} is given twice")
            obj[key] = value
        return obj

    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh, parse_constant=refuse, object_pairs_hook=unique)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read the configuration: "
                          f"{exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: the configuration is not UTF-8 text: "
                          f"{exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: the configuration must be a JSON object, "
                          f"got {type(cfg).__name__}")
    for name, section in cfg.items():
        if name not in ("problem", "solver", "output", "sweep"):
            raise ConfigError(f"unknown section {name!r}; the sections are "
                              "problem, solver, output and sweep")
        if not isinstance(section, dict):
            raise ConfigError(f"{name} section must be an object, got {section!r}")
    for field, value in cfg.get("output", {}).items():
        if field != "write_factor":
            raise ConfigError(f"output section: unknown field {field!r}")
        if not isinstance(value, bool):
            raise ConfigError(f"output section: write_factor must be true or "
                              f"false, got {value!r}")
    for field in cfg.get("sweep", {}):
        if field not in ("axis", "values"):
            raise ConfigError(f"sweep section: unknown field {field!r}")
    return cfg


def build_spec_and_config(cfg):
    try:
        spec = ProblemSpec.from_dict(cfg.get("problem", {}))
        spec.grid                      # raises on a grid h does not divide
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"problem section: {exc}") from exc
    solver_cfg = cfg.get("solver", {})
    try:
        config = SolverConfig(**solver_cfg)
    except TypeError as exc:
        bad = set(solver_cfg) - set(SolverConfig.__dataclass_fields__)
        if bad:
            raise ConfigError(f"solver section: unknown fields {sorted(bad)}") from exc
        raise ConfigError(f"solver section: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"solver section: {exc}") from exc
    return spec, config


def _iteration_rows(traj):
    """Each step record as a report row, its fields under their own names
    (see `IterationRecord`)."""
    return [{f.name: getattr(rec, f.name) for f in dataclasses.fields(rec)
             if f.metadata.get("report", True)} for rec in traj.iterations]


def _prepare(args):
    """(cfg, spec, config, out_dir) of a subcommand: the configuration file
    read and checked, and the output directory made."""
    cfg = load_config(args.config)
    spec, config = build_spec_and_config(cfg)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    return cfg, spec, config, out_dir


def cmd_solve(args):
    cfg, spec, config, out_dir = _prepare(args)

    t_start = time.perf_counter()
    op, B, grid = build_problem(spec)
    t_build = time.perf_counter() - t_start
    t_start = time.perf_counter()
    traj = solve(op, B, None, grid, config)
    t_solve = time.perf_counter() - t_start
    del op, B                   # the LU factor is not needed past the solve

    t_start = time.perf_counter()
    ranks = traj.ranks()
    t_ranks = time.perf_counter() - t_start
    csv_path = os.path.join(out_dir, "solution.csv")
    _write_csv(csv_path, ["t", "residual_frobenius", "rank"],
               [(t, r, int(k)) for t, r, k in zip(traj.nodes, traj.residuals, ranks)])

    write_factor = cfg.get("output", {}).get("write_factor", False)
    Z = traj.lowrank_factor(-1).Z if write_factor else None
    report = {
        "problem": spec.to_dict(),
        "solver": {f: getattr(config, f) for f in SolverConfig.__dataclass_fields__},
        "method": traj.method,
        "converged": traj.converged,
        "final_m": traj.iterations[-1].m if traj.iterations else 0,
        "final_residual": traj.final_residual,
        "final_rank": int(ranks[-1]),
        "iterations": _iteration_rows(traj),
    }
    del traj                    # nor the Krylov basis past the factor's Z

    factor_path = None
    t_write = 0.0
    if write_factor:
        factor_path = os.path.join(out_dir, "factor_tf.mtx")
        t_write = time.perf_counter()
        write_matrix_market_array(Z, factor_path)
        t_write = time.perf_counter() - t_write

    report["timings_s"] = {"build": t_build, "solve": t_solve, "ranks": t_ranks,
                           "write": t_write,
                           "output": time.perf_counter() - t_start}
    report["outputs"] = {"csv": csv_path, "factor": factor_path}
    _write_json(os.path.join(out_dir, "report.json"), report)
    print(f"{report['method']}: m={report['final_m']} "
          f"residual={report['final_residual']:.3e} "
          f"converged={report['converged']}")
    return 0 if report["converged"] else 3


def _first_basis_row(traj):
    if traj.decomposition is None:
        return np.zeros(0)
    return traj.decomposition.inner_basis[0]


def cmd_compare(args):
    _, spec, config, out_dir = _prepare(args)

    op, B, grid = build_problem(spec)
    traj_exp = solve(op, B, None, grid, dataclasses.replace(config, method="eba_exp"))
    traj_bdf = solve(op, B, None, grid, dataclasses.replace(config, method="eba_bdf"))

    # one pass over the three node streams: random access by node index
    # would replay each trajectory once per node
    oracle_ok = spec.n <= ORACLE_MAX_N
    if oracle_ok:
        refs = (X for _, X in reference_stream(dense_matrix(op), B, None, grid))
    else:
        refs = itertools.repeat(None)
    # x11 = v1 G v1^T with v1 the first row of the basis; a solution is
    # lifted to n x n only to compare it with the oracle
    v1_exp, v1_bdf = _first_basis_row(traj_exp), _first_basis_row(traj_bdf)
    rows = []
    for t, G_e, G_b, X_ref in zip(grid.nodes, traj_exp.replay(),
                                  traj_bdf.replay(), refs):
        x11_e = v1_exp @ G_e @ v1_exp
        x11_b = v1_bdf @ G_b @ v1_bdf
        if X_ref is None:
            rows.append((t, np.nan, np.nan, np.nan, x11_e, x11_b))
            continue
        nref = max(frob_norm(X_ref), 1e-300)
        rows.append((t, frob_norm(traj_exp.lift(G_e) - X_ref) / nref,
                     frob_norm(traj_bdf.lift(G_b) - X_ref) / nref,
                     X_ref[0, 0], x11_e, x11_b))

    csv_path = os.path.join(out_dir, "compare.csv")
    _write_csv(csv_path,
               ["t", "rel_diff_exp", "rel_diff_bdf", "x11_ref", "x11_exp", "x11_bdf"],
               rows)
    report = {
        "problem": spec.to_dict(),
        "oracle": "dense_integral" if oracle_ok else "refused: size guard",
        "final_rel_diff_exp": rows[-1][1],
        "final_rel_diff_bdf": rows[-1][2],
        "converged": {"eba_exp": traj_exp.converged, "eba_bdf": traj_bdf.converged},
        "outputs": {"csv": csv_path},
    }
    _write_json(os.path.join(out_dir, "compare.json"), report)
    if oracle_ok:
        print(f"rel diff at tf: exp={rows[-1][1]:.3e} bdf={rows[-1][2]:.3e}")
    else:
        print("oracle refused (size guard); methods ran")
    return 0


def _reference_final(A, B, grid):
    X = None
    for _, X in reference_stream(A, B, None, grid):
        pass
    return X


def cmd_sweep(args):
    cfg, spec, config, out_dir = _prepare(args)
    sweep = cfg.get("sweep", {})
    axis = sweep.get("axis", "m")
    if axis not in ("m", "h", "p"):
        raise ConfigError(f"sweep axis must be m, h or p, got {axis!r}")
    values = sweep.get("values")
    if values is None:
        values = list(range(1, config.m_max + 1)) if axis == "m" else []
    kind = numbers.Real if axis == "h" else numbers.Integral
    if not isinstance(values, list) or not all(
            isinstance(v, kind) and not isinstance(v, bool)
            and (axis != "m" or v >= 1) for v in values):
        need = {"m": "integers >= 1", "h": "numbers", "p": "integers"}[axis]
        raise ConfigError(f"sweep values on axis {axis} must be a list of {need}, got {values!r}")

    op, B, grid = build_problem(spec)
    oracle_ok = spec.n <= ORACLE_MAX_N
    A = dense_matrix(op) if oracle_ok else None
    mu2 = log_norm_mu2(A) if oracle_ok else None
    refs = {}

    def row(value, g, rec, lift):
        # rec is the record of a full grid run on the grid g
        err = np.nan
        if oracle_ok:
            if g not in refs:
                refs[g] = _reference_final(A, B, g)
            err = frob_norm(lift(rec.small_final) - refs[g])
        bound = np.nan
        if mu2 is not None and mu2 < 0:
            bound = error_bound_stable(mu2, rec.coupling_norm, rec.gbar_sup,
                                       g.t0, g.tf)
        return (value, rec.residual_final, err, bound)

    if axis == "m":
        # one walk over the Krylov steps up to the largest m, with the full
        # grid at the listed m only; an m past a full breakdown has no row
        by_m = {}
        walk = dataclasses.replace(config, m_max=max(values, default=1))
        steps = krylov_steps(op, B, np.zeros((op.dim, 0)), walk) if values else ()
        for step in steps:
            dec = step.decomposition
            if dec.m in values:
                by_m[dec.m] = row(dec.m, grid, full_grid_run(step, grid, walk)[2],
                                  dec.lift)
        rows = [by_m[m] for m in values if m in by_m]
    else:
        # one solve per value, whose grid or BDF order differs; its row
        # reads the last iteration, which always ran the full grid
        try:
            runs = ([(h, config, TimeGrid(spec.t0, spec.tf, h)) for h in values]
                    if axis == "h" else
                    [(p, dataclasses.replace(config, method="eba_bdf",
                                             bdf_order=p), grid)
                     for p in values])
        except ValueError as exc:
            raise ConfigError(f"sweep values: {exc}") from exc
        rows = []
        for value, run_cfg, g in runs:
            traj = solve(op, B, None, g, run_cfg)
            rows.append(row(value, g, traj.iterations[-1], traj.lift))

    csv_path = os.path.join(out_dir, "sweep.csv")
    _write_csv(csv_path, ["axis_value", "residual", "error", "bound_eq19"], rows)
    print(f"sweep over {axis}: {len(rows)} rows -> {csv_path}")
    return 0


def cmd_gen_problem(args):
    _, spec, _, out_dir = _prepare(args)
    outputs = {}
    if spec.kind == "convdiff":
        A = gen_convdiff(spec.n0)
        B = gen_random_block(spec.n, spec.s, spec.seed)
        write_matrix_market(A, os.path.join(out_dir, "A.mtx"))
        write_matrix_market_array(B, os.path.join(out_dir, "B.mtx"))
        outputs = {"A": "A.mtx", "B": "B.mtx"}
    elif spec.kind == "heat_fem":
        M, K = heat_fem_matrices(spec.n, spec.alpha)
        F = gen_random_block(spec.n, spec.s, spec.seed)
        write_matrix_market(M, os.path.join(out_dir, "M.mtx"))
        write_matrix_market(K, os.path.join(out_dir, "K.mtx"))
        write_matrix_market_array(F, os.path.join(out_dir, "F.mtx"))
        outputs = {"M": "M.mtx", "K": "K.mtx", "F": "F.mtx",
                   "note": "A = (M - dt K)^{-1} M is applied implicitly"}
    else:
        print("gen-problem: nothing to generate for external problems",
              file=sys.stderr)
        return 2
    meta = {"problem": spec.to_dict(), "outputs": outputs}
    _write_json(os.path.join(out_dir, "problem.json"), meta)
    print(f"wrote {sorted(v for v in outputs.values() if v.endswith('.mtx'))} to {out_dir}")
    return 0


def make_parser():
    parser = argparse.ArgumentParser(
        prog="dlekrylov",
        description="Low-rank Krylov solvers for differential Lyapunov equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("solve", cmd_solve), ("compare", cmd_compare),
                     ("sweep", cmd_sweep), ("gen-problem", cmd_gen_problem)):
        # an abbreviation is no option: "--h" is not --help
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--out", help="output directory (default: cwd)")
        p.set_defaults(handler=fn)
    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SizeGuardError, StabilityError, MatrixMarketParseError,
            InputError, FactorizationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
