"""Smoke runs of the experiment scripts: each runs as its own process on a
tiny case, exits with status 0, writes the file it names and leaves no
temporary file behind."""

import os
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SCRIPTS = os.path.join(ROOT, "scripts")
SRC = os.path.abspath(os.path.join(ROOT, "src"))


def _run(tmp_path, script, *args):
    """Run `script` in tmp_path with its own empty TMPDIR, and check that
    the script leaves nothing there."""
    tmpdir = tmp_path / "tmpdir"
    tmpdir.mkdir()
    env = dict(os.environ, TMPDIR=str(tmpdir),
               PYTHONPATH=os.pathsep.join(
                   p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, os.path.join(SCRIPTS, script),
                           *map(str, args)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert os.listdir(tmpdir) == [], f"{script} left temporary files"
    return proc


def _residuals_are_full_grid_values(tmp_path):
    """Each value of residual_vs_iterations.py's CSVs (--n0 6 --m-max 3 and
    the script's defaults) is the residual at tf of step m's full grid."""
    from dlekrylov import SolverConfig, TimeGrid, gen_convdiff, gen_random_block
    from dlekrylov.solvers import full_grid_run, krylov_steps
    from dlekrylov.sparsela import wrap_sparse

    op = wrap_sparse(gen_convdiff(6))
    B = gen_random_block(36, 2, seed=7)
    grid = TimeGrid(0.0, 2.0, 1e-3)
    for method in ("eba_exp", "eba_bdf"):
        config = SolverConfig(method=method, m_max=3, bdf_order=2)
        expected = [(step.m, full_grid_run(step, grid, config)[2].residual_final)
                    for step in krylov_steps(op, B, np.zeros((36, 0)), grid, config)]
        lines = (tmp_path / f"out/res_{method}.csv").read_text().splitlines()
        got = [(int(m), float(r)) for m, r in (line.split(",") for line in lines[1:])]
        assert got == expected and [m for m, _ in got] == [1, 2, 3]


@pytest.mark.parametrize("script,args,outputs,check", [
    pytest.param("residual_vs_iterations.py",
                 ["--n0", 6, "--m-max", 3, "--out-prefix", "out/res"],
                 [("out/res_eba_exp.csv", "m,residual_tf"),
                  ("out/res_eba_bdf.csv", "m,residual_tf")],
                 _residuals_are_full_grid_values,
                 id="residual_vs_iterations"),
    pytest.param("error_bound_curves.py",
                 ["--n0", 6, "--m-max", 3, "--out", "out"],
                 [("out/sweep.csv", "axis_value,residual,error,bound_eq19")],
                 None, id="error_bound_curves"),
    pytest.param("compare_with_reference.py",
                 ["--n0", 6, "--tf", 0.2, "--h", 0.01, "--out", "out"],
                 [("out/compare.csv",
                   "t,rel_diff_exp,rel_diff_bdf,x11_ref,x11_exp,x11_bdf")],
                 None, id="compare_with_reference"),
])
def test_script_writes_its_csv(tmp_path, script, args, outputs, check):
    proc = _run(tmp_path, script, *args)
    assert proc.returncode == 0, proc.stderr
    for name, header in outputs:
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == header and len(lines) > 1
    if check is not None:
        check(tmp_path)


def test_benchmark_tables_prints_a_row_per_method(tmp_path):
    proc = _run(tmp_path, "benchmark_tables.py", "--sizes", 100, "--m-max", 3)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert [row[:2] for row in rows] == [["100", "eba_exp"], ["100", "eba_bdf"]]
