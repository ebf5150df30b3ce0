"""Smoke runs of the paper experiments: each committed config under
`experiments/` runs through the command line on a tiny case, and
`scripts/benchmark_tables.py` runs as its own process, exits with status 0
and leaves no temporary file behind."""

import glob
import inspect
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from dlekrylov.cli import build_spec_and_config, load_config, main
from dlekrylov.problems import build_problem
from dlekrylov.solvers import Trajectory, full_grid_run, krylov_steps

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SCRIPTS = os.path.join(ROOT, "scripts")
SRC = os.path.abspath(os.path.join(ROOT, "src"))
EXPERIMENTS = sorted(glob.glob(os.path.join(ROOT, "experiments", "*.json")))


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


def test_every_paper_experiment_has_a_config():
    names = [os.path.basename(p) for p in EXPERIMENTS]
    assert names == ["compare_with_reference.json", "error_bound_curves.json",
                     "residual_vs_m_eba_bdf.json", "residual_vs_m_eba_exp.json"]


@pytest.mark.parametrize("path", EXPERIMENTS,
                         ids=[os.path.basename(p)[:-5] for p in EXPERIMENTS])
def test_experiment_runs_through_the_cli(tmp_path, path):
    cfg = load_config(path)
    build_spec_and_config(cfg)
    # a config with a sweep section is a sweep over m; any other compares
    # both methods with the dense reference
    cfg["problem"]["n0"] = 6
    if "sweep" in cfg:
        command, header = "sweep", "axis_value,residual,error,bound_eq19"
        cfg["solver"]["m_max"] = 3
        cfg["sweep"]["values"] = [m for m in cfg["sweep"]["values"] if m <= 3]
    else:
        command = "compare"
        header = "t,rel_diff_exp,rel_diff_bdf,x11_ref,x11_exp,x11_bdf"
        cfg["problem"].update(tf=0.2, h=0.01)
    small = tmp_path / "small.json"
    small.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([command, "--config", str(small), "--out", str(out)]) == 0
    lines = (out / f"{command}.csv").read_text().splitlines()
    assert lines[0] == header and len(lines) > 1

    if os.path.basename(path).startswith("residual_vs_m"):
        # each row is the residual at tf of step m's full grid
        spec, config = build_spec_and_config(cfg)
        op, B, grid = build_problem(spec)
        expected = [[step.decomposition.m,
                     full_grid_run(step, grid, config)[2].residual_final]
                    for step in krylov_steps(op, B, np.zeros((spec.n, 0)), config)]
        got = [[int(m), float(r)] for m, r, _, _ in
               (line.split(",") for line in lines[1:])]
        assert got == expected and [m for m, _ in got] == [1, 2, 3]


def test_benchmark_tables_prints_a_row_per_method(tmp_path):
    proc = _run(tmp_path, "benchmark_tables.py", "--sizes", 100, "--m-max", 3)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert [row[:2] for row in rows] == [["100", "eba_exp"], ["100", "eba_bdf"]]


def test_output_diff_names_the_files_a_changed_constant_moves(tmp_path):
    # the same tree on both sides is identical, gen-problem's files
    # included; a copy with a higher rank threshold moves the rank column,
    # the report's final rank and the factor's width
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps({
        "problem": {"kind": "convdiff", "n0": 6, "s": 2, "seed": 7,
                    "t0": 0.0, "tf": 0.1, "h": 0.01},
        "solver": {"m_max": 6, "tol": 1e-8},
        "output": {"write_factor": True}}))
    base = tmp_path / "base"
    shutil.copytree(SRC, base / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    runs = [tmp_path / "same", tmp_path / "moved"]
    for run in runs:
        run.mkdir()
    proc = _run(runs[0], "output_diff.py", base, "--config", config)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for file in ("A.mtx", "B.mtx", "problem.json"):
        assert f"  {file}: identical" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "all 6 files identical"

    solvers_py = base / "src" / "dlekrylov" / "solvers.py"
    text = solvers_py.read_text()
    assert "\n_RANK_THRESHOLD = 1e-12\n" in text
    solvers_py.write_text(text.replace("\n_RANK_THRESHOLD = 1e-12\n",
                                       "\n_RANK_THRESHOLD = 1e-4\n"))
    proc = _run(runs[1], "output_diff.py", base, "--config", config)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == (
        "3 differ: tiny/solution.csv, tiny/report.json, tiny/factor_tf.mtx")
    assert "    rank: " in proc.stdout and "residual_frobenius" not in proc.stdout


def test_output_diff_compares_the_sweep_a_config_names(tmp_path):
    # a config with a sweep section runs `sweep` besides `solve`, and its
    # sweep.csv is compared column by column
    config = tmp_path / "tiny_sweep.json"
    config.write_text(json.dumps({
        "problem": {"kind": "convdiff", "n0": 6, "s": 2, "seed": 7,
                    "t0": 0.0, "tf": 0.1, "h": 0.01},
        "solver": {"m_max": 4, "tol": 1e-8},
        "sweep": {"axis": "m", "values": [1, 2, 3]}}))
    base = tmp_path / "base"
    shutil.copytree(SRC, base / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    runs = [tmp_path / "same", tmp_path / "moved"]
    for run in runs:
        run.mkdir()
    proc = _run(runs[0], "output_diff.py", base, "--config", config)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "  sweep.csv: identical" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "all 6 files identical"

    # a coarser panel rule moves the step pair, so every residual
    solvers_py = base / "src" / "dlekrylov" / "solvers.py"
    text = solvers_py.read_text()
    assert "\n_QUADRATURE_ORDER = 4\n" in text
    solvers_py.write_text(text.replace("\n_QUADRATURE_ORDER = 4\n",
                                       "\n_QUADRATURE_ORDER = 2\n"))
    proc = _run(runs[1], "output_diff.py", base, "--config", config)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "tiny_sweep/sweep.csv" in proc.stdout.splitlines()[-1]
    sweep = proc.stdout.split("  sweep.csv: differs")[1]
    assert "    residual: " in sweep


def test_output_diff_runs_compare_for_a_committed_experiment(tmp_path):
    # a --config file in experiments/ runs as the default set runs it:
    # without a sweep section, that is solve and compare
    base = tmp_path / "base"
    shutil.copytree(SRC, base / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "output_diff.py", base, "--config",
                os.path.join(ROOT, "experiments", "compare_with_reference.json"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for file in ("solution.csv", "compare.csv", "compare.json"):
        assert f"  {file}: identical" in proc.stdout


def test_output_diff_compares_the_files_gen_problem_writes(tmp_path):
    # a heat_fem config also runs gen-problem; a copy whose coordinate
    # writer scales every value by 1 + eps moves M.mtx and K.mtx only
    config = tmp_path / "tiny_heat.json"
    config.write_text(json.dumps({
        "problem": {"kind": "heat_fem", "n": 100, "s": 2, "seed": 7,
                    "t0": 0.0, "tf": 0.1, "h": 0.01},
        "solver": {"m_max": 6, "tol": 1e-8},
        "output": {"write_factor": True}}))
    base = tmp_path / "base"
    shutil.copytree(SRC, base / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    runs = [tmp_path / "same", tmp_path / "moved"]
    for run in runs:
        run.mkdir()
    proc = _run(runs[0], "output_diff.py", base, "--config", config)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for file in ("M.mtx", "K.mtx", "F.mtx", "problem.json"):
        assert f"  {file}: identical" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "all 7 files identical"

    mmio_py = base / "src" / "dlekrylov" / "mmio.py"
    text = mmio_py.read_text()
    assert "\n    A = coo_matrix(A)\n" in text
    mmio_py.write_text(text.replace(
        "\n    A = coo_matrix(A)\n",
        "\n    A = coo_matrix(A)\n    A.data = A.data * (1.0 + 2.0 ** -52)\n"))
    proc = _run(runs[1], "output_diff.py", base, "--config", config)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == (
        "2 differ: tiny_heat/M.mtx, tiny_heat/K.mtx")
    # the values moved at rounding level
    moved = proc.stdout.split("  M.mtx: differs")[1].splitlines()[1]
    assert moved.startswith("    values: ") and 0 < float(moved.split()[1]) < 1e-15


def test_output_diff_refuses_an_unknown_base(tmp_path):
    proc = _run(tmp_path, "output_diff.py", "no-such-revision", "--config",
                os.path.join(ROOT, "experiments", "compare_with_reference.json"))
    assert proc.returncode == 2 and "no-such-revision" in proc.stderr


def _line_of(fn, text):
    """The line number of the first line of `fn` that reads `text`."""
    lines, first = inspect.getsourcelines(fn)
    return first + [line.strip() for line in lines].index(text)


def test_line_trace_lists_the_lines_a_run_leaves_unrun(tmp_path):
    # a solve with a nonzero B never takes krylov_steps' early return, and
    # an eba-exp solve from X0 = 0 counts its ranks at the batch ends, so
    # the per-node default of Trajectory.ranks, which is also the exp grid
    # rank pass's fallback, stays unrun
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps({
        "problem": {"kind": "convdiff", "n0": 6, "s": 2, "t0": 0.0,
                    "tf": 0.1, "h": 0.01},
        "solver": {"method": "eba_exp", "m_max": 4, "tol": 1e-8}}))
    proc = _run(tmp_path, "line_trace.py", config, "--function", "krylov_steps",
                "--function", "Trajectory.ranks", "--function",
                "_run_gram_grid.<locals>.count")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    unrun = [line.split(":")[1] for line in proc.stdout.splitlines()
             if line.startswith("src/dlekrylov/solvers.py:")]
    assert str(_line_of(krylov_steps, "return")) in unrun
    assert str(_line_of(krylov_steps, "broke = False")) not in unrun
    assert str(_line_of(Trajectory.ranks, "_count_each(((G, None) for G in "
                        "self.replay()), out, tau)")) in unrun
    assert str(_line_of(Trajectory.ranks, "if self.count is None or not "
                        "self.count(out, tau):")) not in unrun
    assert str(_line_of(Trajectory.ranks, "tau = _RANK_THRESHOLD")) not in unrun
    assert "# ran solve on tiny.json: exit 3" in proc.stdout
    assert "m=4" in proc.stderr and "m=4" not in proc.stdout
    assert sorted(os.listdir(tmp_path)) == ["tiny.json", "tmpdir"]
