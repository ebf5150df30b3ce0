import dataclasses
import json
import os

import numpy as np
import pytest

from dlekrylov import cli
from dlekrylov.cli import main
from dlekrylov.solvers import IterationRecord


def _write_cfg(tmp_path, name="cfg.json", **sections):
    path = str(tmp_path / name)
    with open(path, "w") as fh:
        json.dump(sections, fh)
    return path


def _strict_json(path):
    """The JSON file `path`, read as RFC 8259 allows: a NaN, Infinity or
    -Infinity token raises."""
    def refuse(token):
        raise ValueError(f"{path}: {token} is not JSON")

    with open(path) as fh:
        return json.load(fh, parse_constant=refuse)


def _base_problem(**kw):
    prob = {"kind": "convdiff", "n0": 5, "s": 2, "seed": 3,
            "t0": 0.0, "tf": 0.5, "h": 0.01}
    prob.update(kw)
    return prob


def test_solve_writes_report_and_csv(tmp_path):
    cfg = _write_cfg(tmp_path, problem=_base_problem(),
                     solver={"m_max": 12, "tol": 1e-9})
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    report = _strict_json(os.path.join(out, "report.json"))
    assert report["converged"] is True
    assert report["method"] == "eba_exp"
    rows = report["iterations"]
    assert all(row["bdf_basis"] is None for row in rows)
    # stopped walks first; the last step walked every node
    assert rows[-1]["grid"] == "full" and rows[-1]["residual_max"] < 1e-9
    assert [row["grid"] for row in rows[:-1]] == ["probe"] * (len(rows) - 1)
    assert len(rows) > 2
    for row in rows[:-1]:
        # the largest residual over the nodes walked; the one at tf is
        # reached by a composed step pair
        assert row["residual_max"] >= 1e-9 and row["residual_final"] > 0
        assert "residual_probe_max" not in row
    assert all(row["psd_clips"] == 0 for row in rows)    # eba-exp never screens
    # each stopped walk reaches tol in its first batch, nodes 0..9
    assert [row["probe_nodes"] for row in rows] == [10] * (len(rows) - 1) + [None]
    timings = report["timings_s"]
    assert set(timings) == {"build", "solve", "ranks", "write", "output"}
    assert all(v >= 0.0 for v in timings.values())
    assert timings["ranks"] <= timings["output"]      # output is the total
    assert timings["write"] <= timings["output"]
    lines = open(os.path.join(out, "solution.csv")).read().splitlines()
    assert lines[0] == "t,residual_frobenius,rank"
    assert len(lines) == 52          # header + 51 nodes
    last = lines[-1].split(",")
    assert float(last[1]) < 1e-9


def test_solve_zero_b_exits_cleanly(tmp_path):
    from dlekrylov.mmio import write_matrix_market, write_matrix_market_array
    from dlekrylov.problems import gen_convdiff

    a_path, b_path = str(tmp_path / "A.mtx"), str(tmp_path / "B.mtx")
    write_matrix_market(gen_convdiff(5), a_path)
    write_matrix_market_array(np.zeros((25, 2)), b_path)
    cfg = _write_cfg(tmp_path, problem=_base_problem(
        kind="external", a_path=a_path, b_path=b_path))
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    lines = open(os.path.join(out, "solution.csv")).read().splitlines()
    vals = [float(r.split(",")[1]) for r in lines[1:]]
    assert all(v == 0.0 for v in vals)
    assert _strict_json(os.path.join(out, "report.json"))["final_residual"] == 0.0


def test_solve_deterministic_csv(tmp_path):
    cfg = _write_cfg(tmp_path, problem=_base_problem(),
                     solver={"m_max": 8, "tol": 1e-8})
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    main(["solve", "--config", cfg, "--out", out1])
    main(["solve", "--config", cfg, "--out", out2])
    csv1 = open(os.path.join(out1, "solution.csv"), "rb").read()
    csv2 = open(os.path.join(out2, "solution.csv"), "rb").read()
    assert csv1 == csv2


def test_solve_failure_sets_exit_status_but_writes_report(tmp_path):
    cfg = _write_cfg(tmp_path, problem=_base_problem(),
                     solver={"m_max": 2, "tol": 1e-14})
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == 3
    report = _strict_json(os.path.join(out, "report.json"))
    assert report["converged"] is False
    assert report["final_residual"] > 0


def test_solve_writes_factor(tmp_path):
    cfg = _write_cfg(tmp_path, problem=_base_problem(),
                     solver={"m_max": 10, "tol": 1e-8},
                     output={"write_factor": True})
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    from dlekrylov.mmio import read_matrix_market_array

    Z = read_matrix_market_array(os.path.join(out, "factor_tf.mtx"))
    assert Z.shape[0] == 25
    assert Z.shape[1] >= 1
    report = _strict_json(os.path.join(out, "report.json"))
    assert report["outputs"]["factor"] == os.path.join(out, "factor_tf.mtx")


def test_solve_frees_the_operator_before_writing_the_factor(tmp_path, monkeypatch):
    import gc
    import weakref

    from dlekrylov import cli

    refs, alive = [], []
    build = cli.build_problem

    def build_problem(spec):
        op, B, grid = build(spec)
        refs.append(weakref.ref(op))
        return op, B, grid

    write = cli.write_matrix_market_array

    def write_factor(M, path):
        gc.collect()
        alive.append(refs[0]() is not None)
        write(M, path)

    monkeypatch.setattr(cli, "build_problem", build_problem)
    monkeypatch.setattr(cli, "write_matrix_market_array", write_factor)
    for method in ("eba_exp", "eba_bdf"):
        refs.clear()
        cfg = _write_cfg(tmp_path, problem=_base_problem(),
                         solver={"method": method, "m_max": 10, "tol": 1e-8},
                         output={"write_factor": True})
        out = str(tmp_path / method)
        assert main(["solve", "--config", cfg, "--out", out]) == 0
        report = _strict_json(os.path.join(out, "report.json"))
        assert 0.0 < report["timings_s"]["write"] <= report["timings_s"]["output"]
    assert alive == [False, False]


def test_solve_frees_the_basis_before_writing_the_factor(tmp_path, monkeypatch):
    # by reference count alone, so no collection is needed for the basis
    # buffer's pages to be returned before the write
    import weakref

    from dlekrylov import cli

    refs, alive = [], []
    solve_ = cli.solve

    def solve(*args):
        traj = solve_(*args)
        refs.append(weakref.ref(traj.decomposition._buf))
        return traj

    write = cli.write_matrix_market_array

    def write_factor(M, path):
        alive.append(refs[0]() is not None)
        write(M, path)

    monkeypatch.setattr(cli, "solve", solve)
    monkeypatch.setattr(cli, "write_matrix_market_array", write_factor)
    for method in ("eba_exp", "eba_bdf"):
        refs.clear()
        cfg = _write_cfg(tmp_path, problem=_base_problem(),
                         solver={"method": method, "m_max": 10, "tol": 1e-8},
                         output={"write_factor": True})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / method)]) == 0
    assert alive == [False, False]


def _track_grid_data(monkeypatch, build, attr):
    """A list that gains a weak reference to `attr` of the step data each
    call of the grid set-up `solvers.<build>` returns."""
    import weakref

    from dlekrylov import solvers

    refs = []
    make = getattr(solvers, build)

    def tracked(*args):
        data = make(*args)
        refs.append(weakref.ref(getattr(data, attr)))
        return data

    monkeypatch.setattr(solvers, build, tracked)
    return refs


@pytest.mark.parametrize("method,build,attr", [
    ("eba_exp", "_stride_pairs", "E"), ("eba_bdf", "_bdf_setup", "forcing")])
def test_solve_frees_the_grid_data_before_the_factor(tmp_path, monkeypatch,
                                                     method, build, attr):
    # the rank column is the last reader of the last grid's step data (the
    # exp `_Stride` table, the BDF `_BDFSetup`): by reference count alone,
    # no grid's data is alive when the factor is formed
    from dlekrylov import solvers

    refs, alive = _track_grid_data(monkeypatch, build, attr), []
    factor = solvers.Trajectory.lowrank_factor

    def lowrank_factor(self, i=-1):
        alive.append([ref() is not None for ref in refs])
        return factor(self, i)

    monkeypatch.setattr(solvers.Trajectory, "lowrank_factor", lowrank_factor)
    cfg = _write_cfg(tmp_path, problem=_base_problem(),
                     solver={"method": method, "m_max": 10, "tol": 1e-8},
                     output={"write_factor": True})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert len(alive) == 1 and len(alive[0]) > 1 and not any(alive[0])


def test_report_echoes_the_config(tmp_path):
    cfg = _write_cfg(tmp_path, problem=_base_problem(seed=9),
                     solver={"method": "eba_bdf", "bdf_order": 1, "tol": 1e-6,
                             "m_max": 6})
    out = str(tmp_path / "out")
    main(["solve", "--config", cfg, "--out", out])
    report = _strict_json(os.path.join(out, "report.json"))
    assert report["method"] == "eba_bdf"
    assert report["solver"]["bdf_order"] == 1
    assert report["solver"]["tol"] == 1e-6
    assert report["solver"]["m_max"] == 6
    assert report["problem"]["seed"] == 9
    assert "seed" not in report["solver"]
    rows = report["iterations"]
    # the walks of the steps below the last stop early
    assert [row["grid"] for row in rows] == ["probe"] * (len(rows) - 1) + ["full"]
    assert len(rows) > 1
    for row in rows:
        assert row["bdf_basis"] == "eigen"
        assert 1.0 <= row["bdf_cond"] < 1e3
        assert isinstance(row["psd_clips"], int) and row["psd_clips"] >= 0
    # a stopped walk ends after its first batch, nodes 0..9
    assert [row["probe_nodes"] for row in rows] == [10] * (len(rows) - 1) + [None]


def test_report_rows_are_the_step_records(tmp_path, monkeypatch):
    # each row holds every IterationRecord field but gbar_sup, under the
    # field's own name and in the record's order
    trajs = []
    solve = cli.solve
    monkeypatch.setattr(cli, "solve", lambda *args: trajs.append(solve(*args)) or trajs[-1])
    cfg = _write_cfg(tmp_path, problem=_base_problem(),
                     solver={"method": "eba_bdf", "m_max": 6, "tol": 1e-6})
    out = str(tmp_path / "out")
    main(["solve", "--config", cfg, "--out", out])
    rows = _strict_json(os.path.join(out, "report.json"))["iterations"]
    kept = [f.name for f in dataclasses.fields(IterationRecord)
            if f.name != "gbar_sup"]
    assert kept == ["m", "basis_size", "residual_final", "residual_max",
                    "coupling_norm", "elapsed_s", "bdf_basis", "bdf_cond",
                    "grid", "psd_clips", "probe_nodes"]
    assert len(rows) == len(trajs[0].iterations) > 1
    for row, rec in zip(rows, trajs[0].iterations):
        assert list(row) == kept
        assert row == {name: getattr(rec, name) for name in kept}


def test_report_counts_psd_clips(tmp_path, monkeypatch):
    from dlekrylov import solvers

    # a screen that always fails counts every screened node as a clip; a
    # clip that returns a copy changes values at rounding level only
    monkeypatch.setattr(solvers, "_psd_screen", lambda Y, *args: False)
    monkeypatch.setattr(solvers, "_psd_clip", lambda Y: Y.copy())
    cfg = _write_cfg(tmp_path, problem=_base_problem(),
                     solver={"method": "eba_bdf", "bdf_order": 2, "m_max": 6,
                             "tol": 1e-6})
    out = str(tmp_path / "out")
    main(["solve", "--config", cfg, "--out", out])
    rows = _strict_json(os.path.join(out, "report.json"))["iterations"]
    assert len(rows) > 1
    # a stopped walk screens nodes 1..9 of its first batch; the full grid
    # all 50 nodes
    assert [row["psd_clips"] for row in rows] == [9] * (len(rows) - 1) + [50]


def test_config_error_exit_code(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, problem={"kind": "convdiff", "bogus": 1})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
    cfg2 = _write_cfg(tmp_path, name="c2.json", problem=_base_problem(),
                      solver={"not_a_field": 1})
    assert main(["solve", "--config", cfg2, "--out", str(tmp_path)]) == 2
    # the stop test's batch, the quadrature order, the rank threshold and
    # the deflation threshold are constants
    for field in ("probe_stride", "quadrature_order", "dtol", "rank_tol"):
        capsys.readouterr()
        cfg3 = _write_cfg(tmp_path, name="c3.json", problem=_base_problem(),
                          solver={field: 0})
        assert main(["solve", "--config", cfg3, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"unknown fields ['{field}']" in err
    # a known field with a bad value is named with that value
    # JSON true and false are not numbers, though bool is an int
    for field, bad in (("method", "eba-expo"), ("krylov_variant", "blok"),
                       ("tol", "1e-3"), ("m_max", True), ("bdf_order", True),
                       ("tol", True)):
        capsys.readouterr()
        cfg5 = _write_cfg(tmp_path, name="c5.json", problem=_base_problem(),
                          solver={field: bad})
        assert main(["solve", "--config", cfg5, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and field in err and repr(bad) in err
        assert "unknown fields" not in err
    # a bad problem field or time grid is named too, not passed on to the
    # generators; the JSON number -1e400 reads as -inf
    for field, bad in (("n0", 2.5), ("n0", 0), ("n0", True), ("s", True),
                       ("seed", -1), ("h", 1e9), ("t0", -1e400), ("h", "0.01")):
        capsys.readouterr()
        cfg6 = _write_cfg(tmp_path, name="c6.json",
                          problem=_base_problem(**{field: bad}))
        if bad == -1e400:
            # json.dump writes -inf as the token -Infinity, which is no JSON
            c6 = tmp_path / "c6.json"
            c6.write_text(c6.read_text().replace("-Infinity", "-1e400"))
        assert main(["solve", "--config", cfg6, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error: problem section" in err and field in err
    for field, bad in (("dt", -1), ("alpha", 0)):
        capsys.readouterr()
        cfg7 = _write_cfg(tmp_path, name="c7.json",
                          problem={"kind": "heat_fem", "n": 8, field: bad})
        assert main(["solve", "--config", cfg7, "--out", str(tmp_path)]) == 2
        assert field in capsys.readouterr().err
    # configs are strict JSON: a NaN or Infinity token is named, and a tol
    # that reads as inf, from the JSON number 1e400, is no tolerance
    for token in ("Infinity", "-Infinity", "NaN"):
        capsys.readouterr()
        cfg8 = tmp_path / "c8.json"
        cfg8.write_text('{"problem": %s, "solver": {"tol": %s}}'
                        % (json.dumps(_base_problem()), token))
        assert main(["solve", "--config", str(cfg8), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"{token} is not a JSON number" in err
    cfg8.write_text('{"problem": %s, "solver": {"tol": 1e400}}'
                    % json.dumps(_base_problem()))
    assert main(["solve", "--config", str(cfg8), "--out", str(tmp_path)]) == 2
    assert "tol must be a positive finite number" in capsys.readouterr().err
    cfg9 = _write_cfg(tmp_path, name="c9.json", problem=_base_problem(),
                      sweep={"axis": "h", "values": [0.01, 1e9]})
    assert main(["sweep", "--config", cfg9, "--out", str(tmp_path)]) == 2
    # the problem section holds the seed; the solver reads none
    cfg4 = _write_cfg(tmp_path, name="c4.json", problem=_base_problem(),
                      solver={"seed": 1})
    assert main(["solve", "--config", cfg4, "--out", str(tmp_path)]) == 2
    assert "unknown fields ['seed']" in capsys.readouterr().err
    # the file is one object of known sections, each an object, output
    # holds only write_factor, a bool, and sweep only axis and values: a
    # misspelled section or field must not run the defaults, nor a
    # non-object section end in a traceback
    out = tmp_path / "bad-sections"
    for sections, name in (
            ({"solvr": {"method": "eba_bdf"}}, "'solvr'"),
            ({"output": {"write_facto": True}}, "'write_facto'"),
            ({"output": ["write_factor"]}, "output"),
            ({"output": {"write_factor": 1}}, "write_factor"),
            ({"output": {"write_factor": "yes"}}, "write_factor"),
            ({"solver": ["eba_bdf"]}, "solver"),
            ({"problem": None}, "problem"),
            ({"sweep": "m"}, "sweep"),
            ({"sweep": {"axis": "m", "value": [1]}}, "sweep section: unknown "
                                                     "field 'value'")):
        capsys.readouterr()
        cfg10 = _write_cfg(tmp_path, name="c10.json",
                           **{"problem": _base_problem(), **sections})
        for command in ("solve", "sweep"):
            assert main([command, "--config", cfg10, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "config error" in err and name in err
    for text in ("[]", '"solve"', "1"):
        (tmp_path / "c11.json").write_text(text)
        assert main(["solve", "--config", str(tmp_path / "c11.json"),
                     "--out", str(out)]) == 2
        assert "must be a JSON object" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "compare", "sweep", "gen-problem"])
@pytest.mark.parametrize("flag, value", [
    ("--method", "eba-bdf"), ("--m-max", "6"), ("--tol", "1e-6"),
    ("--h", "0.01"), ("--bdf-order", "1"), ("--seed", "9")])
def test_settings_are_not_flags(tmp_path, capsys, command, flag, value):
    # the config file is the run's whole record: no flag sets a value of it
    cfg = _write_cfg(tmp_path, problem=_base_problem())
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--out", str(out), flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "compare", "sweep", "gen-problem"])
def test_a_key_given_twice_is_config_error(tmp_path, capsys, command):
    # JSON leaves the value of a repeated key open: read as the last one,
    # the run would not match its file, whose report echoes only that one
    problem = json.dumps(_base_problem())
    for text in ('{"problem": %s, "solver": {"tol": 1e-3, "tol": 1e-8}}' % problem,
                 '{"problem": %s, "problem": %s}' % (problem, problem)):
        cfg = tmp_path / "twice.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        key = "tol" if "tol" in text else "problem"
        assert f"config error: {cfg}: key '{key}' is given twice" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "compare", "sweep", "gen-problem"])
def test_unreadable_config_file_is_config_error(tmp_path, capsys, command):
    # a config that cannot be opened or decoded exits 2 naming its path,
    # as malformed JSON does, on every subcommand
    (tmp_path / "latin1.json").write_bytes(b'{"problem": {"kind": "\xe9"}}')
    (tmp_path / "broken.json").write_text('{"problem": ')
    out = tmp_path / "out"
    for name, reason in (("missing.json", "No such file or directory"),
                         ("a-directory", "Is a directory"),
                         ("latin1.json", "not UTF-8 text"),
                         ("broken.json", "invalid JSON at line 1")):
        if name == "a-directory":
            (tmp_path / name).mkdir()
        path = str(tmp_path / name)
        assert main([command, "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: ") and reason in err
    assert not out.exists()


def test_m_max_below_one_is_config_error(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, problem=_base_problem(), solver={"m_max": 0})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "m_max must be at least 1" in capsys.readouterr().err
    cfg3 = _write_cfg(tmp_path, name="c3.json", problem=_base_problem(),
                      sweep={"axis": "m", "values": [0]})
    assert main(["sweep", "--config", cfg3, "--out", str(tmp_path)]) == 2


def test_grid_that_h_does_not_divide_is_config_error(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, problem=_base_problem(tf=1.0, h=0.3),
                     sweep={"axis": "m", "values": [1]})
    for command in ("solve", "compare", "sweep"):
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error: problem section:" in err and "h=0.3" in err


@pytest.mark.parametrize("axis,values", [
    pytest.param(axis, values, id=f"{axis}-{why}") for axis, values, why in (
        ("m", 5, "not-a-list"), ("m", [2.5], "float"), ("m", [True], "bool"),
        ("m", [0, 2], "zero"), ("m", ["3"], "str"), ("p", [2.5], "float"),
        ("p", [True], "bool"), ("p", "2", "not-a-list"), ("h", ["0.1"], "str"),
        ("h", [False], "bool"))
])
def test_sweep_values_are_config_errors(tmp_path, capsys, axis, values):
    cfg = _write_cfg(tmp_path, problem=_base_problem(),
                     sweep={"axis": axis, "values": values})
    out = str(tmp_path / "out")
    assert main(["sweep", "--config", cfg, "--out", out]) == 2
    assert "config error: sweep values" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "sweep.csv"))


def test_solve_and_compare_stream_the_trajectory(tmp_path, monkeypatch):
    from dlekrylov import solvers

    def materialized(traj):
        raise AssertionError("the whole trajectory was materialized")

    monkeypatch.setattr(solvers.Trajectory, "small_solutions",
                        property(materialized))
    cfg = _write_cfg(tmp_path, problem=_base_problem(n0=4),
                     solver={"m_max": 8, "tol": 1e-11},
                     output={"write_factor": True})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
    assert main(["compare", "--config", cfg, "--out", str(tmp_path / "c")]) == 0


def test_compare_small_problem(tmp_path):
    cfg = _write_cfg(tmp_path, problem=_base_problem(n0=4, tf=0.5),
                     solver={"m_max": 8, "tol": 1e-11})
    out = str(tmp_path / "out")
    assert main(["compare", "--config", cfg, "--out", out]) == 0
    lines = open(os.path.join(out, "compare.csv")).read().splitlines()
    assert lines[0] == "t,rel_diff_exp,rel_diff_bdf,x11_ref,x11_exp,x11_bdf"
    last = lines[-1].split(",")
    assert float(last[1]) < 1e-7      # exp vs dense reference
    assert float(last[2]) < 1e-4      # bdf vs dense reference, O(h^2) at h=0.01
    # x11 traces agree across methods
    assert float(last[4]) == pytest.approx(float(last[5]), rel=1e-4)
    report = _strict_json(os.path.join(out, "compare.json"))
    assert report["oracle"] == "dense_integral"
    assert report["final_rel_diff_exp"] == pytest.approx(float(last[1]), rel=1e-15)


def test_compare_refuses_oracle_above_guard(tmp_path):
    prob = {"kind": "heat_fem", "n": 600, "s": 1, "seed": 1, "dt": 0.01,
            "alpha": 0.05, "t0": 0.0, "tf": 0.1, "h": 0.01}
    cfg = _write_cfg(tmp_path, problem=prob, solver={"m_max": 2, "tol": 1e-3})
    out = str(tmp_path / "out")
    assert main(["compare", "--config", cfg, "--out", out]) == 0
    report = _strict_json(os.path.join(out, "compare.json"))
    assert "refused" in report["oracle"]
    # no oracle, no difference: null, where NaN would not be JSON
    assert report["final_rel_diff_exp"] is None
    assert report["final_rel_diff_bdf"] is None
    lines = open(os.path.join(out, "compare.csv")).read().splitlines()
    assert lines[1].split(",")[1] == "nan"


def test_json_writer_writes_non_finite_floats_as_null(tmp_path):
    from dlekrylov.cli import _write_json

    path = str(tmp_path / "out.json")
    _write_json(path, {"a": float("nan"), "b": [np.float64(np.inf), 1.5],
                       "c": {"d": (-np.inf, 0.1)}, "e": True, "f": None})
    assert _strict_json(path) == {"a": None, "b": [None, 1.5],
                                  "c": {"d": [None, 0.1]}, "e": True, "f": None}


def test_sweep_over_m(tmp_path):
    cfg = _write_cfg(tmp_path, problem=_base_problem(),
                     solver={"m_max": 6, "tol": 1e-9},
                     sweep={"axis": "m", "values": [1, 2, 3, 4]})
    out = str(tmp_path / "out")
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
    lines = open(os.path.join(out, "sweep.csv")).read().splitlines()
    assert lines[0] == "axis_value,residual,error,bound_eq19"
    assert len(lines) == 5
    resid = [float(r.split(",")[1]) for r in lines[1:]]
    assert resid[-1] < resid[0]
    err = [float(r.split(",")[2]) for r in lines[1:]]
    assert err[-1] < err[0]


def test_sweep_over_m_bound_matches_the_full_grid_of_each_step(tmp_path):
    # every row's eq. 19 bound needs gbar_sup over all nodes of step m
    from dlekrylov.analysis import error_bound_stable
    from dlekrylov.dense import log_norm_mu2
    from dlekrylov.krylov import KrylovDecomposition
    from dlekrylov.problems import gen_convdiff, gen_random_block
    from dlekrylov.solvers import (TimeGrid, _residuals_over_nodes,
                                   _run_gram_grid)
    from dlekrylov.sparsela import wrap_sparse

    prob = _base_problem(n0=6, tf=1.0, h=0.01)
    values = [1, 2, 3, 5, 6]
    cfg = _write_cfg(tmp_path, problem=prob, solver={"m_max": 12, "tol": 1e-9},
                     sweep={"axis": "m", "values": values})
    out = str(tmp_path / "out")
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
    rows = [[float(c) for c in r.split(",")] for r in
            open(os.path.join(out, "sweep.csv")).read().splitlines()[1:]]
    assert [r[0] for r in rows] == values

    A = gen_convdiff(6)
    op = wrap_sparse(A)
    B = gen_random_block(36, 2, seed=3)
    grid = TimeGrid(0.0, 1.0, 0.01)
    mu2 = log_norm_mu2(A.toarray())
    dec = KrylovDecomposition(op, B)
    for row in rows:
        while dec.m < row[0]:
            dec.extend(op)
        T = dec.T
        run = _run_gram_grid(T, dec.project_block(B), np.zeros((T.shape[0], 0)),
                             grid, 4, dec.widths[dec.m - 1], keep_full=True)
        gbar_sup = np.max(np.sqrt(np.einsum("nik,nik->n", run.bar_rows,
                                            run.bar_rows)))
        bound = error_bound_stable(mu2, np.linalg.norm(dec.coupling), gbar_sup,
                                   grid.t0, grid.tf)
        assert row[3] == pytest.approx(bound, rel=1e-12)
        res = _residuals_over_nodes(dec.coupling, run.bar_rows)
        assert row[1] == pytest.approx(res[-1], rel=1e-12)


def _sweep_csv_by_one_solve_per_m(path, problem, solver, values):
    """sweep.csv as one solve per listed m writes it: m_max = m, no stop
    by tolerance, and no row where the solve broke down before step m."""
    from dlekrylov.analysis import error_bound_stable
    from dlekrylov.cli import _reference_final, _write_csv
    from dlekrylov.dense import frob_norm, log_norm_mu2
    from dlekrylov.problems import ProblemSpec, build_problem, dense_matrix
    from dlekrylov.solvers import SolverConfig, solve

    op, B, grid = build_problem(ProblemSpec.from_dict(problem))
    A = dense_matrix(op)
    mu2 = log_norm_mu2(A)
    assert mu2 < 0
    ref = _reference_final(A, B, grid)
    rows = []
    for m in values:
        traj = solve(op, B, None, grid,
                     SolverConfig(**dict(solver, m_max=m, tol=1e-300)))
        rec = traj.iterations[-1]
        if rec.m != m:
            continue
        rows.append((m, traj.final_residual,
                     frob_norm(traj.solution_dense(-1) - ref),
                     error_bound_stable(mu2, rec.coupling_norm, rec.gbar_sup,
                                        grid.t0, grid.tf)))
    _write_csv(path, ["axis_value", "residual", "error", "bound_eq19"], rows)


@pytest.mark.parametrize("method,n0,values,n_rows", [
    pytest.param("eba_exp", 5, [4, 1, 3, 3, 2], 5, id="exp"),
    pytest.param("eba_bdf", 5, [3, 1, 4, 3], 4, id="bdf"),
    # n = 9: step 3 spans the whole space, so m = 4 and 5 have no row
    pytest.param("eba_exp", 3, [4, 2, 5, 3, 1], 3, id="breakdown"),
])
def test_sweep_over_m_equals_one_solve_per_m(tmp_path, method, n0, values,
                                             n_rows):
    problem = _base_problem(n0=n0, tf=0.3)
    solver = {"method": method, "m_max": 2, "tol": 1e-9}
    cfg = _write_cfg(tmp_path, problem=problem, solver=solver,
                     sweep={"axis": "m", "values": values})
    out = str(tmp_path / "out")
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
    expected = str(tmp_path / "expected.csv")
    _sweep_csv_by_one_solve_per_m(expected, problem, solver, values)
    got = open(os.path.join(out, "sweep.csv"), "rb").read()
    assert got == open(expected, "rb").read()
    assert len(got.splitlines()) == 1 + n_rows


def test_sweep_over_m_walks_one_basis(tmp_path, monkeypatch):
    from dlekrylov import krylov, solvers

    calls = {"extend": 0, "full": 0}

    def counted(owner, name, key):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(krylov.KrylovDecomposition, "extend", "extend")
    for name in ("_run_gram_grid", "_run_bdf_grid"):
        counted(solvers, name, "full")
    cfg = _write_cfg(tmp_path, problem=_base_problem(tf=0.3),
                     solver={"m_max": 3, "tol": 1e-9},
                     sweep={"axis": "m", "values": [6, 2, 4, 2]})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    # one extend per step up to the largest m, a full grid per distinct m
    assert calls == {"extend": 6, "full": 3}


def test_sweep_over_m_builds_step_data_for_the_listed_m_only(tmp_path, monkeypatch):
    # each grid walk builds its own step data: 4 eigendecompositions for
    # the 4 distinct m, none for the other 12 steps up to m = 16
    from dlekrylov import solvers

    calls = {}

    def counted(name):
        inner = getattr(solvers, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(solvers, name, wrapper)

    for name in ("_bdf_basis", "_run_bdf_grid"):
        counted(name)
    cfg = _write_cfg(tmp_path, problem=_base_problem(n0=40),
                     solver={"method": "eba_bdf", "m_max": 3, "tol": 1e-9},
                     sweep={"axis": "m", "values": [16, 3, 1, 3, 8]})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert calls == {"_bdf_basis": 4, "_run_bdf_grid": 4}


def test_sweep_over_m_drops_each_grid_before_the_next_extend(tmp_path,
                                                            monkeypatch):
    # a listed step's row is the last reader of its grid's step data (the
    # exp `_Stride` table): by reference count alone, none is alive when
    # the next extend starts
    from dlekrylov import krylov

    refs, alive = _track_grid_data(monkeypatch, "_stride_pairs", "E"), []
    extend = krylov.KrylovDecomposition.extend

    def checked(self, op):
        alive.append([ref() is not None for ref in refs])
        return extend(self, op)

    monkeypatch.setattr(krylov.KrylovDecomposition, "extend", checked)
    cfg = _write_cfg(tmp_path, problem=_base_problem(tf=0.3),
                     solver={"m_max": 3, "tol": 1e-9},
                     sweep={"axis": "m", "values": [2, 3, 4, 5]})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert len(refs) == 4
    assert alive == [[False] * max(i - 1, 0) for i in range(5)]


def test_compare_without_oracle_holds_no_dense_solution(tmp_path):
    # heat_fem n = 2000, 11 nodes: one n x n matrix is 30.5 MiB
    import tracemalloc

    prob = {"kind": "heat_fem", "n": 2000, "s": 1, "seed": 1, "dt": 0.01,
            "alpha": 0.05, "t0": 0.0, "tf": 0.1, "h": 0.01}
    cfg = _write_cfg(tmp_path, problem=prob, solver={"m_max": 3, "tol": 1e-3})
    tracemalloc.start()
    try:
        assert main(["compare", "--config", cfg, "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2000 * 2000 * 8
    lines = open(os.path.join(tmp_path, "compare.csv")).read().splitlines()
    assert len(lines) == 12
    x11 = [float(r.split(",")[4]) for r in lines[1:]]
    assert x11[0] == 0.0 and all(v > 0.0 for v in x11[1:])


def test_sweep_empty_values_header_only(tmp_path):
    cfg = _write_cfg(tmp_path, problem=_base_problem(),
                     sweep={"axis": "h", "values": []})
    out = str(tmp_path / "out")
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
    lines = open(os.path.join(out, "sweep.csv")).read().splitlines()
    assert lines == ["axis_value,residual,error,bound_eq19"]


def test_sweep_over_p(tmp_path):
    cfg = _write_cfg(tmp_path, problem=_base_problem(tf=0.5, h=0.005),
                     solver={"m_max": 8, "tol": 1e-11},
                     sweep={"axis": "p", "values": [1, 2]})
    out = str(tmp_path / "out")
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
    lines = open(os.path.join(out, "sweep.csv")).read().splitlines()
    errs = [float(r.split(",")[2]) for r in lines[1:]]
    assert errs[1] < errs[0]          # second order beats first


def test_gen_problem_convdiff(tmp_path):
    cfg = _write_cfg(tmp_path, problem=_base_problem(n0=4))
    out = str(tmp_path / "out")
    assert main(["gen-problem", "--config", cfg, "--out", out]) == 0
    from dlekrylov.mmio import read_matrix_market, read_matrix_market_array
    from dlekrylov.problems import gen_convdiff, gen_random_block

    A = read_matrix_market(os.path.join(out, "A.mtx"))
    B = read_matrix_market_array(os.path.join(out, "B.mtx"))
    assert (A != gen_convdiff(4)).nnz == 0
    np.testing.assert_array_equal(B, gen_random_block(16, 2, seed=3))
    meta = _strict_json(os.path.join(out, "problem.json"))
    assert meta["problem"]["kind"] == "convdiff"


def test_gen_problem_heat(tmp_path):
    prob = {"kind": "heat_fem", "n": 8, "s": 2, "seed": 2, "dt": 0.01,
            "alpha": 0.05, "t0": 0.0, "tf": 0.1, "h": 0.01}
    cfg = _write_cfg(tmp_path, problem=prob)
    out = str(tmp_path / "out")
    assert main(["gen-problem", "--config", cfg, "--out", out]) == 0
    for f in ("M.mtx", "K.mtx", "F.mtx", "problem.json"):
        assert os.path.exists(os.path.join(out, f))
    meta = _strict_json(os.path.join(out, "problem.json"))
    assert meta["problem"]["kind"] == "heat_fem"


@pytest.mark.parametrize("a_bytes, where", [
    (None, "No such file"),
    (b"%%MatrixMarket matrix coordinate real general\n3 3 -1\n", "A.mtx:2:"),
    (b"%%MatrixMarket matrix coordinate real general\n3 3 1\n4 1 1.0\n", "A.mtx:3:"),
    (b"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 \xff\n", "A.mtx:3:"),
    # counts no allocation could hold are refused before one is tried
    (b"%%MatrixMarket matrix coordinate real general\n2 2 100000000000000\n"
     b"1 1 -1.0\n", "A.mtx:2: size line declares 100000000000000 entries"),
    # a mirrored entry of a non-square symmetric file would be out of range
    (b"%%MatrixMarket matrix coordinate real symmetric\n3 2 2\n1 1 -1.0\n"
     b"3 1 1.0\n", "A.mtx:2: a symmetric matrix must be square"),
    # symmetric storage holds the lower triangle only
    (b"%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n2 1 1.0\n"
     b"1 2 1.0\n", "A.mtx:4: entry (1,2) above the diagonal"),
])
def test_solve_reports_a_bad_external_input(tmp_path, capsys, a_bytes, where):
    a_path = tmp_path / "A.mtx"
    if a_bytes is not None:
        a_path.write_bytes(a_bytes)
    cfg = _write_cfg(tmp_path, problem={"kind": "external", "a_path": str(a_path),
                                        "tf": 0.1, "h": 0.01})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and where in err
    assert "Traceback" not in err


def test_solve_reports_an_oversized_array_block(tmp_path, capsys):
    from scipy.sparse import eye

    from dlekrylov.mmio import write_matrix_market

    problem = {"kind": "external", "a_path": str(tmp_path / "A.mtx"),
               "b_path": str(tmp_path / "B.mtx"), "tf": 0.1, "h": 0.01}
    write_matrix_market(-eye(2, format="csr"), problem["a_path"])
    (tmp_path / "B.mtx").write_bytes(
        b"%%MatrixMarket matrix array real general\n100000000 100000000\n1.0\n")
    cfg = _write_cfg(tmp_path, problem=problem)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {problem['b_path']}:2: size line declares "
                          "10000000000000000 entries")


@pytest.mark.parametrize("a_shape, b_shape, where", [
    ((10, 10), (5, 2), "B.mtx: block of shape (5, 2) does not match the (10, 10) "
                       "matrix of"),
    ((10, 8), None, "A.mtx: matrix must be square, got (10, 8)"),
])
def test_solve_reports_mismatched_external_shapes(tmp_path, capsys, a_shape,
                                                  b_shape, where):
    from scipy.sparse import eye

    from dlekrylov.mmio import write_matrix_market, write_matrix_market_array

    problem = {"kind": "external", "a_path": str(tmp_path / "A.mtx"),
               "tf": 0.1, "h": 0.01}
    write_matrix_market(-eye(*a_shape, format="csr"), problem["a_path"])
    if b_shape is not None:
        problem["b_path"] = str(tmp_path / "B.mtx")
        write_matrix_market_array(np.ones(b_shape), problem["b_path"])
    cfg = _write_cfg(tmp_path, problem=problem)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and where in err
    assert "Traceback" not in err


def _external_problem(tmp_path, A, B, method):
    from dlekrylov.mmio import write_matrix_market, write_matrix_market_array

    problem = {"kind": "external", "a_path": str(tmp_path / "A.mtx"),
               "b_path": str(tmp_path / "B.mtx"), "tf": 0.1, "h": 0.01}
    write_matrix_market(A, problem["a_path"])
    write_matrix_market_array(B, problem["b_path"])
    return _write_cfg(tmp_path, problem=problem, solver={"method": method})


@pytest.mark.parametrize("method", ["eba_exp", "eba_bdf"])
@pytest.mark.parametrize("where", ["A", "B"])
def test_solve_reports_a_non_finite_external_entry(tmp_path, capsys, method,
                                                    where):
    # the first non-finite entry in row-major order is named, numbered
    # from 1 as the file numbers it
    from dlekrylov.problems import gen_convdiff

    A, B = gen_convdiff(5).tolil(), np.ones((25, 2))
    if where == "A":
        A[2, 3], A[10, 10] = np.nan, np.inf
        name, what = "A.mtx", "entry (3, 4) is nan"
    else:
        B[7, 0], B[4, 1] = -np.inf, np.inf
        name, what = "B.mtx", "entry (5, 2) is inf"
    cfg = _external_problem(tmp_path, A, B, method)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / name}: {what}, not a finite number")
    assert "Traceback" not in err


@pytest.mark.parametrize("method", ["eba_exp", "eba_bdf"])
def test_solve_reports_a_singular_external_matrix(tmp_path, capsys, method):
    from scipy.sparse import diags

    # row 4 of A.mtx, numbered from 1 as the file numbers it, has no entries
    A = diags([-1.0, -1.0, -1.0, 0.0, -1.0]).tocsr()
    A.eliminate_zeros()
    cfg = _external_problem(tmp_path, A, np.ones((5, 1)), method)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: {tmp_path / 'A.mtx'}: row 4 has no entries, "
                   "so the matrix is singular\n")


def test_gen_problem_external_rejected(tmp_path):
    prob = {"kind": "external", "a_path": "x.mtx", "t0": 0.0, "tf": 0.1, "h": 0.01}
    cfg = _write_cfg(tmp_path, problem=prob)
    assert main(["gen-problem", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_sweep_over_h_shows_second_order(tmp_path):
    cfg = _write_cfg(tmp_path, problem=_base_problem(n0=5, tf=0.4, h=0.01),
                     solver={"m_max": 10, "tol": 1e-12, "method": "eba_bdf",
                             "bdf_order": 2},
                     sweep={"axis": "h", "values": [0.02, 0.01, 0.005]})
    out = str(tmp_path / "out")
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
    lines = open(os.path.join(out, "sweep.csv")).read().splitlines()
    errs = [float(r.split(",")[2]) for r in lines[1:]]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(1.5 <= o <= 2.6 for o in orders), orders


@pytest.mark.parametrize("command", ["solve", "gen-problem"])
def test_a_failed_matrix_market_write_leaves_no_file(tmp_path, monkeypatch, command):
    # the writer's error propagates, and neither the target nor a
    # temporary file is left in the output directory
    import shutil

    def interrupted(src, dst, *args):
        dst.write(src.read(4))
        raise OSError("disk full")

    monkeypatch.setattr(shutil, "copyfileobj", interrupted)
    cfg = _write_cfg(tmp_path, problem=_base_problem(),
                     solver={"m_max": 10, "tol": 1e-8},
                     output={"write_factor": True})
    out = tmp_path / "out"
    with pytest.raises(OSError, match="disk full"):
        main([command, "--config", cfg, "--out", str(out)])
    assert sorted(os.listdir(out)) == (["solution.csv"] if command == "solve" else [])


def test_a_failed_text_write_leaves_no_file(tmp_path):
    from dlekrylov import cli

    with pytest.raises(TypeError):
        cli._atomic_write(str(tmp_path / "report.json"), None)
    assert os.listdir(tmp_path) == []
