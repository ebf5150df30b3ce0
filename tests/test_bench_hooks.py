"""The benchmark's child process wraps program names by string; a renamed
or deleted name would make every benchmark run fail its self-check, so
each one is checked here against the modules it names."""

import ast
import importlib
import importlib.util
import inspect
import json
import os

import pytest

CHILD = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "child.py")


def _owner_path(node):
    """`solvers.Trajectory` -> ["solvers", "Trajectory"]."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return _owner_path(node.value) + [node.attr]
    raise ValueError(f"unexpected owner expression {ast.dump(node)}")


def _wrapped_names():
    with open(CHILD) as fh:
        tree = ast.parse(fh.read(), CHILD)
    hooks = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "wrap" and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)):
            hooks.append((_owner_path(node.args[0]), node.args[1].value))
    return hooks


def _resolve(owner):
    """["solvers", "Trajectory"] -> the class dlekrylov.solvers.Trajectory."""
    obj = importlib.import_module(f"dlekrylov.{owner[0]}")
    for attr in owner[1:]:
        obj = getattr(obj, attr)
    return obj


def test_parser_finds_the_grid_hook():
    # the self-check requires solvers.grid_runs > 0, counted on this name
    assert (["solvers"], "_run_gram_grid") in _wrapped_names()


@pytest.mark.parametrize("owner,name", [
    pytest.param(owner, name, id=".".join(owner + [name]))
    for owner, name in _wrapped_names()
])
def test_child_hook_names_exist(owner, name):
    obj = _resolve(owner)
    assert callable(getattr(obj, name, None)), f"{'.'.join(owner)} has no {name}"


# each per-layer counter the harness self-check requires to be > 0, and the
# program name `child.py` counts it on
REQUIRED_HOOKS = [
    ("cli.ranks_s", ["solvers", "Trajectory"], "ranks"),
    ("mmio.bytes_written", ["cli"], "write_matrix_market_array"),
    ("solvers.grid_runs", ["solvers"], "_run_gram_grid"),
    ("dense.expm_calls", ["solvers"], "expm"),
    ("krylov.extend_calls", ["krylov", "KrylovDecomposition"], "extend"),
    ("sparsela.apply_calls", ["sparsela", "LinearOperator"], "apply"),
]


def _harness():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(os.path.dirname(CHILD), "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_self_check_solve_calls_every_required_hook(tmp_path, monkeypatch):
    # the self-check's own solve, in-process: a refactor that stops calling
    # one of these names fails here, not in every benchmark run
    harness = _harness()
    required = inspect.getsource(harness.self_check)
    wrapped = _wrapped_names()
    calls = {}
    for counter, owner, name in REQUIRED_HOOKS:
        assert f'"{counter}"' in required
        assert (owner, name) in wrapped
        obj = _resolve(owner)
        fn = getattr(obj, name)

        def counted(*args, _fn=fn, _counter=counter, **kwargs):
            calls[_counter] = calls.get(_counter, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(obj, name, counted)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(harness.config_for(harness.SELF_CHECK, 7)))
    from dlekrylov import cli

    assert cli.main(["solve", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 0
    assert sorted(calls) == sorted(counter for counter, *_ in REQUIRED_HOOKS)
