"""The benchmark's child process wraps program names by string; a renamed
or deleted name would make every benchmark run fail its self-check, so
each one is checked here against the modules it names."""

import ast
import importlib
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


def test_parser_finds_the_grid_hook():
    # the self-check requires solvers.grid_runs > 0, counted on this name
    assert (["solvers"], "_run_gram_grid") in _wrapped_names()


@pytest.mark.parametrize("owner,name", [
    pytest.param(owner, name, id=".".join(owner + [name]))
    for owner, name in _wrapped_names()
])
def test_child_hook_names_exist(owner, name):
    obj = importlib.import_module(f"dlekrylov.{owner[0]}")
    for attr in owner[1:]:
        obj = getattr(obj, attr)
    assert callable(getattr(obj, name, None)), f"{'.'.join(owner)} has no {name}"
