"""Checks on the package as a whole: it holds no code that only the tests
reach, the README's quick start runs, and the pytest settings keep the
report of a failing property test."""

import ast
import glob
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
PACKAGE = os.path.join(ROOT, "src", "dlekrylov")
README = os.path.join(ROOT, "README.md")

# item 15(a) of ROADMAP.md wires the general bound into `sweep`, which
# removes this exception
TEST_ONLY_EXCEPTIONS = {"error_bound_general"}


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def _quick_start():
    """The first python block under the README's "Library quick start"."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _used_names(nodes):
    """Every name, attribute and imported name the AST nodes mention."""
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif isinstance(sub, ast.alias):
                names.add(sub.name.rsplit(".", 1)[-1])
    return names


def _test_only_names(exceptions=TEST_ONLY_EXCEPTIONS):
    """Top-level functions and classes of the package, other than
    `exceptions`, that no package module but `__init__.py`, no script,
    neither the acceptance gate nor the README quick start use, apart from
    their own definition."""
    defined = {}
    uses = set()
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        module = os.path.basename(path)
        if module == "__init__.py":
            continue
        body = _parse(path).body
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined[stmt.name] = module
        # a statement's uses count for every name but the one it defines
        for stmt in body:
            own = getattr(stmt, "name", None)
            uses |= _used_names([stmt]) - {own}
    others = sorted(glob.glob(os.path.join(ROOT, "scripts", "*.py")))
    others.append(os.path.join(ROOT, "tests", "test_acceptance.py"))
    for path in others:
        uses |= _used_names([_parse(path)])
    uses |= _used_names([ast.parse(_quick_start())])
    return {name: module for name, module in defined.items()
            if name not in uses and name not in exceptions}


def test_the_package_holds_no_test_only_code():
    # a helper that only tests call belongs in the tests
    assert _test_only_names() == {}


def test_each_exception_is_still_test_only():
    # an exception the program has come to use is one no longer
    assert set(_test_only_names(exceptions=())) == TEST_ONLY_EXCEPTIONS


def test_the_readme_quick_start_runs(capsys):
    exec(compile(_quick_start(), "README.md quick start", "exec"), {})
    # it prints what its comment says
    converged, residual = capsys.readouterr().out.split()
    assert converged == "True"
    assert float(residual) < 1e-6


FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_below_five(x):
    assert x < 5
'''


def test_a_failing_property_test_prints_its_example(tmp_path):
    # hypothesis reports a failure through a pytest hook; under the repo's
    # warning filters that report must reach the output, not end the
    # session in an internal error
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp_path)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_failing.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
