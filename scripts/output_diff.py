#!/usr/bin/env python3
"""Compare the outputs of the `dlekrylov` commands between two source trees.

    python3 scripts/output_diff.py BASE [--config PATH ...]

BASE is a git revision of this repository, exported with `git archive`
into a temporary directory, or a directory that holds a `src/`. The other
side is the `src/` next to this script, as it is on disk. Both sides run
the same configs, each command in a fresh process with one BLAS thread:
by default the four workloads of `perfbench/run.py` (seed 7,
`write_factor` true) and the four `experiments/*.json`; each `--config`
replaces that set. Every config runs `solve`, and also `sweep` when it
has a `sweep` section. One without it that lies in this checkout's
`experiments/`, in the default set or named by `--config`, also runs
`compare`, as the experiments are run. A convdiff or heat_fem config also runs
`gen-problem`. All runs write to a temporary directory, never inside the
repository.

For each output file it prints whether the file is byte-identical
(a JSON report: equal apart from its timings and paths) and, if not, the
largest relative difference |a - b| / max(|a|, |b|) of each numeric CSV
column and JSON report field that moved (timings, `elapsed_s` and paths
left out; NaN against NaN counts as equal), the relative Frobenius
difference of X = Z Z^T for the factor file, the largest relative
difference of the values of any other Matrix Market file, and any change
of `iterations` (the last Krylov step) or `converged`. Exit status: 0
when every file is identical, 1 when any differs, 2 when BASE cannot be
read.
"""

import argparse
import glob
import importlib.util
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

sys.dont_write_bytecode = True     # importing perfbench/run.py writes nothing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTPUTS = ("solution.csv", "report.json", "factor_tf.mtx", "sweep.csv",
           "compare.csv", "compare.json", "A.mtx", "B.mtx", "M.mtx", "K.mtx",
           "F.mtx", "problem.json")
# JSON report keys whose values differ from run to run or name a place
SKIPPED = ("timings_s", "elapsed_s", "outputs")


def commands_for(config, experiment=False):
    """The commands a config runs: `solve`, then `sweep` when it has a
    sweep section, else `compare` for an experiment, then `gen-problem`
    for a problem it generates."""
    if "sweep" in config:
        commands = ("solve", "sweep")
    else:
        commands = ("solve", "compare") if experiment else ("solve",)
    if config["problem"].get("kind") != "external":
        commands += ("gen-problem",)
    return commands


def default_configs():
    """(name, config, commands) of the perfbench workloads at seed 7 and
    of the committed experiments."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    configs = []
    for name, workload in bench.WORKLOADS.items():
        cfg = bench.config_for(workload, 7)
        configs.append((name, cfg, commands_for(cfg)))
    for path in sorted(glob.glob(os.path.join(ROOT, "experiments", "*.json"))):
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
        configs.append((os.path.basename(path)[:-5], cfg,
                        commands_for(cfg, experiment=True)))
    return configs


def base_src(base, tmp):
    """The `src/` directory of BASE, exported into `tmp` for a revision."""
    if os.path.isdir(os.path.join(base, "src")):
        return os.path.abspath(os.path.join(base, "src"))
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar",
                              base, "src"], capture_output=True)
    if archive.returncode:
        raise ValueError(f"{base} is neither a directory with a src/ nor a "
                         f"revision: {archive.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(tmp, filter="data")
        else:
            tar.extractall(tmp)
    return os.path.join(tmp, "src")


def run_command(src, command, config_path, out_dir):
    """Exit status of `dlekrylov COMMAND` imported from `src`."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from dlekrylov import cli\n"
            "if not cli.__file__.startswith(sys.argv[1]):\n"
            "    sys.exit(f'dlekrylov was imported from {cli.__file__}')\n"
            "sys.exit(cli.main(sys.argv[2:]))")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.update({var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")})
    proc = subprocess.run([sys.executable, "-c", code, src + os.sep, command,
                           "--config", config_path, "--out", out_dir],
                          env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 3):       # 3: ran, did not converge
        print(proc.stderr.strip(), file=sys.stderr)
    return proc.returncode


def rel_diff(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = np.maximum(np.abs(a), np.abs(b))
    diff = np.where(np.isnan(a) & np.isnan(b), 0.0, np.abs(a - b))
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.where(diff == 0, 0.0, diff / scale)
    return float(np.max(rel, initial=0.0))


def _leaves(value, path=""):
    """(path, value) of every scalar in a JSON value; list indices read []."""
    if isinstance(value, dict):
        for key, sub in value.items():
            if key not in SKIPPED:
                yield from _leaves(sub, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for sub in value:
            yield from _leaves(sub, path + "[]")
    else:
        yield path, value


def diff_report(a, b):
    """Per field: the largest relative difference, or "changed"."""
    fields = {}
    pairs_a, pairs_b = list(_leaves(a)), list(_leaves(b))
    if [p for p, _ in pairs_a] != [p for p, _ in pairs_b]:
        fields["(fields)"] = "changed"
    for (path, x), (_, y) in zip(pairs_a, pairs_b):
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                      for v in (x, y))
        if numeric:
            fields[path] = max(fields.get(path, 0.0), rel_diff(x, y))
        elif x != y:
            fields[path] = "changed"
    return fields


def diff_csv(a, b):
    (head_a, *rows_a), (head_b, *rows_b) = (
        text.splitlines() for text in (a.decode(), b.decode()))
    if head_a != head_b or len(rows_a) != len(rows_b):
        return {"(shape)": f"{len(rows_a)} -> {len(rows_b)} rows, "
                           f"header {head_a!r} -> {head_b!r}"}
    cols_a = zip(*(row.split(",") for row in rows_a))
    cols_b = zip(*(row.split(",") for row in rows_b))
    return {name: rel_diff(np.array(x, dtype=float), np.array(y, dtype=float))
            for name, x, y in zip(head_a.split(","), cols_a, cols_b)}


def _mtx_entries(data):
    """(size fields, entries) of a Matrix Market file: one row per entry,
    its indices (none in an array file) and then its value."""
    lines = [line.split() for line in data.decode().splitlines()
             if line.strip() and not line.startswith("%")]
    # a coordinate file's size line has 3 fields and its entries 3, an
    # array file's 2 and 1
    width = 3 if len(lines[0]) == 3 else 1
    return lines[0], np.array(lines[1:], dtype=float).reshape(-1, width)


def _array_mtx(data):
    (rows, cols), entries = _mtx_entries(data)
    # the array format lists the entries column by column
    return entries[:, 0].reshape(int(cols), int(rows)).T


def diff_matrix(a, b):
    """Largest relative difference of the values of two Matrix Market
    files with the same size line and indices, else the change of shape."""
    (size_a, entries_a), (size_b, entries_b) = _mtx_entries(a), _mtx_entries(b)
    if size_a != size_b or not np.array_equal(entries_a[:, :-1], entries_b[:, :-1]):
        return {"(shape)": f"size {' '.join(size_a)} -> {' '.join(size_b)}, "
                           "or the entries' indices moved"}
    return {"values": rel_diff(entries_a[:, -1], entries_b[:, -1])}


def diff_factor(a, b):
    """Relative Frobenius difference of X = Z Z^T, from the triangular
    factor R of [Z_a, Z_b] = Q R: X_a - X_b = Q R D R^T Q^T with D =
    diag(I, -I), so no n x n matrix is formed and nothing cancels at the
    size of X."""
    Z_a, Z_b = _array_mtx(a), _array_mtx(b)
    R = np.linalg.qr(np.hstack([Z_a, Z_b]), mode="r")
    r = Z_a.shape[1]
    R_a, R_b = R[:, :r], R[:, r:]
    diff = np.linalg.norm(R_a @ R_a.T - R_b @ R_b.T)
    scale = max(np.linalg.norm(Z_a.T @ Z_a), np.linalg.norm(Z_b.T @ Z_b))
    fields = {"X = Z Z^T": 0.0 if diff == 0 else float(diff / scale)}
    if Z_a.shape != Z_b.shape:
        fields["(shape)"] = f"{Z_a.shape} -> {Z_b.shape}"
    return fields


def _fmt(value):
    return value if isinstance(value, str) else f"{value:.3g}"


def compare_run(name, dir_a, dir_b, status_a, status_b):
    """Print the comparison of one config's outputs; (files compared,
    the moved ones)."""
    compared, moved = 0, []
    if status_a != status_b:
        print(f"  exit status {status_a} -> {status_b}")
        moved.append(f"{name} (exit status)")
    for file in OUTPUTS:
        path_a, path_b = os.path.join(dir_a, file), os.path.join(dir_b, file)
        here = os.path.exists(path_a), os.path.exists(path_b)
        if not any(here):
            continue
        label = f"{name}/{file}"
        compared += 1
        if not all(here):
            print(f"  {file}: only in {'base' if here[0] else 'change'}")
            moved.append(label)
            continue
        with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
            a, b = fa.read(), fb.read()
        if file.endswith(".json"):
            # its timings and paths differ on every run: the rest decides
            a, b = json.loads(a), json.loads(b)
            same = list(_leaves(a)) == list(_leaves(b))
        else:
            same = a == b
        if same:
            print(f"  {file}: identical")
            continue
        moved.append(label)
        if file.endswith(".csv"):
            fields = diff_csv(a, b)
        elif file == "factor_tf.mtx":
            fields = diff_factor(a, b)
        elif file.endswith(".mtx"):
            fields = diff_matrix(a, b)
        else:
            fields = diff_report(a, b)
            for key in ("final_m", "converged"):
                if a.get(key) != b.get(key):
                    shown = "iterations" if key == "final_m" else key
                    print(f"  {shown}: {a.get(key)} -> {b.get(key)}")
        # fields that did not move are not listed
        fields = {field: value for field, value in fields.items() if value != 0}
        print(f"  {file}: differs; largest relative difference"
              + ("" if fields else " 0 in every field"))
        for field, value in fields.items():
            print(f"    {field}: {_fmt(value)}")
    return compared, moved


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git revision, or a directory with a src/")
    parser.add_argument("--config", action="append", metavar="PATH",
                        help="config to run (repeatable); replaces the default set")
    args = parser.parse_args(argv)
    if args.config:
        configs = []
        experiments = os.path.realpath(os.path.join(ROOT, "experiments"))
        for path in args.config:
            with open(path, encoding="utf-8") as fh:
                cfg = json.load(fh)
            experiment = os.path.dirname(os.path.realpath(path)) == experiments
            configs.append((os.path.splitext(os.path.basename(path))[0], cfg,
                            commands_for(cfg, experiment)))
    else:
        configs = default_configs()

    with tempfile.TemporaryDirectory(prefix="output_diff-") as tmp:
        try:
            src_a = base_src(args.base, os.path.join(tmp, "base"))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        src_b = os.path.join(ROOT, "src")
        print(f"base: {args.base}  change: {src_b}")
        moved, files = [], 0
        for i, (name, cfg, commands) in enumerate(configs):
            run_dir = os.path.join(tmp, f"run-{i}")
            os.makedirs(run_dir)
            config_path = os.path.join(run_dir, "config.json")
            with open(config_path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            dirs = [os.path.join(run_dir, side) for side in ("base", "change")]
            # the commands of one side write distinct files into one directory
            status = [tuple(run_command(src, command, config_path, out)
                            for command in commands)
                      for src, out in zip((src_a, src_b), dirs)]
            print(name)
            compared, moved_here = compare_run(name, *dirs, *status)
            files += compared
            moved += moved_here
    if moved:
        print(f"{len(moved)} differ: {', '.join(moved)}")
        return 1
    print(f"all {files} files identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
