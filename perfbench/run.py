"""End-to-end benchmark of `dlekrylov solve`, with a traced per-layer split.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Run from anywhere; the program is taken from `src/` next to this directory.
Each run launches fresh `dlekrylov solve` processes (through `child.py`)
on the workload's JSON config until `--seconds` have passed, checks every
process's output and prints one line per metric, then, as the last line,
one JSON object `{"correct", "attempted", "failed", "metrics"}`.
`--trace 0` gives the end-to-end metrics, `--trace 1` the per-layer ones.
`--workload all` runs every workload and ends with a JSON summary of all.

Before timing, a self-check solves a tiny convdiff problem (n0 = 10) timed
and traced and checks the harness's parsing and schema against it; any
break exits with status 1. See README.md for workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
clock = time.monotonic         # the child stamps spans with the same clock

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PROCESS_TIMEOUT_S = 120.0
SETUP_LAUNCHES = 5     # extra set-up-only processes per timed run, for setup_s

# `tol` is an absolute residual Frobenius norm placed between the residuals
# of two consecutive Krylov steps (margins in README.md), so `iterations`
# repeats exactly; `m_max` stays well above the step count reached.
CONVDIFF_6400 = {"kind": "convdiff", "n0": 80, "s": 2, "t0": 0.0, "tf": 2.0, "h": 1e-3}
WORKLOADS = {
    "exp-6400": {
        "problem": CONVDIFF_6400,
        "solver": {"method": "eba_exp", "m_max": 40, "tol": 2e-3},
    },
    "bdf-6400": {
        "problem": CONVDIFF_6400,
        "solver": {"method": "eba_bdf", "bdf_order": 2, "m_max": 40, "tol": 2e-3},
    },
    "krylov-40k": {
        "problem": {"kind": "convdiff", "n0": 200, "s": 2, "t0": 0.0, "tf": 0.1, "h": 1e-2},
        "solver": {"method": "eba_bdf", "bdf_order": 2, "m_max": 56, "tol": 1e-4},
    },
    "heat-100k": {
        "problem": {"kind": "heat_fem", "n": 100000, "dt": 0.01, "alpha": 0.05, "s": 2,
                    "t0": 0.0, "tf": 2.0, "h": 1e-3},
        "solver": {"method": "eba_exp", "m_max": 30, "tol": 5.0},
    },
}
SELF_CHECK = {
    "problem": {"kind": "convdiff", "n0": 10, "s": 2, "t0": 0.0, "tf": 0.1, "h": 1e-2},
    "solver": {"method": "eba_exp", "m_max": 20, "tol": 1e-8},
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "solve_s": "s",
              "peak_rss_mb": "MB", "iterations": "count"}

# a span named <layer>.<boundary> belongs to <layer>, one of dlekrylov's modules
LAYERS = ("problems", "sparsela", "krylov", "solvers", "dense", "cli", "mmio")


def _per_layer_units():
    units = {"problems.build_s": "s"}
    for base in ("factor", "apply", "apply_inverse"):
        units[f"sparsela.{base}_calls"] = "count"
        units[f"sparsela.{base}_s"] = "s"
    units["sparsela.columns"] = "count"
    units.update({"krylov.init_s": "s", "krylov.extend_calls": "count",
                  "krylov.extend_s": "s", "krylov.extend_self_s": "s",
                  "krylov.basis_size": "count"})
    units.update({"solvers.grid_runs": "count", "solvers.grid_nodes": "count",
                  "solvers.grid_useful_ratio": "ratio", "solvers.grid_s": "s",
                  "solvers.grid_self_s": "s", "solvers.panel_calls": "count",
                  "solvers.panel_s": "s", "solvers.step_pair_s": "s",
                  "solvers.residual_calls": "count", "solvers.residual_s": "s",
                  "solvers.solve_self_s": "s", "solvers.trajectory_mb": "MB"})
    for base in ("lyap_solve", "lyap_schur", "expm"):
        units[f"dense.{base}_calls"] = "count"
        units[f"dense.{base}_s"] = "s"
    units.update({"cli.import_s": "s", "cli.ranks_s": "s", "cli.factor_s": "s",
                  "cli.csv_s": "s", "cli.output_s": "s", "mmio.write_s": "s",
                  "mmio.bytes_written": "bytes"})
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update({"trace.wall_s": "s", "trace.overhead_s": "s",
                  "trace.unattributed_s": "s"})
    return units


PER_LAYER = _per_layer_units()


class HarnessError(RuntimeError):
    """The harness itself is broken: a schema change or a failed self-check."""


# -- one process ------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def config_for(spec, seed):
    return {"problem": {**spec["problem"], "seed": seed},
            "solver": dict(spec["solver"]),
            "output": {"write_factor": True}}


def expected_shape(cfg):
    p = cfg["problem"]
    n = p["n0"] ** 2 if p["kind"] == "convdiff" else p["n"]
    return n, int(round((p["tf"] - p["t0"]) / p["h"])) + 1


def run_process(run_dir, cfg, mode):
    """Launch one solve and return its measurements. `mode` is "timed",
    "traced" or "setup" (the process exits once `build_problem` returns)."""
    os.makedirs(run_dir)
    cfg_path = os.path.join(run_dir, "config.json")
    out_dir = os.path.join(run_dir, "out")
    record_path = os.path.join(run_dir, "record.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    argv = [sys.executable, os.path.join(HERE, "child.py"), SRC, record_path,
            mode, "--", "solve", "--config", cfg_path, "--out", out_dir]
    with open(os.path.join(run_dir, "stdout.txt"), "wb") as out, \
            open(os.path.join(run_dir, "stderr.txt"), "wb") as err:
        t_launch = clock()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(),
                                cwd=run_dir)
        timed_out = threading.Event()

        def expire():
            timed_out.set()
            proc.kill()

        watchdog = threading.Timer(PROCESS_TIMEOUT_S, expire)
        watchdog.start()
        try:
            # the child's own rusage: RUSAGE_CHILDREN would be a running
            # maximum over every child reaped so far
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = clock() - t_launch
        proc.returncode = os.waitstatus_to_exitcode(status)

    record = {}
    if os.path.exists(record_path):
        with open(record_path) as fh:
            record = json.load(fh)
    if timed_out.is_set():
        error = "Timeout"
    elif mode == "setup":
        error = None if proc.returncode == 0 and record.get("build_end") else "SetupFailed"
    else:
        error = check_outputs(out_dir, proc.returncode, record, cfg)
    if error and not record.get("error"):
        with open(os.path.join(run_dir, "stderr.txt"), errors="replace") as fh:
            record["stderr_tail"] = fh.read()[-2000:]
    build_end = record.get("build_end")
    return {
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,      # ru_maxrss is in KiB
        "setup_s": None if build_end is None else build_end - t_launch,
        "solve_s": record.get("solve_s"),
        "iterations": record.get("iterations"),
        "error": error,
        "message": record.get("message") or record.get("stderr_tail"),
        "mode": mode,
        "record": record,
    }


def check_outputs(out_dir, returncode, record, cfg):
    """Error class of a failed run, or None when every check passes."""
    if returncode < 0:
        return f"Signal{-returncode}"
    if returncode != 0:
        if record.get("error"):
            return record["error"]
        return "NotConverged" if returncode == 3 else f"ExitStatus{returncode}"
    try:
        with open(os.path.join(out_dir, "report.json")) as fh:
            report = json.load(fh)
        if report["converged"] is not True:
            return "NotConverged"
        with open(os.path.join(out_dir, "solution.csv")) as fh:
            header, *rows = fh.read().splitlines()
        if header.split(",") != ["t", "residual_frobenius", "rank"]:
            return "CsvHeader"
        n, n_nodes = expected_shape(cfg)
        if len(rows) != n_nodes:
            return "RowCount"
        tol = cfg["solver"]["tol"]
        if not all(float(row.split(",")[1]) <= tol for row in rows):
            return "ResidualAboveTol"
        with open(report["outputs"]["factor"]) as fh:
            fh.readline()
            shape = tuple(int(v) for v in fh.readline().split())
        if shape != (n, report["final_rank"]):
            return "FactorShape"
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return f"OutputUnreadable:{type(exc).__name__}"
    return None


# -- aggregation -----------------------------------------------------------


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(procs, setups):
    passing = [p for p in procs if p["error"] is None]
    solved = [p for p in procs if p["solve_s"] is not None]
    return {
        "wall_s": median(p["wall_s"] for p in passing),
        "setup_s": median(p["setup_s"] for p in solved + setups),
        "solve_s": median(p["solve_s"] for p in solved),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in passing),
        "iterations": median(p["iterations"] for p in solved),
    }


def span_totals(spans):
    """Per span name: call count, total duration and self time (duration
    minus the time its direct children cover; children never overlap, as
    the program runs on one thread)."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {}
    for (name, start, end, _, _), inner in zip(spans, child_time):
        calls, dur, self_t = totals.get(name, (0, 0.0, 0.0))
        totals[name] = (calls + 1, dur + end - start, self_t + end - start - inner)
    return totals


def layer_metrics(proc, untraced_wall):
    rec = proc["record"]
    spans = rec.get("spans", [])
    unknown = {s[0] for s in spans if s[0].partition(".")[0] not in LAYERS}
    if unknown:
        raise HarnessError(f"unmapped spans {sorted(unknown)}")
    tot = span_totals(spans)

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def dur(name):
        return tot.get(name, (0, 0.0, 0.0))[1]

    def self_time(name):
        return tot.get(name, (0, 0.0, 0.0))[2]

    counters = rec.get("counters", {})
    m = {"problems.build_s": dur("problems.build")}
    for base in ("factor", "apply", "apply_inverse"):
        m[f"sparsela.{base}_calls"] = calls(f"sparsela.{base}")
        m[f"sparsela.{base}_s"] = dur(f"sparsela.{base}")
    m["sparsela.columns"] = counters.get("sparsela.columns", 0)
    m.update({"krylov.init_s": dur("krylov.init"),
              "krylov.extend_calls": calls("krylov.extend"),
              "krylov.extend_s": dur("krylov.extend"),
              "krylov.extend_self_s": self_time("krylov.extend"),
              "krylov.basis_size": rec.get("basis_size") or 0})
    grid_nodes = counters.get("solvers.grid_nodes", 0)
    n_nodes = rec.get("n_nodes") or 0
    k = rec.get("basis_size") or 0
    m.update({"solvers.grid_runs": calls("solvers.grid"),
              "solvers.grid_nodes": grid_nodes,
              "solvers.grid_useful_ratio": n_nodes / grid_nodes if grid_nodes else 0.0,
              "solvers.grid_s": dur("solvers.grid"),
              "solvers.grid_self_s": self_time("solvers.grid"),
              "solvers.panel_calls": calls("solvers.panel"),
              "solvers.panel_s": dur("solvers.panel"),
              "solvers.step_pair_s": dur("solvers.step_pair"),
              "solvers.residual_calls": calls("solvers.residual"),
              "solvers.residual_s": dur("solvers.residual"),
              "solvers.solve_self_s": self_time("solvers.solve"),
              # computed: the (N+1, k, k) float64 array the Trajectory holds
              "solvers.trajectory_mb": n_nodes * k * k * 8 / 2**20})
    for base in ("lyap_solve", "lyap_schur", "expm"):
        m[f"dense.{base}_calls"] = calls(f"dense.{base}")
        m[f"dense.{base}_s"] = dur(f"dense.{base}")
    cmd_end = max((s[2] for s in spans if s[0] == "cli.cmd_solve"), default=None)
    solve_end = max((s[2] for s in spans if s[0] == "solvers.solve"), default=None)
    m.update({"cli.import_s": dur("cli.import"), "cli.ranks_s": dur("cli.ranks"),
              "cli.factor_s": dur("cli.factor"), "cli.csv_s": dur("cli.csv"),
              "cli.output_s": (cmd_end - solve_end
                                if None not in (cmd_end, solve_end) else 0.0),
              "mmio.write_s": dur("mmio.write"),
              # computed: size of the factor file as written
              "mmio.bytes_written": counters.get("mmio.bytes_written", 0)})
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t[2] for name, t in tot.items()
                                   if name.partition(".")[0] == layer)
    top = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
    m["trace.wall_s"] = proc["wall_s"]
    m["trace.overhead_s"] = proc["wall_s"] - untraced_wall
    m["trace.unattributed_s"] = proc["wall_s"] - top
    split = sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["trace.unattributed_s"]
    if abs(split - proc["wall_s"]) > 1e-6 * max(proc["wall_s"], 1.0):
        raise HarnessError(f"layer self times sum to {split}, wall is {proc['wall_s']}")
    return m


# -- runs ------------------------------------------------------------------


def run_workload(name, spec, seed, seconds, trace, work_dir):
    """Launch processes until `seconds` have passed. A timed run starts
    with SETUP_LAUNCHES set-up-only processes; a traced run alternates
    timed and traced processes, at least one of each."""
    cfg = config_for(spec, seed)
    start = clock()
    setups = []
    for i in range(0 if trace else SETUP_LAUNCHES):
        run_dir = os.path.join(work_dir, f"{name}-setup-{i}")
        setups.append(run_process(run_dir, cfg, "setup"))
        shutil.rmtree(run_dir)
    setups = [p for p in setups if p["error"] is None]
    procs = []
    while True:
        modes = {p["mode"] for p in procs}
        if clock() - start >= seconds and (not trace or modes == {"timed", "traced"}):
            break
        mode = "traced" if trace and len(procs) % 2 == 1 else "timed"
        run_dir = os.path.join(work_dir, f"{name}-{len(procs)}")
        procs.append(run_process(run_dir, cfg, mode))
        shutil.rmtree(run_dir)      # factor files reach ~100 MB
    failures = [{"run": i, "error": p["error"], "message": p["message"]}
                for i, p in enumerate(procs) if p["error"]]
    result = {"correct": not failures, "attempted": len(procs),
              "failed": len(failures), "failures": failures}
    if trace:
        untraced = [p for p in procs if p["mode"] == "timed"]
        traced = sorted((p for p in procs if p["mode"] == "traced"),
                        key=lambda p: p["wall_s"])
        chosen = traced[(len(traced) - 1) // 2]          # the median-wall trace
        values = layer_metrics(chosen, median(p["wall_s"] for p in untraced))
        units = PER_LAYER
    else:
        values = end_to_end(procs, setups)
        units = END_TO_END
    result["metrics"] = {k: {"value": values[k], "unit": units[k]} for k in units}
    result["fail_share"] = len(failures) / len(procs)
    return result


def self_check(work_dir):
    """Tiny timed, traced and set-up-only solves; then corrupt the outputs
    one way at a time and require `check_outputs` to name each corruption."""
    cfg = config_for(SELF_CHECK, 7)
    timed = run_process(os.path.join(work_dir, "self-check-0"), cfg, "timed")
    traced_dir = os.path.join(work_dir, "self-check-1")
    traced = run_process(traced_dir, cfg, "traced")
    setup = run_process(os.path.join(work_dir, "self-check-2"), cfg, "setup")
    if setup["error"] or setup["solve_s"] is not None:
        raise HarnessError(f"self-check: set-up-only run gave {setup['error']}, "
                           f"solve_s {setup['solve_s']}")
    for proc in (timed, traced):
        if proc["error"]:
            raise HarnessError(f"self-check solve failed: {proc['error']} "
                               f"{proc['message']}")
        for key in ("setup_s", "solve_s", "iterations"):
            if not isinstance(proc[key], (int, float)) or proc[key] <= 0:
                raise HarnessError(f"self-check: {key} = {proc[key]!r}")
    spans = {s[0] for s in timed["record"]["spans"]}
    if spans != {"problems.build", "solvers.solve"}:
        raise HarnessError(f"self-check: timed run recorded spans {sorted(spans)}")
    metrics = layer_metrics(traced, timed["wall_s"])
    for name in ("krylov.extend_calls", "solvers.grid_runs", "dense.expm_calls",
                 "sparsela.apply_calls", "mmio.bytes_written", "cli.ranks_s"):
        if not metrics[name] > 0:
            raise HarnessError(f"self-check: {name} = {metrics[name]!r}")
    if set(metrics) != set(PER_LAYER):
        raise HarnessError("self-check: per-layer metric names changed")

    out_dir = os.path.join(traced_dir, "out")
    record = traced["record"]
    csv_path = os.path.join(out_dir, "solution.csv")
    report_path = os.path.join(out_dir, "report.json")
    factor_path = os.path.join(out_dir, "factor_tf.mtx")

    def corrupt(path, edit, expected):
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(edit(text))
        found = check_outputs(out_dir, 0, record, cfg)
        with open(path, "w") as fh:
            fh.write(text)
        if found != expected:
            raise HarnessError(f"self-check: corrupted {os.path.basename(path)} "
                               f"gave {found!r}, expected {expected!r}")

    tol = cfg["solver"]["tol"]
    corrupt(csv_path, lambda t: t.rsplit("\n", 2)[0] + "\n", "RowCount")
    corrupt(csv_path, lambda t: t.replace(t.splitlines()[-1],
                                          f"2,{10 * tol},4"), "ResidualAboveTol")
    corrupt(factor_path, lambda t: t.replace("\n100 ", "\n99 ", 1), "FactorShape")
    corrupt(report_path, lambda t: t.replace('"converged": true',
                                             '"converged": false'), "NotConverged")
    if check_outputs(out_dir, 0, record, cfg) is not None:
        raise HarnessError("self-check: restored outputs do not pass")
    for i in range(3):
        shutil.rmtree(os.path.join(work_dir, f"self-check-{i}"))


HOST_SNIPPET = r"""
import json, os, platform, numpy, scipy
cpu = ""
try:
    with open("/proc/cpuinfo") as fh:
        cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), "")
except OSError:
    pass
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"cpu": cpu, "nproc": os.cpu_count(),
                  "python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas": blas.get("openblas configuration") or blas.get("name"),
                  "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}))
"""


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            return next((l.split()[0] for l in fh if l.rstrip().endswith(ref)), None)
    except OSError:
        return None


def host_info():
    out = subprocess.run([sys.executable, "-c", HOST_SNIPPET], env=child_env(),
                         capture_output=True, text=True, check=True, timeout=60)
    info = json.loads(out.stdout)
    info["commit"] = git_commit()
    return info


def format_value(value):
    if value is None:
        return "n/a"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_result(name, result):
    print(f"# {name}: {result['attempted']} processes, {result['failed']} failed, "
          f"fail_share {result['fail_share']:.3g} ratio")
    for failure in result["failures"]:
        message = (failure["message"] or "").strip().splitlines()
        print(f"#   run {failure['run']} failed: {failure['error']}"
              + (f": {message[-1]}" if message else ""))
    for key, metric in result["metrics"].items():
        print(f"{name} {key} {format_value(metric['value'])} {metric['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7,
                        help="PCG64 seed of the input block B (default 7)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dlekrylov", "cli.py")):
        print(f"error: no dlekrylov sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    work_dir = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        self_check(work_dir)
        print("# host " + json.dumps(host_info()))
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            results[name] = run_workload(name, WORKLOADS[name], args.seed,
                                         args.seconds, args.trace, work_dir)
            print_result(name, results[name])
    except HarnessError as exc:
        print(f"harness error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if args.workload == "all":
        print(json.dumps({"seed": args.seed, "trace": args.trace,
                          "workloads": results}))
    else:
        r = results[args.workload]
        print(json.dumps({k: r[k] for k in ("correct", "attempted", "failed",
                                            "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
