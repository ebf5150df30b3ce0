"""One `dlekrylov solve` process, run by the benchmark harness.

    python3 child.py SRC_DIR RECORD_JSON MODE -- <dlekrylov solve arguments>

The program is not instrumented: this script imports `dlekrylov.cli` from
SRC_DIR, wraps the names the solve path looks up, calls `cli.main` with the
given arguments and exits with its status. An exception that escapes the CLI
is recorded by class and re-raised, so the process fails as the CLI would.

MODE "timed" times only `cli.build_problem` and `cli.solve`. MODE "setup"
does the same but exits with status 0 once `build_problem` returns. MODE
"traced" also makes every layer boundary listed in `_install_traced` a
span. Spans and counters stay in memory and are written to RECORD_JSON when
the process ends.
"""

import functools
import json
import os
import sys
import time

clock = time.monotonic     # CLOCK_MONOTONIC: comparable with the parent's clock


class SetupDone(BaseException):
    """Ends a set-up-only process once `build_problem` has returned."""


class Tracer:
    """Spans [name, start, end, parent index, error class or None] and
    counters computed from argument shapes and file sizes."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def call(self, name, fn, args, kwargs):
        rec = [name, clock(), None, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            rec[4] = type(exc).__name__
            raise
        finally:
            rec[2] = clock()
            self._stack.pop()

    def wrap(self, owner, attr, name, after=None):
        """Replace owner.attr by a spanned wrapper; `after(args, result)`
        runs once the call has returned."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self.call(name, fn, args, kwargs)
            if after is not None:
                after(args, out)
            return out

        setattr(owner, attr, wrapper)


def _columns(block):
    return block.shape[1] if getattr(block, "ndim", 1) == 2 else 1


def _install_traced(tracer, cli):
    from dlekrylov import dense, krylov, solvers, sparsela

    # cli, solvers bind these by `from ... import` or module-global lookup,
    # so the wrapper goes on the name the caller reads.
    tracer.wrap(cli, "cmd_solve", "cli.cmd_solve")
    tracer.wrap(cli, "_write_csv", "cli.csv")

    def mmio_after(args, _):
        tracer.count("mmio.bytes_written", os.path.getsize(args[1]))

    tracer.wrap(cli, "write_matrix_market_array", "mmio.write", mmio_after)
    tracer.wrap(solvers.Trajectory, "ranks", "cli.ranks")
    tracer.wrap(solvers.Trajectory, "lowrank_factor", "cli.factor")

    tracer.wrap(sparsela.Factorization, "__init__", "sparsela.factor")
    tracer.wrap(sparsela.LinearOperator, "apply", "sparsela.apply",
                lambda args, _: tracer.count("sparsela.columns", _columns(args[1])))
    tracer.wrap(sparsela.LinearOperator, "apply_inverse", "sparsela.apply_inverse",
                lambda args, _: tracer.count("sparsela.columns", _columns(args[1])))

    tracer.wrap(krylov.KrylovDecomposition, "__init__", "krylov.init")
    tracer.wrap(krylov.KrylovDecomposition, "extend", "krylov.extend")

    def grid_after(args, _):
        tracer.count("solvers.grid_nodes", args[3].n_steps + 1)

    tracer.wrap(solvers, "_run_gram_grid", "solvers.grid", grid_after)
    tracer.wrap(solvers, "_run_bdf_grid", "solvers.grid", grid_after)
    tracer.wrap(solvers, "_panel_increment", "solvers.panel")
    tracer.wrap(solvers, "exact_step_pair", "solvers.step_pair")
    tracer.wrap(solvers, "_residuals_over_nodes", "solvers.residual")

    tracer.wrap(solvers, "expm", "dense.expm")
    tracer.wrap(dense.LyapunovSolver, "__init__", "dense.lyap_schur")
    tracer.wrap(dense.LyapunovSolver, "solve", "dense.lyap_solve")


def main(argv):
    src, record_path, mode = argv[1], argv[2], argv[3]
    cli_argv = argv[5:]
    record = {"error": None, "message": None, "build_end": None,
              "solve_s": None, "iterations": None, "basis_size": None,
              "n_nodes": None}
    tracer = Tracer()
    status = 1
    try:
        sys.path.insert(0, src)
        t_import = clock()
        from dlekrylov import cli
        if mode == "traced":
            tracer.spans.append(["cli.import", t_import, clock(), -1, None])
        if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
            raise ImportError(f"dlekrylov was imported from {cli.__file__}, not {src}")

        if mode == "traced":
            _install_traced(tracer, cli)

        def last_span(name):
            return next(s for s in reversed(tracer.spans) if s[0] == name)

        def build_after(args, _):
            record["build_end"] = last_span("problems.build")[2]
            if mode == "setup":
                raise SetupDone

        def solve_after(args, traj):
            _, start, end, _, _ = last_span("solvers.solve")
            record["solve_s"] = end - start
            record["iterations"] = traj.iterations[-1].m
            record["basis_size"] = int(traj.basis_size)
            record["n_nodes"] = len(traj.nodes)

        tracer.wrap(cli, "build_problem", "problems.build", build_after)
        tracer.wrap(cli, "solve", "solvers.solve", solve_after)
        status = cli.main(cli_argv)
    except SetupDone:
        status = 0
    except Exception as exc:
        record["error"] = type(exc).__name__
        record["message"] = str(exc)
        raise
    finally:
        record["spans"] = tracer.spans
        record["counters"] = tracer.counters
        with open(record_path, "w") as fh:
            json.dump(record, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
