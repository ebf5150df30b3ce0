#!/usr/bin/env python3
"""List the function-body lines of `src/dlekrylov` that a set of runs leaves unrun.

    python3 scripts/line_trace.py [CONFIG ...] [--workload NAME ...]
                                  [--function NAME ...]

Each CONFIG, a `dlekrylov` JSON config, and each `--workload`, a workload
of `perfbench/run.py` at seed 7, runs `dlekrylov solve` in this process,
one after the other, under `sys.settrace`, writing its outputs into a
temporary directory. The package is imported from the
`src/` next to this script, and only its frames are traced, line by line.

A line counts as run in a function when a line event of that function's
frame reached it. The lines of a function are those its code object's
instructions stand on (Python's own line table, the one the line events
follow), the `def` line aside; those of a nested function, lambda or
comprehension belong to it, not to the function around it. No coverage
package is needed.

It prints, module by module, every function-body line no run reached, as
`path:line: function: source`, then one line of counts per module and in
all; what the runs print goes to stderr. `--function NAME` lists only
the functions named NAME (a qualified name such as `Trajectory.ranks`,
or its last part). Exit status: 0, or 2
when a workload is unknown or a run exits with status 2.
"""

import argparse
import contextlib
import dis
import importlib.util
import inspect
import json
import os
import sys
import tempfile
from collections import defaultdict

sys.dont_write_bytecode = True     # importing perfbench/run.py writes nothing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "dlekrylov") + os.sep


def workload_config(name):
    """The config of the perfbench workload `name` at seed 7."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    if name not in bench.WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: "
                         f"{', '.join(bench.WORKLOADS)}")
    return bench.config_for(bench.WORKLOADS[name], 7)


def qualname(code):
    return getattr(code, "co_qualname", code.co_name)   # Python < 3.11


def body_lines(code):
    """The lines of the instructions of `code` after its RESUME, which
    stands on the `def` (or decorator) line and reports no line event;
    an instruction reports the last line start at or before it."""
    starts = dict(dis.findlinestarts(code))
    instructions = list(dis.get_instructions(code))
    after = not any(ins.opname == "RESUME" for ins in instructions)
    lines, line = set(), None
    for ins in instructions:
        line = starts.get(ins.offset, line)
        if after and line is not None:
            lines.add(line)
        after = after or ins.opname == "RESUME"
    return lines


def function_lines(path):
    """{(first line, qualified name): body lines} of every function, lambda
    and comprehension in the module at `path`."""
    with open(path, encoding="utf-8") as fh:
        module = compile(fh.read(), path, "exec")
    out = {}
    todo = [module]
    while todo:
        code = todo.pop()
        todo.extend(c for c in code.co_consts if inspect.iscode(c))
        if code.co_flags & inspect.CO_OPTIMIZED:     # a function, not a body
            out[code.co_firstlineno, qualname(code)] = body_lines(code)
    return out


def traced(run, items):
    """([run(item) for item in items], {(path, first line, qualified name):
    set of lines run}), each call under the tracer, with what it prints
    sent to stderr."""
    seen = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            code = frame.f_code
            seen[code.co_filename, code.co_firstlineno,
                 qualname(code)].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE) else None

    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            results = [run(item) for item in items]
    finally:
        sys.settrace(None)
    return results, seen


def wanted(name, names):
    return not names or any(name == n or name.endswith("." + n) for n in names)


def report(seen, names):
    """Print the unrun lines of the functions `names` asks for (all when
    empty) and the counts."""
    total = unrun_total = 0
    for path in sorted(os.path.join(dirpath, f)
                       for dirpath, _, files in os.walk(PACKAGE)
                       for f in files if f.endswith(".py")):
        with open(path, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        rel = os.path.relpath(path, ROOT)
        lines = unrun = 0
        for (first, name), body in sorted(function_lines(path).items()):
            if not wanted(name, names):
                continue
            missed = sorted(body - seen.get((path, first, name), set()))
            lines += len(body)
            unrun += len(missed)
            for line in missed:
                print(f"{rel}:{line}: {name}: {source[line - 1].strip()}")
        if lines:
            print(f"# {rel}: {unrun} of {lines} function-body lines unrun")
        total += lines
        unrun_total += unrun
    print(f"# all: {unrun_total} of {total} function-body lines unrun")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("configs", nargs="*", metavar="CONFIG",
                        help="a dlekrylov JSON config")
    parser.add_argument("--workload", action="append", default=[],
                        help="a perfbench workload, run at seed 7")
    parser.add_argument("--function", action="append", default=[],
                        help="list only the functions of this name")
    args = parser.parse_args(argv)
    if not args.configs and not args.workload:
        parser.error("give at least one CONFIG or --workload")

    sys.path.insert(0, SRC)
    from dlekrylov import cli
    if not cli.__file__.startswith(PACKAGE):
        sys.exit(f"dlekrylov was imported from {cli.__file__}")

    with tempfile.TemporaryDirectory() as tmp:
        try:
            paths = list(args.configs)
            for name in args.workload:
                paths.append(os.path.join(tmp, f"{name}.json"))
                with open(paths[-1], "w", encoding="utf-8") as fh:
                    json.dump(workload_config(name), fh)
        except (OSError, ValueError) as exc:
            print(f"line_trace: {exc}", file=sys.stderr)
            return 2
        statuses, seen = traced(
            lambda item: cli.main(["solve", "--config", item[1],
                                   "--out", os.path.join(tmp, f"run{item[0]}")]),
            enumerate(paths))
    for path, status in zip(paths, statuses):
        print(f"# ran solve on {os.path.basename(path)}: exit {status}")
    report(seen, args.function)
    return 2 if 2 in statuses else 0


if __name__ == "__main__":
    sys.exit(main())
