"""Statement lines of `src/varifoldlab` that a run never executes.

Usage, from the root of a checkout:

    python tests/line_trace.py --workload certify stagewise --seeds 7
    python tests/line_trace.py --pytest -q tests/test_conformal.py

With ``--workload`` it builds each seed's batch of each workload with
``perfbench/workloads.py`` (which it only imports) and runs every job
once, untimed, as ``tests/result_digest.py`` does.  With ``--pytest`` it
runs pytest with every argument that follows instead.  Either way it
traces each line executed in `src/varifoldlab`, its imports included, in
the main thread and in every thread started after the trace
(``sys.settrace`` and ``threading.settrace``: `certify` runs its balls on
a thread pool), and then prints, per module, the statement lines executed
and never executed, as ranges, and every ``raise`` never executed, with
its source line.

A statement line is the first line of a statement (of its first
decorator, if any) that compiles to code: docstrings, ``from __future__``
imports and bare annotations are not statements.  A multi-line statement
counts as executed when any of its own lines is; a compound statement
(``if``, ``for``, ``def``, ...) counts by its header, and its body by its
own statements.  Tracing makes the run several times slower; a tier-1
pytest run takes minutes.
"""

from __future__ import annotations

import argparse
import ast
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "varifoldlab"


def _code_lines(code: types.CodeType):
    """Every line that the bytecode of `code` and its nested code runs on."""
    yield from (line for _, _, line in code.co_lines() if line is not None)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_lines(const)


def statement_lines(path: Path):
    """(owner, statements, raises) of one module: `owner` maps each source
    line to the statement line it belongs to, `statements` holds the
    statement lines that compile to code, `raises` those of ``raise``."""
    source = path.read_text()
    owner, raises = {}, set()
    # breadth first, so an inner statement claims its lines from the outer
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        owner.update(dict.fromkeys(range(first, node.end_lineno + 1), first))
        if isinstance(node, ast.Raise):
            raises.add(first)
    code = compile(source, str(path), "exec", dont_inherit=True)
    statements = {owner[line] for line in _code_lines(code) if line in owner}
    return owner, statements, raises & statements


def trace(run):
    """Call `run()` with line tracing on in `src/varifoldlab`; return its
    value and the executed lines, {resolved filename: set of line numbers}."""
    prefix = str(SRC) + "/"
    hits: dict[str, set] = {}
    local_tracers: dict[types.CodeType, object] = {}

    def tracer_for(code):
        if code not in local_tracers:
            local_tracers[code] = None
            filename = str(Path(code.co_filename).resolve())
            if filename.startswith(prefix):
                lines = hits.setdefault(filename, set())

                def local(frame, event, arg):
                    if event == "line":
                        lines.add(frame.f_lineno)
                    return local

                local_tracers[code] = local
        return local_tracers[code]

    def on_call(frame, event, arg):
        return tracer_for(frame.f_code)

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        value = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return value, hits


def _ranges(lines) -> str:
    """Sorted line numbers as ``a-b`` runs, "-" for none."""
    runs = []
    for line in sorted(lines):
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in runs) or "-"


def report(executed: dict) -> None:
    for path in sorted(SRC.glob("*.py")):
        owner, statements, raises = statement_lines(path)
        ran = {owner[line] for line in executed.get(str(path), ()) if line in owner}
        ran &= statements
        missed = statements - ran
        source = path.read_text().splitlines()
        print(f"{path.name}: {len(ran)} of {len(statements)} statement lines executed")
        print(f"  executed: {_ranges(ran)}")
        print(f"  never executed: {_ranges(missed)}")
        print(f"  raise never executed: {len(raises & missed)}")
        for line in sorted(raises & missed):
            print(f"    {line}: {source[line - 1].strip()}")


def _run_workloads(names, seeds):
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    for name in names:
        for seed in seeds:
            for job in workloads.WORKLOADS[name](seed).jobs:
                job.run()
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", nargs="+", metavar="W")
    mode.add_argument(
        "--pytest", nargs=argparse.REMAINDER, metavar="ARGS", help="pytest's arguments"
    )
    p.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = p.parse_args(argv)
    sys.path.insert(0, str(SRC.parent))
    if args.pytest is not None:
        import pytest

        code, executed = trace(lambda: int(pytest.main(args.pytest)))
    else:
        code, executed = trace(lambda: _run_workloads(args.workload, args.seeds))
    report(executed)
    return code


if __name__ == "__main__":
    sys.exit(main())
