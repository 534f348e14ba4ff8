#!/usr/bin/env python3
"""The lines of the package that the tier-1 suite never runs.

    python3 scripts/linecov.py [extra pytest arguments]

Run it from anywhere; it finds the repository from its own path.  It runs
the tier-1 suite (``tests/``) by ``pytest.main`` in this process under a
``sys.settrace`` line tracer, then prints every executable line of
``src/curveclass/*.py`` that never ran, as ``path:line: text``, then the
count, and last how many of the ``raise`` statements whose message starts
with "internal:" never ran, out of how many.  A line is executable when
some code object compiled from its file names it in ``co_lines()``.  Code
run in child processes, such as the CLI tests' subprocesses, is not seen.
The exit code is pytest's.

It is not part of tier-1: the tracer makes the suite several times slower
(about 240 s on 2 vCPU, against about 40 s without).  Standard library only,
apart from pytest, which runs the suite.
"""

from __future__ import annotations

import ast
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "curveclass"


def executable_lines(path: Path) -> set[int]:
    """The line numbers named by the bytecode of every code object of path."""
    todo, lines = [compile(path.read_text(), str(path), "exec")], set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def internal_raises(path: Path) -> list[range]:
    """The lines of each raise in path whose message starts with "internal:",
    one range per statement however many lines it spans."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and node.exc.args):
            continue
        msg = node.exc.args[0]
        if isinstance(msg, ast.JoinedStr) and msg.values:
            msg = msg.values[0]
        if isinstance(msg, ast.Constant) and str(msg.value).startswith("internal:"):
            found.append(range(node.lineno, node.end_lineno + 1))
    return found


def run_traced(argv: list[str], hits: dict[str, set[int]]) -> int:
    """pytest.main(argv), with every line run in a file of hits recorded there."""

    def trace(frame, event, arg):
        seen = hits.get(frame.f_code.co_filename)
        if seen is None:
            return None  # no line events outside the package
        seen.add(frame.f_lineno)

        def trace_lines(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        return pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)


def main() -> int:
    if "curveclass" in sys.modules:
        raise SystemExit("curveclass is already imported: its module-level lines would be missed")
    sys.path.insert(0, str(ROOT / "src"))
    sources = sorted(SRC.glob("*.py"))
    hits: dict[str, set[int]] = {str(path): set() for path in sources}
    code = run_traced(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *sys.argv[1:]], hits)
    missed = total = checks_missed = checks = 0
    for path in sources:
        text = path.read_text().splitlines()
        lines = executable_lines(path)
        seen = hits[str(path)]
        total += len(lines)
        for line in sorted(lines - seen):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
            missed += 1
        raises = internal_raises(path)
        checks += len(raises)
        checks_missed += sum(1 for span in raises if seen.isdisjoint(span))
    print(f"{missed} of {total} executable lines under src/curveclass never ran")
    print(f'{checks_missed} of {checks} "internal:" raises under src/curveclass never ran')
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
