"""Run pytest under a line tracer and print every statement of src/cbrsim
that never ran.

    python3 tests/line_trace.py [PYTEST_ARGS...]

The tracer is installed with sys.settrace and threading.settrace before
pytest.main(PYTEST_ARGS) starts in this process, and records lines only in
frames whose file lies under src/cbrsim. Then, for each file, it prints
`file:line  source` for every statement that never ran, and the total. A
statement is any ast.stmt other than a def, a class, an import or a
docstring; it ran if any line it spans ran, so a compound statement ran if
its body did; docstrings are found as tests/code_lines.py finds them.
The exit status is pytest's. Tracing makes the tests run
about four times as long. Standard library plus pytest.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

import pytest

from code_lines import docstrings

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cbrsim"
NOT_COUNTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def statements(source: str) -> List[Tuple[int, int]]:
    """(first line, last line) of each statement that counts, in line order."""
    tree = ast.parse(source)
    skipped = {id(doc) for doc in docstrings(tree)}
    return sorted((node.lineno, node.end_lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.stmt) and not isinstance(node, NOT_COUNTED)
                  and id(node) not in skipped)


def never_ran(source: str, ran: Set[int]) -> List[int]:
    """First lines of the statements of which no line is in ran."""
    return [first for first, last in statements(source)
            if not any(line in ran for line in range(first, last + 1))]


def traced_run(package: Path, pytest_args: List[str]) -> Tuple[int, Dict[str, Set[int]]]:
    """Run pytest with the tracer on; its status, and file -> lines that ran."""
    root = str(package.resolve()) + os.sep
    inside: Dict[str, Optional[str]] = {}   # co_filename -> real path, or None
    hits: Dict[str, Set[int]] = defaultdict(set)

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in inside:
            real = os.path.realpath(filename)
            inside[filename] = real if real.startswith(root) else None
        path = inside[filename]
        if path is None:
            return None
        lines = hits[path]

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line
        return on_line

    previous = sys.gettrace()
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(previous)
        threading.settrace(previous)
    return int(status), hits


def main(argv: Optional[List[str]] = None) -> int:
    status, hits = traced_run(PACKAGE, sys.argv[1:] if argv is None else argv)
    total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for lineno in never_ran(source, hits.get(str(path.resolve()), set())):
            print(f"{path.relative_to(PACKAGE)}:{lineno}  {lines[lineno - 1].strip()}")
            total += 1
    print(f"{total} statements never ran")
    return status


if __name__ == "__main__":
    sys.exit(main())
