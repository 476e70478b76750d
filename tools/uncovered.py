#!/usr/bin/env python3
"""Lines of ``src/fedq`` that no test runs.

    python3 tools/uncovered.py [PYTEST_ARGS...]

Runs the test suite from the repository root (tier-1 by default:
``tests/``, as pyproject configures pytest) in this process under a
``sys.settrace`` line tracer that follows only frames whose code lives
in ``src/fedq``, then prints every executable line that no test ran, as
``path:line  source``, and their count. A line is executable when an
instruction of some code object compiled from its module maps to it
(``co_lines``; line 0, a module's entry, is no line of its source).
Code that a test runs in a subprocess is not seen. Only the standard
library is used, so no coverage package is needed. Exits with pytest's
status.
"""

import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fedq"


def executable_lines(path: Path) -> set[int]:
    """The lines that the code objects compiled from ``path`` map instructions to."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced(argv: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest on ``argv`` under the tracer: its exit status and the lines run per package file."""
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}
    ours: dict[object, set[int] | None] = {}  # per code object: its file's lines, or None outside the package

    def on_call(frame, event, arg):
        code = frame.f_code
        if code not in ours:
            name = str(Path(code.co_filename).resolve())
            ours[code] = ran.setdefault(name, set()) if name.startswith(prefix) else None
        lines = ours[code]
        if lines is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(PACKAGE.parent))
    status, ran = traced(sys.argv[1:])
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - ran.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}  {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} executable lines of {PACKAGE.relative_to(ROOT)} not run")
    return status


if __name__ == "__main__":
    sys.exit(main())
