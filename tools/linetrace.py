"""List the statements of `src/` that a pytest run never executes.

Run from the repository root; it needs only the standard library and
pytest:

    PYTHONPATH=src python tools/linetrace.py [pytest arguments]

It runs pytest in process with this module as a plugin.  From configure
time on, `sys.settrace` and `threading.settrace` record each line that
runs in a file under `src/`.  At the end of the session the terminal
summary lists every statement in a function body that none of its lines
ran, as ``path:line: source``, then their count.  Module and class bodies
are left out, as they run on import.  A traced run of the whole suite
takes several times as long as an untraced one.

A statement owns the lines from its first (decorators included) to its
last, less those of the statements nested in it, so a compound statement
counts as run when its header runs.  Statements that compile to no line
event are never listed: docstrings and other bare strings, ``global`` and
``nonlocal``.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

_SILENT = (ast.Global, ast.Nonlocal)


def _nested(stmt: ast.stmt):
    """The statements directly inside a compound statement."""
    for field in ("body", "orelse", "finalbody", "handlers", "cases"):
        for node in getattr(stmt, field, ()):
            if isinstance(node, (ast.ExceptHandler, ast.match_case)):
                yield from node.body
            else:
                yield node


def _span(stmt: ast.stmt) -> set:
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
    return set(range(first, stmt.end_lineno + 1))


def _is_string(stmt: ast.stmt) -> bool:
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
    )


def statements(source: str) -> list:
    """``(first line, owned lines)`` of each statement in a function body,
    in source order."""
    found = []

    def visit(stmts, in_function: bool) -> None:
        for stmt in stmts:
            nested = list(_nested(stmt))
            if in_function and not isinstance(stmt, _SILENT) and not _is_string(stmt):
                owned = _span(stmt).difference(*map(_span, nested))
                found.append((stmt.lineno, owned))
            is_def = isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(nested, in_function or is_def)

    visit(ast.parse(source).body, False)
    return sorted(found, key=lambda item: item[0])


def unrun(source: str, ran: set) -> list:
    """``(line, stripped source line)`` of each statement in a function body
    none of whose lines is in `ran`."""
    text = source.splitlines()
    return [(line, text[line - 1].strip()) for line, owned in statements(source)
            if not owned & ran]


class Tracer:
    """Records the lines run in files under `root`, as absolute path to a
    set of line numbers."""

    def __init__(self, root) -> None:
        self.root = os.path.join(os.path.abspath(root), "")
        self.ran: dict = {}
        self._files: dict = {}  # co_filename -> its set in `ran`, or None

    def _call(self, frame, event, arg):
        name = frame.f_code.co_filename
        if name not in self._files:
            path = os.path.abspath(name)
            mine = path.startswith(self.root)
            self._files[name] = self.ran.setdefault(path, set()) if mine else None
        lines = self._files[name]
        if lines is None:
            return None

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line

        return line

    def start(self) -> None:
        self._before = sys.gettrace(), threading.gettrace()
        threading.settrace(self._call)
        sys.settrace(self._call)

    def stop(self) -> None:
        sys.settrace(self._before[0])
        threading.settrace(self._before[1])


_TRACER = pytest.StashKey[Tracer]()


def pytest_configure(config) -> None:
    tracer = config.stash[_TRACER] = Tracer(SRC)
    tracer.start()


def pytest_terminal_summary(terminalreporter, config) -> None:
    tracer = config.stash[_TRACER]
    tracer.stop()
    count = 0
    for path in sorted(SRC.rglob("*.py")):
        ran = tracer.ran.get(str(path), set())
        for line, text in unrun(path.read_text(), ran):
            terminalreporter.write_line(f"{path.relative_to(SRC.parent)}:{line}: {text}")
            count += 1
    terminalreporter.write_line(f"{count} statements in function bodies never ran")


if __name__ == "__main__":
    sys.exit(pytest.main(sys.argv[1:], plugins=[sys.modules[__name__]]))
