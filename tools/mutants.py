"""Mutation screen: does some test fail when one assert or check of a module is disabled?

Run from the repository root; it needs only the standard library and
pytest:

    python tools/mutants.py MODULE [MODULE ...] [PYTEST ARGS] [--out RESULTS.json]

Each ``MODULE`` is a Python file under the root, such as
``src/graphcover/eds_tree.py``; the leading arguments ending in ``.py``
are the modules, and the rest go to pytest.  The screen copies the root
to a scratch directory once.  It makes two kinds of mutant, each found
by the module's syntax tree and each changing one place while keeping
every other line where it was: an ``assert`` statement replaced with
``pass``, and a check ``report.add(NAME, CONDITION, ...)`` with its
condition replaced with ``True``, so that the check passes whatever it
is given.  For each mutant it runs ``python -m pytest -x -q PYTEST
ARGS`` there with ``src`` on ``PYTHONPATH``.  A
mutant is *killed* when the run fails, naming the first failing test,
and *survives* when it passes.  A run whose first failure is the import
lint, :data:`LINT`, runs again without it: a mutant that fails only the
lint, by leaving an import unused, survives with the lint named as its
first failure.  A mutant can loop or grow without end where its
check stood, so each run is held to an address space of 2 GiB and a wall
time of 15 minutes (the whole tier-1 suite needs under a tenth of
either); a run stopped by either counts as killed.  The JSON lists, keyed
by module, each mutant with its line, its assert's source or its check's
name, its result and its first failing test, in source order; the screen
exits 1 when one survives.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench")
_MEMORY = 2 * 2**30  # bytes of address space a run may hold
_TIMEOUT = 900  # seconds a run may take
#: The import lint.  It fails when a deleted assert leaves a name imported
#: for it unused, which tests no invariant of the assert.
LINT = "tests/test_public_api.py::test_no_unused_imports_in_the_package"


def asserts(source: str) -> List[ast.Assert]:
    """Every assert statement of ``source``, in source order."""
    found = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]
    return sorted(found, key=lambda node: (node.lineno, node.col_offset))


def checks(source: str) -> List[ast.Call]:
    """Every check ``report.add(NAME, CONDITION, ...)`` of ``source``, in
    source order."""
    found = [
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add" and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "report" and len(node.args) >= 2
    ]
    return sorted(found, key=lambda node: (node.lineno, node.col_offset))


def _replaced(source: str, node: ast.AST, text: str) -> str:
    """``source`` with ``node`` replaced by ``text``; a node over several
    lines leaves its later lines empty, so every other line keeps its
    number."""
    lines = source.split("\n")
    first, last = node.lineno - 1, node.end_lineno - 1
    lines[first] = lines[first][: node.col_offset] + text + lines[last][node.end_col_offset:]
    for i in range(first + 1, last + 1):
        lines[i] = ""
    return "\n".join(lines)


def without(source: str, node: ast.Assert) -> str:
    """``source`` with the statement ``node`` replaced by ``pass``."""
    return _replaced(source, node, "pass")


def forced(source: str, call: ast.Call) -> str:
    """``source`` with the condition of the check ``call`` replaced by
    ``True``; the call keeps its other arguments."""
    return _replaced(source, call.args[1], "True")


def mutants(source: str) -> List[Tuple[int, str, str, str]]:
    """Each mutant of ``source`` as its line, its kind, what it names (the
    assert's source or the check's name) and the mutated source, in
    source order."""
    found = [(node.lineno, "assert", ast.get_source_segment(source, node),
              without(source, node)) for node in asserts(source)]
    for call in checks(source):
        name = call.args[0]
        named = name.value if isinstance(name, ast.Constant) else ast.get_source_segment(
            source, name)
        found.append((call.lineno, "check", named, forced(source, call)))
    return sorted(found, key=lambda mutant: mutant[:2])


def _first_failure(output: str) -> Optional[str]:
    match = re.search(r"^(?:FAILED|ERROR) (\S+)", output, re.MULTILINE)
    return match.group(1) if match else None


def _held() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (_MEMORY, _MEMORY))


def _pytest(copy: Path, env: dict, args: List[str]):
    """The exit code and output of one held pytest run in ``copy``."""
    argv = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *args]
    try:
        run = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True,
                             timeout=_TIMEOUT, preexec_fn=_held)
    except subprocess.TimeoutExpired:
        return "timeout", ""
    return run.returncode, run.stdout


def screen(root: Path, modules: List[str], pytest_args: List[str]) -> Dict[str, List[dict]]:
    """Per module of ``root``, one record per mutant."""
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp, "root")
        shutil.copytree(root, copy, ignore=_SKIP)
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        for module in modules:
            source = (root / module).read_text()
            records = results[module] = []
            for line, kind, named, mutated in mutants(source):
                (copy / module).write_text(mutated)
                code, output = _pytest(copy, env, ["-x", *pytest_args])
                failure = None if code == 0 else _first_failure(output) or f"exit {code}"
                if failure == LINT:  # the lint kills nothing: look past it
                    code, output = _pytest(copy, env, ["-x", "--deselect", LINT, *pytest_args])
                    if code != 0:
                        failure = _first_failure(output) or f"exit {code}"
                records.append({
                    "line": line,
                    kind: named,
                    "result": "survived" if code == 0 else "killed",
                    "first_failure": failure,
                })
            (copy / module).write_text(source)
    return results


#: Per kind of mutant: its plural in the summary, and how a survivor is shown.
_SHOWN = {
    "assert": ("asserts", "{}"),
    "check": ("checks forced to pass", "check {!r} forced to pass"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default="mutants.json", help="write the results here")
    parser.add_argument("--root", default=".", help="the tree to copy (default: here)")
    args, rest = parser.parse_known_args(argv)
    count = next((i for i, arg in enumerate(rest) if not arg.endswith(".py")), len(rest))
    modules, pytest_args = rest[:count], rest[count:]
    if not modules:
        parser.error("name at least one MODULE, a .py file")
    results = screen(Path(args.root).resolve(), modules, pytest_args)
    doc = {"pytest_args": pytest_args, "modules": results}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    survivors = 0
    for module, records in results.items():
        # a line per kind of mutant the module has; a module with none
        # still gets one
        kinds = [k for k in _SHOWN if any(k in r for r in records)] or ["assert"]
        for kind in kinds:
            label, shown = _SHOWN[kind]
            mine = [r for r in records if kind in r]
            survived = [r for r in mine if r["result"] == "survived"]
            survivors += len(survived)
            print(f"{module}: {len(mine) - len(survived)} of {len(mine)} {label} killed")
            for r in survived:
                lint = f" (fails only {LINT})" if r["first_failure"] else ""
                print(f"survived: line {r['line']}: {shown.format(r[kind])}{lint}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
