"""Assert screen: does some test fail when one `assert` of a module goes?

Run from the repository root; it needs only the standard library and
pytest:

    python tools/mutants.py MODULE [MODULE ...] [PYTEST ARGS] [--out RESULTS.json]

Each ``MODULE`` is a Python file under the root, such as
``src/graphcover/eds_tree.py``; the leading arguments ending in ``.py``
are the modules, and the rest go to pytest.  The screen copies the root
to a scratch directory once.  For each ``assert`` statement of each
module, found by its syntax tree, it replaces that one statement with
``pass`` (keeping every other line where it was), and runs ``python -m
pytest -x -q PYTEST ARGS`` there with ``src`` on ``PYTHONPATH``.  An
assert is *killed* when the run fails, naming the first failing test,
and *survives* when it passes.  A run whose first failure is the import
lint, :data:`LINT`, runs again without it: an assert whose deletion fails
only the lint, by leaving an import unused, survives with the lint named
as its first failure.  A mutant can loop or grow without end where its
check stood, so each run is held to an address space of 2 GiB and a wall
time of 15 minutes (the whole tier-1 suite needs under a tenth of
either); a run stopped by either counts as killed.  The JSON lists, keyed
by module, each assert with its line, source, result and first failing
test, in source order; the screen exits 1 when one survives.
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
from typing import Dict, List, Optional

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


def without(source: str, node: ast.Assert) -> str:
    """``source`` with the statement ``node`` replaced by ``pass``; a
    statement over several lines leaves its later lines empty, so every
    other line keeps its number."""
    lines = source.split("\n")
    first, last = node.lineno - 1, node.end_lineno - 1
    lines[first] = lines[first][: node.col_offset] + "pass" + lines[last][node.end_col_offset:]
    for i in range(first + 1, last + 1):
        lines[i] = ""
    return "\n".join(lines)


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
    """Per module of ``root``, one record per assert."""
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp, "root")
        shutil.copytree(root, copy, ignore=_SKIP)
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        for module in modules:
            source = (root / module).read_text()
            records = results[module] = []
            for node in asserts(source):
                (copy / module).write_text(without(source, node))
                code, output = _pytest(copy, env, ["-x", *pytest_args])
                failure = None if code == 0 else _first_failure(output) or f"exit {code}"
                if failure == LINT:  # the lint kills nothing: look past it
                    code, output = _pytest(copy, env, ["-x", "--deselect", LINT, *pytest_args])
                    if code != 0:
                        failure = _first_failure(output) or f"exit {code}"
                records.append({
                    "line": node.lineno,
                    "assert": ast.get_source_segment(source, node),
                    "result": "survived" if code == 0 else "killed",
                    "first_failure": failure,
                })
            (copy / module).write_text(source)
    return results


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
        survived = [r for r in records if r["result"] == "survived"]
        survivors += len(survived)
        print(f"{module}: {len(records) - len(survived)} of {len(records)} asserts killed")
        for r in survived:
            lint = f" (fails only {LINT})" if r["first_failure"] else ""
            print(f"survived: line {r['line']}: {r['assert']}{lint}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
