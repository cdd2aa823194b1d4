"""Assert screen: does some test fail when one `assert` of a module goes?

Run from the repository root; it needs only the standard library and
pytest:

    python tools/mutants.py MODULE [PYTEST ARGS] [--out RESULTS.json]

``MODULE`` is a Python file under the root, such as
``src/graphcover/eds_tree.py``.  For each ``assert`` statement in it,
found by its syntax tree, the screen copies the root to a scratch
directory, replaces that one statement with ``pass`` (keeping every other
line where it was), and runs ``python -m pytest -x -q PYTEST ARGS`` there
with ``src`` on ``PYTHONPATH``.  An assert is *killed* when the run fails,
naming the first failing test, and *survives* when it passes.  A mutant
can loop or grow without end where its check stood, so each run is held
to an address space of 2 GiB and a wall time of 15 minutes (the whole
tier-1 suite needs under a tenth of either); a run stopped by either
counts as killed.  The JSON
lists each assert with its line, source, result and first failing test,
in source order; the screen exits 1 when one survives.
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
from typing import List, Optional

_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench")
_MEMORY = 2 * 2**30  # bytes of address space a run may hold
_TIMEOUT = 900  # seconds a run may take


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


def screen(root: Path, module: str, pytest_args: List[str]) -> List[dict]:
    """One record per assert of ``root / module``."""
    source = (root / module).read_text()
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp, "root")
        shutil.copytree(root, copy, ignore=_SKIP)
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        for node in asserts(source):
            (copy / module).write_text(without(source, node))
            argv = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
                    *pytest_args]
            try:
                run = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True,
                                     timeout=_TIMEOUT, preexec_fn=_held)
                code, output = run.returncode, run.stdout
            except subprocess.TimeoutExpired:
                code, output = "timeout", ""
            records.append({
                "line": node.lineno,
                "assert": ast.get_source_segment(source, node),
                "result": "survived" if code == 0 else "killed",
                "first_failure": None if code == 0 else _first_failure(output) or f"exit {code}",
            })
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("module", help="the Python file whose asserts are screened")
    parser.add_argument("--out", default="mutants.json", help="write the results here")
    parser.add_argument("--root", default=".", help="the tree to copy (default: here)")
    args, pytest_args = parser.parse_known_args(argv)
    records = screen(Path(args.root).resolve(), args.module, pytest_args)
    doc = {"module": args.module, "pytest_args": pytest_args, "asserts": records}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    survived = [r for r in records if r["result"] == "survived"]
    print(f"{len(records) - len(survived)} of {len(records)} asserts killed")
    for r in survived:
        print(f"survived: line {r['line']}: {r['assert']}")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
