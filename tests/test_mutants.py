"""The assert screen, on a toy tree of two modules: an assert a test
fires, one that no test fires, and one whose deletion fails only the
toy's import lint."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import mutants  # noqa: E402

TOY = '''import math


def half(x):
    y = x // 2
    assert (
        y >= 0
    ), "x is not negative"
    assert math.isfinite(y), "y is finite"
    return y
'''

OTHER = '''def third(x):
    assert x % 3 == 0, "x is a multiple of 3"
    return x // 3
'''

TOY_TEST = '''import pytest

import other
import toy


def test_half():
    assert toy.half(4) == 2


def test_third():
    assert other.third(6) == 2
    with pytest.raises(AssertionError, match="multiple of 3"):
        other.third(4)
'''

# the toy's import lint: each name imported in toy.py is used there
TOY_LINT = '''import ast
from pathlib import Path


def test_no_unused_imports_in_the_package():
    tree = ast.parse(Path("src/toy.py").read_text())
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported <= used
'''


def test_without_replaces_one_assert_and_keeps_every_line_number():
    first, second = mutants.asserts(TOY)
    assert (first.lineno, second.lineno) == (6, 9)
    lines = mutants.without(TOY, first).split("\n")
    assert lines[5:8] == ["    pass", "", ""]
    assert lines[:5] + lines[8:] == TOY.split("\n")[:5] + TOY.split("\n")[8:]
    assert mutants.without(TOY, second).split("\n")[8] == "    pass"


def test_screen_names_the_killed_and_the_surviving_assert(tmp_path, capsys):
    root = tmp_path / "toy"
    (root / "src").mkdir(parents=True)
    (root / "tests").mkdir()
    (root / "src" / "toy.py").write_text(TOY)
    (root / "src" / "other.py").write_text(OTHER)
    (root / "tests" / "test_toy.py").write_text(TOY_TEST)
    (root / "tests" / "test_public_api.py").write_text(TOY_LINT)
    out = tmp_path / "screen.json"
    # the toy's tests need neither Hypothesis nor pytest-benchmark, whose
    # plugins slow each run
    pytest_args = ["-p", "no:hypothesispytest", "-p", "no:benchmark", "tests"]
    argv = ["src/toy.py", "src/other.py", *pytest_args, "--root", str(root), "--out", str(out)]
    assert mutants.main(argv) == 1  # two asserts survive
    doc = json.loads(out.read_text())
    assert doc["pytest_args"] == pytest_args
    assert doc["modules"] == {
        "src/toy.py": [
            {
                "line": 6,
                "assert": 'assert (\n        y >= 0\n    ), "x is not negative"',
                "result": "survived",
                "first_failure": None,
            },
            {
                "line": 9,
                "assert": 'assert math.isfinite(y), "y is finite"',
                "result": "survived",
                "first_failure": mutants.LINT,
            },
        ],
        "src/other.py": [
            {
                "line": 2,
                "assert": 'assert x % 3 == 0, "x is a multiple of 3"',
                "result": "killed",
                "first_failure": "tests/test_toy.py::test_third",
            },
        ],
    }
    assert capsys.readouterr().out.split("\n") == [
        "src/toy.py: 0 of 2 asserts killed",
        "survived: line 6: assert (",
        "        y >= 0",
        '    ), "x is not negative"',
        f'survived: line 9: assert math.isfinite(y), "y is finite" (fails only {mutants.LINT})',
        "src/other.py: 1 of 1 asserts killed",
        "",
    ]
    # the screen works on a copy
    assert (root / "src" / "toy.py").read_text() == TOY
    assert (root / "src" / "other.py").read_text() == OTHER
