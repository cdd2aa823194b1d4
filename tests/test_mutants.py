"""The mutation screen, on a toy tree: an assert a test fires, one that
no test fires, and one whose deletion fails only the toy's import lint;
and a check that a test fails and one that no test fails."""

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


# a toy verifier of two checks, and a test that only the first fails
VERIFY = '''def verify(x, report):
    report.add("positive", x > 0, "x must be positive")
    report.add(
        "even", x % 2
        == 0,
    )
    return report
'''

VERIFY_TEST = '''import verify


class Report(list):
    def add(self, name, ok, detail=""):
        self.append((name, ok))


def test_verify():
    assert verify.verify(4, Report()) == [("positive", True), ("even", True)]
    assert verify.verify(-2, Report())[0] == ("positive", False)
'''

# the toy's tests need neither Hypothesis nor pytest-benchmark, whose
# plugins slow each run
_PYTEST_ARGS = ["-p", "no:hypothesispytest", "-p", "no:benchmark", "tests"]


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
    pytest_args = _PYTEST_ARGS
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


def test_forced_passes_one_check_and_keeps_every_line_number():
    first, second = mutants.checks(VERIFY)
    assert (first.lineno, second.lineno) == (2, 3)
    lines = mutants.forced(VERIFY, second).split("\n")
    assert lines[2:6] == ["    report.add(", '        "even", True,', "", "    )"]
    assert lines[:3] + lines[5:] == VERIFY.split("\n")[:3] + VERIFY.split("\n")[5:]
    assert mutants.forced(VERIFY, first).split("\n")[1] == \
        '    report.add("positive", True, "x must be positive")'


def test_screen_names_the_killed_and_the_surviving_check(tmp_path, capsys):
    root = tmp_path / "toy"
    (root / "src").mkdir(parents=True)
    (root / "tests").mkdir()
    (root / "src" / "verify.py").write_text(VERIFY)
    (root / "tests" / "test_verify.py").write_text(VERIFY_TEST)
    out = tmp_path / "screen.json"
    argv = ["src/verify.py", *_PYTEST_ARGS, "--root", str(root), "--out", str(out)]
    assert mutants.main(argv) == 1  # "even" survives
    assert json.loads(out.read_text())["modules"] == {"src/verify.py": [
        {"line": 2, "check": "positive", "result": "killed",
         "first_failure": "tests/test_verify.py::test_verify"},
        {"line": 3, "check": "even", "result": "survived", "first_failure": None},
    ]}
    assert capsys.readouterr().out.split("\n") == [
        "src/verify.py: 1 of 2 checks forced to pass killed",
        "survived: line 3: check 'even' forced to pass",
        "",
    ]
    assert (root / "src" / "verify.py").read_text() == VERIFY
