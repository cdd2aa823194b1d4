"""The assert screen, on a toy module with one assert a test fires and one
it does not."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import mutants  # noqa: E402

TOY = '''def half(x):
    assert x % 2 == 0, "x is even"
    y = x // 2
    assert (
        y >= 0
    ), "x is not negative"
    return y
'''

TOY_TEST = '''import pytest

import toy


def test_half():
    assert toy.half(4) == 2


def test_odd_is_refused():
    with pytest.raises(AssertionError, match="x is even"):
        toy.half(3)
'''


def test_without_replaces_one_assert_and_keeps_every_line_number():
    first, second = mutants.asserts(TOY)
    assert (first.lineno, second.lineno) == (2, 4)
    lines = mutants.without(TOY, second).split("\n")
    assert lines[3:6] == ["    pass", "", ""]
    assert lines[:3] + lines[6:] == TOY.split("\n")[:3] + TOY.split("\n")[6:]
    assert mutants.without(TOY, first).split("\n")[1] == "    pass"


def test_screen_names_the_killed_and_the_surviving_assert(tmp_path, capsys):
    root = tmp_path / "toy"
    (root / "src").mkdir(parents=True)
    (root / "tests").mkdir()
    (root / "src" / "toy.py").write_text(TOY)
    (root / "tests" / "test_toy.py").write_text(TOY_TEST)
    out = tmp_path / "screen.json"
    # the toy's tests need no Hypothesis, and its plugin slows each run
    pytest_args = ["-p", "no:hypothesispytest", "tests"]
    argv = ["src/toy.py", *pytest_args, "--root", str(root), "--out", str(out)]
    assert mutants.main(argv) == 1  # one assert survives
    doc = json.loads(out.read_text())
    assert doc["module"] == "src/toy.py" and doc["pytest_args"] == pytest_args
    assert doc["asserts"] == [
        {
            "line": 2,
            "assert": 'assert x % 2 == 0, "x is even"',
            "result": "killed",
            "first_failure": "tests/test_toy.py::test_odd_is_refused",
        },
        {
            "line": 4,
            "assert": 'assert (\n        y >= 0\n    ), "x is not negative"',
            "result": "survived",
            "first_failure": None,
        },
    ]
    assert capsys.readouterr().out.startswith("1 of 2 asserts killed\nsurvived: line 4:")
    assert (root / "src" / "toy.py").read_text() == TOY  # the screen works on a copy
