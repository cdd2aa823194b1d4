"""The line tracer's statement analysis, on a toy source."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import linetrace  # noqa: E402

TOY = '''\
def f(x):
    """Docstring."""
    global SEEN
    if x:
        y = (
            1
        )
    elif x is None:
        y = 2
    else:
        try:
            y = 3
        except ValueError:
            raise
    for _ in ():
        pass
    return y


@staticmethod
def g():
    return 0


class C:
    z = 1

    def h(self):
        return self.z
'''


def test_statements_own_their_lines_less_the_nested_ones():
    owned = dict(linetrace.statements(TOY))
    assert sorted(owned) == [4, 5, 8, 9, 11, 12, 14, 15, 16, 17, 22, 29]
    assert owned[4] == {4}  # the elif is a statement of its own,
    assert owned[8] == {8, 10}  # and it owns the else line
    assert owned[5] == {5, 6, 7}
    assert owned[11] == {11, 13}  # try: and except: headers


def test_unrun_lists_the_statements_no_traced_line_reached(tmp_path):
    path = tmp_path / "toy.py"
    namespace = {}
    exec(compile(TOY, str(path), "exec"), namespace)
    tracer = linetrace.Tracer(tmp_path)
    tracer.start()
    try:
        namespace["f"](1)
        namespace["f"](0)
    finally:
        tracer.stop()
    assert linetrace.unrun(TOY, tracer.ran[str(path)]) == [
        (9, "y = 2"), (14, "raise"), (16, "pass"), (22, "return 0"), (29, "return self.z"),
    ]
