"""The byte-identity sweep, on a three-command corpus."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import sweep  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"

CORPUS = [(
    "cut",
    (
        "gen random-tree-multicut --n 8 --k 3 --seed {seed} -o inst",
        "solve inst --certificate cert",
        f"{sweep.GUARD} inst cert guarded",
    ),
    1,
    2,
)]


def test_sweep_records_each_command_and_compare_names_the_differences(tmp_path, capsys):
    todo = sweep.cases(CORPUS)
    assert [case for case, _ in todo] == ["cut/0"]
    assert [case for case, _ in sweep.cases(CORPUS, full=True)] == ["cut/0", "cut/1"]
    records = sweep.sweep(str(SRC), todo)
    assert list(records) == ["cut/0/0", "cut/0/1", "cut/0/2"]
    gen, solve, guard = records.values()
    assert gen["argv"] == "gen random-tree-multicut --n 8 --k 3 --seed 0 -o inst".split()
    assert [r["exit"] for r in records.values()] == [0, 0, 0]
    assert [list(r["files"]) for r in records.values()] == [["inst"], ["cert"], ["guarded"]]
    # a gen writes only its file, and a solve prints its summary
    empty = sweep.hashlib.sha256(b"").hexdigest()
    assert gen["stdout"] == gen["stderr"] == solve["stderr"] == empty != solve["stdout"]
    # every run is the same bytes
    assert sweep.sweep(str(SRC), todo) == records
    assert sweep.compare(records, records) == []

    changed = json.loads(json.dumps(records))
    changed["cut/0/1"]["stdout"] = empty
    del changed["cut/0/2"]
    assert sweep.compare(records, changed) == [
        "cut/0/1: stdout: solve inst --certificate cert",
        f"cut/0/2: only in A: {sweep.GUARD} inst cert guarded",
    ]
    paths = []
    for name, doc in (("a.json", records), ("b.json", changed)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps({"commands": doc}))
    assert sweep.main(["--compare", *map(str, paths)]) == 1
    assert capsys.readouterr().out.endswith("2 of 3 commands differ\n")
    assert sweep.main(["--compare", str(paths[0]), str(paths[0])]) == 0
