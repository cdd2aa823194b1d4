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


def test_sevenths_divides_every_weight_and_finite_penalty_by_seven(tmp_path):
    from graphcover import cli, parse_instance, solve_eds_tree

    inst, inst7 = tmp_path / "inst", tmp_path / "inst7"
    for kind, args in (("random-tree-eds", ["--inf_prob", "0.5"]), ("random-eds-general", [])):
        assert cli.run(["gen", kind, "--n", "8", "--seed", "3", *args, "-o", str(inst)]) == 0
        assert sweep._OWN[sweep.SEVENTHS](str(inst), str(inst7)) == 0
        a, b = (parse_instance(p.read_text()) for p in (inst, inst7))
        # the same units over a scale seven times larger: each value over 7
        assert (b.node_units, b.edge_units, b.penalty_units, b.scale) == (
            a.node_units, a.edge_units, a.penalty_units, 7 * a.scale
        )
        assert "inf" in inst7.read_text() or kind != "random-tree-eds"
        if kind == "random-tree-eds":
            # the solve takes the same edges and the same dual units
            (sol, dual), (sol7, dual7) = solve_eds_tree(a), solve_eds_tree(b)
            assert sol7.edges == sol.edges and sol7.total * 7 == sol.total
            assert dual7.units == dual.units


def test_sweep_runs_its_own_sevenths_command():
    corpus = [(
        "eds",
        (
            "gen random-tree-eds --n 8 --seed {seed} -o inst",
            f"{sweep.SEVENTHS} inst inst7",
            "solve inst7 --certificate cert7",
            "verify inst7 cert7",
        ),
        1,
        1,
    )]
    records = sweep.sweep(str(SRC), sweep.cases(corpus))
    assert [r["exit"] for r in records.values()] == [0, 0, 0, 0]
    assert [list(r["files"]) for r in records.values()] == [["inst"], ["inst7"], ["cert7"], []]
    # the benchmark's tree sizes are in the corpus, with and without INF penalties
    rows = {name: lines for name, lines, _, _ in sweep.CORPUS}
    for name in ("eds250", "eds250-inf1", "eds1000", "eds1000-inf1"):
        assert f"{sweep.SEVENTHS} inst inst7" in rows[name]
