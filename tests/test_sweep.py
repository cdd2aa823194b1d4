"""The byte-identity sweep, on a three-command corpus."""

import json
import sys
from pathlib import Path

import pytest

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


def test_corpus_runs_every_subcommand_on_every_generator_kind():
    from graphcover.instances import GEN_KINDS

    rows = {name: lines for name, lines, _, _ in sweep.CORPUS}
    for name, kind in (
        ("eds", "random-tree-eds"), ("cut", "random-tree-multicut"), ("general", "random-eds-general"),
    ):
        gen, *bounds = rows[f"bounds-{name}"]
        assert gen.startswith(f"gen {kind} ") and bounds == [
            "oracle inst", "gap inst --relaxation natural", "gap inst --relaxation strengthened",
        ]
    gen, *solve = rows["general10"]
    assert gen.startswith("gen random-eds-general --n 10 --m 20 ")
    assert solve == ["solve inst --certificate cert", "verify inst cert"]
    for name in (
        "star-gap2", "star-gap7", "subdivided-star2", "subdivided-star5", "set-cover",
        "facility-location",
    ):
        assert rows[f"kinds-{name}"][1:] == ("oracle in/inst", "batch in")
    lines = [line.split() for commands in rows.values() for line in commands]
    assert {argv[1] for argv in lines if argv[0] == "gen"} == set(GEN_KINDS)
    assert {argv[0] for argv in lines} == {
        "gen", "solve", "verify", "oracle", "gap", "batch", sweep.GUARD, sweep.SEVENTHS,
        sweep.TAMPER, sweep.LOST,
    }


_TAMPERED_LINES = {
    "nu-over": "FAIL dual-feasible: edge capacity violated at 1",
    "mu-over": "FAIL dual-feasible: node capacity violated at 0",
    "negative": "FAIL dual-feasible: negative dual value xi[0]",
    "off-path": "FAIL dual-feasible: dual value nu[(0, 0)] lies off its demand's path",
    "support-short": "FAIL dual-feasible: support row violated (10,0)",
    "xi-over": "FAIL dual-values-within-penalties",
    "xi-dropped": "FAIL dual-values-within-penalties",
    "primal-raised": "FAIL primal-feasible: node_v3_e4 node_v5_e4",
    "dual-raised": "FAIL dual-feasible: x_e0 x_e1 x_e2",
}


@pytest.mark.parametrize("name, fault", [
    (name, fault) for name, _, faults in sweep.TAMPERED for fault in faults
], ids=lambda x: x)
def test_each_tampered_certificate_fails_verify_with_its_line(
    name, fault, tmp_path, monkeypatch, capsys
):
    """Each fault of ``tamper``, on the first seed of its corpus row, fails
    ``verify`` with the line of the check it breaks, which for a multicut
    dual is the ``dual-feasible`` line naming the fault."""
    from graphcover import cli

    gen, solve, tamper, verify = dict((row, lines) for row, lines, _, _ in sweep.CORPUS)[
        f"{name}-{fault}"
    ]
    assert tamper == f"{sweep.TAMPER} inst cert {fault} bad" and verify == "verify inst bad"
    monkeypatch.chdir(tmp_path)
    for line in (gen, solve):
        assert cli.run(line.format(seed=0).split()) == 0
    assert sweep._OWN[sweep.TAMPER](*tamper.split()[1:]) == 0
    capsys.readouterr()
    assert cli.run(verify.split()) == 1
    out = capsys.readouterr().out.splitlines()
    assert _TAMPERED_LINES[fault] in out and out[-1] == "verdict: FAIL"


def test_the_lost_client_is_refused_by_oracle_and_batch():
    corpus = [row for row in sweep.CORPUS if row[0] == "kinds-lost-client"]
    records = sweep.sweep(str(SRC), sweep.cases(corpus))
    assert [r["exit"] for r in records.values()] == [0, 2, 2]
