"""Command-line front end: subcommands, exit codes, and output formats."""

import re
import subprocess
import sys

import pytest

from graphcover import LpModel, cli, eds_tree, multicut_tree, parse_instance
from graphcover.reporting import CheckReport


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def star4(tmp_path):
    path = tmp_path / "star4.eds"
    assert cli.run(["gen", "star-gap-eds", "--n", "4", "-o", str(path)]) == 0
    return path


@pytest.fixture
def mtree(tmp_path):
    path = tmp_path / "m.tree"
    args = ["gen", "random-tree-multicut", "--n", "7", "--k", "3", "--seed", "4"]
    assert cli.run(args + ["-o", str(path)]) == 0
    return path


# -- gen ---------------------------------------------------------------------


def test_gen_writes_parseable_file(star4, capsys):
    inst = parse_instance(star4.read_text())
    assert inst.graph.n == 5
    capsys.readouterr()


def test_gen_to_standard_output(capsys):
    code, out, _ = run_cli(capsys, "gen", "star-gap-eds", "--n", "2")
    assert code == 0
    assert out.startswith("problem eds-tree\n")


def test_gen_rejects_bad_params(capsys):
    code, _, err = run_cli(capsys, "gen", "star-gap-eds", "--n", "1")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "params",
    [
        "random-tree-eds --n 3 --wmax -1",
        "random-tree-eds --n 3 --pmax -5",
        "random-set-cover --n 3 --m 0",
        "random-set-cover --n 0 --m 2",
        "random-set-cover --n 3 --cmax -1",
        "random-eds-general --n 4 --m -1",
        "random-tree-multicut --n 5 --k -1",
    ],
)
def test_gen_rejects_out_of_range_params(params, capsys):
    code, out, err = run_cli(capsys, "gen", *params.split())
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


# -- solve -------------------------------------------------------------------


def test_solve_star(star4, capsys):
    code, out, _ = run_cli(capsys, "solve", str(star4))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "problem eds-tree"
    assert "objective 1" in lines
    assert "dual-total 1" in lines
    assert "ratio 1" in lines


def test_solve_multicut_prints_breakdown(mtree, capsys):
    code, out, _ = run_cli(capsys, "solve", str(mtree))
    assert code == 0
    keys = [line.split()[0] for line in out.splitlines()]
    assert keys[:6] == [
        "problem",
        "objective",
        "edge-weight",
        "node-weight",
        "penalty",
        "edges",
    ]
    assert "dual-total" in keys and "ratio" in keys


def test_solve_general_prints_bound(tmp_path, capsys):
    path = tmp_path / "g.eds"
    cli.run(["gen", "random-eds-general", "--n", "5", "--m", "6", "--seed", "2", "-o", str(path)])
    code, out, _ = run_cli(capsys, "solve", str(path))
    assert code == 0
    keys = [line.split()[0] for line in out.splitlines()]
    assert "lower" in keys and "factor" in keys


def test_solve_refuses_cover_instances(tmp_path, capsys):
    path = tmp_path / "sc.cov"
    cli.run(["gen", "random-set-cover", "--seed", "1", "-o", str(path)])
    code, _, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert "oracle" in err  # points at the right subcommand


def test_solve_missing_file(capsys):
    code, _, err = run_cli(capsys, "solve", "/no/such/file")
    assert code == 2
    assert "error:" in err


def test_solve_rejects_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "binary.eds"
    path.write_bytes(b"\xff\xfe\x00")
    code, out, err = run_cli(capsys, "solve", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")


def test_solve_rejects_huge_node_count(tmp_path, capsys):
    path = tmp_path / "huge.eds"
    path.write_text("problem eds-tree\nnodes 99999999999\nroot 0\n")
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: line 2: node count 99999999999 exceeds the limit of 1000000\n"


# -- solve + verify loop -----------------------------------------------------


@pytest.mark.parametrize(
    "genargs",
    [
        ["gen", "star-gap-eds", "--n", "5"],
        ["gen", "random-tree-eds", "--n", "8", "--seed", "11"],
        ["gen", "random-tree-multicut", "--n", "7", "--k", "3", "--seed", "4"],
        ["gen", "subdivided-star-multicut", "--n", "3"],
        ["gen", "random-eds-general", "--n", "5", "--m", "6", "--seed", "7"],
    ],
)
def test_solve_then_verify_own_certificate(tmp_path, capsys, genargs):
    inst = tmp_path / "inst.txt"
    cert = tmp_path / "inst.cert"
    assert cli.run(genargs + ["-o", str(inst)]) == 0
    assert cli.run(["solve", str(inst), "--certificate", str(cert)]) == 0
    code, out, _ = run_cli(capsys, "verify", str(inst), str(cert))
    assert code == 0
    assert out.rstrip().endswith("verdict: PASS")


def test_every_lp_model_is_named_after_a_benchmark_family(tmp_path, capsys, monkeypatch):
    """The benchmark tracer groups its LP counts by model name, so a renamed
    model would silently empty its family; solve, verify and gap of every
    solved kind build exactly these families."""
    names = []
    post_init = LpModel.__post_init__

    def record(model):
        names.append(model.name)
        post_init(model)

    monkeypatch.setattr(LpModel, "__post_init__", record)
    inst, cert = tmp_path / "inst.txt", tmp_path / "inst.cert"
    for genargs in (
        ["random-tree-eds", "--n", "8", "--seed", "11"],
        ["random-tree-multicut", "--n", "7", "--k", "3", "--seed", "4"],
        ["random-eds-general", "--n", "5", "--m", "6", "--seed", "7"],
    ):
        assert cli.run(["gen", *genargs, "-o", str(inst)]) == 0
        assert cli.run(["solve", str(inst), "--certificate", str(cert)]) == 0
        assert cli.run(["verify", str(inst), str(cert)]) == 0
        for relaxation in ("natural", "strengthened"):
            assert cli.run(["gap", str(inst), "--relaxation", relaxation]) == 0
    capsys.readouterr()
    families = {"step" if re.fullmatch(r"step_demand\d+", n) else n for n in names}
    assert families == {"natural", "strengthened", "edge-cover", "dual-completion", "step"}


def test_verify_rejects_tampered_certificate(star4, tmp_path, capsys):
    cert = tmp_path / "star4.cert"
    assert cli.run(["solve", str(star4), "--certificate", str(cert)]) == 0
    text = cert.read_text().replace("xi 1 1", "xi 1 2")
    cert.write_text(text)
    code, out, _ = run_cli(capsys, "verify", str(star4), str(cert))
    assert code == 1
    assert "FAIL" in out


def test_verify_rejects_a_nu_line_at_the_lca_parent_edge(mtree, tmp_path, capsys):
    """The lca is on a demand's path but its parent edge is not, so a dual
    entry there is off the path, whatever its value."""
    cert = tmp_path / "m.cert"
    assert cli.run(["solve", str(mtree), "--certificate", str(cert)]) == 0
    inst0, _ = multicut_tree.reduce_prize_collecting(parse_instance(mtree.read_text()))
    d = next(i for i in range(len(inst0.demands)) if inst0.lca(i) != inst0.tree.root)
    text = cert.read_text()
    capsys.readouterr()
    for value in ("0", "1/2"):
        cert.write_text(text + f"nu {inst0.lca(d)} {d} {value}\n")
        code, out, _ = run_cli(capsys, "verify", str(mtree), str(cert))
        assert code == 1
        assert "FAIL dual-feasible" in out


def test_verify_rejects_dual_lines_that_name_no_node(mtree, tmp_path, capsys):
    """A nu or mu key outside the compiled tree's ids is off every path: the
    check fails, and no lookup reads it as an index."""
    cert = tmp_path / "m.cert"
    assert cli.run(["solve", str(mtree), "--certificate", str(cert)]) == 0
    n = multicut_tree.reduce_prize_collecting(parse_instance(mtree.read_text()))[0].tree.n
    text = cert.read_text()
    capsys.readouterr()
    for line in ("nu -1 0 0", f"mu {n} 0 1", "nu 1000000000 0 1/2"):
        cert.write_text(f"{text}{line}\n")
        code, out, err = run_cli(capsys, "verify", str(mtree), str(cert))
        assert (code, err) == (1, "")
        assert "FAIL dual-feasible" in out


def test_a_cut_of_zero_weight_has_ratio_one_and_verifies(tmp_path, capsys):
    """A demand path with a zero-weight edge between zero-weight ends is
    cut for free: the dual total is 0, and the stated ratio must be 1."""
    path = tmp_path / "free.tree"
    path.write_text("problem multicut-tree\nnodes 3\nedge 0 1 0\nedge 1 2 4\ndemand 0 1 5\n")
    cert = tmp_path / "free.cert"
    code, out, _ = run_cli(capsys, "solve", str(path), "--certificate", str(cert))
    assert (code, out.splitlines()[-2:]) == (0, ["dual-total 0", "ratio 1"])
    code, out, _ = run_cli(capsys, "verify", str(path), str(cert))
    assert code == 0
    assert out.splitlines()[-2:] == ["PASS ratio-recomputed: stated 1, dual total 0",
                                     "verdict: PASS"]
    cert.write_text(cert.read_text().replace("ratio 1\n", "ratio 2\n"))
    code, out, _ = run_cli(capsys, "verify", str(path), str(cert))
    assert code == 1
    assert out.splitlines()[-2:] == ["FAIL ratio-recomputed: stated 2, dual total 0",
                                     "verdict: FAIL"]


def test_verify_rejects_unparseable_certificate(star4, tmp_path, capsys):
    cert = tmp_path / "broken.cert"
    cert.write_text("certificate eds-tree\nobjective oops\n")
    code, _, err = run_cli(capsys, "verify", str(star4), str(cert))
    assert code == 2
    assert "error:" in err


def test_verify_rejects_xi_in_an_eds_general_certificate(tmp_path, capsys):
    inst = tmp_path / "g.eds"
    cert = tmp_path / "g.cert"
    args = ["random-eds-general", "--n", "5", "--m", "6", "--seed", "2"]
    assert cli.run(["gen"] + args + ["-o", str(inst)]) == 0
    assert cli.run(["solve", str(inst), "--certificate", str(cert)]) == 0
    text = cert.read_text()
    cert.write_text(text + "xi 7 1/3\n")
    capsys.readouterr()
    code, out, err = run_cli(capsys, "verify", str(inst), str(cert))
    assert code == 2 and out == ""
    lineno = len(text.splitlines()) + 1
    assert err == f"error: line {lineno}: 'xi' is not valid for eds-general\n"


def test_verify_rejects_an_eds_general_objective_beyond_its_factor(tmp_path, capsys):
    """A 3-node path: `solve` pays both penalties (objective 2, lower 2,
    factor 22/3).  A hand-written certificate choosing both edges states
    their true cost, 200, which is far beyond 22/3 times its lower bound."""
    inst = tmp_path / "p3.eds"
    inst.write_text("problem eds-general\nnodes 3\nnode 0 0\nnode 1 0\nnode 2 0\n"
                    "edge 0 1 100 1\nedge 1 2 100 1\n")
    code, out, _ = run_cli(capsys, "solve", str(inst))
    assert code == 0 and "objective 2" in out.splitlines() and "factor 22/3" in out
    cert = tmp_path / "p3.cert"
    cert.write_text("certificate eds-general\nobjective 200\nlower 2\nfactor 22/3\n"
                    "edge 0\nedge 1\n")
    code, out, err = run_cli(capsys, "verify", str(inst), str(cert))
    assert (code, err) == (1, "")
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL within-factor: objective must not exceed factor times the lower bound"]
    assert out.splitlines()[-1] == "verdict: FAIL"


# -- oracle ------------------------------------------------------------------


def test_oracle_on_cover_instance(tmp_path, capsys):
    path = tmp_path / "sc.cov"
    cli.run(["gen", "random-set-cover", "--seed", "1", "-o", str(path)])
    code, out, _ = run_cli(capsys, "oracle", str(path))
    assert code == 0
    assert out.splitlines()[0] == "problem set-cover"
    assert out.splitlines()[1].startswith("optimum ")


def test_oracle_on_star(star4, capsys):
    code, out, _ = run_cli(capsys, "oracle", str(star4))
    assert code == 0
    assert "optimum 1" in out
    assert "edges 1" in out


# -- gap ---------------------------------------------------------------------


def test_gap_natural(star4, capsys):
    code, out, _ = run_cli(capsys, "gap", str(star4), "--relaxation", "natural")
    assert code == 0
    assert out.strip() == "LP=1/4, OPT=1, gap=4"


def test_gap_strengthened(star4, capsys):
    code, out, _ = run_cli(capsys, "gap", str(star4), "--relaxation", "strengthened")
    assert code == 0
    assert out.strip() == "LP=1, OPT=1, gap=1"


def test_gap_zero_lp_zero_opt(tmp_path, capsys):
    path = tmp_path / "free.eds"
    cli.run(["gen", "random-tree-eds", "--n", "5", "--wmax", "0", "--pmax", "0",
             "--inf_prob", "0", "--seed", "1", "-o", str(path)])
    code, out, _ = run_cli(capsys, "gap", str(path), "--relaxation", "natural")
    assert code == 0
    assert out.strip() == "LP=0, OPT=0, gap=1"


def test_gap_refuses_cover_instances(tmp_path, capsys):
    path = tmp_path / "sc.cov"
    cli.run(["gen", "random-set-cover", "--seed", "1", "-o", str(path)])
    code, out, err = run_cli(capsys, "gap", str(path), "--relaxation", "natural")
    assert (code, out, err) == (2, "", "error: gap needs an EDS or multicut instance\n")


def test_gap_over_the_oracle_cap_solves_no_relaxation(tmp_path, capsys, monkeypatch):
    path = tmp_path / "big.eds"
    args = ["gen", "random-eds-general", "--n", "14", "--m", "25", "--seed", "0"]
    assert cli.run(args + ["-o", str(path)]) == 0
    calls = []
    relaxation_value = cli.relaxation_value

    def counted(inst, relaxation):
        calls.append(relaxation)
        return relaxation_value(inst, relaxation)

    monkeypatch.setattr(cli, "relaxation_value", counted)
    code, out, err = run_cli(capsys, "gap", str(path), "--relaxation", "strengthened")
    assert (code, out) == (2, "")
    assert err == "error: exhaustive search over 25 edges exceeds the cap of 20\n"
    assert calls == []


# -- batch -------------------------------------------------------------------


def _build_suite(dirpath):
    cases = [
        ("a_star.eds", ["gen", "star-gap-eds", "--n", "3"]),
        ("b_tree.eds", ["gen", "random-tree-eds", "--n", "7", "--seed", "2"]),
        ("c_cut.tree", ["gen", "random-tree-multicut", "--n", "6", "--k", "2", "--seed", "3"]),
        ("d_gen.eds", ["gen", "random-eds-general", "--n", "5", "--m", "5", "--seed", "5"]),
        ("e_sets.cov", ["gen", "random-set-cover", "--seed", "8"]),
    ]
    for name, args in cases:
        assert cli.run(args + ["-o", str(dirpath / name)]) == 0
    return [name for name, _ in cases]


def test_batch_report(tmp_path, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    names = _build_suite(suite)
    report = tmp_path / "report.tsv"
    certs = tmp_path / "certs"
    code = cli.run(["batch", str(suite), "--report", str(report),
                    "--certificates", str(certs)])
    capsys.readouterr()
    assert code == 0
    lines = report.read_text().splitlines()
    assert lines[0] == "instance\tnatural-lp\tstrengthened-lp\tobjective\toptimum\tratio\tverdict"
    assert [row.split("\t")[0] for row in lines[1:]] == names
    for row in lines[1:]:
        cells = row.split("\t")
        assert cells[-1] in ("pass", "-")
        if cells[0] == "e_sets.cov":
            assert cells[1:4] == ["-", "-", "-"]
    made = sorted(p.name for p in certs.iterdir())
    assert made == ["a_star.eds.cert", "b_tree.eds.cert", "c_cut.tree.cert", "d_gen.eds.cert"]


def test_batch_writes_each_row_as_it_completes(tmp_path, capsys, monkeypatch):
    """A batch cut short keeps the rows it finished, a byte prefix of the
    whole report."""
    suite = tmp_path / "suite"
    suite.mkdir()
    _build_suite(suite)
    whole, cut = tmp_path / "whole.tsv", tmp_path / "cut.tsv"
    assert cli.run(["batch", str(suite), "--report", str(whole)]) == 0
    calls = []
    relaxation_values = cli.relaxation_values

    def third_fails(inst):
        calls.append(inst)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return relaxation_values(inst)

    monkeypatch.setattr(cli, "relaxation_values", third_fails)
    with pytest.raises(KeyboardInterrupt):
        cli.run(["batch", str(suite), "--report", str(cut)])
    capsys.readouterr()
    rows = cut.read_bytes()
    assert rows.count(b"\n") == 3  # the header and the first two instances
    assert whole.read_bytes().startswith(rows)


def test_batch_reports_dash_above_the_oracle_cap(tmp_path, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    args = ["gen", "random-tree-eds", "--n", "30", "--seed", "1"]
    assert cli.run(args + ["-o", str(suite / "big.eds")]) == 0
    report = tmp_path / "report.tsv"
    code = cli.run(["batch", str(suite), "--report", str(report)])
    capsys.readouterr()
    assert code == 0
    row = report.read_text().splitlines()[1].split("\t")
    assert row[0] == "big.eds"
    assert row[4:] == ["-", "-", "pass"]


def _fail_deletion_phase(state):
    raise AssertionError("forced for the test")


def test_batch_reports_error_rows_and_goes_on(tmp_path, capsys, monkeypatch):
    # The multicut instance's deletion phase is made to trip an assertion.
    # Its exhaustive oracle (19 edges) still runs, in under a second, so the
    # error row shows the true optimum.
    monkeypatch.setattr(multicut_tree, "deletion_phase", _fail_deletion_phase)
    suite = tmp_path / "suite"
    suite.mkdir()
    cases = [
        ("a_cut.tree", ["random-tree-multicut", "--n", "20", "--k", "8", "--seed", "7"]),
        ("b_tree.eds", ["random-tree-eds", "--n", "7", "--seed", "1"]),
    ]
    for name, args in cases:
        assert cli.run(["gen"] + args + ["-o", str(suite / name)]) == 0
    report = tmp_path / "report.tsv"
    certs = tmp_path / "certs"
    code, _, err = run_cli(capsys, "batch", str(suite), "--report", str(report),
                           "--certificates", str(certs))
    assert code == 3
    assert "internal check failed on a_cut.tree: forced for the test" in err
    bad, good = (row.split("\t") for row in report.read_text().splitlines()[1:])
    assert bad[0] == "a_cut.tree"
    assert bad[1:] == ["-", "-", "-", "53", "-", "error"]
    assert good[0] == "b_tree.eds" and good[-1] == "pass"
    assert sorted(p.name for p in certs.iterdir()) == ["b_tree.eds.cert"]


def test_batch_error_row_solves_no_relaxation(tmp_path, capsys, monkeypatch):
    suite = tmp_path / "suite"
    suite.mkdir()
    args = ["random-tree-multicut", "--n", "20", "--k", "8", "--seed", "7"]
    assert cli.run(["gen"] + args + ["-o", str(suite / "a_cut.tree")]) == 0
    calls = []
    relaxation_value = cli.relaxation_value

    def counted(inst, relaxation):
        calls.append(relaxation)
        return relaxation_value(inst, relaxation)

    monkeypatch.setattr(cli, "relaxation_value", counted)
    monkeypatch.setattr(multicut_tree, "deletion_phase", _fail_deletion_phase)
    code, out, _ = run_cli(capsys, "batch", str(suite))
    assert code == 3
    assert out.splitlines()[1].split("\t")[-1] == "error"
    assert calls == []


def _suite_around_a_malformed_file(suite):
    for name, seed in (("a_tree.eds", "0"), ("c_tree.eds", "1")):
        args = ["gen", "random-tree-eds", "--n", "5", "--seed", seed]
        assert cli.run(args + ["-o", str(suite / name)]) == 0
    (suite / "b_bad.eds").write_text("problem eds-tree\nnodes x\n")


def test_batch_reports_invalid_rows_and_goes_on(tmp_path, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    _suite_around_a_malformed_file(suite)
    (suite / "d_binary.eds").write_bytes(b"\xff\xfe\x00")
    report = tmp_path / "report.tsv"
    certs = tmp_path / "certs"
    code, _, err = run_cli(capsys, "batch", str(suite), "--report", str(report),
                           "--certificates", str(certs))
    assert code == 2
    assert "error: b_bad.eds: line 2: expected an integer, got 'x'\n" in err
    assert "error: d_binary.eds: cannot read" in err
    rows = [row.split("\t") for row in report.read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == ["a_tree.eds", "b_bad.eds", "c_tree.eds", "d_binary.eds"]
    assert rows[0][-1] == rows[2][-1] == "pass"
    assert rows[1][1:] == rows[3][1:] == ["-", "-", "-", "-", "-", "invalid"]
    assert sorted(p.name for p in certs.iterdir()) == ["a_tree.eds.cert", "c_tree.eds.cert"]


def test_batch_exits_with_the_highest_code_its_rows_call_for(tmp_path, capsys, monkeypatch):
    suite = tmp_path / "suite"
    suite.mkdir()
    _suite_around_a_malformed_file(suite)
    monkeypatch.setattr(cli, "verify_certificate", lambda inst, cert: CheckReport(
        [("forced", False, "for the test")]))
    assert run_cli(capsys, "batch", str(suite))[0] == 2  # invalid above fail
    args = ["gen", "random-tree-multicut", "--n", "6", "--k", "2", "--seed", "3"]
    assert cli.run(args + ["-o", str(suite / "d_cut.tree")]) == 0
    monkeypatch.setattr(multicut_tree, "deletion_phase", _fail_deletion_phase)
    code, out, _ = run_cli(capsys, "batch", str(suite))
    assert code == 3  # error above invalid and fail
    assert [row.split("\t")[-1] for row in out.splitlines()[1:]] == [
        "fail", "invalid", "fail", "error"]


def test_batch_missing_directory(capsys, tmp_path):
    code, _, err = run_cli(capsys, "batch", str(tmp_path / "nope"),
                           "--report", str(tmp_path / "r.tsv"))
    assert code == 2


# -- exit codes and wiring ---------------------------------------------------


def test_unknown_subcommand(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2


def test_no_arguments_is_usage_error(capsys):
    assert run_cli(capsys, )[0] == 2


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0


def test_internal_assertion_maps_to_exit_three(star4, capsys, monkeypatch):
    def boom(inst):
        raise AssertionError("forced for the test")

    monkeypatch.setattr(eds_tree, "solve_eds_tree_trace", boom)
    code, out, err = run_cli(capsys, "solve", str(star4))
    assert code == 3
    assert out == ""
    assert err == "internal check failed: forced for the test\n"


def _out_of_memory(*args):
    raise MemoryError


def test_out_of_memory_is_one_error_line(star4, capsys, monkeypatch):
    monkeypatch.setattr(eds_tree, "solve_eds_tree_trace", _out_of_memory)
    assert run_cli(capsys, "solve", str(star4)) == (2, "", "error: out of memory\n")


def test_batch_gives_a_file_out_of_memory_an_invalid_row(tmp_path, capsys, monkeypatch):
    suite = tmp_path / "suite"
    suite.mkdir()
    cases = [
        ("a_cut.tree", ["random-tree-multicut", "--n", "6", "--k", "2", "--seed", "3"]),
        ("b_tree.eds", ["random-tree-eds", "--n", "5", "--seed", "1"]),
    ]
    for name, args in cases:
        assert cli.run(["gen"] + args + ["-o", str(suite / name)]) == 0
    monkeypatch.setattr(multicut_tree, "deletion_phase", _out_of_memory)
    code, out, err = run_cli(capsys, "batch", str(suite))
    assert (code, err) == (2, "error: a_cut.tree: out of memory\n")
    bad, good = (row.split("\t") for row in out.splitlines()[1:])
    assert bad == ["a_cut.tree", "-", "-", "-", "-", "-", "invalid"]
    assert good[0] == "b_tree.eds" and good[-1] == "pass"


def _oversized_eds(path):
    """An eds-tree whose two node weights have coprime 3000-digit
    denominators: every objective over their lcm has more digits than
    Python prints (`sys.get_int_max_str_digits()`), though each token is
    under that limit."""
    d, w = "7" * 3000, "9" * 3000
    path.write_text(
        f"problem eds-tree\nnodes 3\nroot 0\nnode 0 1/{d}\nnode 1 1/{d}3\nnode 2 0\n"
        f"edge 0 1 {w} inf\nedge 1 2 {w} inf\n"
    )
    return path


PRINT_LIMIT = f"a result is over the {sys.get_int_max_str_digits()}-digit limit"


@pytest.mark.parametrize("argv", [["solve"], ["oracle"], ["gap", "--relaxation", "natural"]])
def test_oversized_result_is_one_error_line(tmp_path, capsys, argv):
    path = _oversized_eds(tmp_path / "big.eds")
    command, *options = argv
    assert run_cli(capsys, command, str(path), *options) == (2, "", f"error: {PRINT_LIMIT}\n")


def test_batch_gives_an_oversized_result_an_invalid_row_and_goes_on(tmp_path, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    _oversized_eds(suite / "a_big.eds")
    gen = ["gen", "random-tree-eds", "--n", "5", "--seed", "1", "-o", str(suite / "b.eds")]
    assert cli.run(gen) == 0
    certs = tmp_path / "certs"
    code, out, err = run_cli(capsys, "batch", str(suite), "--certificates", str(certs))
    assert (code, err) == (2, f"error: a_big.eds: {PRINT_LIMIT}\n")
    header, bad, good = (row.split("\t") for row in out.splitlines())
    assert bad == ["a_big.eds", "-", "-", "-", "-", "-", "invalid"]
    assert good[0] == "b.eds" and good[-1] == "pass" and "-" not in good
    assert sorted(p.name for p in certs.iterdir()) == ["b.eds.cert"]


@pytest.mark.parametrize("at, line", [
    (5, "node 2 {n}"), (5, "node 2 1/{n}"), (7, "edge 1 2 0 {n}"), (5, "node {n} 1"),
])
def test_token_over_the_digit_limit_names_the_limit(tmp_path, capsys, at, line):
    """A weight, a denominator, a penalty and a node id, each one digit
    over the limit."""
    limit = sys.get_int_max_str_digits()
    lines = ["problem eds-tree", "nodes 3", "root 0", "node 0 1", "node 1 1", "node 2 1",
             "edge 0 1 1 1", "edge 1 2 1 1"]
    lines[at] = line.format(n="3" * (limit + 1))
    path = tmp_path / "long.eds"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "solve", str(path))
    message = f"a number of {limit + 1} digits is over the {limit}-digit limit"
    assert (code, out, err) == (2, "", f"error: line {at + 1}: {message}\n")


def test_module_entry_point(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "graphcover.cli", "gen", "star-gap-eds", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert out.stdout.startswith("problem eds-tree")


def test_reused_parser_prints_what_fresh_parsers_print(capsys, monkeypatch):
    commands = [["--help"], ["solve"], ["gen", "star-gap-eds", "--n", "2"]]
    reused = [run_cli(capsys, *argv) for argv in commands + commands]
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli._build_parser)
    fresh = [run_cli(capsys, *argv) for argv in commands + commands]
    assert [code for code, _, _ in fresh] == [0, 2, 0] * 2
    assert reused == fresh
