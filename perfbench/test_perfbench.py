"""Tests of the benchmark's own reference checks, inputs and tracer."""

import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import graphcover.cli  # noqa: E402
import refcheck  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from graphcover import (  # noqa: E402
    brute_force_cover,
    brute_force_facility_location,
    gen_instance,
    multicut_solution,
    parse_instance,
    relaxation_value,
    serialize_instance,
    solve_eds_tree,
)


def ref(inst):
    return refcheck.parse_instance(serialize_instance(inst))


def same(ours, theirs) -> bool:
    """Our None is the program's infinity."""
    return str(theirs) == "inf" if ours is None else ours == theirs


def exhaustive_eds(inst: refcheck.Instance):
    edges = sorted(inst.ends)
    best = None
    for k in range(len(edges) + 1):
        for pick in itertools.combinations(edges, k):
            value = refcheck.eds_objective(inst, pick)
            if refcheck.less(value, best) or best is None:
                best = value
    return best


@pytest.mark.parametrize("seed", range(60))
def test_tree_dp_matches_exhaustive_search(seed):
    inst = gen_instance("random-tree-eds", seed=seed, n=2 + seed % 9,
                        inf_prob=(0.0, 0.25, 0.6)[seed % 3])
    assert refcheck.eds_tree_optimum(ref(inst)) == exhaustive_eds(ref(inst))


@pytest.mark.parametrize("seed", range(3))
def test_tree_dp_matches_solver_on_deep_trees(seed):
    text = workloads.deep_tree_text(seed, 120)
    sol, _ = solve_eds_tree(parse_instance(text))
    assert refcheck.eds_tree_optimum(refcheck.parse_instance(text)) == sol.total


def test_multicut_objective_matches_program():
    for seed in range(20):
        inst = gen_instance("random-tree-multicut", seed=seed, n=9, k=4)
        edges = [e for e in inst.tree.edge_ids() if (e * 7 + seed) % 3 == 0]
        assert same(refcheck.multicut_objective(ref(inst), edges),
                    multicut_solution(inst, edges).total)


@pytest.mark.parametrize("kind,params", [
    ("random-tree-eds", {"n": 9}),
    ("random-tree-multicut", {"n": 8, "k": 4}),
    ("random-eds-general", {"n": 5, "m": 6}),
])
def test_highs_relaxations_match_exact_values(kind, params):
    for seed in range(4):
        inst = gen_instance(kind, seed=seed, **params)
        for relaxation in ("natural", "strengthened"):
            exact = relaxation_value(inst, relaxation)
            assert refcheck.close(exact, refcheck.relaxation_lp(ref(inst), relaxation))


def test_highs_star_gap():
    star = ref(gen_instance("star-gap-eds", n=4))
    assert refcheck.close(Fraction(1, 4), refcheck.relaxation_lp(star, "natural"))
    assert refcheck.close(Fraction(1), refcheck.relaxation_lp(star, "strengthened"))
    assert not refcheck.close(Fraction(1, 3), refcheck.relaxation_lp(star, "natural"))


def test_exhaustive_covering_matches_oracle():
    for seed in range(15):
        sc = gen_instance("random-set-cover", seed=seed, n=5, m=6)
        assert refcheck.set_cover_optimum(ref(sc)) == brute_force_cover(sc)
        fl = gen_instance("random-facility-location", seed=seed, clients=4, facilities=4,
                          skip_prob=0.3)
        assert same(refcheck.facility_location_optimum(ref(fl)),
                    brute_force_facility_location(fl))


def test_inputs_depend_only_on_the_seed(tmp_path):
    cli = graphcover.cli

    def inputs(seed, where):
        workloads.CERTIFY.prepare(cli, where, seed, 1)
        return {p.relative_to(where): p.read_bytes() for p in where.rglob("*") if p.is_file()}

    first = inputs(3, tmp_path / "a")
    assert first == inputs(3, tmp_path / "b")
    assert first != inputs(4, tmp_path / "c")


def test_trace_counts_repeat_and_wrappers_come_off(tmp_path):
    gc = graphcover
    tree = tmp_path / "t.eds"
    tree.write_text(serialize_instance(gen_instance("random-tree-eds", seed=2, n=30)))
    cut = tmp_path / "c.cut"
    cut.write_text(serialize_instance(gen_instance("random-tree-multicut", seed=2, n=12, k=4)))
    ops = [workloads.roundtrip_op(tree), workloads.roundtrip_op(cut)]
    counts = []
    for _ in range(2):
        trace = tracer.Tracer()
        trace.install(gc)
        try:
            _, _, results = run.execute(workloads.CERTIFY, gc.cli, ops)
        finally:
            trace.uninstall()
        assert not any(op.check(outs) for op, outs in zip(ops, results))
        counts.append({k: v["value"] for k, v in trace.metrics().items()
                       if not k.endswith("self_ms")})
    assert counts[0] == counts[1]
    assert counts[0]["lp.dual-completion.calls"] == 1 and counts[0]["lp.step.pivots"] > 0
    assert gc.cli.run.__module__ == "graphcover.cli"
    assert gc.lp._pivot.__module__ == "graphcover.lp"


def test_benchmark_json_lists_every_traced_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert listed == tracer.LAYER_METRICS + tracer.OVERHEAD_METRICS + tracer.RAW_METRICS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
