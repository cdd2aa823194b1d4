"""Fractional relaxations: gap values, point extraction, and dual completion."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from graphcover import (
    INF,
    EdsInstance,
    InstanceError,
    Rat,
    brute_force_eds,
    brute_force_multicut,
    build_relaxation,
    complete_eds_dual,
    gen_instance,
    relaxation_value,
    simplex_solve,
)
from graphcover.eds_general import heavy_facility_location
from graphcover.rationals import ZERO
from graphcover.relaxations import extract_relaxation_point

from _support import small_eds, small_multicuts, two_leaf_star


# -- gap constructions ------------------------------------------------------


def test_star_gap_natural_value():
    inst = gen_instance("star-gap-eds", n=4)
    assert relaxation_value(inst, "natural") == Rat(1, 4)


def test_star_gap_strengthened_closes_the_gap():
    inst = gen_instance("star-gap-eds", n=4)
    assert relaxation_value(inst, "strengthened") == 1


def test_subdivided_star_natural_value():
    inst = gen_instance("subdivided-star-multicut", n=4)
    assert relaxation_value(inst, "natural") == 1  # n/4 for n = 4


def test_relaxations_lower_bound_the_optimum():
    for seed in range(8):
        inst = gen_instance("random-tree-eds", n=7, seed=seed)
        opt = brute_force_eds(inst).total
        nat = relaxation_value(inst, "natural")
        stg = relaxation_value(inst, "strengthened")
        assert nat <= stg <= opt
    for seed in range(4):
        inst = gen_instance("random-tree-multicut", n=7, k=3, seed=seed)
        opt = brute_force_multicut(inst).total
        nat = relaxation_value(inst, "natural")
        stg = relaxation_value(inst, "strengthened")
        assert nat <= stg <= opt


def test_mismatched_kind_rejected():
    inst = gen_instance("random-set-cover", seed=0)
    with pytest.raises(InstanceError):
        build_relaxation(inst, "natural")
    with pytest.raises(InstanceError):
        build_relaxation(gen_instance("star-gap-eds", n=3), "edge-cover")
    with pytest.raises(InstanceError):
        build_relaxation(gen_instance("star-gap-eds", n=3), "no-such-kind")


# -- values from the dual ------------------------------------------------------


@settings(max_examples=120, deadline=None, database=None)
@given(
    st.one_of(
        small_eds(max_nodes=8, tree=True),
        small_eds(max_nodes=5, tree=False),
        small_multicuts(max_nodes=8),
    )
)
def test_relaxation_value_equals_the_primal_optimum(inst):
    """relaxation_value solves the dual; its value is the primal optimum,
    also for the edge-cover relaxation that eds-general builds."""
    for kind in ("natural", "strengthened"):
        primal = simplex_solve(build_relaxation(inst, kind))
        assert relaxation_value(inst, kind) == primal.value
    if isinstance(inst, EdsInstance):
        # eds-general rounds the strengthened vertex, the last one solved
        xe, _, _ = extract_relaxation_point(inst, primal)
        fl, _, _ = heavy_facility_location(inst, xe)
        primal = simplex_solve(build_relaxation(fl, "edge-cover"))
        assert relaxation_value(fl, "edge-cover") == primal.value


# -- point extraction -------------------------------------------------------


def test_extract_point_shapes():
    inst = gen_instance("random-tree-eds", n=6, seed=1)
    model = build_relaxation(inst, "strengthened")
    res = simplex_solve(model)
    xe, xv, z = extract_relaxation_point(inst, res)
    assert sorted(xe) == sorted(inst.graph.edge_ids())
    assert sorted(xv) == list(range(inst.graph.n))
    assert sorted(z) == sorted(inst.graph.edge_ids())
    for e, p in inst.penalty.items():
        if p == INF:
            assert z[e] == 0  # infinite penalties cannot be paid fractionally
        assert 0 <= xe[e]
        assert 0 <= z[e]


def test_fractional_point_is_feasible():
    inst = gen_instance("star-gap-eds", n=4)
    model = build_relaxation(inst, "natural")
    res = simplex_solve(model)
    xe, xv, z = extract_relaxation_point(inst, res)
    # covering: every closed edge neighborhood carries at least 1 - z of mass
    for e in inst.graph.edge_ids():
        assert xe[e] == Rat(1, 4)
        assert xv[0] >= xe[e]
    assert xv[0] == Rat(1, 4)


# -- dual completion --------------------------------------------------------


def test_zero_xi_always_completes():
    inst = two_leaf_star(Rat(2), Rat(1))
    got = complete_eds_dual(inst, {1: ZERO, 2: ZERO})
    assert got == ({}, {})


def test_optimal_xi_completes():
    inst = two_leaf_star(Rat(2), Rat(2))
    got = complete_eds_dual(inst, {1: Rat(2), 2: Rat(2)})
    assert got is not None
    nu, mu = got
    # capacity rows: per-edge nu mass within edge weights, per-node mu within node weights
    for e in (1, 2):
        assert sum(nu.get((e, f), ZERO) for f in (1, 2)) <= inst.edge_weight[e]
    for v in (0, 1, 2):
        assert sum(mu.get((v, e), ZERO) for e in (1, 2)) <= inst.node_weight[v]


def test_overcharged_xi_fails():
    tree_inst = two_leaf_star(Rat(2), Rat(2), wr=ZERO, w1=ZERO, w2=ZERO)
    assert complete_eds_dual(tree_inst, {1: Rat(1), 2: ZERO}) is None


def test_completion_supports_infinite_penalties():
    inst = two_leaf_star(INF, ZERO)
    # edge 1 alone dominates both edges: alpha_1 = w(e1)+w(r)+w(v1) = 4
    got = complete_eds_dual(inst, {1: Rat(4), 2: ZERO})
    assert got is not None


# -- pinned vertices ----------------------------------------------------------


def _assignment_digest(res):
    text = "".join(f"{var} {value}\n" for var, value in res.assignment.items())
    return hashlib.sha256(text.encode()).hexdigest()


# (relaxation_value, sha256 of the full simplex assignment, one
# "var value" line per variable in model order).  The eds-general rounding
# reads this vertex, so it must not move.
PINNED_VERTICES = {
    ("random-tree-eds", (("n", 7), ("seed", 2)), "natural"): (
        Rat(73, 3),
        "9cbbffb61ebdce78b0e35ed17b9a7d58ded2caa4a999aeaf066f8d4471431910",
    ),
    ("random-tree-eds", (("n", 7), ("seed", 2)), "strengthened"): (
        Rat(28),
        "4bc50d0576a954487bb49575fd9053b77a66696b5dfc7800091e6f17f9ee90db",
    ),
    ("random-tree-multicut", (("k", 4), ("n", 8), ("seed", 10)), "natural"): (
        Rat(43, 3),
        "36bfc22db3ad484b6e618ba31a2f3907a7128ea57523a39ca746e67fd9416da9",
    ),
    ("random-tree-multicut", (("k", 4), ("n", 8), ("seed", 10)), "strengthened"): (
        Rat(17),
        "67ce0062b98ddd270d097ba2db6341b6feb9713d15c580a31cee405d3a5a4da7",
    ),
}


@pytest.mark.parametrize("key", sorted(PINNED_VERTICES, key=repr))
def test_relaxation_vertices_are_pinned(key):
    kind, params, relaxation = key
    inst = gen_instance(kind, **dict(params))
    res = simplex_solve(build_relaxation(inst, relaxation))
    assert all(isinstance(x, Rat) for x in res.assignment.values())
    assert (relaxation_value(inst, relaxation), _assignment_digest(res)) == (
        PINNED_VERTICES[key]
    )
