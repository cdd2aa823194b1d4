"""Brute-force ground-truth solvers: frozen optima, caps, and invariances."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcover import (
    INF,
    Demand,
    EdsInstance,
    Graph,
    MulticutInstance,
    OracleCapError,
    Rat,
    RootedTree,
    SetCoverInstance,
    brute_force_cover,
    brute_force_eds,
    brute_force_facility_location,
    brute_force_multicut,
    gen_instance,
    parse_instance,
    serialize_instance,
)
from graphcover.instances import FacilityLocationInstance, eds_solution, multicut_solution
from graphcover.oracle import _bits
from graphcover.rationals import ZERO, is_inf

from _support import _weights, rat_weights, small_eds, small_multicuts, star_multicut, two_leaf_star


# -- edge domination --------------------------------------------------------


def test_star_gap_optimum_is_one():
    assert brute_force_eds(gen_instance("star-gap-eds", n=4)).total == 1


def test_all_zero_instance():
    tree = RootedTree([0, 0, 0], 0)
    inst = EdsInstance(
        tree, {v: ZERO for v in range(3)}, {1: ZERO, 2: ZERO}, {1: ZERO, 2: ZERO}
    )
    sol = brute_force_eds(inst)
    assert sol.total == 0
    assert sol.edges == ()


def test_single_edge_cheaper_than_penalty():
    tree = RootedTree([0, 0], 0)
    inst = EdsInstance(tree, {0: ZERO, 1: ZERO}, {1: Rat(1)}, {1: Rat(3)})
    sol = brute_force_eds(inst)
    assert sol.total == 1
    assert sol.edges == (1,)


def test_single_edge_penalty_cheaper():
    tree = RootedTree([0, 0], 0)
    inst = EdsInstance(tree, {0: ZERO, 1: ZERO}, {1: Rat(4)}, {1: Rat(3)})
    sol = brute_force_eds(inst)
    assert sol.total == 3
    assert sol.edges == ()


def test_eds_objective_breakdown():
    sol = brute_force_eds(two_leaf_star(Rat(2), Rat(3)))
    # picking edge 1 (weight 1) pays its weight, both end nodes, no penalty
    assert sol.edges == (1,)
    assert sol.edge_weight == 1
    assert sol.node_weight == 3
    assert sol.penalty == 0
    assert sol.total == 4


def test_eds_respects_cap():
    inst = gen_instance("random-eds-general", n=8, m=21, seed=0)
    with pytest.raises(OracleCapError):
        brute_force_eds(inst)


# -- multicut ---------------------------------------------------------------


def test_subdivided_star_optimum():
    inst = gen_instance("subdivided-star-multicut", n=4)
    assert brute_force_multicut(inst).total == 3


def test_single_demand_zero_penalty():
    assert brute_force_multicut(star_multicut(1, 2, ZERO)).total == 0


def test_single_edge_forced_cut():
    tree = RootedTree([0, 0], 0)
    inst = MulticutInstance(
        tree, {0: ZERO, 1: ZERO}, {1: Rat(2)}, [Demand(0, 1, INF)]
    )
    sol = brute_force_multicut(inst)
    assert sol.total == 2
    assert sol.edges == (1,)


def test_multicut_respects_cap():
    inst = gen_instance("random-tree-multicut", n=22, k=2, seed=0)
    with pytest.raises(OracleCapError):
        brute_force_multicut(inst)


def _rational_reference(edge_weight, edge_nodes, node_weight, demands):
    """The least ``(cost, chosen index tuple)`` over every edge set, each cost
    rebuilt in rationals; each demand is ``(member index set, penalty)`` and
    pays its penalty unless a member is chosen.  None when every edge set
    pays an infinite penalty."""
    best_key = None
    for fmask in range(1 << len(edge_weight)):
        chosen = tuple(_bits(fmask))
        nodes = set().union(*(edge_nodes[i] for i in chosen))
        cost = sum((edge_weight[i] for i in chosen), ZERO)
        cost += sum((node_weight[v] for v in nodes), ZERO)
        cost += sum((p for members, p in demands if not members.intersection(chosen)), ZERO)
        if is_inf(cost):
            continue
        key = (cost, chosen)
        if best_key is None or key < best_key:
            best_key = key
    return best_key


def _rational_multicut_reference(inst):
    edges = sorted(inst.tree.edge_ids())
    pos = {e: i for i, e in enumerate(edges)}
    node_weight, edge_weight, _ = rat_weights(inst)
    _, chosen = _rational_reference(
        [edge_weight[e] for e in edges],
        [inst.tree.ends(e) for e in edges],
        node_weight,
        [({pos[e] for e in inst.path_edges(j)}, d.penalty) for j, d in enumerate(inst.demands)],
    )
    return multicut_solution(inst, [edges[i] for i in chosen])


@settings(max_examples=150, deadline=None, database=None)
@given(small_multicuts(max_nodes=11))
def test_multicut_matches_rational_enumeration(inst):
    assert brute_force_multicut(inst) == _rational_multicut_reference(inst)


def _rational_eds_reference(inst):
    g = inst.graph
    edges = sorted(g.edge_ids())
    ends = [set(g.ends(e)) for e in edges]
    node_weight, edge_weight, penalty = rat_weights(inst)
    _, chosen = _rational_reference(
        [edge_weight[e] for e in edges],
        ends,
        node_weight,
        [
            ({i for i in range(len(edges)) if ends[i] & ends[j]}, penalty[e])
            for j, e in enumerate(edges)
        ],
    )
    return eds_solution(inst, [edges[i] for i in chosen])


# trees of up to 10 edges, and graphs on 5 nodes, so of up to 10 edges
@settings(max_examples=150, deadline=None, database=None)
@given(st.one_of(small_eds(max_nodes=11, tree=True), small_eds(max_nodes=5, tree=False)))
def test_eds_matches_rational_enumeration(inst):
    # Solution equality compares the edges and each cost part
    assert brute_force_eds(inst) == _rational_eds_reference(inst)


@st.composite
def small_covers(draw):
    """Set-cover instances of up to 8 sets over up to 5 elements, zero and
    fractional costs, some with an element that no set holds."""
    n = draw(st.integers(1, 5))
    members = st.frozensets(st.integers(0, n - 1), min_size=1)
    sets = draw(st.lists(st.tuples(_weights, members), max_size=8))
    return SetCoverInstance(n, sets)


@settings(max_examples=150, deadline=None, database=None)
@given(small_covers())
def test_cover_matches_rational_enumeration(inst):
    best = _rational_reference(
        [cost for cost, _ in inst.sets],
        [()] * len(inst.sets),
        {},
        [
            ({i for i, (_, members) in enumerate(inst.sets) if x in members}, INF)
            for x in range(inst.n_elements)
        ],
    )
    assert brute_force_cover(inst) == (INF if best is None else best[0])


@settings(max_examples=150, deadline=None, database=None)
@given(small_covers())
def test_cover_round_trips_through_its_file(inst):
    assert parse_instance(serialize_instance(inst)) == inst


# -- set cover / edge cover / facility location -----------------------------


def test_three_set_cover():
    sc = SetCoverInstance(
        2,
        [
            (Rat(1), frozenset({0})),
            (Rat(1), frozenset({1})),
            (Rat(3), frozenset({0, 1})),
        ],
    )
    assert brute_force_cover(sc) == 2


def test_single_covering_set():
    sc = SetCoverInstance(3, [(Rat(7), frozenset({0, 1, 2}))])
    assert brute_force_cover(sc) == 7


def test_uncoverable_element_reports_infinity():
    sc = SetCoverInstance(2, [(Rat(1), frozenset({0}))])
    assert is_inf(brute_force_cover(sc))


def test_facility_location_optimum():
    fl = FacilityLocationInstance(
        2, 2, [Rat(4), Rat(1)], {(0, 0): Rat(0), (0, 1): Rat(2), (1, 0): Rat(0), (1, 1): Rat(2)}
    )
    # one opening of facility 1 plus both connections (1+4) vs facility 0 (4+0)
    assert brute_force_facility_location(fl) == 4


def test_facility_location_unreachable_client():
    fl = FacilityLocationInstance(1, 1, [Rat(1)], {})
    assert is_inf(brute_force_facility_location(fl))


_costs = st.builds(Rat, st.integers(0, 9), st.sampled_from([1, 2, 3, 7]))


@st.composite
def _facility_locations(draw):
    nf, nc = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    pairs = draw(st.sets(st.tuples(st.integers(0, nc - 1), st.integers(0, nf - 1)))
                 if nf and nc else st.just(set()))
    return FacilityLocationInstance(
        nc, nf, [draw(_costs) for _ in range(nf)], {p: draw(_costs) for p in sorted(pairs)})


@settings(max_examples=150, deadline=None, database=None)
@given(_facility_locations())
def test_facility_location_is_the_least_open_set_in_rationals(fl):
    """The optimum, priced in integer units, is the least over every open
    set of its opening costs plus each client's cheapest connection, summed
    in Rat, and INF when every open set leaves a client unreachable."""
    best = INF
    for pick in range(1 << fl.n_facilities):
        opened = list(_bits(pick))
        cost = sum((fl.opening[f] for f in opened), ZERO)
        for v in range(fl.n_clients):
            costs = [fl.conn[(v, f)] for f in opened if (v, f) in fl.conn]
            cost = cost + min(costs) if costs else INF
        best = cost if not is_inf(cost) and (is_inf(best) or cost < best) else best
    result = brute_force_facility_location(fl)
    assert is_inf(result) if is_inf(best) else result == best and isinstance(result, Rat)


# -- structural invariances -------------------------------------------------


def _relabel_eds(inst, perm):
    """Rebuild the instance with node ids permuted (general graphs only)."""
    g = inst.graph
    edges = [tuple(sorted((perm[u], perm[v]))) for (u, v) in g.edges]
    order = sorted(range(len(edges)), key=lambda e: edges[e])
    new_g = Graph(g.n, [edges[e] for e in order])
    node_weight, edge_weight, penalty = rat_weights(inst)
    return EdsInstance(
        new_g,
        {perm[v]: node_weight[v] for v in range(g.n)},
        {i: edge_weight[order[i]] for i in range(len(order))},
        {i: penalty[order[i]] for i in range(len(order))},
    )


def test_relabeling_preserves_optimum():
    for seed in range(6):
        inst = gen_instance("random-eds-general", n=5, m=6, seed=seed)
        perm = [4, 0, 3, 1, 2]
        assert brute_force_eds(inst).total == brute_force_eds(_relabel_eds(inst, perm)).total


def test_scaling_scales_optimum():
    for seed in range(6):
        inst = gen_instance("random-tree-eds", n=7, seed=seed)
        node_weight, edge_weight, penalty = rat_weights(inst)
        scaled = EdsInstance(
            inst.graph,
            {v: 3 * w for v, w in node_weight.items()},
            {e: 3 * w for e, w in edge_weight.items()},
            {e: (INF if is_inf(p) else 3 * p) for e, p in penalty.items()},
        )
        assert brute_force_eds(scaled).total == 3 * brute_force_eds(inst).total


def test_tie_break_is_lexicographic():
    # two disjoint equal-cost ways to dominate: edge ids {1} and {2}
    tree = RootedTree([0, 0, 0], 0)
    inst = EdsInstance(
        tree,
        {v: ZERO for v in range(3)},
        {1: Rat(1), 2: Rat(1)},
        {1: INF, 2: INF},
    )
    assert brute_force_eds(inst).edges == (1,)
