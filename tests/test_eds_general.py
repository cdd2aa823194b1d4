"""LP rounding pipeline for general graphs: thresholding, greedy, end-to-end."""

import pytest

from graphcover import (
    Graph,
    EdsInstance,
    FacilityLocationInstance,
    InstanceError,
    Rat,
    brute_force_cover,
    brute_force_eds,
    build_relaxation,
    gen_instance,
    reduce_to_eds,
    simplex_solve,
    solve_eds_general,
)
from graphcover.eds_general import (
    build_edge_cover_instance,
    edge_cover_to_facility_location,
    greedy_facility_location,
    harmonic,
)
from graphcover.instances import EdgeCoverInstance, SetCoverInstance
from graphcover.relaxations import extract_relaxation_point
from graphcover.rationals import ZERO


def test_harmonic_numbers():
    assert harmonic(1) == 1
    assert harmonic(2) == Rat(3, 2)
    assert harmonic(3) == Rat(11, 6)
    assert harmonic(0) == 0


# -- heavy-node thresholding -------------------------------------------------


def test_zero_mass_means_no_demand():
    inst = gen_instance("random-eds-general", n=5, m=6, seed=0)
    cov = build_edge_cover_instance(inst, {e: ZERO for e in range(6)})
    assert cov.cover_nodes == frozenset()
    assert cov.graph.edges == inst.graph.edges


def test_triangle_subdivides_every_edge():
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    inst = EdsInstance(
        g,
        {v: Rat(1) for v in range(3)},
        {e: Rat(2) for e in range(3)},
        {e: Rat(1) for e in range(3)},
    )
    cov = build_edge_cover_instance(inst, {e: Rat(1, 2) for e in range(3)})
    assert cov.cover_nodes == frozenset({0, 1, 2})
    assert cov.graph.n == 6  # three fresh middle nodes
    assert len(cov.graph.edges) == 6
    assert [cov.edge_origin[e] for e in range(6)] == [0, 0, 1, 1, 2, 2]
    # middle nodes carry the old edge weights, halves are free
    assert all(cov.edge_weight[e] == 0 for e in range(6))
    assert [cov.node_weight[s] for s in (3, 4, 5)] == [2, 2, 2]
    # demand nodes got their weight zeroed
    assert all(cov.node_weight[v] == 0 for v in range(3))


def test_star_center_is_heavy():
    inst = gen_instance("star-gap-eds", n=4)
    res = simplex_solve(build_relaxation(inst, "strengthened"))
    xe, xv, z = extract_relaxation_point(inst, res)
    cov = build_edge_cover_instance(inst, xe)
    assert 0 in cov.cover_nodes  # the center always clears the threshold
    assert cov.cover_nodes == frozenset({0, 1, 2})  # this solver's vertex point
    assert xe == {1: Rat(1), 2: Rat(1), 3: ZERO, 4: ZERO}


# -- facility-location view --------------------------------------------------


def test_cover_to_facility_location_shape():
    g = Graph(3, [(0, 1), (1, 2)])

    cov = EdgeCoverInstance(
        g,
        frozenset({1}),
        {0: Rat(4), 1: ZERO, 2: Rat(6)},
        {0: Rat(1), 1: Rat(2)},
    )
    fl, clients, facilities, edge_of = edge_cover_to_facility_location(cov)
    assert clients == [1]
    assert facilities == [0, 2]
    assert fl.opening == [Rat(4), Rat(6)]
    assert fl.conn == {(0, 0): Rat(1), (0, 1): Rat(2)}
    assert edge_of == {(0, 0): 0, (0, 1): 1}


def test_isolated_demand_node_is_infeasible():
    g = Graph(2, [(0, 1)])

    cov = EdgeCoverInstance(
        Graph(3, [(0, 1)]),
        frozenset({2}),
        {0: ZERO, 1: ZERO, 2: ZERO},
        {0: ZERO},
    )
    with pytest.raises(InstanceError, match="isolated"):
        edge_cover_to_facility_location(cov)


def test_adjacent_demand_nodes_rejected():
    g = Graph(2, [(0, 1)])

    cov = EdgeCoverInstance(
        g, frozenset({0, 1}), {0: ZERO, 1: ZERO}, {0: Rat(1)}
    )
    with pytest.raises(InstanceError, match="adjacent"):
        edge_cover_to_facility_location(cov)


# -- greedy star selection ---------------------------------------------------


def test_greedy_prefers_better_ratio():
    fl = FacilityLocationInstance(
        1, 2, [Rat(1), Rat(10)], {(0, 0): Rat(1), (0, 1): ZERO}
    )
    opened, assignment, cost = greedy_facility_location(fl)
    assert opened == (0,)
    assert assignment == {0: 0}
    assert cost == 2


def test_greedy_no_clients():
    fl = FacilityLocationInstance(0, 2, [Rat(1), Rat(2)], {})
    opened, assignment, cost = greedy_facility_location(fl)
    assert opened == ()
    assert assignment == {}
    assert cost == 0


def test_greedy_free_facility_takes_everyone():
    fl = FacilityLocationInstance(
        3,
        1,
        [ZERO],
        {(0, 0): Rat(1), (1, 0): Rat(2), (2, 0): Rat(3)},
    )
    opened, assignment, cost = greedy_facility_location(fl)
    assert opened == (0,)
    assert cost == 6


def test_greedy_unreachable_client_rejected():
    fl = FacilityLocationInstance(1, 1, [Rat(1)], {})
    with pytest.raises(InstanceError):
        greedy_facility_location(fl)


def _classic_greedy_set_cover(universe, sets):
    """Textbook best-ratio set cover, for cross-checking."""
    left = set(universe)
    picked = []
    total = ZERO
    while left:
        best = None
        for idx, (cost, members) in enumerate(sets):
            gain = len(members & left)
            if gain == 0:
                continue
            key = (cost / gain, idx)
            if best is None or key < best[0]:
                best = (key, idx, cost, members)
        _, idx, cost, members = best
        picked.append(idx)
        total += cost
        left -= members
    return picked, total


def test_greedy_matches_classic_set_cover():
    # encode sets as facilities with opening = set cost, membership = zero edges
    sets = [
        (Rat(3), frozenset({0, 1, 2})),
        (Rat(1), frozenset({0})),
        (Rat(1), frozenset({1})),
        (Rat(2), frozenset({2, 3})),
    ]
    conn = {}
    for f, (_, members) in enumerate(sets):
        for v in members:
            conn[(v, f)] = ZERO
    fl = FacilityLocationInstance(4, 4, [c for c, _ in sets], conn)
    opened, assignment, cost = greedy_facility_location(fl)
    picked, classic_cost = _classic_greedy_set_cover(range(4), sets)
    assert cost == classic_cost
    assert sorted(opened) == sorted(picked)


# -- end-to-end pipeline -----------------------------------------------------


def test_zero_penalties_solve_to_empty():
    inst = gen_instance("random-eds-general", n=5, m=6, seed=4, pmax=0, inf_prob=0.0)
    sol, lower, factor = solve_eds_general(inst)
    assert sol.edges == ()
    assert sol.total == 0
    assert lower == 0


def test_factor_formula():
    inst = gen_instance("random-eds-general", n=5, m=6, seed=1)
    sol, lower, factor = solve_eds_general(inst)
    assert factor == 4 * harmonic(5)


def test_tree_instances_within_factor():
    for seed in range(10):
        inst = gen_instance("random-tree-eds", n=6, seed=seed)
        sol, lower, factor = solve_eds_general(inst)
        opt = brute_force_eds(inst).total
        assert lower <= opt
        assert sol.total <= factor * opt


def test_set_cover_reduction_within_log_bound():
    sc = SetCoverInstance(
        3,
        [
            (Rat(2), frozenset({0, 1})),
            (Rat(2), frozenset({1, 2})),
            (Rat(3), frozenset({0, 1, 2})),
        ],
    )
    red = reduce_to_eds(sc)
    sc_opt = brute_force_cover(sc)
    sol, lower, factor = solve_eds_general(red.instance)
    assert sol.total <= 4 * harmonic(3) * sc_opt
    assert not (set(sol.edges) & red.big_m_edges)


def test_random_battery_within_factor():
    for seed in range(30):
        n = 4 + seed % 4
        m = min(5 + seed % 3, n * (n - 1) // 2)
        inst = gen_instance("random-eds-general", n=n, m=m, seed=seed, inf_prob=0.3)
        sol, lower, factor = solve_eds_general(inst)
        opt = brute_force_eds(inst).total
        assert lower <= opt
        assert sol.total <= factor * opt
