"""LP rounding pipeline for general graphs: thresholding, greedy, end-to-end."""

import pytest
from hypothesis import given, settings

from graphcover import (
    Graph,
    EdsInstance,
    FacilityLocationInstance,
    InstanceError,
    LpModel,
    Rat,
    brute_force_cover,
    brute_force_eds,
    gen_instance,
    reduce_to_eds,
    relaxation_value,
    simplex_solve,
    solve_eds_general,
)
from graphcover import eds_general, lp
from graphcover.eds_general import greedy_facility_location, harmonic, heavy_facility_location
from graphcover.instances import SetCoverInstance
from graphcover.relaxations import extract_relaxation_point
from graphcover.rationals import ZERO

from _support import rat_weights, small_eds, y_form


def test_harmonic_numbers():
    assert harmonic(1) == 1
    assert harmonic(2) == Rat(3, 2)
    assert harmonic(3) == Rat(11, 6)
    assert harmonic(0) == 0


# -- heavy nodes as facility location ------------------------------------------


def test_zero_mass_means_no_demand():
    inst = gen_instance("random-eds-general", n=5, m=6, seed=0)
    fl, clients, edge_of = heavy_facility_location(inst, {e: ZERO for e in range(6)})
    assert clients == []
    assert (fl.n_clients, fl.n_facilities, fl.opening, fl.conn) == (0, 0, [], {})
    assert edge_of == {}


def test_triangle_joins_are_facilities():
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    inst = EdsInstance(
        g,
        {v: Rat(1) for v in range(3)},
        {e: Rat(2) for e in range(3)},
        {e: Rat(1) for e in range(3)},
    )
    fl, clients, edge_of = heavy_facility_location(inst, {e: Rat(1, 2) for e in range(3)})
    assert clients == [0, 1, 2]
    # no light nodes, so one facility per edge, by edge id, at the edge weight
    assert fl.opening == [Rat(2), Rat(2), Rat(2)]
    # each join serves both its ends for free
    pairs = {(0, 0): 0, (0, 1): 1, (1, 0): 0, (1, 2): 2, (2, 1): 1, (2, 2): 2}
    assert fl.conn == {key: ZERO for key in pairs}
    assert edge_of == pairs


def test_star_center_is_heavy():
    inst = gen_instance("star-gap-eds", n=4)
    res = simplex_solve(y_form(inst))
    xe, xv, z = extract_relaxation_point(inst, res)
    assert xe == {1: Rat(1), 2: Rat(1), 3: ZERO, 4: ZERO}  # this solver's vertex point
    fl, clients, edge_of = heavy_facility_location(inst, xe)
    assert 0 in clients  # the center always clears the threshold
    assert clients == [0, 1, 2]
    # light leaves 3 and 4 first, then the joins 0-1 and 0-2 (edges 1 and 2)
    assert fl.opening == [ZERO] * 4
    assert fl.conn == {key: ZERO for key in edge_of}
    assert edge_of == {(0, 0): 3, (0, 1): 4, (0, 2): 1, (0, 3): 2, (1, 2): 1, (2, 3): 2}


def test_facility_location_shape():
    g = Graph(3, [(0, 1), (1, 2)])
    inst = EdsInstance(
        g,
        {0: Rat(4), 1: Rat(5), 2: Rat(6)},
        {0: Rat(1), 1: Rat(2)},
        {0: Rat(1), 1: Rat(1)},
    )
    # node 1 carries mass 2/5 and is heavy; its ends carry 1/5 each
    fl, clients, edge_of = heavy_facility_location(inst, {0: Rat(1, 5), 1: Rat(1, 5)})
    assert clients == [1]
    assert fl.n_facilities == 2  # the light nodes 0 and 2
    assert fl.opening == [Rat(4), Rat(6)]
    assert fl.conn == {(0, 0): Rat(1), (0, 1): Rat(2)}
    assert edge_of == {(0, 0): 0, (0, 1): 1}


def _subdivided_edge_cover_value(inst, x):
    """The edge-cover LP over a copy of the graph in which heavy nodes weigh
    nothing and each edge between two heavy nodes is split by a middle node
    carrying the edge's weight, with weightless halves."""
    g = inst.graph
    node_weight, edge_weight, _ = rat_weights(inst)
    heavy = {v for v in range(g.n) if sum((x[e] for e in g.incident(v)), ZERO) >= Rat(1, 4)}
    node_w = {v: ZERO if v in heavy else node_weight[v] for v in range(g.n)}
    edges = []  # (end, end, weight)
    for e in sorted(g.edge_ids()):
        u, v = g.ends(e)
        if u in heavy and v in heavy:
            mid = len(node_w)
            node_w[mid] = edge_weight[e]
            edges += [(u, mid, ZERO), (mid, v, ZERO)]
        else:
            edges.append((u, v, edge_weight[e]))
    model = LpModel("reference")
    for i, (_, _, w) in enumerate(edges):
        model.add_var(f"x_e{i}", obj=w)
    for v, w in node_w.items():
        model.add_var(f"x_v{v}", obj=w)
    for v in sorted(heavy):
        at_v = {f"x_e{i}": Rat(1) for i, (a, b, _) in enumerate(edges) if v in (a, b)}
        model.add_constraint(f"cover_v{v}", at_v, ">=", Rat(1))
    for i, (a, b, _) in enumerate(edges):
        for v in (a, b):
            coeffs = {f"x_v{v}": Rat(1), f"x_e{i}": Rat(-1)}
            model.add_constraint(f"node_v{v}_e{i}", coeffs, ">=", ZERO)
    return simplex_solve(model).value


@settings(max_examples=60, deadline=None, database=None)
@given(small_eds(max_nodes=5, tree=False))
def test_edge_cover_lp_matches_the_subdivided_graph(inst):
    """The facility-location form, priced in the instance's units, has the
    optimum of the edge-cover LP on the subdivided graph times ``scale``, at
    the strengthened vertex and at x = 1/2 on every edge, where every node
    with an edge is heavy."""
    res = simplex_solve(y_form(inst))
    xe, _, _ = extract_relaxation_point(inst, res)
    for x in (xe, {e: Rat(1, 2) for e in xe}):
        fl, _, _ = heavy_facility_location(inst, x)
        assert relaxation_value(fl, "edge-cover") == (
            inst.scale * _subdivided_edge_cover_value(inst, x))


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
    sol, lower, factor, _ = solve_eds_general(inst)
    assert sol.edges == ()
    assert sol.total == 0
    assert lower == 0


def test_factor_formula():
    inst = gen_instance("random-eds-general", n=5, m=6, seed=1)
    sol, lower, factor, _ = solve_eds_general(inst)
    assert factor == 4 * harmonic(5)


def test_tree_instances_within_factor():
    for seed in range(10):
        inst = gen_instance("random-tree-eds", n=6, seed=seed)
        sol, lower, factor, _ = solve_eds_general(inst)
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
    sol, lower, factor, _ = solve_eds_general(red.instance)
    assert sol.total <= 4 * harmonic(3) * sc_opt
    assert not (set(sol.edges) & red.big_m_edges)


def test_random_battery_within_factor():
    for seed in range(30):
        n = 4 + seed % 4
        m = min(5 + seed % 3, n * (n - 1) // 2)
        inst = gen_instance("random-eds-general", n=n, m=m, seed=seed, inf_prob=0.3)
        sol, lower, factor, _ = solve_eds_general(inst)
        opt = brute_force_eds(inst).total
        assert lower <= opt
        assert sol.total <= factor * opt


def _relaxation_not_solved(monkeypatch):
    """The strengthened relaxation's solve returns without an optimum."""
    monkeypatch.setattr(eds_general, "simplex_solve", lambda model: lp.LpResult(lp.INFEASIBLE))


def _heavy_threshold(value):
    """Nodes are heavy from incident fractional mass ``value`` on, not 1/4:
    at 0 every node is a client, and at 3/4 a node with mass 1/4 is not."""
    return lambda monkeypatch: monkeypatch.setattr(eds_general, "QUARTER", value)


def _greedy_opens_dearer(monkeypatch):
    """The greedy runs on the facility-location instance with each opening
    cost o raised to 2o + 1, while the relaxation prices the real one."""
    real = eds_general.greedy_facility_location

    def greedy(fl):
        opening = [2 * o + 1 for o in fl.opening]
        return real(FacilityLocationInstance(fl.n_clients, fl.n_facilities, opening, fl.conn))

    monkeypatch.setattr(eds_general, "greedy_facility_location", greedy)


@pytest.mark.parametrize("fault, n, seed, message", [
    (_relaxation_not_solved, 5, 0, "relaxation solve failed: infeasible"),
    (_heavy_threshold(ZERO), 6, 21, "edge-cover relaxation exceeds 4x fractional mass"),
    (_greedy_opens_dearer, 5, 0, "greedy cover exceeds harmonic times its relaxation"),
    (_heavy_threshold(Rat(3, 4)), 5, 17, "edge 1 with violation <= 1/2 left undominated"),
], ids=["status", "four", "harmonic", "dominated"])
def test_rounding_checks_fire_on_the_fault_they_guard(monkeypatch, fault, n, seed, message):
    """The relaxation's status check, and each link of the chain of
    inequalities, fire with their message on a fault that breaks exactly
    that check's invariant."""
    inst = gen_instance("random-eds-general", n=n, m=6, seed=seed)
    fault(monkeypatch)
    with pytest.raises(AssertionError) as caught:
        solve_eds_general(inst)
    assert str(caught.value) == message
    assert caught.traceback[-1].name == "solve_eds_general"
