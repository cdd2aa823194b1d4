"""Fractional relaxations: gap values, point extraction, and dual completion."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from graphcover import (
    INF,
    Demand,
    EdsInstance,
    Graph,
    InstanceError,
    MulticutInstance,
    Rat,
    RootedTree,
    brute_force_eds,
    brute_force_multicut,
    build_relaxation,
    complete_eds_dual,
    gen_instance,
    reduce_to_eds,
    relaxation_value,
    relaxation_values,
    simplex_solve,
    solve_eds_general,
    solve_eds_tree,
    verify_eds_optimality,
)
from graphcover import relaxations
from graphcover.eds_general import heavy_facility_location
from graphcover.instances import edge_neighborhoods
from graphcover.lp import dual_model
from graphcover.rationals import ZERO, is_inf
from graphcover.relaxations import extract_relaxation_point

from _support import rat_weights, small_eds, small_multicuts, two_leaf_star, y_form


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
        primal = simplex_solve(build_relaxation(inst, kind))  # priced in units
        assert relaxation_value(inst, kind) == primal.value / inst.scale
    if isinstance(inst, EdsInstance):
        # the edge cover of the heavy nodes at the strengthened vertex just solved
        xe, _, _ = extract_relaxation_point(inst, primal)
        fl, _, _ = heavy_facility_location(inst, xe)
        primal = simplex_solve(build_relaxation(fl, "edge-cover"))
        assert relaxation_value(fl, "edge-cover") == primal.value


@settings(max_examples=150, deadline=None, database=None)
@given(
    st.one_of(
        small_eds(max_nodes=8, tree=True),
        small_eds(max_nodes=6, tree=False),
        small_multicuts(max_nodes=8),
        st.integers(2, 6).map(lambda n: gen_instance("star-gap-eds", n=n)),
        st.integers(2, 6).map(lambda n: gen_instance("subdivided-star-multicut", n=n)),
    )
)
def test_staged_values_equal_the_two_solves(inst):
    """One staged solve of the strengthened dual gives both values, on
    trees and graphs with infinite penalties, multicuts and both stars."""
    assert relaxation_values(inst) == (
        relaxation_value(inst, "natural"), relaxation_value(inst, "strengthened"))


@pytest.mark.parametrize("inst", [
    gen_instance("random-tree-eds", n=12, seed=3, inf_prob=0.3),
    gen_instance("random-eds-general", n=6, m=10, seed=2),
    gen_instance("random-tree-multicut", n=12, k=4, seed=5, inf_prob=0.5),
    gen_instance("star-gap-eds", n=4),
], ids=["eds-tree", "eds-general", "multicut", "star"])
def test_natural_model_leads_the_strengthened_one(inst, monkeypatch):
    """The natural variables and rows are the strengthened model's leading
    ones, a strengthened-only variable is in no natural row, and the stage
    of the dual that relaxation_values solves is the natural row count."""
    natural = build_relaxation(inst, "natural")
    nv, nr = len(natural.variables), len(natural.constraints)
    for strong in (build_relaxation(inst, "strengthened"), y_form(inst)):
        assert strong.variables[:nv] == natural.variables
        assert [c.name for c in strong.constraints[:nr]] == [c.name for c in natural.constraints]
        assert all(set(c.coeffs) <= set(natural.variables) for c in strong.constraints[:nr])
    stages = []
    real = relaxations.simplex_solve

    def solve(model):
        stages.append(model.stage)
        return real(model)

    monkeypatch.setattr(relaxations, "simplex_solve", solve)
    relaxation_values(inst)
    assert stages == [nr]


def _scaled(inst, q):
    """``inst`` with every finite weight and penalty multiplied by q."""
    node_weight, edge_weight, penalty = rat_weights(inst)
    node_weight = {v: w * q for v, w in node_weight.items()}
    edge_weight = {e: w * q for e, w in edge_weight.items()}
    penalty = {c: p if is_inf(p) else p * q for c, p in penalty.items()}
    if isinstance(inst, MulticutInstance):
        demands = [Demand(d.s, d.t, penalty[i]) for i, d in enumerate(inst.demands)]
        return MulticutInstance(inst.tree, node_weight, edge_weight, demands)
    return EdsInstance(inst.graph, node_weight, edge_weight, penalty)


@settings(max_examples=80, deadline=None, database=None)
@given(
    st.one_of(
        small_eds(max_nodes=7, tree=True),
        small_eds(max_nodes=5, tree=False),
        small_multicuts(max_nodes=7),
    ),
    st.builds(Rat, st.integers(1, 12), st.integers(1, 9)),
)
def test_relaxations_scale_with_the_weights(inst, q):
    """The models are priced in units over a scale that q changes, and every
    value divided back: the relaxation values, both staged values and the
    eds-general lower bound scale by q, and the rounded edges stay."""
    scaled = _scaled(inst, q)
    for kind in ("natural", "strengthened"):
        assert relaxation_value(scaled, kind) == q * relaxation_value(inst, kind)
    assert relaxation_values(scaled) == tuple(q * x for x in relaxation_values(inst))
    if isinstance(inst, EdsInstance):
        (sol, lower, factor, _), (sol_q, lower_q, factor_q, _) = map(solve_eds_general, (inst, scaled))
        assert (sol_q.edges, lower_q, factor_q) == (sol.edges, q * lower, factor)


# -- the projected strengthened model ---------------------------------------


def _y_form_value(inst):
    """The strengthened value of the y-form model, the test-side reference."""
    return simplex_solve(dual_model(y_form(inst))).value / inst.scale


def _has_triangle(inst):
    g = inst.graph
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return any(adj[u] & adj[v] for u, v in g.edges)


_seeds = st.integers(0, 10**6)


@settings(max_examples=150, deadline=None, database=None)
@given(
    st.one_of(
        st.builds(
            lambda n, seed, inf_prob: gen_instance(
                "random-tree-eds", n=n, seed=seed, inf_prob=inf_prob
            ),
            st.integers(2, 14), _seeds, st.sampled_from([0.0, 0.25, 1.0]),
        ),
        st.integers(3, 6).flatmap(
            lambda n: st.builds(
                lambda m, seed: gen_instance("random-eds-general", n=n, m=m, seed=seed),
                st.integers(3, n * (n - 1) // 2), _seeds,
            )
        ).filter(_has_triangle),
        small_eds(max_nodes=5, tree=False).filter(_has_triangle),
        st.builds(
            lambda n, k, seed: gen_instance("random-tree-multicut", n=n, k=k, seed=seed),
            st.integers(2, 12), st.integers(1, 5), _seeds,
        ),
        small_multicuts(max_nodes=8),
        st.builds(
            lambda n, m, seed: reduce_to_eds(
                gen_instance("random-set-cover", n=n, m=m, seed=seed)
            ).instance,
            st.integers(1, 4), st.integers(1, 4), _seeds,
        ),
        st.builds(
            lambda nc, nf, seed: reduce_to_eds(
                gen_instance("random-facility-location", clients=nc, facilities=nf, seed=seed)
            ).instance,
            st.integers(1, 3), st.integers(1, 3), _seeds,
        ),
    )
)
def test_projected_value_equals_the_y_form(inst):
    """relaxation_value builds the strengthened LP with y(C,e) projected
    out; its value is the y-form's, on trees, on graphs with triangles
    (demands that keep y), on multicuts and on covering reductions."""
    assert relaxation_value(inst, "strengthened") == _y_form_value(inst)


def test_projected_tree_model_has_three_rows_per_demand():
    """On a tree the value model holds no y(C,e): each demand's y rows
    become three rows over x and z."""
    inst = gen_instance("random-tree-eds", n=12, seed=3, inf_prob=0.5)
    natural = build_relaxation(inst, "natural")
    model = build_relaxation(inst, "strengthened")
    assert model.variables == natural.variables
    assert not any(v.startswith("y_") for v in model.variables)
    assert model.constraints[: len(natural.constraints)] == natural.constraints
    extra = model.constraints[len(natural.constraints):]
    assert len(extra) == 3 * len(inst.graph.edge_ids())
    assert all(con.relation == ">=" and con.rhs == 1 for con in extra)


def test_projected_rows_of_a_path_demand():
    """Path 0-1-2-3, edge e = (1, 2) with A = {e1}, B = {e3}: the rows
    x(1) + x(2), x(1) + x(B) and x(2) + x(A), with z only for a finite
    penalty."""
    path = RootedTree([0, 0, 1, 2], 0)  # edge i joins node i to its parent
    inst = EdsInstance(
        path,
        {v: Rat(1) for v in range(4)},
        {e: Rat(1) for e in (1, 2, 3)},
        {1: INF, 2: Rat(5), 3: INF},
    )
    rows = {
        con.name: con.coeffs
        for con in build_relaxation(inst, "strengthened").constraints
        if con.name.startswith("ends_")
    }
    one = Rat(1)
    assert rows["ends_2"] == {"x_v1": one, "x_v2": one, "z_2": one}
    assert rows["ends_2_v1"] == {"x_v1": one, "x_e3": one, "z_2": one}
    assert rows["ends_2_v2"] == {"x_v2": one, "x_e1": one, "z_2": one}
    assert rows["ends_1_v0"] == {"x_v0": one, "x_e2": one}  # INF: no z
    assert len(rows) == 9


def test_demand_with_a_common_neighbour_keeps_y():
    """In a triangle every edge's ends share a neighbour and every node
    touches two members of each demand, so the value model is the y-form."""
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    inst = EdsInstance(
        tri, {v: Rat(v) for v in range(3)}, {e: Rat(1) for e in range(3)}, {e: INF for e in range(3)}
    )
    full = y_form(inst)
    model = build_relaxation(inst, "strengthened")
    assert model.variables == full.variables
    assert not any(con.name.startswith("ends_") for con in model.constraints)
    assert model.constraints == full.constraints
    assert relaxation_value(inst, "strengthened") == _y_form_value(inst)


def _lexicographic_point(inst, model):
    """x(edge), x(node) and z of the lexicographically least optimum of
    ``model``, the y-form or the projected form of the strengthened LP."""
    model.lexicographic = True
    return extract_relaxation_point(inst, simplex_solve(model))


def _assert_canonical(inst):
    assert _lexicographic_point(inst, build_relaxation(inst, "strengthened")) == (
        _lexicographic_point(inst, y_form(inst)))


@settings(max_examples=60, deadline=None, database=None)
@given(small_eds(max_nodes=6, tree=False))
def test_lexicographic_point_is_the_same_from_either_form(inst):
    """Projecting out y(C,e) keeps the (x, z) optimal face, so the
    lexicographically least optimum, whose x and z lead the variable order,
    is the same point from both forms: the one eds-general rounds."""
    _assert_canonical(inst)


@pytest.mark.parametrize("n, m, seed", [
    (n, m, seed) for n, m in ((6, 6), (8, 10), (10, 15)) for seed in range(3)
])
def test_lexicographic_point_of_generated_graphs(n, m, seed):
    _assert_canonical(gen_instance("random-eds-general", n=n, m=m, seed=seed))


# -- point extraction -------------------------------------------------------


def test_extract_point_shapes():
    inst = gen_instance("random-tree-eds", n=6, seed=1)
    model = build_relaxation(inst, "strengthened")
    res = simplex_solve(model)
    xe, xv, z = extract_relaxation_point(inst, res)
    assert sorted(xe) == sorted(inst.graph.edge_ids())
    assert sorted(xv) == list(range(inst.graph.n))
    assert sorted(z) == sorted(inst.graph.edge_ids())
    for e, p in rat_weights(inst)[2].items():
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
    node_weight, edge_weight, _ = rat_weights(inst)
    # capacity rows: per-edge nu mass within edge weights, per-node mu within node weights
    for e in (1, 2):
        assert sum(nu.get((e, f), ZERO) for f in (1, 2)) <= edge_weight[e]
    for v in (0, 1, 2):
        assert sum(mu.get((v, e), ZERO) for e in (1, 2)) <= node_weight[v]


def test_overcharged_xi_fails():
    tree_inst = two_leaf_star(Rat(2), Rat(2), wr=ZERO, w1=ZERO, w2=ZERO)
    assert complete_eds_dual(tree_inst, {1: Rat(1), 2: ZERO}) is None


@pytest.mark.parametrize("xi,message", [
    ({1: ZERO}, "xi must assign a value to every edge"),
    ({1: ZERO, 2: ZERO, 3: ZERO}, "xi must assign a value to every edge"),
    ({1: Rat(-1, 2), 2: ZERO}, "xi(1) is negative"),
])
def test_completion_refuses_a_malformed_xi(xi, message):
    with pytest.raises(ValueError) as err:
        complete_eds_dual(two_leaf_star(Rat(2), Rat(2)), xi)
    assert str(err.value) == message


def test_completion_supports_infinite_penalties():
    inst = two_leaf_star(INF, ZERO)
    # edge 1 alone dominates both edges: alpha_1 = w(e1)+w(r)+w(v1) = 4
    got = complete_eds_dual(inst, {1: Rat(4), 2: ZERO})
    assert got is not None


@settings(max_examples=80, deadline=None, database=None)
@given(small_eds(max_nodes=7, tree=True))
def test_completion_on_fractional_weights_is_a_rational_dual(inst):
    """complete_eds_dual solves in units; the nu and mu it returns meet
    every capacity and support row of the rational weights, and an xi
    above a rational penalty is refused."""
    g = inst.graph
    node_weight, edge_weight, penalty = rat_weights(inst)
    xi = solve_eds_tree(inst)[1].xi
    got = complete_eds_dual(inst, xi)
    if got is not None:  # None on the trees of F1
        nu, mu = got
        for ep in g.edge_ids():
            assert sum((x for (f, _), x in nu.items() if f == ep), ZERO) <= edge_weight[ep]
        for v in range(g.n):
            assert sum((x for (u, _), x in mu.items() if u == v), ZERO) <= node_weight[v]
        nbhd = edge_neighborhoods(g)
        for e in g.edge_ids():
            for ep in nbhd[e]:
                u, v = g.ends(ep)
                support = nu.get((ep, e), ZERO) + mu.get((u, e), ZERO) + mu.get((v, e), ZERO)
                assert support >= xi[e]
    for e, p in penalty.items():
        if not is_inf(p):
            with pytest.raises(ValueError):
                complete_eds_dual(inst, {**xi, e: p + Rat(1, 1000)})


def test_dual_completion_ends_at_phase_one(monkeypatch):
    """On the eds-tree trees of the certify workload's screen (eds60 seeds
    0-99 and the f1 tree), the nu and mu read at the end of phase I equal
    a full solve's, which drives the artificials out and runs phase II (a
    cost on a variable in no row forces it, and stays zero at the
    optimum).  The f1 tree and eds60 seeds 23 and 57 still fail
    dual-completion-feasible."""
    solve = relaxations.simplex_solve

    def both(model):
        first = solve(model)
        model.add_var("unused", obj=1)
        full = solve(model)
        if full.assignment is not None:
            assert full.assignment.pop("unused") == 0
        assert (first.status, first.assignment) == (full.status, full.assignment)
        return first

    monkeypatch.setattr(relaxations, "simplex_solve", both)
    failing = []
    for n, seed in [(60, s) for s in range(100)] + [(40, 4)]:
        inst = gen_instance("random-tree-eds", n=n, seed=seed)
        sol, dual = solve_eds_tree(inst)
        report = verify_eds_optimality(inst, sol, dual.xi)
        if not report.passed:
            assert report.failures() == ["dual-completion-feasible"]
            failing.append((n, seed))
    assert failing == [(60, 23), (60, 57), (40, 4)]


# -- pinned vertices ----------------------------------------------------------


def _assignment_digest(res):
    text = "".join(f"{var} {value}\n" for var, value in res.assignment.items())
    return hashlib.sha256(text.encode()).hexdigest()


# (relaxation_value, sha256 of the full simplex assignment, one
# "var value" line per variable in model order).  The natural vertex and
# the y-form (`y_form`) strengthened vertex that the pivot rules reach: a
# change to the simplex that moves either shows here.
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
    model = y_form(inst) if relaxation == "strengthened" else build_relaxation(inst, relaxation)
    res = simplex_solve(model)
    assert all(isinstance(x, Rat) for x in res.assignment.values())
    assert (relaxation_value(inst, relaxation), _assignment_digest(res)) == (
        PINNED_VERTICES[key]
    )
