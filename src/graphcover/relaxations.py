"""Linear-programming models for the covering problems.

Builders produce :class:`~graphcover.lp.LpModel` objects with a fixed
variable and row order (edges by id, nodes by id, demands by index) so that
solves are reproducible.  Infinite penalties never reach the models: a
demand with infinite penalty simply has no violation variable ``z``.

A model of an eds or multicut instance is priced in its integer units, so
its optimum is ``scale`` times the relaxation's value and each reader
divides by ``scale`` once; a positive scaling changes no pivot choice.

Every value, and the eds-general rounding's lexicographically least
optimum, is a solve of a model set by :func:`as_lexicographic`, which goes
through the LP dual and needs no phase I.  :func:`relaxation_values` gives
both values from one solve of the strengthened model staged at its leading
rows, which are the natural model's.

Demand families: an edge-dominating instance has one demand per edge e,
consisting of the edges sharing an end node with e; a multicut instance has
one demand per terminal pair, consisting of its tree path.
"""

from __future__ import annotations

from itertools import groupby
from typing import Dict, List, Optional, Tuple

from .instances import (
    EdsInstance,
    FacilityLocationInstance,
    InstanceError,
    MulticutInstance,
    edge_neighborhoods,
)
from .lp import INFEASIBLE, LinearConstraint, LpModel, LpResult, OPTIMAL, simplex_solve
from .rationals import Rat, ZERO, is_inf

RELAXATION_KINDS = ("natural", "strengthened", "edge-cover")


def _demand_families(inst) -> List[Tuple[object, List[int], object]]:
    """(demand key, member edges, penalty units) triples in canonical order,
    for an EDS or multicut instance (`build_relaxation` checks which)."""
    if isinstance(inst, EdsInstance):
        nbhd = edge_neighborhoods(inst.graph)
        return [(e, list(nbhd[e]), inst.penalty_units[e]) for e in sorted(inst.graph.edge_ids())]
    return [
        (i, sorted(inst.path_edges(i)), inst.penalty_units[i])
        for i in range(len(inst.demands))
    ]


def build_relaxation(inst, kind: str) -> LpModel:
    """Fractional relaxation of an instance as an explicit LP model, priced
    in the instance's units.

    natural: variables x(e), x(v), z(C); rows sum_{e in C} x(e) >= 1 - z(C)
    and x(v) >= x(e) for e incident to v.  z(C) exists only for finite
    penalties (an infinite penalty pins the violation variable to zero).

    strengthened: the natural model plus, per demand C, the rows of
    per-demand variables y(C,e): sum_{e in C} y(C,e) >= 1 - z(C),
    x(v) >= sum of y(C,e) over member edges incident to v, and
    x(e) >= y(C,e), with y(C,.) projected out where that is exact.  A node
    row with one member edge e is implied by x(v) >= x(e) >= y(C,e) and is
    left out.  For an eds demand C = N[ab] whose ends a and b have no
    common neighbour, every other node row has one member, and
    Fourier-Motzkin elimination of y(C,.) (Balas, *Ann. Oper. Res.* 140,
    2005) leaves, with A = delta(a) - ab and B = delta(b) - ab the other
    edges at a and b, and x(S) the sum of x(f) over S:

        x(a) + x(b) + z(C) >= 1
        x(a) + x(B) + z(C) >= 1
        x(b) + x(A) + z(C) >= 1

    with no z(C) where the penalty is infinite.  The fourth row,
    x(a) + x(b) + x(A) + x(B) + 2 z(C) >= 2, is the sum of the last two.
    On a tree no two ends share a neighbour, so these rows are the
    strengthened LP in full, and the F1 trees whose strengthened value lies
    below the optimum are a statement about them.  A demand whose ends
    share a neighbour, and every multicut demand (a path has exponentially
    many tilings), keep their y(C,e), after the natural rows and the end
    rows.  x and z lead the variable order, so the lexicographically least
    optimum, the point eds-general rounds, depends only on the (x, z)
    optimal face, which the projection keeps.

    edge-cover: for a FacilityLocationInstance, variables y(f) at the
    opening costs and x(v,f) at the connection costs, rows
    sum_f x(v,f) >= 1 for each client v and y(f) >= x(v,f) for each pair.
    eds-general builds it for the edge cover of its heavy nodes, whose
    facilities are their light neighbours and the edges joining two of them.
    """
    if kind not in RELAXATION_KINDS:
        raise InstanceError(f"unknown relaxation kind {kind!r}")
    if kind == "edge-cover":
        if not isinstance(inst, FacilityLocationInstance):
            raise InstanceError("edge-cover relaxation needs a facility-location instance")
        return _build_edge_cover_lp(inst)
    if not isinstance(inst, (EdsInstance, MulticutInstance)):
        raise InstanceError(f"{kind} relaxation needs an EDS or multicut instance")

    g = inst.graph
    demands = _demand_families(inst)
    model = LpModel(name=f"{kind}")
    for e in sorted(g.edge_ids()):
        model.add_var(f"x_e{e}", obj=inst.edge_units[e])
    for v in range(g.n):
        model.add_var(f"x_v{v}", obj=inst.node_units[v])
    z_keys = []
    for c, _, pen in demands:
        if not is_inf(pen):
            model.add_var(f"z_{c}", obj=pen)
            z_keys.append(c)
    zset = set(z_keys)

    for c, members, _ in demands:
        coeffs = {f"x_e{e}": 1 for e in members}
        if c in zset:
            coeffs[f"z_{c}"] = 1
        model.add_constraint(f"cover_{c}", coeffs, ">=", 1)
    for v in range(g.n):
        for e in sorted(g.incident(v)):
            model.add_constraint(
                f"node_v{v}_e{e}", {f"x_v{v}": 1, f"x_e{e}": -1}, ">=", 0
            )

    if kind == "strengthened":
        kept = []
        for c, members, _ in demands:
            rows = _end_rows(g, c) if isinstance(inst, EdsInstance) else None
            if rows is None:
                kept.append((c, members))
                continue
            for suffix, coeffs in rows:
                if c in zset:
                    coeffs[f"z_{c}"] = 1
                model.add_constraint(f"ends_{c}{suffix}", coeffs, ">=", 1)
        for c, members in kept:
            for e in members:
                model.add_var(f"y_{c}_{e}")
        for c, members in kept:
            coeffs = {f"y_{c}_{e}": 1 for e in members}
            if c in zset:
                coeffs[f"z_{c}"] = 1
            model.add_constraint(f"ycover_{c}", coeffs, ">=", 1)
            at_node: Dict[int, List[int]] = {}
            for e in members:
                u, v = g.ends(e)
                at_node.setdefault(u, []).append(e)
                at_node.setdefault(v, []).append(e)
            for v in sorted(at_node):
                if len(at_node[v]) == 1:
                    continue  # x(v) >= x(e) >= y(C,e) implies it
                coeffs = {f"x_v{v}": 1}
                for e in at_node[v]:
                    coeffs[f"y_{c}_{e}"] = -1
                model.add_constraint(f"ynode_{c}_v{v}", coeffs, ">=", 0)
            for e in members:
                model.add_constraint(
                    f"yedge_{c}_e{e}", {f"x_e{e}": 1, f"y_{c}_{e}": -1}, ">=", 0
                )
    return model


def _end_rows(g, e: int) -> Optional[List[Tuple[str, Dict[str, int]]]]:
    """The rows x(a) + x(b), x(a) + x(B) and x(b) + x(A) (without z) that
    replace the y rows of edge e = ab's demand, named by their suffix, or
    None when a and b have a common neighbour."""
    a, b = g.ends(e)
    side_a = [f for f in g.incident(a) if f != e]
    side_b = [f for f in g.incident(b) if f != e]
    touched_a = {u for f in side_a for u in g.ends(f)}
    if not touched_a.isdisjoint(u for f in side_b for u in g.ends(f)):
        return None  # a common neighbour: its node row holds two members
    return [
        ("", {f"x_v{a}": 1, f"x_v{b}": 1}),
        (f"_v{a}", {f"x_v{a}": 1, **{f"x_e{f}": 1 for f in side_b}}),
        (f"_v{b}", {f"x_v{b}": 1, **{f"x_e{f}": 1 for f in side_a}}),
    ]


def _build_edge_cover_lp(inst: FacilityLocationInstance) -> LpModel:
    model = LpModel(name="edge-cover")
    for f, cost in enumerate(inst.opening):
        model.add_var(f"y_f{f}", obj=cost)
    pairs = sorted(inst.conn)
    serve: Dict[int, Dict[str, int]] = {v: {} for v in range(inst.n_clients)}
    for v, f in pairs:
        serve[v][model.add_var(f"x_c{v}_f{f}", obj=inst.conn[(v, f)])] = 1
    for v, coeffs in serve.items():
        model.add_constraint(f"serve_c{v}", coeffs, ">=", 1)
    for v, f in pairs:
        model.add_constraint(
            f"open_c{v}_f{f}", {f"y_f{f}": 1, f"x_c{v}_f{f}": -1}, ">=", 0
        )
    return model


def as_lexicographic(model: LpModel, stage: Optional[int] = None) -> LpModel:
    """``model``, a built relaxation, set to be solved for its value through
    its dual, which starts feasible, under the lexicographic ratio test,
    staged at its first ``stage`` rows if given."""
    model.lexicographic, model.stage = True, stage
    return model


def relaxation_value(inst, kind: str) -> Rat:
    """Optimal value of the built relaxation (must be feasible).  An
    edge-cover model is priced as its costs are, any other in units."""
    res = simplex_solve(as_lexicographic(build_relaxation(inst, kind)))
    if res.status != OPTIMAL:
        raise InstanceError(f"{kind} relaxation unexpectedly infeasible")
    return res.value if kind == "edge-cover" else res.value / inst.scale


def relaxation_values(inst) -> Tuple[Rat, Rat]:
    """``relaxation_value`` of the natural and of the strengthened
    relaxation, from one solve.

    The natural model's variables and rows are the leading ones of the
    strengthened model, and a strengthened-only variable appears in
    strengthened-only rows alone, so the strengthened model restricted to
    its leading rows has the natural optimum.  Staged at those rows, it
    reaches the natural optimum first and pivots on to the strengthened one.
    """
    # the natural rows: a cover row per demand, and a node row per edge end
    edges = len(inst.graph.edge_ids())
    stage = (len(inst.demands) if isinstance(inst, MulticutInstance) else edges) + 2 * edges
    res = simplex_solve(as_lexicographic(build_relaxation(inst, "strengthened"), stage))
    # feasible (x = 1, z = 0, y = 1 on one member edge per demand) and bounded (costs >= 0)
    assert res.status == OPTIMAL
    return res.stage_value / inst.scale, res.value / inst.scale


def extract_relaxation_point(inst, result: LpResult):
    """Split an optimal relaxation assignment into x(edge), x(node), z maps."""
    g = inst.graph
    xe = {e: result.assignment.get(f"x_e{e}", ZERO) for e in sorted(g.edge_ids())}
    xv = {v: result.assignment.get(f"x_v{v}", ZERO) for v in range(g.n)}
    z = {}
    for c, _, pen in _demand_families(inst):
        z[c] = result.assignment.get(f"z_{c}", ZERO) if not is_inf(pen) else ZERO
    return xe, xv, z


# ---------------------------------------------------------------------------
# dual completion


def complete_eds_dual(
    inst: EdsInstance, xi: Dict[int, Rat]
) -> Optional[Tuple[Dict[Tuple[int, int], Rat], Dict[Tuple[int, int], Rat]]]:
    """Find nu, mu turning xi into a full feasible dual, or None if impossible.

    Solved as an exact LP feasibility problem (zero objective, answered at
    the end of phase I) over the dual of the strengthened relaxation with
    xi fixed: per edge e', the capacity sum of nu(e', e) over e in N[e']
    <= w(e'); per node v, the capacity sum of mu(v, e) over e in N'[v] <=
    w(v); and per e and each e' = uv in N[e], the support mu(u, e) +
    mu(v, e) + nu(e', e) >= xi(e).
    N[e'] is the closed edge neighborhood of e', and N'[v] joins the
    neighborhoods of the edges at v.
    Pairs involving an edge with xi(e) = 0 are dropped: their support rows
    hold trivially and zero values only relax the capacities, so the
    reduced problem is feasible exactly when the full one is.  The rows
    are built in one pass over the edges with xi(e) > 0, in the instance's
    units: capacities are the weight units and supports xi(e) times
    ``scale``, and nu, mu are divided by ``scale`` on the way out.

    Presolve: each capacity is the pool of its own edge's nu or node's mu,
    and a support row holds one variable of each of its three pools, e'
    and its ends.  A pool whose capacity covers xi(e) once for every e its
    variables serve pays all its rows in full, with each of its variables
    at xi(e); every row that some such pool pays is left out of the LP,
    with those pools' capacity rows and variables, and the values are
    written back after the solve.  This is exact: a paid pool's variables
    are in no kept row and in no other capacity row, so the written-back
    values and any solution of the kept rows meet every row; and the kept
    rows and capacities are a subset of the full ones.  The LP is solved
    whenever some xi(e) > 0, even when no row is kept.  Returned maps hold
    the nonzero values; absent pairs are zero.

    Raises ValueError when xi is negative or exceeds a penalty.
    """
    g, scale = inst.graph, inst.scale
    edge_ids = sorted(g.edge_ids())
    if sorted(xi) != edge_ids:
        raise ValueError("xi must assign a value to every edge")
    units = {}  # e -> xi(e) * scale where xi(e) > 0: an int where it is one
    for e in edge_ids:
        x = xi[e]
        if x < 0:
            raise ValueError(f"xi({e}) is negative")
        if x:
            x = x if scale == 1 else x * scale
            if x > inst.penalty_units[e]:
                raise ValueError(f"xi({e}) exceeds the penalty of edge {e}")
            units[e] = int(x) if x.denominator == 1 else x  # a row of ints is not rescaled
    if not units:
        return {}, {}

    rows = []  # (e, e', u, v) for e' = uv in N[e], in row order
    edge_load: Dict[int, object] = {}  # pool -> its rows' xi, in units
    node_load: Dict[int, object] = {}
    for e, s in units.items():
        a, b = g.ends(e)
        touched = set()
        for ep in sorted({*g.incident(a), *g.incident(b)}):
            u, v = g.ends(ep)
            rows.append((e, ep, u, v))
            edge_load[ep] = edge_load.get(ep, 0) + s
            touched.update((u, v))
        for v in touched:
            node_load[v] = node_load.get(v, 0) + s
    paid_edges = {ep for ep, load in edge_load.items() if load <= inst.edge_units[ep]}
    paid_nodes = {v for v, load in node_load.items() if load <= inst.node_units[v]}
    kept = [
        (e, ep, u, v) for e, ep, u, v in rows
        if ep not in paid_edges and u not in paid_nodes and v not in paid_nodes
    ]

    nu_names = {key: f"nu_{key[0]}_{key[1]}" for key in sorted((ep, e) for e, ep, _, _ in kept)}
    mu_names = {
        key: f"mu_{key[0]}_{key[1]}"
        for key in sorted({(w, e) for e, _, u, v in kept for w in (u, v)})
    }
    model = LpModel(name="dual-completion", variables=[*nu_names.values(), *mu_names.values()])
    for prefix, names, cap in (
        ("edge_cap", nu_names, inst.edge_units),
        ("node_cap", mu_names, inst.node_units),
    ):
        for x, group in groupby(names.items(), key=lambda item: item[0][0]):
            coeffs = {name: 1 for _, name in group}
            model.constraints.append(LinearConstraint(f"{prefix}_{x}", coeffs, "<=", cap[x]))
    for e, ep, u, v in kept:
        coeffs = {nu_names[(ep, e)]: 1, mu_names[(u, e)]: 1, mu_names[(v, e)]: 1}
        model.constraints.append(LinearConstraint(f"support_{e}_{ep}", coeffs, ">=", units[e]))

    res = simplex_solve(model)
    if res.status == INFEASIBLE:
        return None
    assert res.status == OPTIMAL
    values = list(res.assignment.values())  # in variable order: nu, then mu
    nu, mu = (
        {key: val if scale == 1 else val / scale for key, val in zip(names, vals) if val}
        for names, vals in ((nu_names, values), (mu_names, values[len(nu_names):]))
    )
    for e, ep, u, v in rows:
        if ep in paid_edges:
            nu[(ep, e)] = xi[e]
        for w in (u, v):
            if w in paid_nodes:
                mu[(w, e)] = xi[e]
    return nu, mu
