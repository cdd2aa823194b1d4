"""Approximate edge domination on general graphs via facility location.

The solver rounds the lexicographically least optimum (x(e) by edge, then
x(v) by node, then z) of the exactly-solved strengthened relaxation, which
one solve of its dual gives with the dual optimum beside it, so the point
depends neither on the form of that LP nor on the pivots.  Nodes carrying
at least a quarter of fractional edge mass are heavy, and giving each
heavy node an incident chosen edge is an edge-cover problem.
That edge cover is built straight as facility location: the heavy nodes are
the clients, each light neighbour of a heavy node is a facility opened at
its node weight and reached along its edges, and each edge joining two
heavy nodes is a facility opened at the edge's weight that serves both
ends for free.  The greedy rule buys best-ratio stars (Hochbaum, *Math.
Programming* 22, 1982).  Every run checks the inequalities that chain these
stages together:

* the edge-cover relaxation of the facility-location instance costs at
  most four times the fractional edge- and node-weight mass,
* the greedy cover costs at most H(#heavy nodes) times that relaxation,
* the paid penalty is at most twice the fractional penalty mass.

``solve_eds_general`` reports the solution, the relaxation value it was
rounded from and the LP pair that proves it, and the factor 4*H(|V|).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from .instances import (
    EdsInstance,
    FacilityLocationInstance,
    InstanceError,
    Solution,
    edge_neighborhoods,
    eds_solution,
)
from .lp import OPTIMAL, LpResult, simplex_solve
from .relaxations import (
    as_lexicographic,
    build_relaxation,
    extract_relaxation_point,
    relaxation_value,
)
from .rationals import Rat, ZERO, is_inf

QUARTER = Rat(1, 4)
HALF = Rat(1, 2)
FOUR = Rat(4)


def harmonic(n: int) -> Rat:
    """H(n) = 1 + 1/2 + ... + 1/n as an exact rational (H(0) = 0)."""
    total = ZERO
    for k in range(1, n + 1):
        total += Rat(1, k)
    return total


@dataclass(frozen=True)
class Star:
    """A facility together with the clients charged to it in one greedy round.

    The cost covers the listed clients only: the facility's (remaining)
    opening cost plus their connection costs.
    """

    facility: int
    clients: Tuple[int, ...]
    cost: Rat


def heavy_facility_location(
    inst: EdsInstance, x: Dict[int, Rat]
) -> Tuple[FacilityLocationInstance, List[int], Dict[Tuple[int, int], int]]:
    """Facility location whose clients are the heavy nodes of ``x``.

    A node is heavy when its incident edges carry total fractional mass at
    least 1/4; any solution good against the relaxation can afford to touch
    all of them.  Each light node next to a heavy node is a facility opened
    at its node weight, serving its heavy neighbours at the weights of the
    edges between them.  After those, each edge joining two heavy nodes, by
    edge id, is a facility opened at the edge's weight that serves both
    ends at no cost.  Its costs are ``inst``'s integer units.  Returns the
    instance, the node behind each client, and the edge of ``inst`` behind
    each (client, facility) pair.
    """
    g = inst.graph
    clients = [
        v for v in range(g.n) if sum((x[e] for e in g.incident(v)), ZERO) >= QUARTER
    ]
    client_of = {v: i for i, v in enumerate(clients)}
    lights = sorted(
        {w for v in clients for e in g.incident(v) for w in g.ends(e)} - client_of.keys()
    )
    joins = [e for e in sorted(g.edge_ids()) if all(w in client_of for w in g.ends(e))]
    facility_of = {w: f for f, w in enumerate(lights)}
    join_of = {e: len(lights) + j for j, e in enumerate(joins)}
    conn: Dict[Tuple[int, int], Rat] = {}
    edge_of: Dict[Tuple[int, int], int] = {}
    for i, v in enumerate(clients):
        for e in sorted(g.incident(v)):
            if e in join_of:
                key = (i, join_of[e])
                conn[key] = ZERO
            else:
                a, b = g.ends(e)
                key = (i, facility_of[b if a == v else a])
                conn[key] = inst.edge_units[e]
            edge_of[key] = e
    fl = FacilityLocationInstance(
        n_clients=len(clients),
        n_facilities=len(lights) + len(joins),
        opening=[inst.node_units[w] for w in lights] + [inst.edge_units[e] for e in joins],
        conn=conn,
    )
    return fl, clients, edge_of


def greedy_facility_location(
    inst: FacilityLocationInstance,
) -> Tuple[Tuple[int, ...], Dict[int, int], Rat]:
    """Serve every client by repeatedly buying the cheapest star per client.

    Each round scans, for every facility, the prefixes of the still-unserved
    clients it can reach in order of ascending connection cost, and buys the
    star minimizing (remaining opening cost + connection costs) / (clients
    served); an already-open facility contributes no opening cost to later
    stars.  Ties break by facility index, then by prefix length.  Returns
    the open facilities, the client->facility assignment, and the total cost
    (openings counted once plus all connections).
    """
    for v in range(inst.n_clients):
        if not any((v, f) in inst.conn for f in range(inst.n_facilities)):
            raise InstanceError(f"client {v} cannot reach any facility")
    unserved = set(range(inst.n_clients))
    opened: Set[int] = set()
    assignment: Dict[int, int] = {}
    total = ZERO
    while unserved:
        best: Tuple[Rat, int, int] = None  # (ratio, facility, prefix length)
        best_star: Star = None
        for f in range(inst.n_facilities):
            reach = sorted(
                (inst.conn[(v, f)], v) for v in unserved if (v, f) in inst.conn
            )
            if not reach:
                continue
            run = ZERO if f in opened else inst.opening[f]
            taken: List[int] = []
            for d, v in reach:
                run = run + d
                taken.append(v)
                key = (run / Rat(len(taken)), f, len(taken))
                if best is None or key < best:
                    best = key
                    best_star = Star(f, tuple(taken), run)
        star = best_star
        opened.add(star.facility)
        for v in star.clients:
            assignment[v] = star.facility
            unserved.discard(v)
        total += star.cost
    return tuple(sorted(opened)), assignment, total


def solve_eds_general(inst: EdsInstance) -> Tuple[Solution, Rat, Rat, LpResult]:
    """Cover-or-pay edge domination on an arbitrary graph.

    Returns the solution, the exact relaxation value it was rounded from
    (a lower bound on the optimum), the targeted factor 4*H(|V|), and the
    LP's solve, priced in units, whose primal-dual pair proves that bound.
    """
    g = inst.graph
    res = simplex_solve(as_lexicographic(build_relaxation(inst, "strengthened")))
    # feasible (x = 1, z = 0, y = 1 on one member edge per demand) and bounded (costs >= 0)
    assert res.status == OPTIMAL
    xe, xv, z = extract_relaxation_point(inst, res)
    lower = res.value / inst.scale
    ratio = FOUR * harmonic(g.n)

    # the rounding's costs and checks run in units, as the model is priced
    fl, clients, edge_of = heavy_facility_location(inst, xe)
    frac_cost = sum((inst.edge_units[e] * xe[e] for e in xe), ZERO) + sum(
        (inst.node_units[v] * xv[v] for v in xv), ZERO
    )
    cover_lp = relaxation_value(fl, "edge-cover")
    assert cover_lp <= FOUR * frac_cost, "edge-cover relaxation exceeds 4x fractional mass"

    _, assignment, greedy_cost = greedy_facility_location(fl)
    assert greedy_cost <= harmonic(len(clients)) * cover_lp, (
        "greedy cover exceeds harmonic times its relaxation"
    )
    lifted = {edge_of[(i, f)] for i, f in assignment.items()}
    # Several lifted edges can touch one heavy node; it keeps only its
    # lowest-indexed one, which leaves every heavy node covered.
    chosen = {min(e for e in lifted if v in g.ends(e)) for v in clients}

    solution = eds_solution(inst, chosen)
    nbhd = edge_neighborhoods(g)
    dominated: Set[int] = set()
    for e in chosen:
        dominated.update(nbhd[e])
    penalty_mass = ZERO
    for e in sorted(g.edge_ids()):
        if z[e] <= HALF:
            assert e in dominated, f"edge {e} with violation <= 1/2 left undominated"
        if not is_inf(inst.penalty_units[e]):
            penalty_mass += inst.penalty_units[e] * z[e]
    paid = solution.penalty * inst.scale
    assert paid <= 2 * penalty_mass, "paid penalty exceeds twice fractional"
    return solution, lower, ratio, res
