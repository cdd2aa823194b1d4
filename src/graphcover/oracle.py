"""Exhaustive reference solvers for small instances.

These are the ground truth the fast solvers and relaxations are tested
against.  Edge domination, tree multicut and set cover are one covering
problem: choose edges F, pay w(F) + w(V(F)), and pay the penalty of each
demand that no edge of F serves.  One depth-first search, `_cheapest`,
solves it on integer units; `brute_force_eds`, `brute_force_multicut` and
`brute_force_cover` only say what the edges, nodes and demands are.
Facility location keeps its own loop, on units too: a client pays its
cheapest connection to an open facility, an amount set by the whole open
set, not a penalty that one chosen edge cancels.  Every solver refuses
instances above a size cap, breaks objective ties by the lexicographically
smallest chosen index tuple, and uses exact arithmetic throughout.
"""

from __future__ import annotations

from .instances import (
    EdsInstance,
    FacilityLocationInstance,
    MulticutInstance,
    SetCoverInstance,
    Solution,
    _pair,
    _to_units,
    edge_neighborhoods,
    eds_solution,
    multicut_solution,
)
from .rationals import ExtRat, INF, Rat, ext_min, is_inf

#: Largest edge/set count the exhaustive solvers accept.
CAP = 20


class OracleCapError(ValueError):
    """Raised when an instance is too large for exhaustive enumeration."""


def _check_cap(count: int, what: str) -> None:
    if count > CAP:
        raise OracleCapError(
            f"exhaustive search over {count} {what} exceeds the cap of {CAP}"
        )


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _cheapest(edge_units, edge_nodes, node_units, demands):
    """The least ``(cost, chosen edge indices)`` over every edge set.

    Edge i costs ``edge_units[i]`` and touches the nodes ``edge_nodes[i]``;
    a touched node v costs ``node_units[v]`` once.  Each demand is
    ``(members, penalty)``, with at least one member edge: a chosen member
    serves it, and otherwise it pays its penalty, an int or INF.

    Depth-first search over include/exclude decisions in index order.  A
    penalty is committed as soon as the last member of its demand has been
    excluded, so infinite penalties prune immediately, and partial cost
    above the incumbent prunes (every unit is nonnegative, so partial cost
    is a valid lower bound).  The incumbents are the empty set, every edge
    and a cheap greedy cover.
    """
    m = len(edge_units)
    node_mask = [sum(1 << v for v in nodes) for nodes in edge_nodes]
    serves = [0] * m  # serves[i]: the demands edge i serves
    closers = [[] for _ in range(m)]  # closers[i]: demands whose last member is i
    for j, (members, _) in enumerate(demands):
        for i in members:
            serves[i] |= 1 << j
        closers[max(members)].append(j)
    pen = [p for _, p in demands]

    def price(chosen):
        nodes = served = cost = 0
        for i in chosen:
            nodes |= node_mask[i]
            served |= serves[i]
            cost += edge_units[i]
        cost += sum(node_units[v] for v in _bits(nodes))
        return cost + sum(p for j, p in enumerate(pen) if not (served >> j) & 1)

    by_star_cost = sorted(
        range(m), key=lambda i: (edge_units[i] + sum(node_units[v] for v in edge_nodes[i]), i)
    )
    greedy, covered = [], 0
    for i in by_star_cost:
        if serves[i] & ~covered:
            greedy.append(i)
            covered |= serves[i]
    # choosing every edge serves every demand, so the best incumbent is finite
    best = min((price(c), c) for c in ((), tuple(range(m)), tuple(sorted(greedy))))

    chosen: list = []

    def dfs(i: int, served: int, nodes: int, cost: int) -> None:
        nonlocal best
        if cost > best[0]:
            return
        if i == m:
            best = min(best, (cost, tuple(chosen)))
            return
        # exclude edge i: penalties of demands with no member left are due
        extra = sum(pen[j] for j in closers[i] if not (served >> j) & 1)
        if not is_inf(extra):
            dfs(i + 1, served, nodes, cost + extra)
        # include edge i
        ncost = cost + edge_units[i]
        for v in _bits(node_mask[i] & ~nodes):
            ncost += node_units[v]
        chosen.append(i)
        dfs(i + 1, served | serves[i], nodes | node_mask[i], ncost)
        chosen.pop()

    dfs(0, 0, 0, 0)
    return best


def brute_force_eds(inst: EdsInstance) -> Solution:
    """Minimize w(F) + w(V(F)) + sum of penalties of edges untouched by F.

    Edge e's demand is its closed neighbourhood, with e's penalty.
    """
    g = inst.graph
    edges = sorted(g.edge_ids())
    _check_cap(len(edges), "edges")
    pos = {e: i for i, e in enumerate(edges)}
    nbhd = edge_neighborhoods(g)
    _, chosen = _cheapest(
        [inst.edge_units[e] for e in edges],
        [g.ends(e) for e in edges],
        inst.node_units,
        [([pos[f] for f in nbhd[e]], inst.penalty_units[e]) for e in edges],
    )
    return eds_solution(inst, [edges[i] for i in chosen])


def brute_force_multicut(inst: MulticutInstance) -> Solution:
    """Minimize w(F) + w(V(F)) + sum of penalties of demands not cut by F.

    A demand's members are the edges of its path.
    """
    tree = inst.tree
    edges = sorted(tree.edge_ids())
    _check_cap(len(edges), "edges")
    pos = {e: i for i, e in enumerate(edges)}
    _, chosen = _cheapest(
        [inst.edge_units[e] for e in edges],
        [tree.ends(e) for e in edges],
        inst.node_units,
        [([pos[e] for e in inst.path_edges(j)], p) for j, p in enumerate(inst.penalty_units)],
    )
    return multicut_solution(inst, [edges[i] for i in chosen])


def brute_force_cover(inst: SetCoverInstance) -> ExtRat:
    """Exhaustive minimum cover cost; INF when the instance is uncoverable.

    Each set is an edge that touches no node, and each element a demand
    with an infinite penalty whose members are the sets holding it.
    """
    _check_cap(len(inst.sets), "sets")
    holders = [[] for _ in range(inst.n_elements)]
    for i, (_, members) in enumerate(inst.sets):
        for x in members:
            holders[x].append(i)
    if not all(holders):
        return INF
    scale, costs = _to_units([_pair(cost) for cost, _ in inst.sets])
    cost, _ = _cheapest(costs, [()] * len(costs), [], [(h, INF) for h in holders])
    return Rat(cost, scale)


def brute_force_facility_location(inst: FacilityLocationInstance) -> ExtRat:
    """Exhaustive minimum of opening plus connection costs; INF if some
    client cannot reach any facility."""
    _check_cap(inst.n_facilities, "facilities")
    pairs = sorted(inst.conn.items())
    scale, opening, conn = _to_units([_pair(c) for c in inst.opening], [_pair(c) for _, c in pairs])
    reach = [[] for _ in range(inst.n_clients)]  # reach[v]: (facility, units) pairs
    for ((v, f), _), d in zip(pairs, conn):
        reach[v].append((f, d))
    best = INF
    for pick in range(1 << inst.n_facilities):
        cost = sum(opening[f] for f in _bits(pick))
        for options in reach:
            cost += ext_min(*(d for f, d in options if pick >> f & 1))
        best = min(best, cost)
    return best if is_inf(best) else Rat(best, scale)
