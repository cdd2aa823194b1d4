"""Exhaustive reference solvers for small instances.

These enumerate every candidate solution and are the ground truth the fast
solvers and relaxations are tested against.  All of them refuse instances
above a size cap, break objective ties by the lexicographically smallest
chosen index tuple, and use exact arithmetic throughout.
"""

from __future__ import annotations

from math import lcm

from .instances import (
    EdsInstance,
    FacilityLocationInstance,
    MulticutInstance,
    SetCoverInstance,
    Solution,
    edge_neighborhoods,
    eds_solution,
    multicut_solution,
)
from .rationals import ExtRat, INF, ZERO, ext_min, is_inf

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


def brute_force_eds(inst: EdsInstance) -> Solution:
    """Minimize w(F) + w(V(F)) + sum of penalties of edges untouched by F.

    Depth-first search over include/exclude decisions in edge-id order.
    A penalty is committed as soon as the last edge that could cover its
    edge has been excluded, so infinite penalties prune immediately, and
    partial cost above the incumbent prunes (penalties and weights are
    nonnegative, so partial cost is a valid lower bound).
    """
    g = inst.graph
    edges = sorted(g.edge_ids())
    _check_cap(len(edges), "edges")
    m = len(edges)
    pos = {e: i for i, e in enumerate(edges)}
    nbhd = edge_neighborhoods(g)
    nb_mask = [0] * m
    node_mask = [0] * m
    for e in edges:
        i = pos[e]
        for f in nbhd[e]:
            nb_mask[i] |= 1 << pos[f]
        u, v = g.ends(e)
        node_mask[i] |= (1 << u) | (1 << v)
    ew = [inst.edge_weight[e] for e in edges]
    nw = [inst.node_weight[v] for v in range(g.n)]
    pen = [inst.penalty[e] for e in edges]
    # closers[i]: edges whose set of possible coverers ends at position i
    closers = [[] for _ in range(m)]
    for j in range(m):
        last = max(pos[f] for f in nbhd[edges[j]])
        closers[last].append(j)

    best_key = None

    def consider(edge_ids) -> None:
        nonlocal best_key
        sol = eds_solution(inst, edge_ids)
        if is_inf(sol.total):
            return
        key = (sol.total, sol.edges)
        if best_key is None or key < best_key:
            best_key = key

    # incumbent seeds: empty, everything, and a cheap greedy cover
    consider(())
    consider(tuple(edges))
    by_star_cost = sorted(
        edges, key=lambda e: (ew[pos[e]] + sum(nw[v] for v in g.ends(e)), e)
    )
    greedy, covered = [], 0
    for e in by_star_cost:
        if nb_mask[pos[e]] & ~covered:
            greedy.append(e)
            covered |= nb_mask[pos[e]]
    consider(tuple(sorted(greedy)))

    chosen: list = []

    def dfs(i: int, covered: int, nodes: int, cost) -> None:
        nonlocal best_key
        if best_key is not None and cost > best_key[0]:
            return
        if i == m:
            key = (cost, tuple(edges[j] for j in chosen))
            if best_key is None or key < best_key:
                best_key = key
            return
        # exclude edge i: penalties of edges with no remaining coverer are due
        extra = ZERO
        feasible = True
        for j in closers[i]:
            if not (covered >> j) & 1:
                if is_inf(pen[j]):
                    feasible = False
                    break
                extra += pen[j]
        if feasible:
            dfs(i + 1, covered, nodes, cost + extra)
        # include edge i
        ncost = cost + ew[i]
        for v in _bits(node_mask[i] & ~nodes):
            ncost += nw[v]
        chosen.append(i)
        dfs(i + 1, covered | nb_mask[i], nodes | node_mask[i], ncost)
        chosen.pop()

    dfs(0, 0, 0, ZERO)
    assert best_key is not None
    return eds_solution(inst, best_key[1])


def brute_force_multicut(inst: MulticutInstance) -> Solution:
    """Minimize w(F) + w(V(F)) + sum of penalties of demands not cut by F.

    Weights and finite penalties are scaled once to integers over their
    common denominator.  The edge subsets are then walked in Gray-code
    order, so each step adds or removes one edge and updates the running
    cost, the per-node chosen-edge counts and the per-demand cut counts in
    integers; memory stays linear in the instance.
    """
    tree = inst.tree
    edges = sorted(tree.edge_ids())
    _check_cap(len(edges), "edges")
    m, k = len(edges), len(inst.demands)
    finite = [d.penalty for d in inst.demands if not is_inf(d.penalty)]
    values = [inst.edge_weight[e] for e in edges] + finite
    values += [inst.node_weight[v] for v in range(tree.n)]
    scale = lcm(*(int(x.denominator) for x in values))

    def scaled(x) -> int:
        return int(x.numerator) * (scale // int(x.denominator))

    ew = [scaled(inst.edge_weight[e]) for e in edges]
    nw = [scaled(inst.node_weight[v]) for v in range(tree.n)]
    pen = [None if is_inf(d.penalty) else scaled(d.penalty) for d in inst.demands]
    pos = {e: i for i, e in enumerate(edges)}
    through = [[] for _ in range(m)]  # demands whose path holds edge i
    for j in range(k):
        for e in inst.path_edges(j):
            through[pos[e]].append(j)

    fmask = 0
    edge_cost = node_cost = 0
    paid = sum(p for p in pen if p is not None)  # penalties of uncut demands
    blocked = k - len(finite)  # uncut demands with infinite penalty
    chosen_at = [0] * tree.n
    cuts = [0] * k
    best_cost, best_mask = None, 0
    for step in range(1 << m):
        if step:
            i = (step & -step).bit_length() - 1
            fmask ^= 1 << i
            added = (fmask >> i) & 1
            sign = 1 if added else -1
            edge_cost += sign * ew[i]
            # a count reaching 1 on an add, or 0 on a removal, flips a node
            # into or out of V(F) and a demand between cut and uncut
            for v in tree.ends(edges[i]):
                chosen_at[v] += sign
                if chosen_at[v] == added:
                    node_cost += sign * nw[v]
            for j in through[i]:
                cuts[j] += sign
                if cuts[j] == added:
                    if pen[j] is None:
                        blocked -= sign
                    else:
                        paid -= sign * pen[j]
        if blocked:
            continue  # cutting everything is finite, so skip
        cost = edge_cost + node_cost + paid
        if best_cost is None or cost < best_cost or (
            cost == best_cost and list(_bits(fmask)) < list(_bits(best_mask))
        ):
            best_cost, best_mask = cost, fmask
    assert best_cost is not None
    return multicut_solution(inst, tuple(edges[i] for i in _bits(best_mask)))


def brute_force_cover(inst: SetCoverInstance) -> ExtRat:
    """Exhaustive minimum cover cost; INF when the instance is uncoverable."""
    _check_cap(len(inst.sets), "sets")
    target = (1 << inst.n_elements) - 1
    masks = [sum(1 << x for x in members) for _, members in inst.sets]
    costs = [cost for cost, _ in inst.sets]
    best: ExtRat = INF
    for pick in range(1 << len(inst.sets)):
        covered = 0
        cost = ZERO
        for i in _bits(pick):
            covered |= masks[i]
            cost += costs[i]
        if covered & target == target and cost < best:
            best = cost
    return best


def brute_force_facility_location(inst: FacilityLocationInstance) -> ExtRat:
    """Exhaustive minimum of opening plus connection costs; INF if some
    client cannot reach any facility."""
    _check_cap(inst.n_facilities, "facilities")
    best: ExtRat = INF
    for pick in range(1 << inst.n_facilities):
        open_f = list(_bits(pick))
        cost: ExtRat = sum((inst.opening[f] for f in open_f), ZERO)
        for v in range(inst.n_clients):
            d = ext_min(*(inst.conn.get((v, f), INF) for f in open_f)) if open_f else INF
            cost = cost + d
            if is_inf(cost):
                break
        if cost < best:
            best = cost
    return best
