"""Reference computations the benchmark checks graphcover's outputs against.

Nothing here imports graphcover.  Instances are read from their text files
with a parser of our own, objectives are recomputed from the instance and a
chosen edge list, the eds-tree optimum comes from a linear-time tree dynamic
programme, the natural and strengthened relaxations are solved in floating
point by scipy's HiGHS, and set cover and facility location are searched
exhaustively.  Exact values stay ``Fraction``; ``None`` stands for an
infinite penalty or cost.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Tuple

INF = None


def add(a, b):
    """Sum where ``None`` is +infinity."""
    return None if a is None or b is None else a + b


def less(a, b) -> bool:
    """``a < b`` where ``None`` is +infinity."""
    if a is None:
        return False
    return b is None or a < b


def harmonic(n: int) -> Fraction:
    return sum((Fraction(1, i) for i in range(1, n + 1)), Fraction(0))


# ---------------------------------------------------------------------------
# instance files


@dataclass
class Instance:
    """One instance file.  Tree kinds number each edge by its child node;
    eds-general numbers edges in file order."""

    kind: str
    n: int = 0
    root: int = 0
    node_w: Dict[int, Fraction] = field(default_factory=dict)
    ends: Dict[int, Tuple[int, int]] = field(default_factory=dict)  # id -> (u, v)
    edge_w: Dict[int, Fraction] = field(default_factory=dict)
    pen: Dict[int, Optional[Fraction]] = field(default_factory=dict)
    parent: List[int] = field(default_factory=list)
    depth: List[int] = field(default_factory=list)
    demands: List[Tuple[int, int, Optional[Fraction]]] = field(default_factory=list)
    sets: List[Tuple[Fraction, frozenset]] = field(default_factory=list)
    opening: Dict[int, Fraction] = field(default_factory=dict)
    clients: List[int] = field(default_factory=list)
    conn: Dict[Tuple[int, int], Fraction] = field(default_factory=dict)


def _num(tok: str) -> Optional[Fraction]:
    return INF if tok == "inf" else Fraction(tok)


def parse_instance(text: str) -> Instance:
    inst = None
    rows = []
    for raw in text.splitlines():
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        head, args = toks[0], toks[1:]
        if head == "problem":
            inst = Instance(args[0])
        elif head == "nodes":
            inst.n = int(args[0])
        elif head == "root":
            inst.root = int(args[0])
        elif head == "node":
            inst.node_w[int(args[0])] = Fraction(args[1])
        elif head == "edge":
            rows.append(args)
        elif head == "demand":
            inst.demands.append((int(args[0]), int(args[1]), _num(args[2])))
        elif head == "set":
            inst.sets.append((Fraction(args[0]), frozenset(int(t) for t in args[1:])))
        elif head == "facility":
            inst.opening[int(args[0])] = Fraction(args[1])
        elif head == "client":
            inst.clients.append(int(args[0]))
        elif head == "conn":
            inst.conn[(int(args[0]), int(args[1]))] = Fraction(args[2])
        else:
            raise ValueError(f"unknown directive {head!r}")
    for v in range(inst.n):
        inst.node_w.setdefault(v, Fraction(0))
    if inst.kind == "eds-general":
        for i, r in enumerate(rows):
            inst.ends[i] = (int(r[0]), int(r[1]))
            inst.edge_w[i] = Fraction(r[2])
            inst.pen[i] = _num(r[3])
    elif inst.kind in ("eds-tree", "multicut-tree"):
        adj = [[] for _ in range(inst.n)]
        for r in rows:
            u, v = int(r[0]), int(r[1])
            adj[u].append((v, r))
            adj[v].append((u, r))
        inst.parent = [-1] * inst.n
        inst.depth = [0] * inst.n
        inst.parent[inst.root] = inst.root
        queue = deque([inst.root])
        while queue:
            u = queue.popleft()
            for v, r in adj[u]:
                if inst.parent[v] == -1:
                    inst.parent[v] = u
                    inst.depth[v] = inst.depth[u] + 1
                    inst.ends[v] = (u, v)
                    inst.edge_w[v] = Fraction(r[2])
                    if inst.kind == "eds-tree":
                        inst.pen[v] = _num(r[3])
                    queue.append(v)
    return inst


def incident(inst: Instance) -> Dict[int, List[int]]:
    out: Dict[int, List[int]] = {v: [] for v in range(inst.n)}
    for e, (u, v) in inst.ends.items():
        out[u].append(e)
        out[v].append(e)
    return out


# ---------------------------------------------------------------------------
# objectives


def eds_objective(inst: Instance, edges) -> Optional[Fraction]:
    """w(F) + w(V(F)) + penalties of edges sharing no end node with F."""
    chosen = set(edges)
    touched = {x for e in chosen for x in inst.ends[e]}
    total = sum((inst.edge_w[e] for e in chosen), Fraction(0))
    total += sum((inst.node_w[v] for v in touched), Fraction(0))
    for e, (u, v) in inst.ends.items():
        if u not in touched and v not in touched:
            total = add(total, inst.pen[e])
    return total


def tree_path(inst: Instance, s: int, t: int) -> List[int]:
    """Edge ids on the tree path from s to t."""
    out = []
    while s != t:
        if inst.depth[s] >= inst.depth[t]:
            out.append(s)
            s = inst.parent[s]
        else:
            out.append(t)
            t = inst.parent[t]
    return out


def multicut_objective(inst: Instance, edges) -> Optional[Fraction]:
    """w(F) + w(V(F)) + penalties of demands whose path F does not cut."""
    chosen = set(edges)
    touched = {x for e in chosen for x in inst.ends[e]}
    total = sum((inst.edge_w[e] for e in chosen), Fraction(0))
    total += sum((inst.node_w[v] for v in touched), Fraction(0))
    for s, t, p in inst.demands:
        if not chosen.intersection(tree_path(inst, s, t)):
            total = add(total, p)
    return total


# ---------------------------------------------------------------------------
# eds-tree optimum


def eds_tree_optimum(inst: Instance) -> Fraction:
    """Exact prize-collecting EDS optimum on a rooted tree in linear time.

    best[v][x][t] is the cheapest cost inside v's subtree (node weights of
    the subtree's touched nodes, weights and penalties of the edges below v)
    given x = the edge above v is chosen and t = v is touched.  The edge
    below v to child c is dominated iff v or c is touched.
    """
    children: List[List[int]] = [[] for _ in range(inst.n)]
    for v in range(inst.n):
        if v != inst.root:
            children[inst.parent[v]].append(v)
    order = [inst.root]
    i = 0
    while i < len(order):
        order.extend(children[order[i]])
        i += 1
    best: Dict[int, Tuple[Tuple, Tuple]] = {}
    for v in reversed(order):
        free = Fraction(0)  # t = 0: no edge at v chosen
        touched = inst.node_w[v]  # t = 1, edge above chosen
        extra = INF  # cheapest surcharge to choose one edge below v
        for c in children[v]:
            (c00, c01), (_, c11) = best[c]
            pen = inst.pen[c]
            free = add(free, min_ext(add(c00, pen), c01))
            below = add(c11, inst.edge_w[c])
            anyway = min_ext(min_ext(c00, c01), below)
            touched = add(touched, anyway)
            gap = None if below is None else below - anyway
            extra = min_ext(extra, gap)
        best[v] = ((free, add(touched, extra)), (INF, touched))
    (r00, r01), _ = best[inst.root]
    return min_ext(r00, r01)


def min_ext(a, b):
    return b if less(b, a) else a


# ---------------------------------------------------------------------------
# relaxations in floating point


def relaxation_lp(inst: Instance, kind: str) -> float:
    """Optimal value of the natural or strengthened relaxation, by HiGHS.

    natural: x(e), x(v), z(C) >= 0 with sum_{e in C} x(e) + z(C) >= 1 and
    x(v) >= x(e) for e at v; z(C) exists only for a finite penalty.
    strengthened adds y(C,e) >= 0 with sum_{e in C} y(C,e) + z(C) >= 1,
    x(v) >= sum of y(C,e) over e in C at v, and x(e) >= y(C,e).
    """
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    if inst.kind == "multicut-tree":
        demands = [(tree_path(inst, s, t), p) for s, t, p in inst.demands]
    else:
        inc = incident(inst)
        demands = [
            (sorted(set(inc[u]) | set(inc[v])), inst.pen[e])
            for e, (u, v) in sorted(inst.ends.items())
        ]
    col: Dict[tuple, int] = {}
    cost: List[float] = []

    def var(key, c=0.0) -> int:
        col[key] = len(cost)
        cost.append(float(c))
        return col[key]

    for e in sorted(inst.ends):
        var(("e", e), inst.edge_w[e])
    for v in range(inst.n):
        var(("v", v), inst.node_w[v])
    for i, (_, p) in enumerate(demands):
        if p is not None:
            var(("z", i), p)
    if kind == "strengthened":
        for i, (members, _) in enumerate(demands):
            for e in members:
                var(("y", i, e))
    data, rows, cols = [], [], []
    nrows = 0

    def geq(coeffs: Dict[int, float]) -> None:
        # rows are stored negated: A_ub x <= b_ub
        nonlocal nrows
        for j, a in coeffs.items():
            rows.append(nrows)
            cols.append(j)
            data.append(-a)
        nrows += 1

    rhs: List[float] = []
    for i, (members, _) in enumerate(demands):
        for tag in ("e", "y") if kind == "strengthened" else ("e",):
            row = {col[(tag, e) if tag == "e" else (tag, i, e)]: 1.0 for e in members}
            if ("z", i) in col:
                row[col[("z", i)]] = 1.0
            geq(row)
            rhs.append(-1.0)
    for e, (u, v) in sorted(inst.ends.items()):
        for x in (u, v):
            geq({col[("v", x)]: 1.0, col[("e", e)]: -1.0})
            rhs.append(0.0)
    if kind == "strengthened":
        for i, (members, _) in enumerate(demands):
            at: Dict[int, List[int]] = {}
            for e in members:
                for x in inst.ends[e]:
                    at.setdefault(x, []).append(e)
            for x, es in at.items():
                row = {col[("v", x)]: 1.0}
                for e in es:
                    row[col[("y", i, e)]] = -1.0
                geq(row)
                rhs.append(0.0)
            for e in members:
                geq({col[("e", e)]: 1.0, col[("y", i, e)]: -1.0})
                rhs.append(0.0)
    a_ub = coo_matrix((data, (rows, cols)), shape=(nrows, len(cost))).tocsr()
    res = linprog(cost, A_ub=a_ub, b_ub=rhs, bounds=(0, None), method="highs")
    if res.status != 0:
        raise ValueError(f"HiGHS: {res.message}")
    return float(res.fun)


def close(exact: Fraction, approx: float, rel: float = 1e-9) -> bool:
    return abs(float(exact) - approx) <= rel * max(1.0, abs(float(exact)))


# ---------------------------------------------------------------------------
# exhaustive covering


def set_cover_optimum(inst: Instance) -> Optional[Fraction]:
    """Cheapest family of sets covering every element; None if none does."""
    target = frozenset(range(inst.n))
    best = INF
    for k in range(len(inst.sets) + 1):
        for pick in combinations(inst.sets, k):
            if frozenset().union(*(m for _, m in pick)) >= target:
                best = min_ext(best, sum((c for c, _ in pick), Fraction(0)))
    return best


def facility_location_optimum(inst: Instance) -> Optional[Fraction]:
    """Cheapest opening plus connection cost; None if a client is stranded."""
    best = INF
    fac = sorted(inst.opening)
    for k in range(1, len(fac) + 1):
        for pick in combinations(fac, k):
            total = sum((inst.opening[f] for f in pick), Fraction(0))
            for c in inst.clients:
                costs = [inst.conn[(c, f)] for f in pick if (c, f) in inst.conn]
                total = add(total, min(costs) if costs else INF)
            best = min_ext(best, total)
    return best
