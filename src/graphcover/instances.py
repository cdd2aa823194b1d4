"""Problem instances: graphs, rooted trees, weights, demands, and file I/O.

Instance files are line based.  ``#`` starts a comment, numbers are integers
or ``p/q`` fractions, and ``inf`` is accepted only where a penalty is
expected.  Node and edge weights are nonnegative rationals; penalties are
nonnegative rationals or infinite.  Every number token of every kind goes
through `parse_number`, which gives ``(p, q)`` in lowest terms or INF.

Weight storage: an `EdsInstance` keeps its weights once, as integer units
over their least common denominator (`_to_units` is the one place that
rule lives), and builds dicts of rationals from them only when asked; the
parser fills the units straight from the number tokens, so an integer file
makes no rational per value.  The other kinds hold dicts of rationals.

Edge identity: in a rooted tree every non-root node identifies the edge to
its parent, so edge ids are child node ids.  In a general graph edges are
numbered in input order.

A ``nodes N`` line may ask for at most ``MAX_NODES`` nodes; larger counts are
rejected with a ParseError before anything of size N is allocated.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from math import lcm
from random import Random
from types import MappingProxyType
from typing import Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Tuple, Union

from .rationals import INF, ExtRat, Rat, ZERO, ext_sum, fmt_rat, is_inf, parse_number


#: Largest node count an instance file may declare.
MAX_NODES = 10**6


class InstanceError(ValueError):
    """Raised for structurally invalid instances."""


class ParseError(ValueError):
    """Raised for malformed instance files; message carries the line number."""


#: A parsed number token: ``(numerator, denominator)`` in lowest terms, or INF.
Number = Union[Tuple[int, int], type(INF)]


def _rat(x: Number) -> ExtRat:
    return x if x is INF else Rat(*x)


# ---------------------------------------------------------------------------
# graphs


class Graph:
    """Simple undirected graph with nodes 0..n-1 and edges numbered 0..m-1."""

    def __init__(self, n: int, edges: List[Tuple[int, int]]):
        if n < 1:
            raise InstanceError("graph needs at least one node")
        seen = set()
        incident: List[List[int]] = [[] for _ in range(n)]
        for eid, (u, v) in enumerate(edges):
            if not (0 <= u < n and 0 <= v < n):
                raise InstanceError(f"edge ({u},{v}) out of range")
            if u == v:
                raise InstanceError(f"self-loop at node {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise InstanceError(f"duplicate edge ({u},{v})")
            seen.add(key)
            incident[u].append(eid)
            incident[v].append(eid)
        self.n = n
        self.edges = [tuple(e) for e in edges]
        self._incident = [tuple(lst) for lst in incident]

    def edge_ids(self) -> List[int]:
        return list(range(len(self.edges)))

    def ends(self, eid: int) -> Tuple[int, int]:
        return self.edges[eid]

    def incident(self, v: int) -> Tuple[int, ...]:
        return self._incident[v]

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.edges)})"


class RootedTree:
    """Rooted tree on nodes 0..n-1; the edge to the parent of node v has id v."""

    def __init__(self, parent: List[int], root: int):
        n = len(parent)
        if not (0 <= root < n) or parent[root] != root:
            raise InstanceError("root must be its own parent")
        children: List[List[int]] = [[] for _ in range(n)]
        for v, p in enumerate(parent):
            if v == root:
                continue
            if not (0 <= p < n):
                raise InstanceError(f"parent of {v} out of range")
            children[p].append(v)
        depth = [-1] * n
        depth[root] = 0
        order = [root]
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for c in children[v]:
                if depth[c] != -1:
                    raise InstanceError("parent map contains a cycle")
                depth[c] = depth[v] + 1
                order.append(c)
                queue.append(c)
        if len(order) != n:
            raise InstanceError("parent map is not connected")
        self.n = n
        self.root = root
        self.parent = tuple(parent)
        self.children = tuple(map(tuple, children))  # ascending: v runs upwards
        self.depth = tuple(depth)

    @classmethod
    def from_edges(cls, n: int, edges: List[Tuple[int, int]], root: int = 0) -> "RootedTree":
        if len(edges) != n - 1:
            raise InstanceError(f"a tree on {n} nodes needs {n - 1} edges, got {len(edges)}")
        adj: List[List[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InstanceError(f"edge ({u},{v}) out of range")
            if u == v:
                raise InstanceError(f"self-loop at node {u}")
            adj[u].append(v)
            adj[v].append(u)
        parent = [-1] * n
        parent[root] = root
        queue = deque([root])
        seen = 1
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if parent[w] == -1:
                    parent[w] = v
                    seen += 1
                    queue.append(w)
        if seen != n:
            raise InstanceError("edges do not form a tree reachable from the root")
        return cls(parent, root)

    def edge_ids(self) -> List[int]:
        return [v for v in range(self.n) if v != self.root]

    def ends(self, eid: int) -> Tuple[int, int]:
        """(upper end, lower end) = (parent, child)."""
        if eid == self.root:
            raise InstanceError("the root has no parent edge")
        return (self.parent[eid], eid)

    def incident(self, v: int) -> Tuple[int, ...]:
        own = () if v == self.root else (v,)
        return tuple(sorted(own + self.children[v]))

    def lca(self, a: int, b: int) -> int:
        while self.depth[a] > self.depth[b]:
            a = self.parent[a]
        while self.depth[b] > self.depth[a]:
            b = self.parent[b]
        while a != b:
            a = self.parent[a]
            b = self.parent[b]
        return a

    def __eq__(self, other):
        return (
            isinstance(other, RootedTree)
            and self.parent == other.parent
            and self.root == other.root
        )

    def __repr__(self):
        return f"RootedTree(n={self.n}, root={self.root})"


AnyGraph = Union[Graph, RootedTree]


def edge_neighborhoods(graph: AnyGraph) -> Dict[int, Tuple[int, ...]]:
    """For each edge e, the edges sharing an end node with e, including e."""
    out = {}
    for e in graph.edge_ids():
        u, v = graph.ends(e)
        out[e] = tuple(sorted(set(graph.incident(u)) | set(graph.incident(v))))
    return out


# ---------------------------------------------------------------------------
# instance types


def _check_weights(graph: AnyGraph, node_weight, edge_weight) -> None:
    if sorted(node_weight) != list(range(graph.n)):
        raise InstanceError("node weights must cover exactly the node set")
    if sorted(edge_weight) != sorted(graph.edge_ids()):
        raise InstanceError("edge weights must cover exactly the edge set")
    for v, w in node_weight.items():
        if is_inf(w) or w.numerator < 0:
            raise InstanceError(f"node weight of {v} must be finite and nonnegative")
    for e, w in edge_weight.items():
        if is_inf(w) or w.numerator < 0:
            raise InstanceError(f"edge weight of {e} must be finite and nonnegative")


def _to_units(*columns):
    """Columns of exact values, each ``(numerator, denominator)`` or INF,
    as integer units over their least common denominator ``scale``: each
    finite value times ``scale``, INF left as INF.  Returns ``(scale,
    *unit columns)``; ``scale`` is 1 when every value is an integer."""
    scale = lcm(*{x[1] for col in columns for x in col if x is not INF})
    return (scale, *(
        [x if x is INF else x[0] * (scale // x[1]) for x in col] for col in columns
    ))


def _pair(value) -> Number:
    """An ExtRat as ``(numerator, denominator)``, or INF; ``int()`` turns
    gmpy2's mpz parts into ints too."""
    return INF if is_inf(value) else (int(value.numerator), int(value.denominator))


class EdsInstance:
    """Every edge must share an end node with a chosen edge or pay its penalty.

    The weights are held once, as integer units over one common
    denominator: ``scale`` is the lcm of the denominators of every finite
    node weight, edge weight and penalty (1 on integer data), and
    ``node_units``, ``edge_units`` and ``penalty_units`` hold each value
    times ``scale``; INF stays INF.  Node units are indexed by node id,
    edge and penalty units by edge id; on a rooted tree the root's slot
    holds 0.  ``node_weight``, ``edge_weight`` and ``penalty`` give the
    same values as dicts of rationals: an instance built from dicts keeps
    the dicts it was given, and a parsed one builds read-only views of its
    units on first use.  Each side is derived from the other once and
    cached, so neither may be mutated.
    """

    def __init__(
        self,
        graph: AnyGraph,
        node_weight: Dict[int, Rat],
        edge_weight: Dict[int, Rat],
        penalty: Dict[int, ExtRat],
    ):
        _check_weights(graph, node_weight, edge_weight)
        if sorted(penalty) != sorted(graph.edge_ids()):
            raise InstanceError("penalties must cover exactly the edge set")
        for e, p in penalty.items():
            if not is_inf(p) and p.numerator < 0:
                raise InstanceError(f"penalty of edge {e} must be nonnegative")
        self.graph = graph
        self._dicts = (node_weight, edge_weight, penalty)
        self._units = None

    @classmethod
    def _from_units(cls, graph: AnyGraph, scale: int, node_units, edge_units, penalty_units):
        """An instance over units that its maker has already checked."""
        inst = cls.__new__(cls)
        inst.graph = graph
        inst._dicts = None
        inst._units = (scale, node_units, edge_units, penalty_units)
        return inst

    def _unit_lists(self):
        if self._units is None:
            nw, ew, pen = self._dicts
            slots = range(_edge_slots(self.graph))
            zero = (0, 1)
            self._units = _to_units(
                [_pair(nw[v]) for v in range(self.graph.n)],
                [_pair(ew[e]) if e in ew else zero for e in slots],
                [_pair(pen[e]) if e in pen else zero for e in slots],
            )
        return self._units

    def _weight_dicts(self):
        if self._dicts is None:
            scale, nw, ew, pen = self._units

            def rat(x):
                return x if x is INF else Rat(x, scale)

            edges = self.graph.edge_ids()
            self._dicts = (
                MappingProxyType({v: rat(x) for v, x in enumerate(nw)}),
                MappingProxyType({e: rat(ew[e]) for e in edges}),
                MappingProxyType({e: rat(pen[e]) for e in edges}),
            )
        return self._dicts

    @property
    def scale(self) -> int:
        return self._unit_lists()[0]

    @property
    def node_units(self) -> List[int]:
        return self._unit_lists()[1]

    @property
    def edge_units(self) -> List[int]:
        return self._unit_lists()[2]

    @property
    def penalty_units(self) -> List[Union[int, type(INF)]]:
        return self._unit_lists()[3]

    @property
    def node_weight(self) -> Mapping[int, Rat]:
        return self._weight_dicts()[0]

    @property
    def edge_weight(self) -> Mapping[int, Rat]:
        return self._weight_dicts()[1]

    @property
    def penalty(self) -> Mapping[int, ExtRat]:
        return self._weight_dicts()[2]

    @property
    def is_tree(self) -> bool:
        return isinstance(self.graph, RootedTree)

    def __eq__(self, other):
        # the units are canonical: equal values give equal scale and units
        return (
            isinstance(other, EdsInstance)
            and self.graph == other.graph
            and self._unit_lists() == other._unit_lists()
        )

    def __repr__(self):
        return f"EdsInstance({self.graph!r}, scale={self.scale})"


def _edge_slots(graph: AnyGraph) -> int:
    """Length of an edge-indexed unit list: edge ids are below it."""
    return graph.n if isinstance(graph, RootedTree) else len(graph.edges)


@dataclass(frozen=True)
class Demand:
    s: int
    t: int
    penalty: ExtRat


class _DemandPath(NamedTuple):
    lca: int
    edges: Tuple[int, ...]
    nodes: Tuple[int, ...]
    legs: Tuple[FrozenSet[int], FrozenSet[int]]


@dataclass
class MulticutInstance:
    """Each demand pair must be separated by the chosen edges or pay its penalty."""

    tree: RootedTree
    node_weight: Dict[int, Rat]
    edge_weight: Dict[int, Rat]
    demands: List[Demand]
    _paths: Dict[int, _DemandPath] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        _check_weights(self.tree, self.node_weight, self.edge_weight)
        for i, d in enumerate(self.demands):
            if not (0 <= d.s < self.tree.n and 0 <= d.t < self.tree.n):
                raise InstanceError(f"demand {i} endpoints out of range")
            if d.s == d.t:
                raise InstanceError(f"demand {i} has identical endpoints")
            if not is_inf(d.penalty) and d.penalty < 0:
                raise InstanceError(f"demand {i} penalty must be nonnegative")

    def lca(self, i: int) -> int:
        return self._path(i).lca

    def path_edges(self, i: int) -> Tuple[int, ...]:
        """Edge ids along the demand path, ordered from s towards t."""
        return self._path(i).edges

    def path_nodes(self, i: int) -> Tuple[int, ...]:
        """Nodes along the demand path, ordered from s towards t."""
        return self._path(i).nodes

    def legs(self, i: int) -> Tuple[FrozenSet[int], FrozenSet[int]]:
        """The path edges below the lca on the s side and on the t side."""
        return self._path(i).legs

    def _path(self, i: int) -> _DemandPath:
        """Demand i's path, walked once, on first use, up to the lca."""
        path = self._paths.get(i)
        if path is None:
            parent, depth = self.tree.parent, self.tree.depth
            s, t = self.demands[i].s, self.demands[i].t
            up: List[int] = []
            down: List[int] = []
            while s != t:  # step up from the deeper end
                if depth[s] >= depth[t]:
                    up.append(s)
                    s = parent[s]
                else:
                    down.append(t)
                    t = parent[t]
            down.reverse()
            path = self._paths[i] = _DemandPath(
                s,
                tuple(up + down),
                tuple(up + [s] + down),
                (frozenset(up), frozenset(down)),
            )
        return path


@dataclass
class SetCoverInstance:
    n_elements: int
    sets: List[Tuple[Rat, FrozenSet[int]]]

    def __post_init__(self):
        for i, (cost, members) in enumerate(self.sets):
            if is_inf(cost) or cost < 0:
                raise InstanceError(f"set {i} cost must be finite and nonnegative")
            if not members:
                raise InstanceError(f"set {i} is empty")
            if any(not (0 <= x < self.n_elements) for x in members):
                raise InstanceError(f"set {i} has out-of-range members")


@dataclass
class FacilityLocationInstance:
    """Clients connect to opened facilities; absent pairs are unconnectable."""

    n_clients: int
    n_facilities: int
    opening: List[Rat]
    conn: Dict[Tuple[int, int], Rat]  # (client, facility) -> cost

    def __post_init__(self):
        if len(self.opening) != self.n_facilities:
            raise InstanceError("one opening cost per facility required")
        for o in self.opening:
            if is_inf(o) or o < 0:
                raise InstanceError("opening costs must be finite and nonnegative")
        for (v, f), d in self.conn.items():
            if not (0 <= v < self.n_clients and 0 <= f < self.n_facilities):
                raise InstanceError(f"connection ({v},{f}) out of range")
            if is_inf(d) or d < 0:
                raise InstanceError(f"connection cost ({v},{f}) must be finite and nonnegative")


@dataclass
class EdgeCoverInstance:
    """Choose edges so that every marked node has an incident chosen edge.

    ``edge_origin`` is set when the instance was derived from another graph by
    subdividing edges: it maps each edge id here to the source edge it stands
    for (both halves of a subdivided edge map to the same source edge).
    """

    graph: AnyGraph
    cover_nodes: FrozenSet[int]
    node_weight: Dict[int, Rat]
    edge_weight: Dict[int, Rat]
    edge_origin: Optional[Dict[int, int]] = None

    def __post_init__(self):
        _check_weights(self.graph, self.node_weight, self.edge_weight)
        for v in self.cover_nodes:
            if not (0 <= v < self.graph.n):
                raise InstanceError(f"cover node {v} out of range")


@dataclass(frozen=True)
class Solution:
    """An edge set with its objective breakdown."""

    edges: Tuple[int, ...]
    edge_weight: Rat
    node_weight: Rat
    penalty: ExtRat

    @property
    def total(self) -> ExtRat:
        return self.edge_weight + self.node_weight + self.penalty


def selected_nodes(graph: AnyGraph, edges) -> List[int]:
    out = set()
    for e in edges:
        u, v = graph.ends(e)
        out.add(u)
        out.add(v)
    return sorted(out)


def eds_solution(inst: EdsInstance, edges) -> Solution:
    """Price an edge set.  An edge is covered when it shares an end node
    with a chosen edge, that is when it is incident to a chosen edge's end
    node, so coverage costs time linear in the size of the graph.  The sums
    run in the instance's integer units; only the three totals are made
    rational."""
    edges = tuple(sorted(set(edges)))
    g = inst.graph
    scale, wn, we, pen = inst.scale, inst.node_units, inst.edge_units, inst.penalty_units
    nodes = selected_nodes(g, edges)
    covered = set()
    for v in nodes:
        covered.update(g.incident(v))
    paid = ext_sum(pen[e] for e in g.edge_ids() if e not in covered)
    return Solution(
        edges,
        Rat(sum(we[e] for e in edges), scale),
        Rat(sum(wn[v] for v in nodes), scale),
        paid if is_inf(paid) else Rat(paid, scale),
    )


def multicut_solution(inst: MulticutInstance, edges) -> Solution:
    edges = tuple(sorted(set(edges)))
    ew = sum((inst.edge_weight[e] for e in edges), ZERO)
    nw = sum((inst.node_weight[v] for v in selected_nodes(inst.tree, edges)), ZERO)
    chosen = set(edges)
    pen = ext_sum(
        d.penalty
        for i, d in enumerate(inst.demands)
        if not chosen.intersection(inst.path_edges(i))
    )
    return Solution(edges, ew, nw, pen)


AnyInstance = Union[
    EdsInstance, MulticutInstance, SetCoverInstance, FacilityLocationInstance
]


def problem_kind(inst: AnyInstance) -> str:
    if isinstance(inst, EdsInstance):
        return "eds-tree" if inst.is_tree else "eds-general"
    if isinstance(inst, MulticutInstance):
        return "multicut-tree"
    if isinstance(inst, SetCoverInstance):
        return "set-cover"
    if isinstance(inst, FacilityLocationInstance):
        return "facility-location"
    raise InstanceError(f"unknown instance type {type(inst)!r}")


# ---------------------------------------------------------------------------
# parsing and serialization

_KINDS = ("eds-tree", "eds-general", "multicut-tree", "set-cover", "facility-location")


def parse_instance(text: str) -> AnyInstance:
    """Parse an instance file.  Errors report 1-based line numbers."""
    kind = None
    n_nodes = None
    root = 0
    root_seen = False
    node_w: Dict[int, Number] = {}
    edge_rows: List[Tuple[int, int, Number, Optional[Number]]] = []
    demands: List[Demand] = []
    sets: List[Tuple[Rat, FrozenSet[int]]] = []
    facilities: Dict[int, Rat] = {}
    clients: List[int] = []
    conns: Dict[Tuple[int, int], Rat] = {}

    def fail(lineno, msg):
        raise ParseError(f"line {lineno}: {msg}")

    def want_int(lineno, tok):
        try:
            return int(tok)
        except ValueError:
            fail(lineno, f"expected an integer, got {tok!r}")

    def want_num(lineno, tok, allow_inf=False):
        try:
            val = parse_number(tok, allow_inf)
        except ValueError as exc:
            fail(lineno, str(exc))
        if val is not INF and val[0] < 0:
            fail(lineno, f"negative value {tok!r} not allowed here")
        return val

    def want_rat(lineno, tok, allow_inf=False):
        return _rat(want_num(lineno, tok, allow_inf))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        head, args = toks[0], toks[1:]
        if kind is None:
            if head != "problem":
                fail(lineno, "the first directive must be 'problem <kind>'")
            if len(args) != 1 or args[0] not in _KINDS:
                fail(lineno, f"unknown problem kind {' '.join(args)!r}")
            kind = args[0]
            continue
        if head == "problem":
            fail(lineno, "duplicate 'problem' line")
        elif head == "nodes":
            if kind == "facility-location":
                fail(lineno, "'nodes' is not used by facility-location")
            if n_nodes is not None:
                fail(lineno, "duplicate 'nodes' line")
            if len(args) != 1:
                fail(lineno, "'nodes' takes one argument")
            n_nodes = want_int(lineno, args[0])
            if n_nodes < 1:
                fail(lineno, "node count must be positive")
            if n_nodes > MAX_NODES:
                fail(lineno, f"node count {n_nodes} exceeds the limit of {MAX_NODES}")
        elif head == "root":
            if kind not in ("eds-tree", "multicut-tree"):
                fail(lineno, f"'root' is not valid for {kind}")
            if root_seen:
                fail(lineno, "duplicate 'root' line")
            if len(args) != 1:
                fail(lineno, "'root' takes one argument")
            root = want_int(lineno, args[0])
            root_seen = True
        elif head == "node":
            if kind not in ("eds-tree", "eds-general", "multicut-tree"):
                fail(lineno, f"'node' is not valid for {kind}")
            if len(args) != 2:
                fail(lineno, "'node' takes id and weight")
            v = want_int(lineno, args[0])
            if v in node_w:
                fail(lineno, f"duplicate weight for node {v}")
            node_w[v] = want_num(lineno, args[1])
        elif head == "edge":
            if kind in ("eds-tree", "eds-general"):
                if len(args) != 4:
                    fail(lineno, "'edge' takes u, v, weight and penalty here")
                u = want_int(lineno, args[0])
                v = want_int(lineno, args[1])
                w = want_num(lineno, args[2])
                p = want_num(lineno, args[3], allow_inf=True)
                edge_rows.append((u, v, w, p))
            elif kind == "multicut-tree":
                if len(args) != 3:
                    fail(lineno, "'edge' takes u, v and weight here")
                u = want_int(lineno, args[0])
                v = want_int(lineno, args[1])
                w = want_num(lineno, args[2])
                edge_rows.append((u, v, w, None))
            else:
                fail(lineno, f"'edge' is not valid for {kind}")
        elif head == "demand":
            if kind != "multicut-tree":
                fail(lineno, f"'demand' is not valid for {kind}")
            if len(args) != 3:
                fail(lineno, "'demand' takes s, t and penalty")
            s = want_int(lineno, args[0])
            t = want_int(lineno, args[1])
            p = want_rat(lineno, args[2], allow_inf=True)
            demands.append(Demand(s, t, p))
        elif head == "set":
            if kind != "set-cover":
                fail(lineno, f"'set' is not valid for {kind}")
            if not args:
                fail(lineno, "'set' takes a cost and member list")
            cost = want_rat(lineno, args[0])
            members = [want_int(lineno, tok) for tok in args[1:]]
            if len(set(members)) != len(members):
                fail(lineno, "duplicate members in set")
            sets.append((cost, frozenset(members)))
        elif head == "facility":
            if kind != "facility-location":
                fail(lineno, f"'facility' is not valid for {kind}")
            if len(args) != 2:
                fail(lineno, "'facility' takes id and opening cost")
            f = want_int(lineno, args[0])
            if f in facilities:
                fail(lineno, f"duplicate facility {f}")
            facilities[f] = want_rat(lineno, args[1])
        elif head == "client":
            if kind != "facility-location":
                fail(lineno, f"'client' is not valid for {kind}")
            if len(args) != 1:
                fail(lineno, "'client' takes an id")
            clients.append(want_int(lineno, args[0]))
        elif head == "conn":
            if kind != "facility-location":
                fail(lineno, f"'conn' is not valid for {kind}")
            if len(args) != 3:
                fail(lineno, "'conn' takes client, facility and cost")
            v = want_int(lineno, args[0])
            f = want_int(lineno, args[1])
            if (v, f) in conns:
                fail(lineno, f"duplicate connection ({v},{f})")
            conns[(v, f)] = want_rat(lineno, args[2])
        else:
            fail(lineno, f"unknown directive {head!r}")

    if kind is None:
        raise ParseError("line 1: empty instance file")

    try:
        if kind == "facility-location":
            if sorted(set(clients)) != list(range(len(clients))):
                raise InstanceError("client ids must be 0..k-1, each once")
            if sorted(facilities) != list(range(len(facilities))):
                raise InstanceError("facility ids must be 0..k-1, each once")
            return FacilityLocationInstance(
                n_clients=len(clients),
                n_facilities=len(facilities),
                opening=[facilities[f] for f in sorted(facilities)],
                conn=conns,
            )
        if n_nodes is None:
            raise InstanceError("missing 'nodes' line")
        if kind == "set-cover":
            return SetCoverInstance(n_elements=n_nodes, sets=sets)
        for v in node_w:
            if not (0 <= v < n_nodes):
                raise InstanceError(f"node id {v} out of range")
        pairs = [(u, v) for (u, v, _, _) in edge_rows]
        if kind == "eds-general":
            graph = Graph(n_nodes, pairs)
            eids = range(len(edge_rows))
        else:
            if not (0 <= root < n_nodes):
                raise InstanceError(f"root {root} out of range")
            graph = RootedTree.from_edges(n_nodes, pairs, root)
            eids = []
            for u, v in pairs:
                eid = v if graph.parent[v] == u else u
                if graph.parent[eid] not in (u, v):
                    raise InstanceError(f"edge ({u},{v}) does not match the tree orientation")
                eids.append(eid)
        if kind == "multicut-tree":
            weights = {v: _rat(node_w[v]) if v in node_w else ZERO for v in range(n_nodes)}
            ew = {eid: _rat(row[2]) for eid, row in zip(eids, edge_rows)}
            return MulticutInstance(graph, weights, ew, demands)
        # the parser has checked every value, so the units need no second pass
        zero = (0, 1)
        nw = [zero] * n_nodes
        for v, w in node_w.items():
            nw[v] = w
        ew = [zero] * _edge_slots(graph)
        pen = ew.copy()
        for eid, (_, _, w, p) in zip(eids, edge_rows):
            ew[eid] = w
            pen[eid] = p
        return EdsInstance._from_units(graph, *_to_units(nw, ew, pen))
    except InstanceError as exc:
        raise ParseError(f"line {len(text.splitlines())}: {exc}") from exc


def serialize_instance(inst: AnyInstance) -> str:
    """Canonical text form; parse_instance(serialize_instance(x)) == x."""
    kind = problem_kind(inst)
    lines = [f"problem {kind}"]
    if isinstance(inst, (EdsInstance, MulticutInstance)):
        g = inst.graph if isinstance(inst, EdsInstance) else inst.tree
        lines.append(f"nodes {g.n}")
        if isinstance(g, RootedTree):
            lines.append(f"root {g.root}")
        nw = inst.node_weight
        for v in range(g.n):
            lines.append(f"node {v} {fmt_rat(nw[v])}")
        for e in sorted(g.edge_ids()):
            u, v = g.ends(e)
            w = fmt_rat(inst.edge_weight[e])
            if isinstance(inst, EdsInstance):
                lines.append(f"edge {u} {v} {w} {fmt_rat(inst.penalty[e])}")
            else:
                lines.append(f"edge {u} {v} {w}")
        if isinstance(inst, MulticutInstance):
            for d in inst.demands:
                lines.append(f"demand {d.s} {d.t} {fmt_rat(d.penalty)}")
    elif isinstance(inst, SetCoverInstance):
        lines.append(f"nodes {inst.n_elements}")
        for cost, members in inst.sets:
            lines.append("set " + " ".join([fmt_rat(cost)] + [str(x) for x in sorted(members)]))
    else:
        for f in range(inst.n_facilities):
            lines.append(f"facility {f} {fmt_rat(inst.opening[f])}")
        for v in range(inst.n_clients):
            lines.append(f"client {v}")
        for (v, f) in sorted(inst.conn):
            lines.append(f"conn {v} {f} {fmt_rat(inst.conn[(v, f)])}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# generators


#: The generator's counts and bounds, all integers that must be nonnegative.
GEN_INT_PARAMS = (
    "n", "m", "k", "wmax", "pmax", "cmax", "omax", "dmax", "clients", "facilities",
)


def gen_instance(kind: str, seed: int = 0, **params) -> AnyInstance:
    """Deterministic instance generator; identical inputs give identical
    instances."""
    for name in GEN_INT_PARAMS:
        if int(params.get(name, 0)) < 0:
            raise InstanceError(f"{name} must be nonnegative, got {params[name]}")
    rng = Random(seed)
    if kind == "star-gap-eds":
        n = int(params.get("n", 4))
        if n < 2:
            raise InstanceError("star-gap-eds needs n >= 2 leaves")
        tree = RootedTree([0] + [0] * n, 0)
        node_w = {0: Rat(1), **{v: ZERO for v in range(1, n + 1)}}
        return EdsInstance(
            tree,
            node_w,
            {v: ZERO for v in range(1, n + 1)},
            {v: INF for v in range(1, n + 1)},
        )
    if kind == "subdivided-star-multicut":
        n = int(params.get("n", 4))
        if n < 2:
            raise InstanceError("subdivided-star-multicut needs n >= 2 legs")
        # center 0; leg j has subdivision node 2j+1 and leaf 2j+2
        parent = [0] * (2 * n + 1)
        for j in range(n):
            parent[2 * j + 1] = 0
            parent[2 * j + 2] = 2 * j + 1
        tree = RootedTree(parent, 0)
        node_w = {v: ZERO for v in range(2 * n + 1)}
        for j in range(n):
            node_w[2 * j + 1] = Rat(1)
        leaves = [2 * j + 2 for j in range(n)]
        demands = [
            Demand(leaves[i], leaves[j], INF)
            for i in range(n)
            for j in range(i + 1, n)
        ]
        return MulticutInstance(tree, node_w, {e: ZERO for e in tree.edge_ids()}, demands)
    if kind in ("random-tree-eds", "random-tree-multicut"):
        n = int(params.get("n", 8))
        if n < 1:
            raise InstanceError("need at least one node")
        wmax = int(params.get("wmax", 10))
        pmax = int(params.get("pmax", 10))
        inf_prob = float(params.get("inf_prob", 0.25))
        parent = [0] * n
        for v in range(1, n):
            parent[v] = rng.randrange(v)
        tree = RootedTree(parent, 0)
        node_w = {v: Rat(rng.randint(0, wmax)) for v in range(n)}
        edge_w = {e: Rat(rng.randint(0, wmax)) for e in tree.edge_ids()}
        if kind == "random-tree-eds":
            pen = {}
            for e in tree.edge_ids():
                pen[e] = INF if rng.random() < inf_prob else Rat(rng.randint(0, pmax))
            return EdsInstance(tree, node_w, edge_w, pen)
        k = int(params.get("k", 3))
        if n < 2 and k > 0:
            raise InstanceError("demands need at least two nodes")
        demands = []
        for _ in range(k):
            s, t = rng.sample(range(n), 2)
            p = INF if rng.random() < inf_prob else Rat(rng.randint(0, pmax))
            demands.append(Demand(s, t, p))
        return MulticutInstance(tree, node_w, edge_w, demands)
    if kind == "random-eds-general":
        n = int(params.get("n", 6))
        m = int(params.get("m", 8))
        wmax = int(params.get("wmax", 10))
        pmax = int(params.get("pmax", 10))
        inf_prob = float(params.get("inf_prob", 0.25))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        if m > len(pairs):
            raise InstanceError(f"at most {len(pairs)} edges on {n} nodes")
        edges = sorted(rng.sample(pairs, m))
        graph = Graph(n, edges)
        node_w = {v: Rat(rng.randint(0, wmax)) for v in range(n)}
        edge_w = {e: Rat(rng.randint(0, wmax)) for e in range(m)}
        pen = {}
        for e in range(m):
            pen[e] = INF if rng.random() < inf_prob else Rat(rng.randint(0, pmax))
        return EdsInstance(graph, node_w, edge_w, pen)
    if kind == "random-set-cover":
        n = int(params.get("n", 4))
        m = int(params.get("m", 4))
        cmax = int(params.get("cmax", 10))
        if n < 1 or m < 1:
            raise InstanceError("random-set-cover needs at least one element and one set")
        sets = []
        for _ in range(m):
            members = [x for x in range(n) if rng.random() < 0.5]
            if not members:
                members = [rng.randrange(n)]
            sets.append((Rat(rng.randint(0, cmax)), frozenset(members)))
        covered = set().union(*(s for _, s in sets))
        missing = [x for x in range(n) if x not in covered]
        for x in missing:  # keep every element coverable
            i = rng.randrange(len(sets))
            cost, members = sets[i]
            sets[i] = (cost, members | {x})
        return SetCoverInstance(n, sets)
    if kind == "random-facility-location":
        nc = int(params.get("clients", 3))
        nf = int(params.get("facilities", 3))
        omax = int(params.get("omax", 10))
        dmax = int(params.get("dmax", 10))
        skip_prob = float(params.get("skip_prob", 0.0))
        opening = [Rat(rng.randint(0, omax)) for _ in range(nf)]
        conn = {}
        for v in range(nc):
            for f in range(nf):
                if rng.random() >= skip_prob:
                    conn[(v, f)] = Rat(rng.randint(0, dmax))
        return FacilityLocationInstance(nc, nf, opening, conn)
    raise InstanceError(f"unknown generator kind {kind!r}")


# ---------------------------------------------------------------------------
# reductions to EDS


@dataclass
class ReducedEds:
    """An EDS encoding of a covering problem.

    Edges whose selection would cost at least ``big_m`` never occur in an
    optimal solution when the source instance has a finite optimum; an
    optimum of at least ``big_m`` means the source was uncoverable.
    """

    instance: EdsInstance
    big_m: Rat
    big_m_edges: FrozenSet[int]  # edges priced at big_m or guarding a big_m node


def reduce_to_eds(inst: Union[SetCoverInstance, FacilityLocationInstance]) -> ReducedEds:
    """Encode set cover or facility location as an equal-optimum EDS instance.

    Facility location becomes a complete bipartite client/facility graph whose
    connection edges carry the connection costs and whose facility nodes carry
    the opening costs.  Every client gets a zero-weight pendant edge to a node
    priced at big-M, which forces some edge at the client to be chosen.  Set
    cover goes through its facility-location form (one facility per set,
    zero-cost connections to the covered elements).
    """
    if isinstance(inst, SetCoverInstance):
        fl = FacilityLocationInstance(
            n_clients=inst.n_elements,
            n_facilities=len(inst.sets),
            opening=[cost for cost, _ in inst.sets],
            conn={
                (v, f): ZERO
                for f, (_, members) in enumerate(inst.sets)
                for v in sorted(members)
            },
        )
    else:
        fl = inst

    nc, nf = fl.n_clients, fl.n_facilities
    big_m = Rat(1) + sum(fl.opening, ZERO) + sum(fl.conn.values(), ZERO)
    n = nc + nf + nc  # clients, facilities, pendant nodes
    edges = []
    edge_w: Dict[int, Rat] = {}
    big_edges = set()
    for v in range(nc):
        for f in range(nf):
            eid = len(edges)
            edges.append((v, nc + f))
            d = fl.conn.get((v, f))
            edge_w[eid] = big_m if d is None else d
            if d is None:
                big_edges.add(eid)
    for v in range(nc):
        eid = len(edges)
        edges.append((v, nc + nf + v))
        edge_w[eid] = ZERO
        big_edges.add(eid)  # selecting it buys the big-M pendant node
    graph = Graph(n, edges)
    node_w = {v: ZERO for v in range(nc)}
    node_w.update({nc + f: fl.opening[f] for f in range(nf)})
    node_w.update({nc + nf + v: big_m for v in range(nc)})
    eds = EdsInstance(
        graph,
        node_w,
        edge_w,
        {e: INF for e in range(len(edges))},
    )
    return ReducedEds(eds, big_m, frozenset(big_edges))
