"""Problem instances: graphs, rooted trees, weights, demands, and file I/O.

Instance files are line based.  ``#`` starts a comment, numbers are integers
or ``p/q`` fractions, and ``inf`` is accepted only where a penalty is
expected.  Node and edge weights are nonnegative rationals; penalties are
nonnegative rationals or infinite.  A number token is read as a `Number`:
an integer token straight to an int, a ``p/q`` token to ``(p, q)`` in
lowest terms (`parse_number`), ``inf`` to INF.  `DIRECTIVES` is the one
table of which kinds take each directive, what its fields are and which
of its lines may not repeat.  `read_columns` reads a file into columns
through such a table: an instance file through `DIRECTIVES`, a
certificate file through the certificates' table of the same shape.

Weight storage: an `EdsInstance` and a `MulticutInstance` keep their
weights once, as integer units over their least common denominator
(`_WeightedGraph`; `_to_units` is the one place that rule lives), and
every reader, the LP builders among them, reads those units; the parser
fills them straight from the `Number` columns, so on an integer file the
units are the ints read.

Edge identity: in a rooted tree every non-root node identifies the edge to
its parent, so edge ids are child node ids.  In a general graph edges are
numbered in input order.

A ``nodes N`` line may ask for at most ``MAX_NODES`` nodes; larger counts are
rejected with a ParseError before anything of size N is allocated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isqrt, lcm
from random import Random
from typing import Dict, FrozenSet, List, NamedTuple, Tuple, Union

from .rationals import INF, ExtRat, Rat, ZERO, digit_limit, fmt_rat, is_inf, parse_number


#: Largest node count an instance file may declare.
MAX_NODES = 10**6


class InstanceError(ValueError):
    """Raised for structurally invalid instances.  ``at``, when given, is
    ``(directive, index)``: the index-th node, root, edge, demand, set or
    connection of the input is at fault, and `parse_instance` reports the
    line holding it."""

    def __init__(self, message: str, at=None):
        super().__init__(message)
        self.at = at


class ParseError(ValueError):
    """Raised for malformed instance files; message carries the line number."""


#: A parsed number token: an int, ``(numerator, denominator)`` in lowest
#: terms for a ``p/q`` token, or INF.
Number = Union[int, Tuple[int, int], type(INF)]


def _rats(values: List[Number]) -> List[ExtRat]:
    """Parsed values as rationals, making one Rat per distinct value."""
    made = {x: x if x is INF else Rat(*x) if type(x) is tuple else Rat(x) for x in set(values)}
    return [made[x] for x in values]


# ---------------------------------------------------------------------------
# graphs


class Graph:
    """Simple undirected graph with nodes 0..n-1 and edges numbered 0..m-1."""

    def __init__(self, n: int, edges: List[Tuple[int, int]]):
        if n < 1:
            raise InstanceError("graph needs at least one node")
        seen = set()
        incident = [[] for _ in range(n)]
        for eid, (u, v) in enumerate(edges):
            if not (0 <= u < n and 0 <= v < n):
                raise InstanceError(f"edge ({u},{v}) out of range", ("edge", eid))
            if u == v:
                raise InstanceError(f"self-loop at node {u}", ("edge", eid))
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise InstanceError(f"duplicate edge ({u},{v})", ("edge", eid))
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
        adj = [[] for _ in range(n)]
        for v, p in enumerate(parent):
            if v == root:
                continue
            if not (0 <= p < n):
                raise InstanceError(f"parent of {v} out of range")
            adj[p].append(v)
            adj[v].append(p)
        self._walk(root, adj, "parent map is not connected")

    @classmethod
    def from_edges(cls, n: int, edges: List[Tuple[int, int]], root: int = 0) -> "RootedTree":
        if len(edges) != n - 1:
            raise InstanceError(f"a tree on {n} nodes needs {n - 1} edges, got {len(edges)}")
        adj = [[] for _ in range(n)]
        for i, (u, v) in enumerate(edges):
            if not (0 <= u < n and 0 <= v < n):
                raise InstanceError(f"edge ({u},{v}) out of range", ("edge", i))
            if u == v:
                raise InstanceError(f"self-loop at node {u}", ("edge", i))
            adj[u].append(v)
            adj[v].append(u)
        tree = cls.__new__(cls)
        tree._walk(root, adj, "edges do not form a tree reachable from the root")
        return tree

    def _walk(self, root: int, adj: List[List[int]], broken: str) -> None:
        """Take parents and depths from one walk from the root over the
        adjacency lists, which become the children, sorted, in place; a
        node met twice or never means the edges are not a tree."""
        n = len(adj)
        parent = [root] * n
        depth = [-1] * n
        depth[root] = 0
        order = [root]
        for v in order:
            children = adj[v]
            if v != root:
                children.remove(parent[v])
            children.sort()
            for c in children:
                if depth[c] >= 0:
                    raise InstanceError(broken)
                parent[c] = v
                depth[c] = depth[v] + 1
                order.append(c)
        if len(order) != n:
            raise InstanceError(broken)
        self.n = n
        self.root = root
        self.parent = tuple(parent)
        self.children = tuple(map(tuple, adj))
        self.depth = tuple(depth)

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
    for what, weights in (("node", node_weight), ("edge", edge_weight)):
        for key, w in weights.items():
            if is_inf(w) or w.numerator < 0:
                raise InstanceError(f"{what} weight of {key} must be finite and nonnegative")


def _to_units(*columns):
    """Columns of `Number` values as integer units over their least common
    denominator ``scale``: each finite value times ``scale``, INF left as
    INF.  Returns ``(scale, *unit columns)``; with no pair among the values
    ``scale`` is 1 and the columns are the unit columns."""
    pairs = {x for col in columns for x in set(col) if type(x) is tuple}
    if not pairs:
        return (1, *columns)
    scale = lcm(*(q for _, q in pairs))
    return (scale, *(
        [x if x is INF else x[0] * (scale // x[1]) if type(x) is tuple else x * scale
         for x in col] for col in columns
    ))


def _pair(value) -> Number:
    """An ExtRat as a `Number`."""
    if is_inf(value):
        return INF
    p, q = value.numerator, value.denominator
    return p if q == 1 else (p, q)


class _WeightedGraph:
    """A graph with node and edge weights and a penalty per demand.

    The weights are held once, as integer units over one common
    denominator: ``scale`` is the lcm of the denominators of every finite
    node weight, edge weight and penalty (1 on integer data), and
    ``node_units``, ``edge_units`` and ``penalty_units`` hold each value
    times ``scale``; INF stays INF.  Node units are indexed by node id,
    edge units by edge id (the root's slot of a rooted tree holds 0) and
    penalty units as the kind's demands are.  An instance built from dicts
    of rationals computes its units once and keeps only them; the units
    may not be mutated.
    """

    #: What an instance is compared by: the units are canonical, so equal
    #: weights give equal scale and units.  A kind adds its own parts.
    _SAME = ("graph", "scale", "node_units", "edge_units", "penalty_units")

    def _hold_dicts(self, graph, node_weight, edge_weight, penalty, slots):
        """Hold checked dicts as units; the penalty units are ``slots`` long."""
        dicts = node_weight, edge_weight, penalty
        sizes = graph.n, _edge_slots(graph), slots
        units = _to_units(*(_placed(n, d, map(_pair, d.values())) for n, d in zip(sizes, dicts)))
        vars(self).update(zip(_WeightedGraph._SAME, (graph, *units)))

    @classmethod
    def _from_units(cls, graph, *units, **parts):
        """An instance over ``scale, node_units, edge_units, penalty_units``
        that its maker has already checked; ``parts`` are the kind's other
        attributes."""
        inst = cls.__new__(cls)
        vars(inst).update(zip(_WeightedGraph._SAME, (graph, *units)), **parts)
        return inst

    def __eq__(self, other):
        return type(other) is type(self) and all(
            getattr(self, name) == getattr(other, name) for name in self._SAME)

    def __repr__(self):
        return f"{type(self).__name__}({self.graph!r}, scale={self.scale})"


class EdsInstance(_WeightedGraph):
    """Every edge must share an end node with a chosen edge or pay its
    penalty; the penalty units are indexed by edge."""

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
            if p < 0:  # INF < 0 is False
                raise InstanceError(f"penalty of edge {e} must be nonnegative")
        self._hold_dicts(graph, node_weight, edge_weight, penalty, _edge_slots(graph))

    @property
    def is_tree(self) -> bool:
        return isinstance(self.graph, RootedTree)


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
    edges: Tuple[int, ...]  # from s towards t
    up: int  # the number of edges on the s side of the lca


def _check_demands(tree: RootedTree, demands: List[Demand]) -> None:
    """Each demand's ends are distinct nodes of the tree and its penalty
    is nonnegative; an end's fault names the demand for `parse_instance`."""
    for i, d in enumerate(demands):
        if not (0 <= d.s < tree.n and 0 <= d.t < tree.n):
            raise InstanceError(f"demand {i} endpoints out of range", ("demand", i))
        if d.s == d.t:
            raise InstanceError(f"demand {i} has identical endpoints", ("demand", i))
        if d.penalty < 0:  # INF < 0 is False
            raise InstanceError(f"demand {i} penalty must be nonnegative")


class MulticutInstance(_WeightedGraph):
    """Each demand pair must be separated by the chosen edges or pay its
    penalty; the penalty units are indexed by demand."""

    _SAME = (*_WeightedGraph._SAME, "demands")
    tree = property(lambda self: self.graph)

    def __init__(
        self,
        tree: RootedTree,
        node_weight: Dict[int, Rat],
        edge_weight: Dict[int, Rat],
        demands: List[Demand],
    ):
        _check_weights(tree, node_weight, edge_weight)
        _check_demands(tree, demands)
        self.demands = demands
        penalty = dict(enumerate(d.penalty for d in demands))
        self._hold_dicts(tree, node_weight, edge_weight, penalty, len(demands))

    @cached_property
    def _paths(self) -> Dict[int, _DemandPath]:
        return {}

    def lca(self, i: int) -> int:
        return self.path(i).lca

    def path_edges(self, i: int) -> Tuple[int, ...]:
        """Edge ids along the demand path, ordered from s towards t."""
        return self.path(i).edges

    def path(self, i: int) -> _DemandPath:
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
            path = self._paths[i] = _DemandPath(s, (*up, *reversed(down)), len(up))
        return path

    def place(self, i: int, v: int) -> int:
        """Node v's place on demand i's path, counted in nodes from s (s at
        0, the lca at ``up``, t at the path's length), or -1 when v is no
        node of the path, as every int outside the tree is.  An edge's id
        is its lower node, so the path node d levels below the lca is the
        s side's edge ``edges[up - d]`` or the t side's ``edges[up + d - 1]``."""
        if not 0 <= v < self.tree.n:
            return -1
        lca, edges, up = self.path(i)
        d = self.tree.depth[v] - self.tree.depth[lca]
        if d <= 0:
            return up if v == lca else -1
        if d <= up and edges[up - d] == v:
            return up - d
        if up + d <= len(edges) and edges[up + d - 1] == v:
            return up + d
        return -1


@dataclass
class SetCoverInstance:
    n_elements: int
    sets: List[Tuple[Rat, FrozenSet[int]]]

    def __post_init__(self):
        if self.n_elements < 1:
            raise InstanceError("set cover needs at least one element")
        for i, (cost, members) in enumerate(self.sets):
            if is_inf(cost) or cost < 0:
                raise InstanceError(f"set {i} cost must be finite and nonnegative")
            if not members:
                raise InstanceError(f"set {i} is empty", ("set", i))
            if any(not (0 <= x < self.n_elements) for x in members):
                raise InstanceError(f"set {i} has out-of-range members", ("set", i))


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
        for i, ((v, f), d) in enumerate(self.conn.items()):
            if not (0 <= v < self.n_clients and 0 <= f < self.n_facilities):
                raise InstanceError(f"connection ({v},{f}) out of range", ("conn", i))
            if is_inf(d) or d < 0:
                raise InstanceError(f"connection cost ({v},{f}) must be finite and nonnegative")


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
    return sorted({v for e in edges for v in graph.ends(e)})


def eds_solution(inst: EdsInstance, edges) -> Solution:
    """Price an edge set.  An edge is covered when it shares an end node
    with a chosen edge, that is when it is incident to a chosen edge's end
    node, so coverage costs time linear in the size of the graph."""
    edges = tuple(sorted(set(edges)))
    g = inst.graph
    nodes = selected_nodes(g, edges)
    covered = set()
    for v in nodes:
        covered.update(g.incident(v))
    return _priced(inst, edges, nodes, (e for e in g.edge_ids() if e not in covered))


def multicut_solution(inst: MulticutInstance, edges) -> Solution:
    """Price an edge set: a demand pays unless an edge of its path is chosen."""
    chosen = set(edges)
    edges = tuple(sorted(chosen))
    unpaid = (i for i in range(len(inst.demands)) if chosen.isdisjoint(inst.path_edges(i)))
    return _priced(inst, edges, selected_nodes(inst.graph, edges), unpaid)


def _priced(inst: _WeightedGraph, edges, nodes, unpaid) -> Solution:
    """The solution of ``edges``, touching ``nodes``, that pays the
    penalties of the demands ``unpaid``.  The sums run in the instance's
    integer units; only the three totals are made rational."""
    scale = inst.scale
    paid = sum(inst.penalty_units[x] for x in unpaid)  # INF if one unit is INF
    return Solution(
        edges,
        Rat(sum(inst.edge_units[e] for e in edges), scale),
        Rat(sum(inst.node_units[v] for v in nodes), scale),
        paid if is_inf(paid) else Rat(paid, scale),
    )


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


def read_int(tok: str) -> int:
    """An integer token, read by the one integer rule of instance and
    certificate files."""
    try:
        return int(tok)
    except ValueError:
        digit_limit(tok)
        raise ValueError(f"expected an integer, got {tok!r}") from None


def _number(tok: str) -> Number:
    """A nonnegative number token: an int, or ``(p, q)`` for a ``p/q`` token."""
    try:
        value = sign = int(tok)
    except ValueError:
        value = parse_number(tok)  # a p/q token, or the file format's message
        sign = value[0]
    if sign < 0:
        raise ValueError(f"negative value {tok!r} not allowed here")
    return value


def _number_or_inf(tok: str) -> Number:
    """A nonnegative number token or ``inf``."""
    return INF if tok == "inf" else _number(tok)


def _count(tok: str) -> int:
    """A node count: an integer from 1 to MAX_NODES."""
    n = read_int(tok)
    if n < 1:
        raise ValueError("node count must be positive")
    if n > MAX_NODES:
        raise ValueError(f"node count {n} exceeds the limit of {MAX_NODES}")
    return n


def _members(toks: List[str]) -> FrozenSet[int]:
    """Every token left on the line, as distinct integers."""
    members = [read_int(tok) for tok in toks]
    if len(set(members)) != len(members):
        raise ValueError("duplicate members in set")
    return frozenset(members)


_KINDS = ("eds-tree", "eds-general", "multicut-tree", "set-cover", "facility-location")
_GRAPHS, _EDS, _CUT, _FL = _KINDS[:3], _KINDS[:2], _KINDS[2:3], _KINDS[4:]

#: Every directive of instance files, in the order `serialize_instance`
#: writes them: for each group of kinds that takes it, the readers of its
#: fields, the message for a wrong number of them and its rule, if any.
#: `_members` reads every token left on the line.  A rule ``(k, message)``
#: forbids two lines whose first k fields agree, checked after the field
#: count; a message alone lets the directive appear once, checked before it.
DIRECTIVES = {
    "nodes": {(*_GRAPHS, "set-cover"): (
        (_count,), "'nodes' takes one argument", "duplicate 'nodes' line")},
    "root": {("eds-tree", "multicut-tree"): (
        (read_int,), "'root' takes one argument", "duplicate 'root' line")},
    "node": {_GRAPHS: (
        (read_int, _number), "'node' takes id and weight", (1, "duplicate weight for node {}"))},
    "edge": {
        _EDS: ((read_int, read_int, _number, _number_or_inf),
               "'edge' takes u, v, weight and penalty here", None),
        _CUT: ((read_int, read_int, _number), "'edge' takes u, v and weight here", None),
    },
    "demand": {_CUT: (
        (read_int, read_int, _number_or_inf), "'demand' takes s, t and penalty", None)},
    "set": {("set-cover",): ((_number, _members), "'set' takes a cost and member list", None)},
    "facility": {_FL: (
        (read_int, _number), "'facility' takes id and opening cost", (1, "duplicate facility {}"))},
    "client": {_FL: ((read_int,), "'client' takes an id", None)},
    "conn": {_FL: ((read_int, read_int, _number), "'conn' takes client, facility and cost",
                   (2, "duplicate connection ({0[0]},{0[1]})"))},
}


def parse_instance(text: str) -> AnyInstance:
    """Parse an instance file.  Errors report 1-based line numbers.

    A file is read into columns of field values (`read_columns`), from
    which the instance is built.  A fault of one node, root, edge, demand,
    set or connection is reported at its line, and what only the whole
    file shows at the last line."""
    kind, columns = read_columns(text, "problem", _KINDS, "instance", DIRECTIVES)
    try:
        return _build(kind, columns)
    except InstanceError as exc:
        raise ParseError(f"line {_line_of(text, exc.at)}: {exc}") from exc


def read_columns(text: str, header: str, kinds, what: str, table):
    """A line-based file's kind and, for each directive the kind takes, one
    column of values per field.  Instance and certificate files are read
    here, each through its own table in the shape of `DIRECTIVES`.

    ``#`` starts a comment and blank lines are skipped.  The first
    directive must be ``<header> <kind>`` with a kind from ``kinds``.  A
    directive's lines are kept as rows of tokens, which are read a field at
    a time once per block of lines (about 8 KB of text, cut after a
    newline): an integer field by the builtin int, any other by reading
    each distinct token once, with a rule's key checked before the later
    fields.  A reader rejects a token by raising ValueError.  A fault found
    so may name a later line of its block, so a file with a fault is read
    again with each line checked and read before the next, its integers by
    `read_int` for its message: the ParseError names the first faulty line
    by its 1-based number."""
    try:
        return _read_columns(text, header, kinds, what, table, checked=False)
    except ValueError:
        return _read_columns(text, header, kinds, what, table, checked=True)


def _read_columns(text: str, header: str, kinds, what: str, table, checked: bool):
    """`read_columns`, reading each line before the next when ``checked``."""
    kind, specs, taken, columns, keys = None, {}, {}, {}, {}

    def read():
        for head, rows in taken.items():
            if not rows:
                continue
            (readers, arity, rule), m, cols = specs[head], len(rows), columns[head]
            n = len(readers)
            if readers[-1] is _members:  # the last field takes every token left
                rows[:] = [[*row[:n], tuple(row[n:])] for row in rows]
            if type(rule) is str and len(cols[0]) + m > 1:  # the directive may appear once
                raise ValueError(rule)
            if set(map(len, rows)) != {n + 1}:
                raise ValueError(arity)
            k, repeat = rule if type(rule) is tuple else (-1, "")
            fields = [*zip(*rows)][1:]
            for i in range(n + 1):
                if i == k:  # the key is read, and no other line may hold it
                    keyed = [col[-m:] for col in cols[:k]]
                    new = keyed[0] if k == 1 else [*zip(*keyed)] or [()] * m
                    known = len(keys[head])
                    keys[head].update(new)
                    if len(keys[head]) != known + m:
                        raise ValueError(repeat.format(new[-1]))
                if i < n:
                    read = readers[i]
                    cols[i] += map(int if read is read_int and not checked else
                                   {tok: read(tok) for tok in set(fields[i])}.__getitem__,
                                   fields[i])
            rows.clear()

    lineno, begin = 0, 0
    while begin < len(text):
        end = text.find("\n", begin + (1 << 13)) + 1 or len(text)
        try:
            for lineno, raw in enumerate(text[begin:end].splitlines(), lineno + 1):
                toks = tuple(raw.split("#", 1)[0].split() if "#" in raw else raw.split())
                if not toks:
                    continue
                head = toks[0]
                if head in taken:
                    taken[head].append(toks)
                    if checked:
                        read()
                elif kind is None:
                    if head != header:
                        raise ValueError(f"the first directive must be '{header} <kind>'")
                    if len(toks) != 2 or toks[1] not in kinds:
                        raise ValueError(f"unknown {header} kind {' '.join(toks[1:])!r}")
                    kind = toks[1]
                    specs = {name: spec for name, groups in table.items()
                             for group, spec in groups.items() if kind in group}
                    taken, keys = {name: [] for name in specs}, {name: set() for name in specs}
                    columns = {name: [[] for _ in spec[0]] for name, spec in specs.items()}
                elif head == header:
                    raise ValueError(f"duplicate '{header}' line")
                elif head in table:
                    verb = "is not used by" if head == "nodes" else "is not valid for"
                    raise ValueError(f"'{head}' {verb} {kind}")
                else:
                    raise ValueError(f"unknown directive {head!r}")
            read()
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        begin = end
    if kind is None:
        raise ParseError(f"line 1: empty {what} file")
    return kind, columns


def _line_of(text: str, at) -> int:
    """The number of the index-th line of directive ``head`` for ``at =
    (head, index)``, or of the last line for None."""
    lines = text.splitlines()
    if at is None:
        return len(lines)
    head, index = at
    rows = [no for no, raw in enumerate(lines, 1) if raw.split("#", 1)[0].split()[:1] == [head]]
    return rows[index]


def _placed(size: int, keys, values) -> List[Number]:
    """``size`` zeros, with each value at its key."""
    out = [0] * size
    for key, value in zip(keys, values):
        out[key] = value
    return out


def _build(kind: str, columns: Dict[str, List[list]]) -> AnyInstance:
    """The instance of ``kind`` from the columns of its directives."""
    if kind == "facility-location":
        (clients,), (ids, opening), (conn_v, conn_f, conn_cost) = (
            columns["client"], columns["facility"], columns["conn"])
        if sorted(set(clients)) != list(range(len(clients))):
            raise InstanceError("client ids must be 0..k-1, each once")
        if sorted(ids) != list(range(len(ids))):
            raise InstanceError("facility ids must be 0..k-1, each once")
        opening = _rats(_placed(len(ids), ids, opening))
        conn = dict(zip(zip(conn_v, conn_f), _rats(conn_cost)))
        inst = FacilityLocationInstance(len(clients), len(ids), opening, conn)
        lost = set(clients).difference(conn_v)
        if lost:
            v = min(lost)
            at = ("client", clients.index(v))
            raise InstanceError(f"client {v} cannot reach any facility", at)
        return inst
    (counts,) = columns["nodes"]
    if not counts:
        raise InstanceError("missing 'nodes' line")
    n = counts[0]
    if kind == "set-cover":
        costs, members = columns["set"]
        return SetCoverInstance(n, list(zip(_rats(costs), members)))
    ids, weights = columns["node"]
    for i, v in enumerate(ids):
        if not (0 <= v < n):
            raise InstanceError(f"node id {v} out of range", ("node", i))
    us, vs, edge_w, *penalties = columns["edge"]
    pairs = list(zip(us, vs))
    if kind == "eds-general":
        graph = Graph(n, pairs)
        eids = range(len(pairs))
    else:
        (roots,) = columns["root"]
        root = roots[0] if roots else 0
        if not (0 <= root < n):
            raise InstanceError(f"root {root} out of range", ("root", 0))
        graph = RootedTree.from_edges(n, pairs, root)
        # every edge is a tree edge, and its lower end is its id
        eids = [v if graph.parent[v] == u else u for u, v in pairs]
    # the readers have checked every value, so the units need no second pass
    slots = _edge_slots(graph)
    node_w, edge_w = _placed(n, ids, weights), _placed(slots, eids, edge_w)
    if kind != "multicut-tree":
        pen = _placed(slots, eids, penalties[0])
        return EdsInstance._from_units(graph, *_to_units(node_w, edge_w, pen))
    s, t, pen = columns["demand"]
    demands = list(map(Demand, s, t, _rats(pen)))
    _check_demands(graph, demands)
    return MulticutInstance._from_units(graph, *_to_units(node_w, edge_w, pen), demands=demands)


def _unit_tokens(units, scale: int) -> List[str]:
    """Integer units over ``scale`` as number tokens."""
    if scale == 1:
        return ["inf" if x is INF else str(x) for x in units]
    return [fmt_rat(x if x is INF else Rat(x, scale)) for x in units]


def serialize_instance(inst: AnyInstance) -> str:
    """Canonical text form; parse_instance(serialize_instance(x)) == x.  Eds
    and multicut weights are written straight from their integer units."""
    lines = [f"problem {problem_kind(inst)}"]
    if isinstance(inst, SetCoverInstance):
        lines.append(f"nodes {inst.n_elements}")
        for cost, members in inst.sets:
            lines.append(" ".join(["set", fmt_rat(cost), *map(str, sorted(members))]))
    elif isinstance(inst, FacilityLocationInstance):
        lines += [f"facility {f} {fmt_rat(cost)}" for f, cost in enumerate(inst.opening)]
        lines += [f"client {v}" for v in range(inst.n_clients)]
        lines += [f"conn {v} {f} {fmt_rat(inst.conn[(v, f)])}" for v, f in sorted(inst.conn)]
    else:
        g = inst.graph
        lines.append(f"nodes {g.n}")
        if isinstance(g, RootedTree):
            lines.append(f"root {g.root}")
        units = (inst.node_units, inst.edge_units, inst.penalty_units)
        nw, ew, pen = (_unit_tokens(column, inst.scale) for column in units)
        lines += [f"node {v} {w}" for v, w in enumerate(nw)]
        if isinstance(inst, EdsInstance):
            ew = [f"{w} {p}" for w, p in zip(ew, pen)]
        lines += ["edge {} {} {}".format(*g.ends(e), ew[e]) for e in sorted(g.edge_ids())]
        if isinstance(inst, MulticutInstance):
            lines += [f"demand {d.s} {d.t} {p}" for d, p in zip(inst.demands, pen)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# generators


#: The generator's kinds, its counts and bounds (integers that must be
#: nonnegative) and its probabilities.
GEN_KINDS = (
    "star-gap-eds", "subdivided-star-multicut", "random-tree-eds", "random-tree-multicut",
    "random-eds-general", "random-set-cover", "random-facility-location",
)
GEN_INT_PARAMS = (
    "n", "m", "k", "wmax", "pmax", "cmax", "omax", "dmax", "clients", "facilities",
)
GEN_FLOAT_PARAMS = ("inf_prob", "skip_prob")


def gen_instance(kind: str, seed: int = 0, **params) -> AnyInstance:
    """Deterministic instance generator; identical inputs give identical
    instances."""
    def param(name, default):
        return type(default)(params.get(name, default))

    for name in GEN_INT_PARAMS:
        if param(name, 0) < 0:
            raise InstanceError(f"{name} must be nonnegative, got {params[name]}")
    for name in GEN_FLOAT_PARAMS:
        if not 0 <= param(name, 0.0) <= 1:  # NaN included
            raise InstanceError(f"{name} must be in [0, 1], got {params[name]}")
    # the node count (set cover's element count) the parser will read back,
    # refused over its limit before anything is built; each default is small
    n = param("n", 0)
    nodes = {"star-gap-eds": n + 1, "subdivided-star-multicut": 2 * n + 1}.get(kind, n)
    if nodes > MAX_NODES and kind != "random-facility-location":
        raise InstanceError(f"node count {nodes} exceeds the limit of {MAX_NODES}")
    rng = Random(seed)
    if kind == "star-gap-eds":
        n = param("n", 4)
        if n < 2:
            raise InstanceError("star-gap-eds needs n >= 2 leaves")
        # integer weights, so the units are the weights over a scale of 1
        return EdsInstance._from_units(
            RootedTree([0] * (n + 1), 0), 1, [1] + [0] * n, [0] * (n + 1), [0] + [INF] * n
        )
    if kind == "subdivided-star-multicut":
        n = param("n", 4)
        if n < 2:
            raise InstanceError("subdivided-star-multicut needs n >= 2 legs")
        # center 0; leg j has subdivision node 2j+1, of weight 1, and leaf 2j+2
        tree = RootedTree([0] + [v - 1 if v % 2 == 0 else 0 for v in range(1, 2 * n + 1)], 0)
        demands = [Demand(2 * i + 2, 2 * j + 2, INF) for i in range(n) for j in range(i + 1, n)]
        return MulticutInstance._from_units(
            tree, 1, [v % 2 for v in range(2 * n + 1)], [0] * (2 * n + 1), [INF] * len(demands),
            demands=demands,
        )
    if kind in ("random-tree-eds", "random-tree-multicut"):
        n, wmax, pmax = param("n", 8), param("wmax", 10), param("pmax", 10)
        if n < 1:
            raise InstanceError("need at least one node")
        inf_prob = param("inf_prob", 0.25)
        tree = RootedTree([0] + [rng.randrange(v) for v in range(1, n)], 0)
        node_w = [rng.randint(0, wmax) for _ in range(n)]
        edge_w = [0] + [rng.randint(0, wmax) for _ in range(1, n)]  # root slot 0
        if kind == "random-tree-eds":
            pen = [INF if rng.random() < inf_prob else rng.randint(0, pmax) for _ in range(1, n)]
            return EdsInstance._from_units(tree, 1, node_w, edge_w, [0] + pen)
        k = param("k", 3)
        if n < 2 and k > 0:
            raise InstanceError("demands need at least two nodes")
        ends, pen = [], []
        for _ in range(k):  # the ends, then the penalty, are drawn in turn
            ends.append(rng.sample(range(n), 2))
            pen.append(INF if rng.random() < inf_prob else rng.randint(0, pmax))
        demands = [Demand(s, t, p) for (s, t), p in zip(ends, _rats(pen))]
        return MulticutInstance._from_units(tree, 1, node_w, edge_w, pen, demands=demands)
    if kind == "random-eds-general":
        n, m, wmax, pmax = param("n", 6), param("m", 8), param("wmax", 10), param("pmax", 10)
        inf_prob = param("inf_prob", 0.25)
        count = n * (n - 1) // 2
        if m > count:
            raise InstanceError(f"at most {count} edges on {n} nodes")
        # m indices into the node pairs in lexicographic order, drawn as
        # from a list of them, which is never built: pair x has r pairs
        # after it, and its first end u leaves q = n - 1 - u later ends,
        # q the greatest with q (q - 1) / 2 <= r
        edges = []
        for x in rng.sample(range(count), m):
            r = count - 1 - x
            q = (1 + isqrt(8 * r + 1)) // 2
            edges.append((n - 1 - q, n - 1 - r + q * (q - 1) // 2))
        edges.sort()
        graph = Graph(n, edges)
        node_w = [rng.randint(0, wmax) for _ in range(n)]
        edge_w = [rng.randint(0, wmax) for _ in range(m)]
        pen = [INF if rng.random() < inf_prob else rng.randint(0, pmax) for _ in range(m)]
        return EdsInstance._from_units(graph, 1, node_w, edge_w, pen)
    if kind == "random-set-cover":
        n, m, cmax = param("n", 4), param("m", 4), param("cmax", 10)
        if n < 1 or m < 1:
            raise InstanceError("random-set-cover needs at least one element and one set")
        sets = []
        for _ in range(m):
            members = [x for x in range(n) if rng.random() < 0.5] or [rng.randrange(n)]
            sets.append((Rat(rng.randint(0, cmax)), frozenset(members)))
        covered = set().union(*(s for _, s in sets))
        for x in [x for x in range(n) if x not in covered]:  # keep every element coverable
            i = rng.randrange(len(sets))
            sets[i] = (sets[i][0], sets[i][1] | {x})
        return SetCoverInstance(n, sets)
    if kind == "random-facility-location":
        nc, nf = param("clients", 3), param("facilities", 3)
        omax, dmax, skip_prob = param("omax", 10), param("dmax", 10), param("skip_prob", 0.0)
        if nc and not nf:
            raise InstanceError("random-facility-location needs a facility for its clients")
        opening = [Rat(rng.randint(0, omax)) for _ in range(nf)]
        conn = {(v, f): Rat(rng.randint(0, dmax))  # drawn after the skip test
                for v in range(nc) for f in range(nf) if rng.random() >= skip_prob}
        reached = {v for v, _ in conn}
        for v in [v for v in range(nc) if v not in reached]:  # keep every client connectable
            f = rng.randrange(nf)
            conn[v, f] = Rat(rng.randint(0, dmax))
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
    fl = inst
    if isinstance(inst, SetCoverInstance):
        conn = {(v, f): ZERO for f, (_, members) in enumerate(inst.sets) for v in sorted(members)}
        fl = FacilityLocationInstance(
            inst.n_elements, len(inst.sets), [cost for cost, _ in inst.sets], conn)

    nc, nf = fl.n_clients, fl.n_facilities
    big_m = Rat(1) + sum(fl.opening, ZERO) + sum(fl.conn.values(), ZERO)
    n = nc + nf + nc  # clients, facilities, pendant nodes
    edges = []
    edge_w = {}
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
    node_w = dict(enumerate([ZERO] * nc + fl.opening + [big_m] * nc))
    eds = EdsInstance(Graph(n, edges), node_w, edge_w, dict.fromkeys(range(len(edges)), INF))
    return ReducedEds(eds, big_m, frozenset(big_edges))
