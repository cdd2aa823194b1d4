"""Primal-dual 2-approximation for prize-collecting multicut on weighted trees.

Pipeline: finite demand penalties are compiled away by attaching a
two-edge pendant per demand (cutting its cheap edge equals paying the
penalty), leaving an instance where every demand must be separated.  The
compile names its guard edges, the big-M edges of the pendants, which
the output may not hold.  The increase phase grows one dual value per
demand path, raising edge/node capacities until a fully saturated
("bottleneck") path edge with immovable dual mass at both ends appears;
that edge, the demand's witness, and a pinned edge of every earlier
demand whose immovable mass it touches, join F.  The witnesses, one per
processed demand in processing order, are the one record of the demands
processed.  The deletion phase is the reverse delete of Garg, Vazirani
and Yannakakis (Algorithmica 18, 1997): F is walked from the last edge
added to the first, and an edge is dropped when every demand through it
stays cut without it.

The charging argument.  Every kept edge and every node it touches is
saturated (the ``kept-capacities-saturated`` check), so the cost of the
cut is the sum over demands d of the charge of d: nu(e, d) over the kept
edges e on d's path, plus mu(v, d) over the touched nodes v on d's path.
A demand that was never processed holds no dual values and is charged
nothing.  The output holds at most one kept edge on each leg of every
processed demand (its path on one side of the lca), which the deletion
phase asserts, so at most two kept edges lie on d's path.  Each of them,
with its two ends, is charged at most the left side of d's support row
there, which is xi(d) when that row is tight, so those terms charge at
most 2 * xi(d).  Not proved here: that every kept edge's row is tight
for each demand through it (a witness edge can be loose for a third
demand), and the case of a node v on d's path with mu(v, d) > 0 that
only a kept edge off d's path touches.  Both cases occur, and the bound
can fail for a single demand: on
``gen random-tree-multicut --n 60 --k 15 --seed 6`` demand 1 is
charged 18 against xi = 8, while the total stays within twice the dual.
The bound objective <= 2 * (sum of dual values) is therefore certified
per output, by the exact ``within-twice-dual`` check of
:func:`verify_multicut` that :func:`run_multicut_pipeline` runs.

All arithmetic is exact; each dual adjustment step is sized by one small
rational LP over exactly the moves the relaxation rules allow: it
maximizes the step, and its tie-break picks the least total perturbation
among the largest steps, for determinism.  The weights are read as the
instance's integer units over its ``scale``: the reduction appends the
gadget's units, big-M among them, to the unit lists and keeps the scale;
and each capacity of :class:`IncreaseState` is its units over the scale,
an ``int`` when the scale divides them and a ``Rat`` otherwise.  The
increase phase holds each integral value as a Python ``int`` and every
other value as a ``Rat``: the dual values, the running capacity and
support sums, the capacities they are compared with and each step and
move read back from a step LP.  The setters of :class:`IncreaseState`
make a written value an ``int`` when it is integral, and no value of the
phase is ever divided but a capacity's units, whose ``int`` division is
exact, so none can yield a float.  :attr:`IncreaseState.dual` turns every
value back into a ``Rat`` for the ratio, certificates and reports.
:func:`verify_multicut`, the one check of the whole dual, brings those
values to their least common denominator once and then checks every
nonnegativity, capacity, support and saturation row in ints: a load l
over that denominator is compared with a capacity's units u over the
scale as l * scale against u * denominator.

The increase phase keeps its state incrementally, so a step costs the
dual entries it writes and the nodes whose classification can move.
Every dual write goes through the setters of :class:`IncreaseState`,
which keep the demands holding mass at each node in processing order,
the running capacity sums, the left side nu + mu + mu of every support
row (a mu write at v changes at most the two rows of v's path edges),
the demands, edges and nodes written since the last classification, and
the nodes whose non-relaxable limit a write can move back.  Each
demand's path is walked once per instance, by :class:`MulticutInstance`,
into one record: its lca, its edges and their count on s's side.  One
rule of the instance reads a node's place from it and the node's depth,
and with it the rows of the node's at most two path edges.  The pass
that picks a dual entry to move finds its rows once, and the step LP and
the setter take them from there.  A count per edge of the demands
through it whose row there is loose serves the witness choice, and the
deletion phase indexes the demands through each edge of F.  The
classification is updated in place and read before the next dual write:
tightness, one bit per support row, is re-derived only for the rows of
written demands, and saturation only at written edges and nodes; the
bottleneck rows are the tight rows of the edges saturated with both
ends, a set re-derived only where a saturation changed.  The
non-relaxable pairs are the least fixed point of a monotone rule, kept
as a pointer per node into its holders from one classification to the
next: the nodes whose holders or bottleneck rows changed, and the
neighbours whose pins rested on them, start again from the first holder
a change can unpin, and a worklist moves the pointers forward from that
frontier only.  Each step LP is built in one pass over its moves, each a
variable and the dual entries it moves with their rows, and its update
is read from the solution in variable order and written with the same
rows.  The checks are exact, with zero tolerance: a setter refuses a
negative value as it stores it; the classification after every step
checks each capacity and support row the writes since the last one can
have moved, before anything reads them; the end of the phase checks the
running sums and holders against the dual tables; the deletion phase
checks the legs of the output; and the :func:`verify_multicut` of
:func:`run_multicut_pipeline` checks the output's coverage and the whole
dual once, from scratch.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from .instances import (
    Demand,
    InstanceError,
    MulticutInstance,
    RootedTree,
    Solution,
    _priced,
    selected_nodes,
)
from .lp import OPTIMAL, LinearConstraint, LpModel, simplex_solve
from .rationals import INF, ONE, ExtRat, Rat, ZERO, is_inf
from .reporting import CheckReport

#: A value of the increase phase: an int when integral, else a Rat.
Exact = Union[int, Rat]
#: A dual entry's support rows: their places on its demand's path, in edges
#: from s; a step's moves carry them by edge or node, or by (that, demand).
Rows = Sequence[int]
Moves = List[Tuple[int, Rows]]
Keyed = Dict[Tuple[int, int], Rows]


def _exact(x) -> Exact:
    """x as an int when it is integral, else the Rat it is."""
    return int(x) if x.denominator == 1 else x


@dataclass(frozen=True)
class MulticutDual:
    """Sparse dual values: xi per demand, nu per (edge, demand) with the
    edge on that demand's path, mu per (node, demand) likewise."""

    xi: Dict[int, Rat]
    nu: Dict[Tuple[int, int], Rat]
    mu: Dict[Tuple[int, int], Rat]

    @property
    def total(self) -> Rat:
        return sum(self.xi.values(), ZERO)


def dual_violation(
    inst: MulticutInstance,
    den: int,
    xi: Dict[int, int],
    nu: Dict[Tuple[int, int], int],
    mu: Dict[Tuple[int, int], int],
    nu_load: Dict[int, int],
    mu_load: Dict[int, int],
) -> Optional[str]:
    """The first violated row of the dual system, or None; absent entries
    are zero.  Every value is an int over the common denominator ``den``
    (see `_over_common_denominator`), and the loads are the per edge sums
    of nu and the per node sums of mu (see `_load`).  Rows in order:
    nonnegativity, the edge capacities (sum of nu at e <= w(e)), the node
    capacities (likewise for mu), each failed by a key that names no edge
    or node whatever its value, and the support rows
    xi(d) <= nu(e, d) + mu(upper, d) + mu(lower, d) on d's path.  A demand
    with xi(d) zero or absent has only rows 0 <= a sum of values already
    checked nonnegative, so its rows are skipped."""
    for name, table in (("xi", xi), ("nu", nu), ("mu", mu)):
        for key, val in table.items():
            if val < 0:
                return f"negative dual value {name}[{key}]"
    # a load l/den exceeds units/scale when l * scale > units * den
    scale, tree = inst.scale, inst.tree
    for what, load, units in (
        ("edge", nu_load, inst.edge_units),
        ("node", mu_load, inst.node_units),
    ):
        for x, tot in load.items():
            if not 0 <= x < tree.n or what == "edge" and x == tree.root:
                return f"dual value at {x}, which is no {what}"
            if tot * scale > units[x] * den:
                return f"{what} capacity violated at {x}"
    parent = tree.parent
    for d in range(len(inst.demands)):
        x = xi.get(d)
        if not x:
            continue
        for e in inst.path_edges(d):
            if x > nu.get((e, d), 0) + mu.get((parent[e], d), 0) + mu.get((e, d), 0):
                return f"support row violated ({e},{d})"
    return None


def _over_common_denominator(dual: MulticutDual) -> Tuple[int, Dict, Dict, Dict]:
    """The least common denominator of the dual's values, and its xi, nu
    and mu tables with each value as the int numerator over it."""
    tables = (dual.xi, dual.nu, dual.mu)
    den = math.lcm(*{val.denominator for table in tables for val in table.values()})
    return den, *(
        {key: val.numerator * (den // val.denominator) for key, val in table.items()}
        for table in tables
    )


def _load(table: Dict[Tuple[int, int], int]) -> Dict[int, int]:
    """Per edge or node, the sum of its dual values over the demands."""
    out: Dict[int, int] = {}
    for (x, _), val in table.items():
        out[x] = out.get(x, 0) + val
    return out


# ---------------------------------------------------------------------------
# prize-collecting reduction


def reduce_prize_collecting(
    inst: MulticutInstance,
) -> Tuple[MulticutInstance, FrozenSet[int]]:
    """Compile finite demand penalties into pendant edges.

    Per finite-penalty demand i, new nodes s', s'' hang off s_i; the edge
    s-s' carries a big-M weight (never worth cutting), the edge s'-s''
    carries the penalty, and the demand becomes (s'', t_i) with infinite
    penalty.  Returns the new instance and its guard edges, the big-M
    edges s-s', each named by its lower node s'.  Instances whose penalties
    are all infinite pass through unchanged with no guard edge.
    """
    if not isinstance(inst, MulticutInstance):
        raise InstanceError("prize-collecting reduction needs a multicut instance")
    pen = inst.penalty_units
    finite = [i for i, p in enumerate(pen) if not is_inf(p)]
    if not finite:
        return inst, frozenset()
    # big-M is 1 + the sum of every finite weight and penalty: in units, its
    # denominator divides the scale, which the compiled instance keeps
    big_m = inst.scale + sum(inst.edge_units) + sum(inst.node_units) + sum(pen[i] for i in finite)

    n = inst.tree.n
    parent = list(inst.tree.parent)
    node_units = inst.node_units + [0] * (2 * len(finite))
    edge_units = list(inst.edge_units)
    penalty_units = list(pen)
    demands = list(inst.demands)
    for count, i in enumerate(finite):
        d = demands[i]
        prime = n + 2 * count
        parent += (d.s, prime)
        edge_units += (big_m, pen[i])
        penalty_units[i] = INF
        demands[i] = Demand(prime + 1, d.t, INF)
    out = MulticutInstance._from_units(
        RootedTree(parent, inst.tree.root), inst.scale, node_units, edge_units, penalty_units,
        demands=demands,
    )
    return out, frozenset(range(n, n + 2 * len(finite), 2))


# ---------------------------------------------------------------------------
# increase-phase state


class _Nonrelax:
    """Membership test for the non-relaxable (node, demand) pairs.

    (v, d) with v on d's path is non-relaxable when every demand processed
    before d that holds dual mass at v is pinned there, i.e. when d comes no
    later than the first unpinned holder at v.  ``limit[v]`` is that
    holder's position; a node whose holders are all pinned has no entry.
    Callers must pass only v on d's path, which the test does not check."""

    __slots__ = ("limit", "position")

    def __init__(self, position: Dict[int, int]):
        self.limit: Dict[int, int] = {}
        self.position = position

    def __contains__(self, pair: Tuple[int, int]) -> bool:
        v, d = pair
        return self.position[d] <= self.limit.get(v, len(self.position))


def _toggle(items: Set, item, member: bool) -> bool:
    """Make item's membership equal member; True when that changed it."""
    if member == (item in items):
        return False
    if member:
        items.add(item)
    else:
        items.discard(item)
    return True


class IncreaseState:
    """Mutable state of the increase phase on an all-infinite-penalty
    instance: the growing edge set F in order of addition, sparse duals,
    and the witness edge per processed demand, in processing order.

    Every dual write goes through :meth:`set_xi`, :meth:`set_nu` and
    :meth:`set_mu`.  The last two take the written entry's support rows
    from their caller, which found them, and refuse a negative value.  The
    setters keep the holders of each node, the running capacity and
    support sums, the written demands, edges and nodes that
    :meth:`snapshot` checks and re-derives, the nodes whose non-relaxable
    limit can move, and the written demands whose nu :func:`_minimize_nu`
    lowers.  From :meth:`snapshot` to the next dual write, ``tight_rows``
    holds the tight support rows, one bit per path place,
    ``sat_edge``/``sat_node`` the saturated capacities, ``sat_around`` the
    edges saturated with both ends, whose tight rows are the fully pinned
    bottleneck rows (:meth:`is_bottleneck`), and ``nonrelax`` the (node,
    demand) pairs whose mass is immovable.
    ``settle_visits`` counts the nodes that settling the non-relaxable
    pairs has visited, a measure of its work that no output reads."""

    def __init__(self, inst: MulticutInstance):
        if not isinstance(inst, MulticutInstance):
            raise InstanceError("increase phase needs a multicut instance")
        if any(not is_inf(p) for p in inst.penalty_units):
            raise InstanceError(
                "increase phase needs all demand penalties infinite; "
                "apply the prize-collecting reduction first"
            )
        self.instance = inst
        tree = inst.tree
        k = len(inst.demands)
        self.order: List[int] = sorted(range(k), key=lambda i: (-tree.depth[inst.lca(i)], i))
        self.position: Dict[int, int] = {d: p for p, d in enumerate(self.order)}
        self.path_edges: List[Tuple[int, ...]] = [inst.path_edges(i) for i in range(k)]

        self.xi: Dict[int, Exact] = {}
        self.nu: Dict[Tuple[int, int], Exact] = {}
        self.mu: Dict[Tuple[int, int], Exact] = {}
        # the edges of F in order of addition, for the reverse delete
        self.F: Dict[int, None] = {}
        self.witness: Dict[int, int] = {}
        self._cursor = 0  # where uncovered() resumes in order

        # the capacities, by edge or node id, from the units; the root's
        # edge slot stays 0
        s = inst.scale
        self.edge_cap, self.node_cap = (
            [Rat(u, s) if u % s else u // s for u in units]
            for units in (inst.edge_units, inst.node_units)
        )
        # kept by the setters: node -> demands with mu > 0 there, in
        # processing order; the running capacity sums by id; and per
        # demand, from its first nu or mu write on, the left side
        # nu + mu + mu of each support row, in path order (`support_row`)
        self.holders: Dict[int, List[int]] = {}
        self.nu_sum: List[Exact] = [0] * tree.n
        self.mu_sum: List[Exact] = [0] * tree.n
        self.support: Dict[int, List[Exact]] = {}
        # the classification of the zero dual: every support row is tight
        # and every capacity of weight zero saturated.  snapshot() re-derives
        # it for dirty items only; a write to xi[j], nu[(e, j)] or mu[(v, j)]
        # changes only j's rows.  Per demand, tight_rows holds one bit per
        # path edge, in path order, and per edge, _loose counts the demands
        # through it whose row there is not tight.
        edges = tree.edge_ids()
        self.tight_rows: List[int] = [(1 << len(path)) - 1 for path in self.path_edges]
        self._loose: List[int] = [0] * tree.n
        self.sat_edge: Set[int] = {e for e in edges if not self.edge_cap[e]}
        self.sat_node: Set[int] = {v for v in range(tree.n) if not self.node_cap[v]}
        self.sat_around: Set[int] = {e for e in edges if self._saturated_around(e)}
        self.nonrelax = _Nonrelax(self.position)
        self._dirty_demands: Set[int] = set()
        self._dirty_edges: Set[int] = set()
        self._dirty_nodes: Set[int] = set()
        # node -> the least position from which its holders may have lost
        # their pin since the last settle (len(order): none, look again)
        self._unsettled: Dict[int, int] = {}
        self.settle_visits = 0
        # demands written since the last _minimize_nu()
        self.unminimized: Set[int] = set()

    # -- the only dual writers --------------------------------------------

    def set_xi(self, d: int, val: Exact) -> None:
        self.xi[d] = _exact(val)
        self._dirty_demands.add(d)
        self.unminimized.add(d)

    def set_nu(self, key: Tuple[int, int], val: Exact, rows: Rows) -> None:
        """Write nu[key], which enters j's support ``rows``; zero removes it."""
        e, j = key
        val = _exact(val)
        change = val - self.nu.get(key, 0)
        self.nu_sum[e] = _exact(self.nu_sum[e] + change)
        self._add_support(j, rows, change)
        _store(self.nu, key, val)
        self._dirty_demands.add(j)
        self._dirty_edges.add(e)
        self.unminimized.add(j)

    def set_mu(self, key: Tuple[int, int], val: Exact, rows: Rows) -> None:
        """Write mu[key], which enters j's support ``rows``; zero removes it."""
        v, j = key
        val = _exact(val)
        change = val - self.mu.get(key, 0)
        self.mu_sum[v] = _exact(self.mu_sum[v] + change)
        self._add_support(j, rows, change)
        _store(self.mu, key, val)
        here = self.holders.setdefault(v, [])
        i = bisect_left(here, self.position[j], key=self.position.__getitem__)
        held = i < len(here) and here[i] == j
        if held != (val > 0):
            if held:
                del here[i]
            else:
                here.insert(i, j)
            # a holder inserted ahead of v's pointer may be unpinned
            self._unsettle(len(self.order) if held else self.position[j], v)
        # a decrease frees capacity only for an increase at v, written first
        assert here, f"node {v} lost its last holder"
        self._dirty_demands.add(j)
        self._dirty_nodes.add(v)
        self.unminimized.add(j)

    # -- small helpers -----------------------------------------------------

    def support_row(self, j: int) -> List[Exact]:
        """j's support sums in path order, all zero before j's first write."""
        return self.support.get(j) or [0] * len(self.path_edges[j])

    def _add_support(self, j: int, rows, change: Exact) -> None:
        """Add change to j's support sums at the given path positions."""
        row = self.support[j] = self.support_row(j)
        for i in rows:
            row[i] = _exact(row[i] + change)

    def far_end(self, e: int, v: int) -> int:
        upper = self.instance.tree.parent[e]
        return e if v == upper else upper

    def rows_at(self, j: int, v: int) -> range:
        """Where j's path edges at v lie on the path: just before and just
        after v's place.  v must be on j's path."""
        return self.rows_around(j, self.instance.place(j, v))

    def rows_around(self, j: int, at: int) -> range:
        """The rows of j's path edges at the path node at place ``at``."""
        return range(max(at - 1, 0), min(at + 1, len(self.path_edges[j])))

    def edges_at(self, j: int, v: int) -> List[Tuple[int, int]]:
        """j's path edges at v, ascending, with their rows; v must be on j's path."""
        path = self.path_edges[j]
        return sorted((path[i], i) for i in self.rows_at(j, v))

    def is_bottleneck(self, j: int, row: int) -> bool:
        """Whether j's support row at path place ``row`` is tight with its
        edge and both the edge's ends saturated."""
        return self.path_edges[j][row] in self.sat_around and bool(self.tight_rows[j] >> row & 1)

    def decrease_targets(self, d: int, v: int) -> List[int]:
        """Demands processed before d holding positive dual mass at v, in
        processing order."""
        here = self.holders.get(v, [])
        return here[: bisect_left(here, self.position[d], key=self.position.__getitem__)]

    def pinning_edges(self, j: int, v: int) -> List[int]:
        """Bottleneck edges of j at v whose far end is non-relaxable for j:
        they pin j's dual mass at v."""
        return [
            f
            for f, row in self.edges_at(j, v)
            if self.is_bottleneck(j, row) and (self.far_end(f, v), j) in self.nonrelax
        ]

    def uncovered(self) -> Optional[int]:
        """The first demand in processing order whose path misses F.  F only
        grows, so the scan resumes at the last demand returned."""
        while self._cursor < len(self.order):
            d = self.order[self._cursor]
            if self.F.keys().isdisjoint(self.path_edges[d]):
                return d
            self._cursor += 1
        return None

    @property
    def dual(self) -> MulticutDual:
        """The dual values by key, each a Rat."""
        return MulticutDual(*(
            {key: Rat(v) if type(v) is int else v for key, v in sorted(table.items())}
            for table in (self.xi, self.nu, self.mu)
        ))

    # -- classification ----------------------------------------------------

    def snapshot(self) -> IncreaseState:
        """Check and classify the current dual in place, re-deriving only
        what the writes since the last classification can have changed, and
        return the state, whose classification sets hold until the next
        write.  Every capacity and support row those writes can move is
        checked exactly here, with zero tolerance."""
        tree = self.instance.tree
        # edges whose own and both end capacities' saturation may have changed
        recheck: Set[int] = set()
        for e in self._dirty_edges:
            assert self.nu_sum[e] <= self.edge_cap[e], f"edge capacity violated at {e}"
            if _toggle(self.sat_edge, e, self.nu_sum[e] == self.edge_cap[e]):
                recheck.add(e)
        for v in self._dirty_nodes:
            assert self.mu_sum[v] <= self.node_cap[v], f"node capacity violated at {v}"
            if _toggle(self.sat_node, v, self.mu_sum[v] == self.node_cap[v]):
                recheck.update(tree.incident(v))
        # a bottleneck row that turns on may pin its demand at both ends of
        # its edge, and one that turns off may unpin it there: from the
        # demand's position, or from the first holder when a whole edge's
        # rows turn off
        end = len(self.order)
        for j in self._dirty_demands:
            xi, was, mask = self.xi.get(j, 0), self.tight_rows[j], 0
            for i, (e, lhs) in enumerate(zip(self.path_edges[j], self.support_row(j))):
                assert xi <= lhs, f"support row violated ({e},{j})"
                tight = lhs == xi
                mask |= tight << i
                if tight == (was >> i & 1):
                    continue
                self._loose[e] += -1 if tight else 1
                if e in self.sat_around:
                    self._unsettle(end if tight else self.position[j], tree.parent[e], e)
            self.tight_rows[j] = mask
        for e in recheck:
            if _toggle(self.sat_around, e, self._saturated_around(e)):
                self._unsettle(end if e in self.sat_around else 0, tree.parent[e], e)
        self._dirty_demands.clear()
        self._dirty_edges.clear()
        self._dirty_nodes.clear()
        self._settle_nonrelax()
        return self

    def _saturated_around(self, e: int) -> bool:
        upper = self.instance.tree.parent[e]
        return e in self.sat_edge and upper in self.sat_node and e in self.sat_node

    def _unsettle(self, keep: int, *nodes: int) -> None:
        for v in nodes:
            self._unsettled[v] = min(keep, self._unsettled.get(v, keep))

    def _settle_nonrelax(self) -> None:
        """Least fixed point of the non-relaxable rule, from the last one.
        Whether holder j is pinned at v depends only on j's bottleneck rows
        at v and on the pairs (u, j) at v's neighbours u.  So only the nodes
        the writes unsettled can move back: each starts again at its first
        holder from the least position a change there can unpin (a holder
        inserted ahead of the pointer, a row turned off).  When such a node's
        limit falls, each neighbour starts again after the new limit, as the
        pins of its later holders may have rested on the pairs there.  From
        this frontier every pointer only moves forward, and a node is
        revisited only when a neighbour's limit rose."""
        tree, pos, seqs = self.instance.tree, self.position, self.holders
        limit, end, key = self.nonrelax.limit, len(pos), pos.__getitem__

        def near(v: int) -> Tuple[int, ...]:
            return tree.children[v] + ((tree.parent[v],) if v != tree.root else ())

        queue: List[int] = []
        restart = list(self._unsettled.items())
        self._unsettled.clear()
        while restart:
            v, keep = restart.pop()
            self.settle_visits += 1
            old = limit.get(v, end)
            seq = seqs.get(v, ())
            i = bisect_left(seq, min(keep, old), key=key)
            new = pos[seq[i]] if i < len(seq) else end
            if new < end:
                limit[v] = new
                queue.append(v)
            else:
                limit.pop(v, None)
            if new > old:
                queue += near(v)
            elif new < old:
                restart += ((u, new + 1) for u in near(v) if u in seqs)
        while queue:
            v = queue.pop()
            if v not in limit:
                continue
            self.settle_visits += 1
            seq = seqs[v]
            i = first = bisect_left(seq, limit[v], key=key)
            while i < len(seq) and self.pinning_edges(seq[i], v):
                i += 1
            if i > first:
                if i < len(seq):
                    limit[v] = pos[seq[i]]
                else:
                    del limit[v]
                queue += near(v)

    # -- feasibility checks ------------------------------------------------

    def assert_feasible(self) -> None:
        """Check the running sums and the holders, in processing order,
        against sums and holders recomputed from the dual tables."""
        nu_load, mu_load = _load(self.nu), _load(self.mu)
        assert all(tot == nu_load.get(e, 0) for e, tot in enumerate(self.nu_sum))
        assert all(tot == mu_load.get(v, 0) for v, tot in enumerate(self.mu_sum))
        # a demand with no row and no nu or mu entry has only zero sums
        parent, nu, mu = self.instance.tree.parent, self.nu, self.mu
        for j in set(self.support).union((j for _, j in nu), (j for _, j in mu)):
            assert self.support_row(j) == [
                nu.get((e, j), 0) + mu.get((parent[e], j), 0) + mu.get((e, j), 0)
                for e in self.path_edges[j]
            ], f"running support sums of demand {j}"
        holders: Dict[int, List[int]] = {}
        for (v, j), val in sorted(self.mu.items(), key=lambda item: self.position[item[0][1]]):
            if val > 0:
                holders.setdefault(v, []).append(j)
        assert holders == self.holders


def _store(table: Dict, key, val: Exact) -> None:
    assert val >= 0, f"negative dual value {key}"
    if val:
        table[key] = val
    else:
        table.pop(key, None)


# ---------------------------------------------------------------------------
# increase phase


def _minimize_nu(state: IncreaseState) -> None:
    """Lower each nu value off F to the least amount its support row needs.
    Only the demands written since the last call can have slack.  An edge
    of F lies only on covered demands' paths, which are never raised again,
    so capacity freed there could not be reused; lowering it would only
    drop the edge out of the bottleneck rows."""
    for d in sorted(state.unminimized):
        # a write of nu(e, d) changes d's support sum at e alone
        for i, (e, lhs) in enumerate(zip(state.path_edges[d], state.support_row(d))):
            key = (e, d)
            if e in state.F or key not in state.nu:
                continue
            needed = state.xi.get(d, 0) - lhs + state.nu[key]
            if needed < 0:
                needed = 0
            assert needed <= state.nu[key]
            if needed != state.nu[key]:
                state.set_nu(key, needed, (i,))
    state.unminimized.clear()


def _select_cover(state: IncreaseState, d: int) -> Tuple[Moves, Moves, Moves]:
    """Greedy minimal cover of the tight path edges, each with its rows: H
    gets unsaturated edges, U unsaturated nodes, R relaxable ends of
    bottleneck edges."""
    H: Moves = []
    U: Moves = []
    R: Moves = []
    chosen_nodes: Set[int] = set()
    up = state.instance.path(d).up
    for i, e in enumerate(state.path_edges[d]):
        if not state.tight_rows[d] >> i & 1:
            continue
        upper = state.instance.tree.parent[e]
        if upper in chosen_nodes or e in chosen_nodes:
            continue
        # the edge's ends sit at places i and i + 1, the upper end further
        # from s on the s side and the lower end on the t side
        far = upper if i < up else e
        if e in state.sat_around:
            ends = [v for v in sorted((upper, e)) if (v, d) not in state.nonrelax]
            assert ends, "bottleneck with no relaxable end must terminate the loop"
            R.append((ends[0], state.rows_around(d, i + (ends[0] == far))))
            chosen_nodes.add(ends[0])
        elif e not in state.sat_edge:
            H.append((e, (i,)))
        else:
            ends = [v for v in sorted((upper, e)) if v not in state.sat_node]
            assert ends, "saturated tight edge with saturated ends is a bottleneck"
            U.append((ends[0], state.rows_around(d, i + (ends[0] == far))))
            chosen_nodes.add(ends[0])
    return H, U, R


def _sanction_moves(state: IncreaseState, d: int, R: Moves) -> Tuple[Keyed, Keyed, Keyed]:
    """Moves the relaxation rules allow: decreases of mu at relaxable
    nodes and the compensating increases along earlier demand paths, each
    key with its rows."""
    dec: Keyed = {}
    inc_nu: Keyed = {}
    inc_mu: Keyed = {}
    visited: Set[Tuple[int, int]] = set()

    def expand(v: int, m: int) -> None:
        if (v, m) in visited:
            return
        visited.add((v, m))
        for j in state.decrease_targets(m, v):
            if state.pinning_edges(j, v) or (v, j) in dec:
                continue
            at = state.edges_at(j, v)
            dec[v, j] = [row for _, row in at]
            for f, row in at:
                if not state.tight_rows[j] >> row & 1:
                    continue
                u = state.far_end(f, v)
                if f in state.sat_around:
                    inc_mu[u, j] = state.rows_at(j, u)
                    expand(u, j)
                else:
                    if f not in state.sat_edge:
                        inc_nu[f, j] = (row,)
                    if u not in state.sat_node:
                        inc_mu[u, j] = state.rows_at(j, u)

    for v, _ in R:
        expand(v, d)
    return dec, inc_nu, inc_mu


def _step_lp(
    state: IncreaseState,
    d: int,
    H: Moves,
    U: Moves,
    R: Moves,
    moves: Tuple[Keyed, Keyed, Keyed],
) -> Exact:
    """Largest feasible simultaneous step, and by a unit tie-break cost on
    each move the least total perturbation achieving it, in one solve;
    applies the update and returns the step.  The model is built in one
    pass over ``entries``: each moves a dual entry ("nu", e, j) or ("mu",
    v, j), in the rows its caller found, by +1 or -1 times a variable,
    given by its place in variable order: eps for the entries of H, U and
    R (eps also raises xi(d)), and one variable per move otherwise.  The
    update is read from the solution in that order."""
    dec, inc_nu, inc_mu = (sorted(m.items()) for m in moves)
    names = ["eps"]
    entries = [("nu", e, d, 1, 0, at) for e, at in H]
    entries += [("mu", v, d, 1, 0, at) for v, at in U + R]
    for kind, prefix, sign, keys in (
        ("nu", "dn_e", 1, inc_nu),
        ("mu", "dp_v", 1, inc_mu),
        ("mu", "dm_v", -1, dec),
    ):
        for (x, j), at in keys:
            entries.append((kind, x, j, sign, len(names), at))
            names.append(f"{prefix}{x}_d{j}")

    # support rows of the moved entries, and every row of d, which eps
    # moves (the others' rows are all zero):
    # slack + change(nu + mu_upper + mu_lower - xi) >= 0
    rows: Dict[int, Dict[int, Dict[str, int]]] = {
        d: {i: {"eps": -1} for i in range(len(state.path_edges[d]))}
    }
    caps: Dict[str, Dict[int, Dict[str, int]]] = {"nu": {}, "mu": {}}
    for kind, x, j, sign, var, at in entries:
        cells = rows.setdefault(j, {})
        for i in at:
            cell = cells.setdefault(i, {})
            cell[names[var]] = cell.get(names[var], 0) + sign
        caps[kind].setdefault(x, {})[names[var]] = sign
    model = LpModel(
        f"step_demand{d}", sense="max", variables=names, objective={"eps": 1},
        tiebreak=dict.fromkeys(names[1:], 1),
    )
    for j in sorted(rows):
        path, support, xi = state.path_edges[j], state.support_row(j), state.xi.get(j, 0)
        for i in sorted(rows[j]):
            coeffs = {name: c for name, c in rows[j][i].items() if c}
            if coeffs:
                model.constraints.append(
                    LinearConstraint(f"support_e{path[i]}_d{j}", coeffs, ">=", xi - support[i])
                )
    # capacity rows of the moved entries; each variable moves one entry
    for kind, prefix, cap, load in (
        ("nu", "edgecap_e", state.edge_cap, state.nu_sum),
        ("mu", "nodecap_v", state.node_cap, state.mu_sum),
    ):
        for x, coeffs in sorted(caps[kind].items()):
            row = LinearConstraint(f"{prefix}{x}", coeffs, "<=", cap[x] - load[x])
            model.constraints.append(row)
    for (v, j), _ in dec:
        model.constraints.append(
            LinearConstraint(f"decbound_v{v}_d{j}", {f"dm_v{v}_d{j}": 1}, "<=", state.mu[(v, j)])
        )

    step = simplex_solve(model)
    assert step.status == OPTIMAL, f"step sizing failed: {step.status}"
    values = list(step.assignment.values())  # in variable order
    eps = _exact(step.value)
    state.set_xi(d, state.xi.get(d, 0) + eps)
    change: Dict[Tuple[str, int, int], list] = {}
    for kind, x, j, sign, var, at in entries:  # each entry written once, in entry order
        move = _exact(values[var]) if values[var] else 0
        change.setdefault((kind, x, j), [0, at])[0] += move if sign > 0 else -move
    for (kind, x, j), (delta, at) in change.items():
        if delta:
            table, write = (state.nu, state.set_nu) if kind == "nu" else (state.mu, state.set_mu)
            write((x, j), table.get((x, j), 0) + delta, at)
    return eps


def _fact5_additions(state: IncreaseState, wit: int, d: int) -> None:
    """Chase immovable dual mass: every earlier demand holding mass at an
    end of a newly added edge gets one of its own pinned path edges added."""
    inst = state.instance
    tree = inst.tree
    queue: List[Tuple[int, int, int]] = [
        (wit, d, v) for v in sorted((tree.parent[wit], wit))
    ]
    while queue:
        g, owner, v = queue.pop(0)
        for j in state.decrease_targets(owner, v):
            if g != inst.lca(j) and inst.place(j, g) >= 0:  # g is on j's path
                continue
            cands = state.pinning_edges(j, v)
            assert cands, "immovable mass must be pinned by a bottleneck edge"
            f = min(cands)
            if f not in state.F:
                state.F[f] = None
                queue.append((f, j, state.far_end(f, v)))


def increase_iteration(state: IncreaseState, i: int) -> IncreaseState:
    """Process demand i: raise its dual value as far as the capacities
    allow, then add the witness edge (and any chased additions) to F."""
    inst = state.instance
    assert state.F.keys().isdisjoint(state.path_edges[i]), "demand already covered"
    _minimize_nu(state)
    # generous stall guard: a legitimate run saturates at least one new
    # capacity per step, and there are |E| + |V| = 2n - 1 of them per demand round
    cap = (2 * inst.tree.n - 1) * (len(inst.demands) + 1)
    steps = 0
    while True:
        state.snapshot()
        terminal = [
            e
            for row, e in enumerate(state.path_edges[i])
            if state.is_bottleneck(i, row)
            and (inst.tree.parent[e], i) in state.nonrelax
            and (e, i) in state.nonrelax
        ]
        if terminal:
            break
        H, U, R = _select_cover(state, i)
        moves = _sanction_moves(state, i, R)
        eps = _step_lp(state, i, H, U, R, moves)
        assert eps > 0, "no progress without a terminal bottleneck"
        steps += 1
        assert steps <= cap, (
            f"step budget exhausted for demand {i}: {steps} steps"
        )

    # a witness is tight for every demand through it
    witnesses = [e for e in terminal if not state._loose[e]]
    # an edge can be forced loose for a third demand when that demand's
    # other rows pin its end-node mass higher than its own value; fall
    # back to the terminal edges, which are always pinned for i itself
    wit = min(witnesses or terminal, key=lambda e: (-inst.tree.depth[e], e))
    state.F[wit] = None
    state.witness[i] = wit
    _fact5_additions(state, wit, i)
    return state


def run_increase_phase(state: IncreaseState) -> IncreaseState:
    """Iterate until every demand path is covered by an edge of F, then
    check the running sums and holders against the dual."""
    while True:
        d = state.uncovered()
        if d is None:
            break
        increase_iteration(state, d)
    state.assert_feasible()
    return state


# ---------------------------------------------------------------------------
# deletion phase


def deletion_phase(state: IncreaseState) -> FrozenSet[int]:
    """Reverse delete: walk F from the last edge added to the first and drop
    an edge when every demand through it still has another kept edge on
    its path.  ``count[j]`` is the number of kept edges on j's path, so the
    walk is linear in the paths.  Asserts that no leg of a processed demand
    (its path on one side of the lca) holds two kept edges; that every
    demand keeps an edge on its path is the ``demands-separated`` check of
    the :func:`verify_multicut` that :func:`run_multicut_pipeline` runs."""
    # an edge of F -> the demands whose path holds it, by index
    through: Dict[int, List[int]] = {e: [] for e in state.F}
    count = [0] * len(state.instance.demands)
    for j, path in enumerate(state.path_edges):
        for e in path:
            if e in through:
                through[e].append(j)
                count[j] += 1
    kept = set(state.F)
    for e in reversed(state.F):
        if all(count[j] > 1 for j in through[e]):
            kept.discard(e)
            for j in through[e]:
                count[j] -= 1

    for d in state.witness:
        _, path, up = state.instance.path(d)
        for leg in (path[:up], path[up:]):
            assert len(kept.intersection(leg)) <= 1, f"leg of demand {d} cut twice"
    return frozenset(kept)


# ---------------------------------------------------------------------------
# verification and the public solver


def verify_multicut(
    inst: MulticutInstance, edges, dual: MulticutDual
) -> CheckReport:
    """Certificate check: coverage, exact dual feasibility, the factor-2
    bound, and full saturation of every kept edge and touched node."""
    report = CheckReport()
    k = len(inst.demands)
    chosen = set(edges)

    uncovered = [i for i in range(k) if chosen.isdisjoint(inst.path_edges(i))]
    report.add("demands-separated", not uncovered, f"uncovered: {uncovered}")

    # the path's nodes are those it places, and its edges, each named by
    # its lower node, those nodes but the lca, whose parent edge is off it
    def on_path(x: int, i: int, node: bool) -> bool:
        return 0 <= i < k and inst.place(i, x) >= 0 and (node or x != inst.lca(i))

    # the values over one common denominator, so every row below is
    # checked in ints
    den, xi, nu, mu = _over_common_denominator(dual)
    ok_domain = (
        all(0 <= i < k and val >= 0 for i, val in xi.items())
        and all(on_path(e, i, False) and val >= 0 for (e, i), val in nu.items())
        and all(on_path(v, i, True) and val >= 0 for (v, i), val in mu.items())
    )
    # with the domain checked, every dual key names a demand in range(k),
    # so the loads are the totals over all demands
    nu_load, mu_load = _load(nu), _load(mu)
    report.add(
        "dual-feasible",
        ok_domain and dual_violation(inst, den, xi, nu, mu, nu_load, mu_load) is None,
    )

    scale, nodes = inst.scale, selected_nodes(inst.tree, chosen)
    units = sum(inst.edge_units[e] for e in chosen) + sum(inst.node_units[v] for v in nodes)
    cost, total = Rat(units, scale), Rat(sum(xi.values()), den)
    report.add(
        "within-twice-dual", cost <= 2 * total, f"cost {cost}, dual total {total}"
    )

    saturated = (
        ok_domain
        and all(nu_load.get(e, 0) * scale == inst.edge_units[e] * den for e in chosen)
        and all(mu_load.get(v, 0) * scale == inst.node_units[v] * den for v in nodes)
    )
    report.add("kept-capacities-saturated", saturated)
    return report


def run_multicut_pipeline(
    inst: MulticutInstance,
) -> Tuple[MulticutInstance, FrozenSet[int], IncreaseState, Set[int], MulticutDual]:
    """The full solver state behind :func:`solve_multicut_tree`.

    Returns the penalty-compiled instance, its guard edges, the final
    increase-phase state, the kept cut on the compiled instance, and the
    dual that cut was verified against, which a certificate states.
    Asserts that :func:`verify_multicut` passed and that no guard edge is
    kept.
    """
    if not isinstance(inst, MulticutInstance):
        raise InstanceError("the multicut solver needs a multicut tree instance")
    inst0, guards = reduce_prize_collecting(inst)
    state = IncreaseState(inst0)
    run_increase_phase(state)
    kept = deletion_phase(state)

    dual = state.dual
    report = verify_multicut(inst0, kept, dual)
    assert report.passed, "output certificate failed: " + "; ".join(
        report.failures()
    )
    assert not (kept & guards), "a never-cut pendant edge was selected"
    return inst0, guards, state, kept, dual


def solve_multicut_tree(
    inst: MulticutInstance,
) -> Tuple[Solution, MulticutDual, Rat]:
    """Separate or pay for every demand pair; the returned dual total is a
    lower bound on the optimum and the objective is at most twice it."""
    inst0, _, _, kept, dual = run_multicut_pipeline(inst)
    sol = kept_solution(inst, inst0, kept)
    return sol, dual, multicut_ratio(sol.total, dual.total)


def kept_solution(inst: MulticutInstance, inst0: MulticutInstance, kept) -> Solution:
    """The solution on the original tree ``inst``: the kept cut of the
    compiled tree ``inst0`` without its penalty edges, whose ids start at
    ``inst.tree.n``.  A demand's compiled path is its original path, with
    the two gadget edges off the cut when its penalty is finite, so the
    compiled instance's walks tell which demands pay."""
    edges = tuple(sorted(e for e in kept if e < inst.tree.n))
    chosen = set(edges)
    unpaid = (i for i in range(len(inst.demands)) if chosen.isdisjoint(inst0.path_edges(i)))
    return _priced(inst, edges, selected_nodes(inst.tree, edges), unpaid)


def multicut_ratio(objective: ExtRat, dual_total: Rat) -> Rat:
    """The stated ratio objective / dual total, asserted to be at most 2.
    A zero dual total bounds the objective to zero, and the ratio is 1."""
    assert not is_inf(objective) and objective <= 2 * dual_total, (
        f"objective {objective} exceeds twice the dual total {dual_total}"
    )
    return objective / dual_total if dual_total > 0 else ONE
