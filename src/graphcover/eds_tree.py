"""Exact solver for prize-collecting edge domination on weighted rooted trees.

The solver peels the tree level by level.  Each step identifies a local
structure at maximum depth, charges its cheapest resolution into reduced
weights, and records enough context to later translate a solution of the
reduced instance back.  Alongside the edge set it maintains per-edge dual
values xi whose total exactly equals the objective at every level — an
invariant asserted after each unwinding step — which certifies optimality.

Case tags: "A" handles a deepest leaf edge that still carries a positive
penalty (local star around its upper end u with parent v0); "B" applies
when all deepest leaf edges have zero penalty (local two-level structure
around the grandparent s).  Each case either keeps the graph and zeroes
penalties ("keep"/"trim") or deletes the local leaves ("delete"/"drop").

Arithmetic: reducing and lifting only add, subtract, compare, take minima
and clamp at 0; they never multiply or divide.  So the solver runs on
Python ints: it copies the instance's integer units (`EdsInstance`), each
finite weight and penalty times the instance's `scale`.  Every
intermediate value is then an integer multiple of 1/scale, and scaling by
a positive constant keeps every comparison and every tie, so the steps
taken and the edges chosen are those of the same run on the rationals.
An infinite penalty enters as the finite bound `big`, 1 plus the sum of
every finite node, edge and penalty unit.  Reduced weights only fall, so
every value the solver compares with a penalty (a candidate charge, a
capped arm value, what remains to fill) is a sum of weights below `big`,
and every sum holding `big` is at least `big`, just as a sum holding INF
was INF: no comparison changes.  An objective is below `big` exactly when
it pays no infinite penalty.  The dual stays in units (`EdsDual`); its
rationals, xi / scale, are made only when read, and the certificate is
written from the units.

Cost: O(n log n) time, counting each integer operation as one step, and
O(n) memory.  All levels share one mutable store of the live tree and its
weights.  A reduction writes in place and logs the values it overwrites
and the nodes it deletes; lifting undoes the log step by step and edits
F and xi in place.  The nodes sorted by depth, with counts per depth of
the live nodes and of the live nodes with positive penalty, under a
maximum-depth pointer that only falls, pick each case and evaluate the
termination measure without scanning the tree.  What is left is the
interpreter's work per step, so a step makes a few calls, not a few per
node: one `_LiveTree.charge` writes all of its weights and one `kill`
deletes all of its nodes (only `zero_penalty` is called per node), the
reductions take their least candidates in running scans, one
`_Lift.write_xi` writes each batch of a lift's xi values, and `undo`
restores a step's entries with the running sums updated inline.

What a solve keeps is flat: lists of ints indexed by node, log entries
(array code, index, old value), one per weight, penalty or node a
reduction overwrites, and per-step records of ints, strings and tuples of
ints.  CPython's cyclic collector stops tracking a tuple of such
values at its first collection, so later collections never walk them;
an entry holding the list it wrote, or a record holding lists and a dict,
stayed tracked, and at 10**6 nodes the collector's repeated walks over
them took a quarter of the solve.  A record is a named tuple, for the
names the trace's readers use, so it is the one object per step that
stays tracked.

Checks: every level's invariants are asserted at every level, in exact
arithmetic, at the cost of the step, each by one statement.  While
reducing, `_LiveTree.charge` checks each node and edge weight it writes
for nonnegativity before it stores it, the ones clamped at zero too, so a
lost clamp fails at its write (`zero_penalty` writes only zeros); each
reduction checks that the nodes it takes for leaves (case A's arms, case
B's grandchildren) have no live child, and the driver checks that the
measure strictly decreases after each step.  While lifting, the write
that moves an edge's xi or penalty checks 0 <= xi <= penalty there:
`_Lift.write_xi` for each value it writes (every xi write goes through
it, `set_xi`'s too), and `undo` for each penalty it restores.  Nothing
else writes either, so the bound holds on every edge at every level.
Each lift checks what it assumes: case A's star holds at most one edge of
F, and the edges a step deleted carry no dual before its lift.  At the
base level and after each lift the driver checks that xi covers
exactly the live edges (by count, as xi only gains keys of live edges)
and that the objective equals the dual total below `big`; both sides are
running sums, kept up to date by per-node counts of chosen edges so that
a change of F costs O(1).  `_Lift.check_full` checks at the base and top
levels what no running check sees: xi's keys are the live edges, `edges`
counts them, and each running sum (edge weight, node weight, uncovered
penalty, dual total) equals its value from scratch.  The solution is
built from those checked sums, so the answer is priced once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, repeat
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from .instances import EdsInstance, InstanceError, Solution, eds_solution
from .rationals import INF, Rat, ZERO, is_inf
from .relaxations import complete_eds_dual
from .reporting import CheckReport


@dataclass(frozen=True)
class EdsDual:
    """Per-edge dual values and their total, a certified lower bound, held
    as the solver computes them: ``units`` maps each edge to its value times
    the instance's ``scale``, and ``total_units`` is their sum.  ``xi`` and
    ``total`` are the rationals, built when read."""

    units: Dict[int, int]
    total_units: int
    scale: int

    @cached_property
    def xi(self) -> Dict[int, Rat]:
        return {e: Rat(x, self.scale) for e, x in sorted(self.units.items())}

    @property
    def total(self) -> Rat:
        return Rat(self.total_units, self.scale)


class CaseContext(NamedTuple):
    """Everything one reduction step must remember to lift a solution back.

    For case A the center is u and the arms are u's children; for case B
    the center is s and the arms are s's children.  Arm edge ids equal arm
    node ids.  `bound` is the charge of the step, the lesser of its two
    candidates, and the dual total the arm edges take; `caps` bound the
    dual values of the arm edges.  Bounds and caps are in the instance's
    integer units: its values times its `scale` (see `EdsInstance`).  A
    context holds only strings, ints and tuples of ints.
    """

    tag: str  # "A" or "B"
    branch: str  # "keep"/"delete" (A), "trim"/"drop" (B)
    center: int
    parent: Optional[int]  # v0 (A) / u0 (B); None when the center is the root
    parent_edge: Optional[int]  # e0
    arms: Tuple[int, ...]  # arm node ids, ascending
    caps: Tuple[int, ...]  # dual caps per arm edge
    bound: int
    pick: int  # the edge whose candidate charge is the least (bound1), lowest index on ties
    via_parent: bool  # e0 exists and bound exceeds its weight plus the center's
    grand_edges: Tuple[int, ...] = ()  # B: all H_i edges
    keep: Tuple[int, ...] = ()  # B: the cheapest H_i edge of each arm i in K


# Codes of the arrays a log entry restores; _KILL marks a deleted node.
_WN, _WE, _PEN, _KILL = range(4)


class _LiveTree:
    """The live sub-tree of the instance, one mutable store for every level.

    Nodes keep their original ids; the edge to a node's parent is
    identified by the child id.  Deletions only ever remove whole
    subtrees, so parent/child/depth relations of surviving nodes are
    those of the original tree.  Reductions write through `charge`,
    `zero_penalty` and `kill`, which append what they overwrite to `log`
    as (array code, index, old value), so lifting can restore each level
    by undoing the log back to the step's mark.

    Weights are copies of the instance's integer units, indexed by node
    id (the root's edge and penalty slots hold 0), with each INF penalty
    replaced by `big` (see the module docstring).

    `order` lists the nodes by depth, then id; `live` and `hot` count the
    live nodes and the live nodes with positive penalty at each depth, and
    `first_live[d]` and `first_hot[d]` are positions in `order`, starting
    at the first node of depth d.  Nodes
    never come back to life and penalties only ever drop to zero while
    reducing, so the deepest non-empty depth and the first live (or hot)
    position of each depth only move one way.  The depth counters serve
    the reduction phase only; `edges` stays exact throughout.
    """

    def __init__(self, inst: EdsInstance):
        tree = inst.graph
        n = tree.n
        self.root = tree.root
        self.parent = tree.parent
        self.children = tree.children
        self.depth = depth = tree.depth
        self.alive = [True] * n
        self.wn = inst.node_units.copy()
        self.we = inst.edge_units.copy()
        pen = inst.penalty_units
        self.big = 1 + sum(self.wn) + sum(self.we) + sum(p for p in pen if p is not INF)
        self.pen = [self.big if p is INF else p for p in pen]
        self.edges = n - 1
        self.log: List[Tuple[int, int, int]] = []
        self.order = sorted(range(n), key=depth.__getitem__)
        self.maxd = depth[self.order[-1]]
        self.live = live = [0] * (self.maxd + 1)
        self.hot = hot = [0] * (self.maxd + 1)
        for d, p in zip(depth, self.pen):
            live[d] += 1
            if p > 0:
                hot[d] += 1
        self.first_live = [0, *accumulate(live[:-1])]
        self.first_hot = self.first_live.copy()
        self.deep = sum(live[2:])

    def charge(self, pairs, center: int, bound: int) -> None:
        """Charge a step's `bound` to its center and to the (edge, node)
        pairs that survive around it: each edge absorbs what the center's
        weight leaves of the charge, and each node what the center and its
        edge leave.  Each weight is checked before it is stored."""
        wn, we, log = self.wn, self.we, self.log
        wc = wn[center]
        shift_edge = bound - wc if bound > wc else 0
        for e, x in pairs:
            old_wn, old_we = wn[x], we[e]
            over = bound - wc - old_we
            node_w = old_wn - (over if over > 0 else 0)
            assert node_w >= 0, "reduced weights stay nonnegative"
            edge_w = old_we - shift_edge if old_we > shift_edge else 0
            assert edge_w >= 0, "reduced weights stay nonnegative"
            log.append((_WN, x, old_wn))
            log.append((_WE, e, old_we))
            wn[x] = node_w
            we[e] = edge_w
        center_w = wc - bound if wc > bound else 0
        assert center_w >= 0, "reduced weights stay nonnegative"
        log.append((_WN, center, wc))
        wn[center] = center_w

    def zero_penalty(self, v: int) -> None:
        pen = self.pen
        if pen[v] > 0:
            self.hot[self.depth[v]] -= 1
        self.log.append((_PEN, v, pen[v]))
        pen[v] = 0

    def kill(self, nodes) -> None:
        """Delete the nodes, each a leaf of the live tree or a child of one
        deleted with it."""
        alive, depth, pen, live, hot, log = (
            self.alive, self.depth, self.pen, self.live, self.hot, self.log
        )
        deep = 0
        for v in nodes:
            d = depth[v]
            alive[v] = False
            live[d] -= 1
            if pen[v] > 0:
                hot[d] -= 1
            if d > 1:
                deep += 1
            log.append((_KILL, v, 0))
        self.deep -= deep
        self.edges -= len(nodes)

    def deepest_hot(self, d: int) -> int:
        """Lowest-id live node of depth d with positive penalty; one exists."""
        order, alive, pen, i = self.order, self.alive, self.pen, self.first_hot[d]
        while not (alive[order[i]] and pen[order[i]] > 0):
            i += 1
        self.first_hot[d] = i
        return order[i]

    def deepest_leaf(self, d: int) -> int:
        """Lowest-id live node of depth d; one exists."""
        order, alive, i = self.order, self.alive, self.first_live[d]
        while not alive[order[i]]:
            i += 1
        self.first_live[d] = i
        return order[i]

    def price(self, edges) -> Tuple[int, int, int]:
        """The edge weight, node weight and uncovered penalty of an edge set
        at this level, computed from scratch."""
        touched = {v for e in edges for v in (e, self.parent[e])}
        return (
            sum(self.we[e] for e in edges),
            sum(self.wn[v] for v in touched),
            sum(
                self.pen[e]
                for e in range(len(self.alive))
                if self.alive[e]
                and e != self.root
                and e not in touched
                and self.parent[e] not in touched
            ),
        )


# ---------------------------------------------------------------------------
# case identification and reduction


def _reduce_a(t: _LiveTree, leaf_edge: int) -> CaseContext:
    parent, children, alive, wn, we, pen = t.parent, t.children, t.alive, t.wn, t.we, t.pen
    u = parent[leaf_edge]
    assert u != t.root, "the deepest leaf has depth above one"
    v0 = parent[u]
    e0 = u
    arms = tuple([v for v in children[u] if alive[v]])
    for v in arms:
        for c in children[v]:
            assert not alive[c], "arms of the deepest star are leaves"
    wu = wn[u]
    # the least candidate charge, the first on ties: e0's, then the arms'
    bound1, pick = we[e0] + wu + wn[v0], e0
    for v in arms:
        cand = we[v] + wu + wn[v]
        if cand < bound1:
            bound1, pick = cand, v
    caps = tuple([pen[v] for v in arms])
    bound2 = sum(caps)
    bound = bound1 if bound1 < bound2 else bound2
    branch = "keep" if bound1 > bound2 else "delete"
    ctx = CaseContext("A", branch, u, v0, e0, arms, caps, bound, pick, bound > wu + we[e0])

    if branch == "keep":
        for v in arms:
            t.zero_penalty(v)
        t.charge([*zip(arms, arms), (e0, v0)], u, bound)
    else:
        t.kill(arms)
        t.zero_penalty(e0)
        t.charge([(e0, v0)], u, bound)
    return ctx


def _reduce_b(t: _LiveTree, leaf: int) -> CaseContext:
    parent, children, alive, wn, we, pen = t.parent, t.children, t.alive, t.wn, t.we, t.pen
    s = parent[parent[leaf]]
    u0 = parent[s] if s != t.root else None
    e0 = s if u0 is not None else None
    arms = tuple([ui for ui in children[s] if alive[ui]])
    ws = wn[s]
    # the least candidate charge, the first on ties: e0's, then the arms'
    if e0 is not None:
        bound1, pick = we[e0] + wn[u0] + ws, e0
    else:
        bound1, pick = we[arms[0]] + wn[arms[0]] + ws, arms[0]
    for ui in arms:
        cand = we[ui] + wn[ui] + ws
        if cand < bound1:
            bound1, pick = cand, ui
    caps: List[int] = []
    keep: List[int] = []
    grand_edges: List[int] = []
    for ui in arms:
        hs = [h for h in children[ui] if alive[h]] if children[ui] else ()
        if hs:
            grand_edges += hs
            # the cheapest H_i edge, the lowest id on ties (children ascend)
            hv, hid = we[hs[0]] + wn[hs[0]], hs[0]
            for h in hs:
                cand = we[h] + wn[h]
                if cand < hv:
                    hv, hid = cand, h
            inner = wn[ui] + hv
            if inner <= pen[ui]:
                caps.append(inner)
                keep.append(hid)
            else:
                caps.append(pen[ui])
        else:
            caps.append(pen[ui])
    for h in grand_edges:
        for c in children[h]:
            assert not alive[c], "grandchildren of s are leaves"
    bound2 = sum(caps)
    bound = bound1 if bound1 < bound2 else bound2
    branch = "trim" if bound1 >= bound2 else "drop"
    ctx = CaseContext(
        "B", branch, s, u0, e0, arms, tuple(caps), bound, pick,
        e0 is not None and bound > ws + we[e0], tuple(grand_edges), tuple(keep),
    )

    # surviving (edge, node) pairs absorb the charge: e0 with its upper end
    # u0, each kept arm with itself
    survivors = [(e0, u0)] if e0 is not None else []
    if branch == "trim":
        for ui in arms:
            t.zero_penalty(ui)
        t.kill(grand_edges)
        survivors += zip(arms, arms)
    else:
        if e0 is not None:
            t.zero_penalty(e0)
        t.kill([*arms, *grand_edges])
    t.charge(survivors, s, bound)
    return ctx


# ---------------------------------------------------------------------------
# lifting


def _greedy_fill(caps, target: int) -> List[int]:
    """Values below the caps summing to the target, filled front to back."""
    out = []
    remaining = target
    for cap in caps:
        take = cap if cap < remaining else remaining
        out.append(take)
        remaining -= take
    assert remaining == 0, "caps cannot absorb the required dual total"
    return out


class _Lift:
    """The solution F and dual xi of the current level, edited in place.

    The objective of F and the dual total are kept as running sums that
    follow every change of F, xi, the weights and the live edges, so each
    level's check costs only the size of its step.  `touch[v]` counts the
    edges of F at node v; an edge is covered when either end is touched.
    `open_pen[p]` sums the penalties of the live edges below p whose lower
    end is untouched, and counts towards the uncovered penalty `pen` while
    p is untouched too.
    """

    def __init__(self, t: _LiveTree, F, xi: Dict[int, int]):
        n = len(t.alive)
        self.t = t
        self.F: set = set()
        self.xi: Dict[int, int] = {}
        self.touch = [0] * n
        self.open_pen = [0] * n
        self.edge_w = self.node_w = self.pen = self.total = 0
        for v in range(n):
            if t.alive[v] and v != t.root:
                self._open(t.parent[v], t.pen[v])
        for e in F:
            self.add(e)
        for e, value in xi.items():
            self.set_xi(e, value)

    def objective(self) -> int:
        return self.edge_w + self.node_w + self.pen

    def _open(self, p: int, change: int) -> None:
        """Add `change` to the uncovered penalty below p."""
        self.open_pen[p] += change
        if not self.touch[p]:
            self.pen += change

    def _touch(self, v: int, step: int) -> None:
        before = self.touch[v]
        self.touch[v] = before + step
        if before and self.touch[v]:
            return
        t = self.t
        if before:  # v becomes untouched: its edges reopen
            self.node_w -= t.wn[v]
            self.pen += self.open_pen[v]
            if v != t.root:
                self._open(t.parent[v], t.pen[v])
        else:
            self.node_w += t.wn[v]
            self.pen -= self.open_pen[v]
            if v != t.root:
                self._open(t.parent[v], -t.pen[v])

    def add(self, e: int) -> None:
        if e not in self.F:
            self.F.add(e)
            self.edge_w += self.t.we[e]
            self._touch(e, 1)
            self._touch(self.t.parent[e], 1)

    def remove(self, e: int) -> None:
        self.F.remove(e)
        self.edge_w -= self.t.we[e]
        self._touch(e, -1)
        self._touch(self.t.parent[e], -1)

    def set_xi(self, e: int, value: int) -> None:
        self.write_xi((e,), (value,))

    def write_xi(self, edges, values) -> None:
        """Set xi on each edge to its value, checking 0 <= xi <= penalty at
        each write."""
        xi, pen = self.xi, self.t.pen
        change = 0
        for e, value in zip(edges, values):
            assert 0 <= value <= pen[e], "0 <= xi <= penalty where either moved"
            change += value - xi.get(e, 0)
            xi[e] = value
        self.total += change

    def undo(self, mark: int) -> None:
        """Restore the weights and live nodes overwritten since log position
        `mark`.  A restored penalty, or a revived edge's, counts towards
        the open sums while the edge's lower end is untouched."""
        t = self.t
        entries = t.log[mark:]
        del t.log[mark:]
        wn, we, pen, alive, parent = t.wn, t.we, t.pen, t.alive, t.parent
        touch, open_pen, F, xi = self.touch, self.open_pen, self.F, self.xi
        node_w = edge_w = reopened = revived = 0
        for code, v, old in reversed(entries):
            if code == _WN:
                if touch[v]:
                    node_w += old - wn[v]
                wn[v] = old
            elif code == _WE:
                if v in F:
                    edge_w += old - we[v]
                we[v] = old
            elif code == _PEN:
                assert xi.get(v, 0) <= old, "0 <= xi <= penalty where either moved"
                if not touch[v]:
                    p = parent[v]
                    open_pen[p] += old - pen[v]
                    if not touch[p]:
                        reopened += old - pen[v]
                pen[v] = old
            else:
                alive[v] = True
                revived += 1
                if not touch[v]:
                    p = parent[v]
                    open_pen[p] += pen[v]
                    if not touch[p]:
                        reopened += pen[v]
        self.node_w += node_w
        self.edge_w += edge_w
        self.pen += reopened
        t.edges += revived

    def check_full(self) -> None:
        """What no running check sees, recomputed from scratch: xi is keyed
        by exactly the live edges, which `t.edges` counts, and each running
        sum equals its from-scratch value."""
        t, xi = self.t, self.xi
        live = [v for v in range(len(t.alive)) if t.alive[v] and v != t.root]
        assert set(xi) == set(live) and len(live) == t.edges, "xi is keyed by the live edges"
        running = (self.edge_w, self.node_w, self.pen, self.total)
        assert running == (*t.price(self.F), sum(xi.values())), "running sums drifted"


def _lift_a(ctx: CaseContext, lift: _Lift) -> None:
    F, touch = lift.F, lift.touch
    u, v0, e0 = ctx.center, ctx.parent, ctx.parent_edge
    # The star around u is e0 plus the arms, and F holds at most one of its
    # edges.  The base case and each lift add only edges live at their level.
    # - delete: the arms are dead in the reduced tree, so F holds none.
    # - keep: the arms stay as zero-penalty leaves, so no later case A is
    #   centred at u, and only the later case-B step centred at v0 removes
    #   them.  Its lift adds at most one of them, u's `keep` edge, and only
    #   while v0 is untouched, that is while e0 is not in F.  The lifts that
    #   run between that one and this one belong to steps centred at other
    #   nodes, none of which has an edge at u.
    count = (e0 in F) + len(F.intersection(ctx.arms))
    assert count <= 1, "F holds at most one edge of the star"

    if ctx.via_parent and touch[v0]:
        lift.add(e0)
    elif touch[u]:
        # The center is already touched, so the arms are already dominated;
        # the weight restored on the touching edge absorbs the whole charge,
        # and adding anything would overshoot the dual total.
        pass
    elif ctx.branch == "keep":
        pass
    else:
        lift.add(ctx.pick)

    if ctx.branch == "keep":
        lift.write_xi(ctx.arms, ctx.caps)
    else:
        assert lift.xi.keys().isdisjoint(ctx.arms), "the step's deleted edges carry no dual yet"
        lift.write_xi(ctx.arms, _greedy_fill(ctx.caps, ctx.bound))


def _lift_b(ctx: CaseContext, lift: _Lift) -> None:
    F, touch = lift.F, lift.touch
    s, u0, e0 = ctx.center, ctx.parent, ctx.parent_edge
    # edges of F at u0 or s; e0 joins them and is counted at both ends
    if e0 is not None and touch[u0] + touch[s] - (e0 in F) > 1:
        for a in (*reversed(ctx.arms), e0):
            if touch[u0] + touch[s] - (e0 in F) <= 1:
                break
            if a in F:
                lift.remove(a)

    if ctx.via_parent and touch[u0]:
        lift.add(e0)
    elif touch[s]:
        pass
    elif ctx.branch == "trim":
        for h in ctx.keep:
            lift.add(h)
    else:
        lift.add(ctx.pick)

    lift.write_xi(ctx.arms, _greedy_fill(ctx.caps, ctx.bound))
    assert lift.xi.keys().isdisjoint(ctx.grand_edges), "the step's deleted edges carry no dual yet"
    lift.write_xi(ctx.grand_edges, repeat(0))


# ---------------------------------------------------------------------------
# base case and driver


def _base_star(t: _LiveTree) -> Tuple[FrozenSet[int], Dict[int, int]]:
    edges = [v for v in t.children[t.root] if t.alive[v]]
    if not edges:
        return frozenset(), {}
    wr = t.wn[t.root]
    alpha1, e_star = min((t.we[v] + wr + t.wn[v], v) for v in edges)
    alpha2 = sum(t.pen[v] for v in edges)
    if alpha1 >= alpha2:
        return frozenset(), {e: t.pen[e] for e in edges}
    fill = _greedy_fill([t.pen[e] for e in edges], alpha1)
    return frozenset({e_star}), dict(zip(edges, fill))


def solve_eds_tree_trace(
    inst: EdsInstance,
) -> Tuple[Solution, EdsDual, List[CaseContext]]:
    """Like solve_eds_tree but also returns the per-step case contexts."""
    if not isinstance(inst, EdsInstance) or not inst.is_tree:
        raise InstanceError("the exact solver needs a rooted-tree instance")
    t = _LiveTree(inst)
    ctxs: List[CaseContext] = []
    marks: List[int] = []  # where each step's entries start in t.log
    live, hot = t.live, t.hot
    d = t.maxd  # the deepest depth with a live node, which only falls
    # the termination measure: (#nodes deeper than one, #deepest leaf edges
    # with positive penalty), strictly lexicographically decreasing
    measure = (t.deep, hot[d])
    while d > 1:
        marks.append(len(t.log))
        if hot[d]:
            ctxs.append(_reduce_a(t, t.deepest_hot(d)))
        else:
            ctxs.append(_reduce_b(t, t.deepest_leaf(d)))
        while not live[d]:
            d -= 1
        new_measure = (t.deep, hot[d])
        assert new_measure < measure, "reduction measure must strictly decrease"
        measure = new_measure

    lift = _Lift(t, *_base_star(t))
    lift.check_full()
    xi = lift.xi
    while True:
        # the per-level invariants that no single write checks, at the base
        # and after each lift
        assert len(xi) == t.edges, "dual values cover exactly the live edges"
        obj = lift.objective()
        assert obj == lift.total < t.big, f"objective {obj} != dual total {lift.total}"
        if not marks:
            break
        lift.undo(marks.pop())
        ctx = ctxs[len(marks)]
        (_lift_a if ctx.tag == "A" else _lift_b)(ctx, lift)
    lift.check_full()

    # check_full has just matched each running sum against its from-scratch
    # value, and the objective is below big, so it pays no INF penalty
    sums = (lift.edge_w, lift.node_w, lift.pen)
    sol = Solution(tuple(sorted(lift.F)), *(Rat(x, inst.scale) for x in sums))
    return sol, EdsDual(xi, lift.total, inst.scale), ctxs


def solve_eds_tree(inst: EdsInstance) -> Tuple[Solution, EdsDual]:
    """Optimal edge set and a matching dual certificate (total equals the
    objective exactly)."""
    sol, dual, _ = solve_eds_tree_trace(inst)
    return sol, dual


def verify_eds_optimality(inst: EdsInstance, sol: Solution, xi: Dict[int, Rat]) -> CheckReport:
    """Certificate check: dual total equals the recomputed objective, dual
    values sit inside [0, penalty], and a full dual completion exists."""
    report = CheckReport()
    edges = sorted(inst.graph.edge_ids())
    recomputed = eds_solution(inst, sol.edges)
    total = sum(xi.values(), ZERO) if xi else ZERO
    report.add(
        "dual-total-equals-objective",
        set(xi) == set(edges)
        and not is_inf(recomputed.total)
        and total == recomputed.total,
        f"dual total {total}, objective {recomputed.total}",
    )
    in_range = set(xi) == set(edges) and all(
        xi[e] >= 0 and xi[e] * inst.scale <= inst.penalty_units[e] for e in edges
    )
    report.add("dual-values-within-penalties", in_range)
    if in_range:
        completion = complete_eds_dual(inst, xi)
        report.add("dual-completion-feasible", completion is not None)
    else:
        report.add("dual-completion-feasible", False, "skipped: dual out of range")
    return report
