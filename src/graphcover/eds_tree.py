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
termination measure without scanning the tree.

What a solve keeps is flat: lists of ints indexed by node, log entries
(array code, index, old value) and per-step records of ints, strings and
tuples of ints.  CPython's cyclic collector stops tracking a tuple of such
values at its first collection, so later collections never walk them;
an entry holding the list it wrote, or a record holding lists and a dict,
stayed tracked, and at 10**6 nodes the collector's repeated walks over
them took a quarter of the solve.  A record is a named tuple, for the
names the trace's readers use, so it is the one object per step that
stays tracked.

Checks: every level's invariants are asserted at every level, in exact
arithmetic, at the cost of the step.  While reducing, `_LiveTree.set`
checks every weight and penalty it writes for nonnegativity, each
reduction checks that the nodes it takes for leaves (case A's arms, case
B's grandchildren) have no live child, and the driver checks that the
measure strictly decreases after each step.  While lifting, the write
that moves an edge's xi or penalty checks 0 <= xi <= penalty there:
`_Lift.set_xi` for the value it writes, and `undo` for each penalty it
restores.  Nothing else writes either, so the bound holds on every edge
at every level.  Each lift then checks that xi covers exactly the live
edges (by count, as xi only gains keys of live edges) and that the
objective equals the dual total; both sides are running sums, kept up to
date by per-node counts of chosen edges so that a change of F costs O(1).
The base level and the top level are also checked from scratch, including
that the running sums have not drifted, and the final solution is
re-evaluated against the dual total.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
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
    those of the original tree.  Reductions write through `set`,
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
        self.arrays = (self.wn, self.we, self.pen)
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

    def live_children(self, v: int) -> Tuple[int, ...]:
        return tuple(filter(self.alive.__getitem__, self.children[v]))

    def check_leaves(self, nodes, what: str) -> None:
        alive, children = self.alive, self.children
        for v in nodes:
            for c in children[v]:
                assert not alive[c], what

    def set(self, code: int, v: int, value: int) -> None:
        assert value >= 0, "reduced weights stay nonnegative"
        arr = self.arrays[code]
        self.log.append((code, v, arr[v]))
        arr[v] = value

    def zero_penalty(self, v: int) -> None:
        if self.pen[v] > 0:
            self.hot[self.depth[v]] -= 1
        self.set(_PEN, v, 0)

    def kill(self, v: int) -> None:
        d = self.depth[v]
        self.alive[v] = False
        self.live[d] -= 1
        if self.pen[v] > 0:
            self.hot[d] -= 1
        if d > 1:
            self.deep -= 1
        self.edges -= 1
        self.log.append((_KILL, v, 0))

    def max_depth(self) -> int:
        while not self.live[self.maxd]:
            self.maxd -= 1
        return self.maxd

    def measure(self) -> Tuple[int, int]:
        """(#nodes deeper than one, #deepest leaf edges with positive penalty);
        strictly lexicographically decreasing across reductions."""
        return (self.deep, self.hot[self.max_depth()])

    def deepest_hot(self) -> Optional[int]:
        """Deepest leaf edge with positive penalty (lowest id), or None."""
        d = self.max_depth()
        if not self.hot[d]:
            return None
        order, alive, pen, i = self.order, self.alive, self.pen, self.first_hot[d]
        while not (alive[order[i]] and pen[order[i]] > 0):
            i += 1
        self.first_hot[d] = i
        return order[i]

    def deepest_leaf(self) -> int:
        """Lowest-id live node of maximum depth."""
        d = self.max_depth()
        order, alive, i = self.order, self.alive, self.first_live[d]
        while not alive[order[i]]:
            i += 1
        self.first_live[d] = i
        return order[i]

    def objective(self, edges) -> int:
        """Objective of an edge set at this level, computed from scratch."""
        touched = {v for e in edges for v in (e, self.parent[e])}
        cost = sum(self.we[e] for e in edges)
        cost += sum(self.wn[v] for v in touched)
        return cost + sum(
            self.pen[e]
            for e in range(len(self.alive))
            if self.alive[e]
            and e != self.root
            and e not in touched
            and self.parent[e] not in touched
        )


# ---------------------------------------------------------------------------
# case identification and reduction


def _reduce_a(t: _LiveTree, leaf_edge: int) -> CaseContext:
    parent, wn, we, pen = t.parent, t.wn, t.we, t.pen
    u = parent[leaf_edge]
    assert u != t.root, "the deepest leaf has depth above one"
    v0 = parent[u]
    e0 = u
    arms = t.live_children(u)
    assert leaf_edge in arms
    t.check_leaves(arms, "arms of the deepest star are leaves")
    wu = wn[u]
    cand = [(we[e0] + wu + wn[v0], 0)]
    cand += [(we[v] + wu + wn[v], i) for i, v in enumerate(arms, 1)]
    bound1, i_star = min(cand)
    caps = tuple(map(pen.__getitem__, arms))
    bound2 = sum(caps)
    bound = min(bound1, bound2)
    branch = "keep" if bound1 > bound2 else "delete"
    ctx = CaseContext(
        "A", branch, u, v0, e0, arms, caps, bound,
        pick=arms[i_star - 1] if i_star else e0,
        via_parent=bound > wu + we[e0],
    )

    shift_edge = max(0, bound - wu)
    if branch == "keep":
        for v in arms:
            t.set(_WN, v, wn[v] - max(0, bound - wu - we[v]))
            t.set(_WE, v, max(0, we[v] - shift_edge))
            t.zero_penalty(v)
    else:
        for v in arms:
            t.kill(v)
        t.zero_penalty(e0)
    t.set(_WN, v0, wn[v0] - max(0, bound - wu - we[e0]))
    t.set(_WE, e0, max(0, we[e0] - shift_edge))
    t.set(_WN, u, max(0, wu - bound))
    return ctx


def _reduce_b(t: _LiveTree) -> CaseContext:
    parent, wn, we, pen = t.parent, t.wn, t.we, t.pen
    s = parent[parent[t.deepest_leaf()]]
    u0 = parent[s] if s != t.root else None
    e0 = s if u0 is not None else None
    arms = t.live_children(s)
    assert arms
    ws = wn[s]
    cand = [(we[e0] + wn[u0] + ws, 0)] if e0 is not None else []
    cand += [(we[ui] + wn[ui] + ws, i) for i, ui in enumerate(arms, 1)]
    bound1, i_star = min(cand)
    caps: List[int] = []
    keep: List[int] = []
    grand_edges: List[int] = []
    for ui in arms:
        hs = t.live_children(ui)
        if hs:
            grand_edges += hs
            hv, hid = min([(we[h] + wn[h], h) for h in hs])
            inner = wn[ui] + hv
            caps.append(min(inner, pen[ui]))
            if inner <= pen[ui]:
                keep.append(hid)
        else:
            caps.append(pen[ui])
    t.check_leaves(grand_edges, "grandchildren of s are leaves")
    bound2 = sum(caps)
    bound = min(bound1, bound2)
    branch = "trim" if bound1 >= bound2 else "drop"
    ctx = CaseContext(
        "B", branch, s, u0, e0, arms, tuple(caps), bound,
        pick=arms[i_star - 1] if i_star else e0,
        via_parent=e0 is not None and bound > ws + we[e0],
        grand_edges=tuple(grand_edges),
        keep=tuple(keep),
    )

    if branch == "trim":
        for ui in arms:
            t.zero_penalty(ui)
        removed, kept = grand_edges, arms
    else:
        if e0 is not None:
            t.zero_penalty(e0)
        removed, kept = [*arms, *grand_edges], ()
    for v in removed:
        t.kill(v)
    # surviving (edge, node) pairs absorb the charge: e0 with its upper end
    # u0, each kept arm with itself
    survivors = [(e0, u0)] if e0 is not None else []
    survivors += [(ui, ui) for ui in kept]
    shift_edge = max(0, bound - ws)
    for edge, node in survivors:
        t.set(_WN, node, wn[node] - max(0, bound - ws - we[edge]))
        t.set(_WE, edge, max(0, we[edge] - shift_edge))
    t.set(_WN, s, max(0, ws - bound))
    return ctx


# ---------------------------------------------------------------------------
# lifting


def _greedy_fill(caps, target: int) -> List[int]:
    """Values below the caps summing to the target, filled front to back."""
    out = []
    remaining = target
    for cap in caps:
        take = min(cap, remaining)
        out.append(take)
        remaining = remaining - take
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
                self._edge(v, t.pen[v])
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

    def _edge(self, e: int, change: int) -> None:
        """Add `change` to live edge e's penalty in the open sums."""
        if not self.touch[e]:
            self._open(self.t.parent[e], change)

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
        assert 0 <= value <= self.t.pen[e], "0 <= xi <= penalty where either moved"
        self.total += value - self.xi.get(e, 0)
        self.xi[e] = value

    def undo(self, mark: int) -> None:
        """Restore the weights and live nodes overwritten since log position
        `mark`."""
        t = self.t
        entries = t.log[mark:]
        del t.log[mark:]
        wn, we, pen = t.arrays
        for code, v, old in reversed(entries):
            if code == _KILL:
                t.alive[v] = True
                t.edges += 1
                self._edge(v, pen[v])
            elif code == _PEN:
                assert self.xi.get(v, 0) <= old, "0 <= xi <= penalty where either moved"
                self._edge(v, old - pen[v])
                pen[v] = old
            elif code == _WN:
                if self.touch[v]:
                    self.node_w += old - wn[v]
                wn[v] = old
            else:
                if v in self.F:
                    self.edge_w += old - we[v]
                we[v] = old

    def check_level(self) -> None:
        """The per-level invariants that no single write checks."""
        t = self.t
        assert len(self.xi) == t.edges, "dual values cover exactly the live edges"
        obj = self.objective()
        assert obj == self.total < t.big, f"objective {obj} != dual total {self.total}"

    def check_full(self) -> None:
        """The per-level invariants recomputed from scratch."""
        t, xi = self.t, self.xi
        live = [v for v in range(len(t.alive)) if t.alive[v] and v != t.root]
        assert set(xi) == set(live) and len(live) == t.edges
        assert all(v >= 0 and v <= t.pen[e] for e, v in xi.items())
        obj = t.objective(self.F)
        total = sum(xi.values())
        assert obj == total < t.big, f"objective {obj} != dual total {total}"
        assert obj == self.objective() and total == self.total, "running sums drifted"


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
    count = (e0 in F) + sum(1 for a in ctx.arms if a in F)
    assert count <= 1

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

    xi = lift.xi
    if ctx.branch == "keep":
        for a, cap in zip(ctx.arms, ctx.caps):
            assert xi.get(a, 0) == 0 and cap < lift.t.big
            lift.set_xi(a, cap)
    else:
        assert xi.get(e0, 0) == 0
        for a, val in zip(ctx.arms, _greedy_fill(ctx.caps, ctx.bound)):
            assert a not in xi
            lift.set_xi(a, val)


def _lift_b(ctx: CaseContext, lift: _Lift) -> None:
    F, touch = lift.F, lift.touch
    s, u0, e0 = ctx.center, ctx.parent, ctx.parent_edge
    if e0 is not None:
        # edges of F at u0 or s; e0 joins them and is counted at both ends
        for a in list(reversed(ctx.arms)) + [e0]:
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

    xi = lift.xi
    if ctx.branch == "trim":
        for a in ctx.arms:
            assert xi.get(a, 0) == 0
    elif e0 is not None:
        assert xi.get(e0, 0) == 0
    for a, val in zip(ctx.arms, _greedy_fill(ctx.caps, ctx.bound)):
        lift.set_xi(a, val)
    for h in ctx.grand_edges:
        assert h not in xi
        lift.set_xi(h, 0)


# ---------------------------------------------------------------------------
# base case and driver


def _base_star(t: _LiveTree) -> Tuple[FrozenSet[int], Dict[int, int]]:
    assert t.max_depth() <= 1
    edges = t.live_children(t.root)
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
    measure = t.measure()
    while t.max_depth() > 1:
        marks.append(len(t.log))
        hot = t.deepest_hot()
        ctxs.append(_reduce_a(t, hot) if hot is not None else _reduce_b(t))
        new_measure = t.measure()
        assert new_measure < measure, "reduction measure must strictly decrease"
        measure = new_measure

    lift = _Lift(t, *_base_star(t))
    lift.check_full()
    for ctx, mark in zip(reversed(ctxs), reversed(marks)):
        lift.undo(mark)
        (_lift_a if ctx.tag == "A" else _lift_b)(ctx, lift)
        lift.check_level()
    lift.check_full()

    sol = eds_solution(inst, sorted(lift.F))
    # check_full has just matched lift.total against sum(xi)
    dual = EdsDual(lift.xi, lift.total, inst.scale)
    assert sol.total == dual.total
    return sol, dual, ctxs


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
