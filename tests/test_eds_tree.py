"""Exact tree solver: frozen small cases, case dispatch, and dual reporting."""

import ast
import gc
import hashlib
import inspect
import re
import textwrap
import tracemalloc
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcover import (
    INF,
    EdsInstance,
    InstanceError,
    Rat,
    RootedTree,
    brute_force_eds,
    eds_solution,
    eds_tree_certificate,
    gen_instance,
    parse_instance,
    serialize_certificate,
    serialize_instance,
    solve_eds_tree,
    verify_eds_optimality,
)
from graphcover import cli, eds_tree
from graphcover.eds_tree import solve_eds_tree_trace
from graphcover.rationals import ZERO, is_inf

from _support import rat_weights, two_leaf_star


def _path(weights_nodes, weights_edges, penalties):
    n = len(weights_nodes)
    tree = RootedTree([0] + list(range(n - 1)), 0)
    return EdsInstance(
        tree,
        {v: Rat(w) for v, w in enumerate(weights_nodes)},
        {v: Rat(weights_edges[v - 1]) for v in range(1, n)},
        {v: penalties[v - 1] for v in range(1, n)},
    )


# -- full solver on frozen stars --------------------------------------------


def test_star_penalties_cheaper():
    sol, dual = solve_eds_tree(two_leaf_star(Rat(2), Rat(1)))
    assert sol.edges == ()
    assert sol.total == 3
    assert dual.xi == {1: Rat(2), 2: Rat(1)}
    assert dual.total == 3


def test_star_one_edge_dominates():
    sol, dual = solve_eds_tree(two_leaf_star(Rat(2), Rat(3)))
    assert sol.edges == (1,)
    assert sol.total == 4
    assert dual.total == 4


def test_zero_penalties_mean_empty_solution():
    for seed in range(5):
        inst = gen_instance("random-tree-eds", n=8, seed=seed, pmax=0, inf_prob=0.0)
        sol, dual = solve_eds_tree(inst)
        assert sol.edges == ()
        assert sol.total == 0
        assert all(x == 0 for x in dual.xi.values())


# -- base case: a depth-one star takes no reduction step -------------------


def _base(inst):
    sol, dual, ctxs = solve_eds_tree_trace(inst)
    assert ctxs == []
    return frozenset(sol.edges), dual.xi


def test_base_zero_weight_edge_always_taken():
    tree = RootedTree([0, 0], 0)
    inst = EdsInstance(tree, {0: ZERO, 1: ZERO}, {1: ZERO}, {1: Rat(5)})
    F, xi = _base(inst)
    assert F == frozenset({1})
    assert xi == {1: ZERO}


def test_base_penalties_win():
    F, xi = _base(two_leaf_star(Rat(2), Rat(1)))
    assert F == frozenset()
    assert xi == {1: Rat(2), 2: Rat(1)}


def test_base_infinite_penalty_forces_coverage():
    F, xi = _base(two_leaf_star(INF, ZERO))
    assert F == frozenset({1})  # cheapest star edge
    assert xi == {1: Rat(4), 2: ZERO}  # alpha_1 = w(e1) + w(r), filled front to back


def test_solver_refuses_a_general_graph():
    with pytest.raises(InstanceError, match="the exact solver needs a rooted-tree instance"):
        solve_eds_tree(gen_instance("random-eds-general", n=3, m=2))


# -- deeper reductions ------------------------------------------------------


def test_free_path_costs_nothing():
    inst = _path([0, 0, 0], [0, 0], [ZERO, Rat(5)])
    sol, dual = solve_eds_tree(inst)
    assert sol.total == 0
    assert dual.total == 0
    assert brute_force_eds(inst).total == 0


def test_first_step_case_tags():
    # depth-2 instance with positive penalty on the deep leaf edge: case A
    inst = _path([1, 2, 1], [3, 1], [Rat(2), Rat(4)])
    sol, dual, ctxs = solve_eds_tree_trace(inst)
    assert [ctx.tag for ctx in ctxs] == ["A"]
    assert sol.total == dual.total == brute_force_eds(inst).total

    # zero penalty on every deepest leaf edge routes through case B
    inst_b = _path([1, 1, 1, 1], [1, 1, 1], [Rat(3), Rat(2), ZERO])
    sol, dual, ctxs = solve_eds_tree_trace(inst_b)
    assert ctxs[0].tag == "B"
    assert sol.total == dual.total == brute_force_eds(inst_b).total


def test_trace_branches_cover_every_case():
    seen = set()
    for seed in range(40):
        inst = gen_instance("random-tree-eds", n=12, seed=seed)
        _, _, ctxs = solve_eds_tree_trace(inst)
        seen.update(f"{ctx.tag}-{ctx.branch}" for ctx in ctxs)
    assert seen == {"A-keep", "A-delete", "B-trim", "B-drop"}


def test_caterpillar_heavy_center():
    # center u with weight 10 and two cheap penalty leaves below it
    tree = RootedTree([0, 0, 1, 1], 0)
    inst = EdsInstance(
        tree,
        {0: ZERO, 1: Rat(10), 2: ZERO, 3: ZERO},
        {1: ZERO, 2: ZERO, 3: ZERO},
        {1: ZERO, 2: Rat(1), 3: Rat(1)},
    )
    sol, dual = solve_eds_tree(inst)
    opt = brute_force_eds(inst)
    assert sol.total == opt.total == 2  # paying both penalties beats touching u
    assert dual.total == 2


def test_dual_matches_objective_on_random_trees():
    for seed in range(60):
        inst = gen_instance("random-tree-eds", n=3 + seed % 9, seed=seed)
        sol, dual = solve_eds_tree(inst)
        assert dual.total == sol.total
        penalty = rat_weights(inst)[2]
        for e, x in dual.xi.items():
            assert 0 <= x
            assert x <= penalty[e] or penalty[e] == INF


def test_corrupted_dual_caught_at_its_own_level(monkeypatch):
    """One unit added to an arm's xi after a lift, within the arm's
    penalty so that the write itself passes, fails the driver's
    objective-equals-dual-total check of that level."""
    inst = gen_instance("random-tree-eds", n=40, seed=0)
    levels = len(solve_eds_tree_trace(inst)[2])
    assert levels >= 6
    calls, corrupted = [], []

    def corrupting(lift_fn):
        def lift(ctx, state):
            lift_fn(ctx, state)
            calls.append(ctx)
            room = [e for e in ctx.arms if state.xi[e] < state.t.pen[e]]
            if len(calls) >= levels // 2 and room and not corrupted:
                corrupted.append(len(calls))
                state.set_xi(room[0], state.xi[room[0]] + 1)

        return lift

    monkeypatch.setattr(eds_tree, "_lift_a", corrupting(eds_tree._lift_a))
    monkeypatch.setattr(eds_tree, "_lift_b", corrupting(eds_tree._lift_b))
    with pytest.raises(AssertionError) as caught:
        solve_eds_tree(inst)
    obj, total = re.fullmatch(r"objective (\d+) != dual total (\d+)", str(caught.value)).groups()
    assert int(total) == int(obj) + 1
    assert caught.traceback[-1].name == "solve_eds_tree_trace"
    # the check of the corrupted level fired: no later level was lifted
    assert corrupted == [len(calls)] and len(calls) < levels


def _unclamped(fn):
    """`fn` compiled again with each clamp at zero, `x if ... else 0`,
    replaced by its unclamped value `x`."""

    class Unclamp(ast.NodeTransformer):
        def visit_IfExp(self, node):
            self.generic_visit(node)
            if isinstance(node.orelse, ast.Constant) and node.orelse.value == 0:
                return node.body
            return node

    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    ast.increment_lineno(tree, fn.__code__.co_firstlineno - 1)
    code = compile(Unclamp().visit(tree), fn.__code__.co_filename, "exec")
    namespace = {}
    exec(code, vars(eds_tree), namespace)
    return namespace[fn.__name__]


def test_reduction_checks_fire_at_the_write(monkeypatch):
    """The nonnegativity of written weights and the leaf structure of the
    arms are checked inside the reduction that would break them."""
    seed0, seed1 = (gen_instance("random-tree-eds", n=40, seed=seed) for seed in (0, 1))
    real, unclamped = eds_tree._LiveTree.charge, _unclamped(eds_tree._LiveTree.charge)
    trees, lowest = [], []  # each charge's tree, and its least weight after the charge

    def watched(charge):
        def wrapped(t, *args):
            trees.append(t)
            charge(t, *args)
            lowest.append(min(*t.wn, *t.we))

        return wrapped

    def overcharge(t, pairs, center, bound):
        real(t, pairs, center, bound + 1)

    # a reduction that no longer clamps the weights it writes at zero (the
    # first weight below zero is an edge's on seed 0 and a center's on seed
    # 1), and one that charges a unit more than its least candidate, which
    # leaves that candidate's node below zero
    for fault, inst in ((unclamped, seed0), (unclamped, seed1), (overcharge, seed0)):
        monkeypatch.setattr(eds_tree._LiveTree, "charge", watched(fault))
        with pytest.raises(AssertionError, match="reduced weights stay nonnegative") as caught:
            solve_eds_tree(inst)
        # raised by the write itself: no negative weight was ever stored
        assert caught.traceback[-1].name == "charge"
        assert min(*trees[-1].wn, *trees[-1].we) >= 0 and min(lowest, default=0) >= 0
    monkeypatch.undo()

    def resurrecting(reduce):
        # the first deletion removes the arms from the counts but not the tree
        def wrapped(t, *args):
            ctx = reduce(t, *args)
            if ctx.branch == "delete" and not done:
                done.append(ctx)
                for v in ctx.arms:
                    t.alive[v] = True
            return ctx

        return wrapped

    # the revived arms later stand below an arm of a case-A star on seed 0,
    # and below a grandchild of a case-B center on the 12-node tree of seed 17
    monkeypatch.setattr(eds_tree, "_reduce_a", resurrecting(eds_tree._reduce_a))
    for inst, what in (
        (seed0, "arms of the deepest star are leaves"),
        (gen_instance("random-tree-eds", n=12, seed=17), "grandchildren of s are leaves"),
    ):
        done = []
        with pytest.raises(AssertionError, match=what):
            solve_eds_tree(inst)


def _keep_caps_one_too_high(monkeypatch):
    """Each case-A keep step records its arm caps, the penalties it zeroes
    and that its lift writes as xi, one above those penalties."""
    real = eds_tree._reduce_a

    def reduce_a(t, leaf_edge):
        ctx = real(t, leaf_edge)
        if ctx.branch != "keep":
            return ctx
        return ctx._replace(caps=tuple(cap + 1 for cap in ctx.caps))

    monkeypatch.setattr(eds_tree, "_reduce_a", reduce_a)


def _first_zeroed_penalty_logged_negative(monkeypatch):
    """The first penalty a reduction zeroes is logged as -1, below any xi,
    so the undo of its step restores -1."""
    real, done = eds_tree._LiveTree.zero_penalty, []

    def zero_penalty(t, v):
        real(t, v)
        if not done:
            done.append(v)
            t.log[-1] = (t.log[-1][0], v, -1)

    monkeypatch.setattr(eds_tree._LiveTree, "zero_penalty", zero_penalty)


@pytest.mark.parametrize("fault, frames", [
    (_keep_caps_one_too_high, ["_lift_a", "write_xi"]),
    (_first_zeroed_penalty_logged_negative, ["solve_eds_tree_trace", "undo"]),
], ids=["set_xi", "undo"])
def test_xi_and_penalty_bounds_caught_at_the_write(monkeypatch, fault, frames):
    """0 <= xi <= penalty is checked by the write that moves either side:
    an xi above its edge's penalty fails in the `write_xi` of the lift that
    writes it, and a penalty restored below its edge's xi fails in `undo`
    at that restore."""
    inst = gen_instance("random-tree-eds", n=40, seed=1)
    fault(monkeypatch)
    with pytest.raises(AssertionError) as caught:
        solve_eds_tree(inst)
    assert str(caught.value) == "0 <= xi <= penalty where either moved"
    assert [entry.name for entry in caught.traceback[-2:]] == frames


def _depth_one_leaf_for_case_a(monkeypatch):
    """The first case-A step is handed a live edge at the root instead of
    its deepest leaf edge."""
    real = eds_tree._reduce_a

    def reduce_a(t, leaf_edge):
        return real(t, next(v for v in t.children[t.root] if t.alive[v]))

    monkeypatch.setattr(eds_tree, "_reduce_a", reduce_a)


def _first_reduction_removes_nothing(monkeypatch):
    """The first reduction still charges its weights but deletes no node
    and zeroes no penalty, so the termination measure stays where it was.
    Later reductions run as written, so a solve without the check ends."""
    steps = []
    for name in ("_reduce_a", "_reduce_b"):
        def reduce(t, leaf, real=getattr(eds_tree, name)):
            ctx = real(t, leaf)
            steps.append(ctx)
            return ctx

        monkeypatch.setattr(eds_tree, name, reduce)
    for name in ("kill", "zero_penalty"):
        def skip_first(t, arg, real=getattr(eds_tree._LiveTree, name)):
            if steps:
                real(t, arg)

        monkeypatch.setattr(eds_tree._LiveTree, name, skip_first)


def _case_b_bound_above_its_caps(monkeypatch):
    """Each case-B step records a charge one above the sum of its arm caps,
    more dual than the caps can take."""
    real = eds_tree._reduce_b

    def reduce_b(t, leaf):
        ctx = real(t, leaf)
        return ctx._replace(bound=sum(ctx.caps) + 1)

    monkeypatch.setattr(eds_tree, "_reduce_b", reduce_b)


def _two_star_edges_chosen(monkeypatch):
    """Before the first case-A lift, F gains the star's parent edge and its
    first arm."""
    real = eds_tree._lift_a

    def lift_a(ctx, lift):
        if ctx.parent_edge not in lift.F:
            lift.add(ctx.parent_edge)
            lift.add(ctx.arms[0])
        real(ctx, lift)

    monkeypatch.setattr(eds_tree, "_lift_a", lift_a)


def _dual_on_deleted_edges_before_their_lift(tag):
    """Just before the first lift of a case-`tag` step that deletes edges
    (case A's arms, case B's grandchildren), one of them is given xi 0."""

    def fault(monkeypatch):
        name = f"_lift_{tag.lower()}"
        real, done = getattr(eds_tree, name), []

        def lift(ctx, state):
            deleted = ctx.arms if ctx.branch == "delete" else ctx.grand_edges
            if deleted and not done:
                done.append(ctx)
                state.set_xi(deleted[0], 0)
            real(ctx, state)

        monkeypatch.setattr(eds_tree, name, lift)

    return fault


def _undo_miscounts_live_edges(monkeypatch):
    """The first undo restores every entry but counts one live edge less."""
    real, done = eds_tree._Lift.undo, []

    def undo(lift, mark):
        real(lift, mark)
        if not done:
            done.append(mark)
            lift.t.edges -= 1

    monkeypatch.setattr(eds_tree._Lift, "undo", undo)


def _dead_edge_keyed_and_counted_at_the_base(monkeypatch):
    """The base dual gains a zero on a dead edge, and the live-edge count
    counts it, so the count and the dual total still agree."""
    real = eds_tree._base_star

    def base_star(t):
        F, xi = real(t)
        t.edges += 1
        return F, {**xi, t.alive.index(False): 0}

    monkeypatch.setattr(eds_tree, "_base_star", base_star)


@pytest.mark.parametrize("fault, message, frames", [
    (_depth_one_leaf_for_case_a, "the deepest leaf has depth above one",
     ["reduce_a", "_reduce_a"]),
    (_first_reduction_removes_nothing, "reduction measure must strictly decrease",
     ["solve_eds_tree", "solve_eds_tree_trace"]),
    (_case_b_bound_above_its_caps, "caps cannot absorb the required dual total",
     ["_lift_b", "_greedy_fill"]),
    (_two_star_edges_chosen, "F holds at most one edge of the star", ["lift_a", "_lift_a"]),
    (_dual_on_deleted_edges_before_their_lift("A"), "the step's deleted edges carry no dual yet",
     ["lift", "_lift_a"]),
    (_dual_on_deleted_edges_before_their_lift("B"), "the step's deleted edges carry no dual yet",
     ["lift", "_lift_b"]),
    (_undo_miscounts_live_edges, "dual values cover exactly the live edges",
     ["solve_eds_tree", "solve_eds_tree_trace"]),
    (_dead_edge_keyed_and_counted_at_the_base, "xi is keyed by the live edges",
     ["solve_eds_tree_trace", "check_full"]),
], ids=[
    "leaf-depth", "measure", "greedy-fill", "star-edges", "deleted-arms", "deleted-grandchildren",
    "live-count", "xi-keys",
])
def test_solver_checks_fire_at_their_step(monkeypatch, fault, message, frames):
    """Each of these checks fires, with its message, in the step that a
    fault breaking exactly its invariant reaches first."""
    inst = gen_instance("random-tree-eds", n=40, seed=0)
    fault(monkeypatch)
    with pytest.raises(AssertionError) as caught:
        solve_eds_tree(inst)
    assert str(caught.value) == message
    assert [entry.name for entry in caught.traceback[-2:]] == frames


def test_running_sums_checked_part_by_part_at_the_top(monkeypatch):
    """A unit moved from the running node weight to the running uncovered
    penalty leaves the objective equal to the dual total, so every level's
    check passes; the top level's from-scratch pricing, part by part,
    catches it."""
    inst = gen_instance("random-tree-eds", n=40, seed=0)
    levels = len(solve_eds_tree_trace(inst)[2])
    lifts, full_checks = [], []

    def moving(lift_fn):
        def lift(ctx, state):
            lift_fn(ctx, state)
            lifts.append(ctx)
            if len(lifts) == levels:  # the top level: one unit changes parts
                state.node_w -= 1
                state.pen += 1

        return lift

    def check_full(lift, real=eds_tree._Lift.check_full):
        full_checks.append(lift)
        real(lift)

    monkeypatch.setattr(eds_tree, "_lift_a", moving(eds_tree._lift_a))
    monkeypatch.setattr(eds_tree, "_lift_b", moving(eds_tree._lift_b))
    monkeypatch.setattr(eds_tree._Lift, "check_full", check_full)
    with pytest.raises(AssertionError) as caught:
        solve_eds_tree(inst)
    assert str(caught.value) == "running sums drifted"
    assert caught.traceback[-1].name == "check_full"
    assert len(full_checks) == 2  # the base passed; the top level failed


def test_trace_records_hold_nothing_the_collector_tracks():
    """Each record is one named tuple of ints, strings and tuples of ints.
    CPython's collector untracks exact tuples only, so the record itself
    stays tracked, but nothing it holds is walked again."""
    inst = parse_instance(_deep_tree_text(2000))
    _, _, ctxs = solve_eds_tree_trace(inst)
    gc.collect()
    assert len(ctxs) > 500
    assert all(isinstance(ctx, tuple) for ctx in ctxs)
    assert not any(gc.is_tracked(field) for ctx in ctxs for field in ctx)


def test_undo_log_entries_are_untracked_at_the_base(monkeypatch):
    """The undo log is flat: after a collection no entry of it is tracked,
    so later collections never walk it (module docstring).  Checked where
    the log is longest, when the reductions are done."""
    real, seen = eds_tree._base_star, []

    def base_star(t):
        gc.collect()
        assert len(t.log) > 1000
        assert not any(gc.is_tracked(entry) for entry in t.log)
        seen.append(len(t.log))
        return real(t)

    monkeypatch.setattr(eds_tree, "_base_star", base_star)
    solve_eds_tree(parse_instance(_deep_tree_text(2000)))
    assert len(seen) == 1


def _trace_corpus():
    yield parse_instance(_deep_tree_text(2000))
    for inf_prob in (0.25, 1.0):
        for n in (250, 500, 1000):
            for seed in range(3):
                yield gen_instance("random-tree-eds", n=n, seed=seed, inf_prob=inf_prob)
    yield _fractional(250, 0)
    yield _fractional(60, 2)


# sha256 over the corpus of each solve's steps, edges and dual units
TRACE_DIGEST = "0cbe6f1d457e6c54b8cb34adcad46db89b5570173a45fbb607896a7021a2c444"


def test_reduction_trace_is_pinned():
    """Every step the solver takes, in order, with the context it records,
    and the edges and dual units it returns, on trees where every case and
    branch occurs many times."""
    digest = hashlib.sha256()
    for inst in _trace_corpus():
        sol, dual, ctxs = solve_eds_tree_trace(inst)
        digest.update(repr((ctxs, sol.edges, sorted(dual.units.items()))).encode())
    assert digest.hexdigest() == TRACE_DIGEST


def test_memory_is_linear_on_a_deep_tree():
    inst = parse_instance(_deep_tree_text(5000))
    tracemalloc.start()
    try:
        sol, dual, ctxs = solve_eds_tree_trace(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ctxs) > 1000
    assert sol.total == dual.total
    assert peak < 50 * 2**20


def test_solver_arithmetic_stays_on_ints(monkeypatch):
    """Weights, duals and running sums are ints at both full checks: INF
    penalties enter the solver as the finite bound `big`, and one Rat
    constant in the solver would turn its sums back into Rats."""
    checked = []
    check_full = eds_tree._Lift.check_full

    def guarded(lift):
        t = lift.t
        running = [lift.edge_w, lift.node_w, lift.pen, lift.total, *lift.open_pen]
        for name, values in [
            ("wn", t.wn), ("we", t.we), ("pen", t.pen),
            ("xi", list(lift.xi.values())), ("running sums", running),
        ]:
            bad = [x for x in values if type(x) is not int]
            assert not bad, f"{name} holds {bad[:3]}"
        checked.append(name)
        check_full(lift)

    monkeypatch.setattr(eds_tree._Lift, "check_full", guarded)
    for inst in (
        _fractional(60, 0),
        gen_instance("random-tree-eds", n=60, seed=0),
        parse_instance(_deep_tree_text(300)),
    ):
        solve_eds_tree(inst)
    assert len(checked) == 6  # the base and the top level of each solve


# -- properties on small trees ----------------------------------------------

_WEIGHTS = st.sampled_from([Rat(0), Rat(0), Rat(1), Rat(2), Rat(3), Rat(7, 2)])
# Rat(10**6) lies above any weight total, as INF does, but is finite: the
# solver's finite stand-in for INF must still compare above it.
_PENALTIES = st.sampled_from(
    [ZERO, ZERO, Rat(1), Rat(2), Rat(5), Rat(9, 2), Rat(10**6), INF, INF]
)


@st.composite
def small_trees(draw):
    n = draw(st.integers(1, 13))  # at most 12 edges
    parent = [0] + [draw(st.integers(0, v - 1)) for v in range(1, n)]
    tree = RootedTree(parent, 0)
    return EdsInstance(
        tree,
        {v: draw(_WEIGHTS) for v in range(n)},
        {e: draw(_WEIGHTS) for e in tree.edge_ids()},
        {e: draw(_PENALTIES) for e in tree.edge_ids()},
    )


@settings(max_examples=150, deadline=None, database=None)
@given(small_trees())
def test_solver_matches_brute_force(inst):
    sol, dual = solve_eds_tree(inst)
    assert sol.total == dual.total == brute_force_eds(inst).total
    assert dual.total == sum(dual.xi.values(), ZERO)
    # built from the solver's checked running sums, the answer is priced
    # as pricing its edges from the instance prices it, field by field
    assert sol == eds_solution(inst, sol.edges)


@settings(max_examples=100, deadline=None, database=None)
@given(small_trees(), st.randoms(use_true_random=False))
def test_relabelling_preserves_the_optimum(inst, rnd):
    tree = inst.graph
    perm = list(range(tree.n))
    rnd.shuffle(perm)
    parent = [0] * tree.n
    for v in range(tree.n):
        parent[perm[v]] = perm[tree.parent[v]]
    node_weight, edge_weight, penalty = rat_weights(inst)
    relabelled = EdsInstance(
        RootedTree(parent, perm[tree.root]),
        {perm[v]: w for v, w in node_weight.items()},
        {perm[e]: w for e, w in edge_weight.items()},
        {perm[e]: p for e, p in penalty.items()},
    )
    assert solve_eds_tree(relabelled)[0].total == solve_eds_tree(inst)[0].total


# -- optimality report ------------------------------------------------------


def test_verify_accepts_solver_output():
    inst = gen_instance("random-tree-eds", n=8, seed=3)
    sol, dual = solve_eds_tree(inst)
    report = verify_eds_optimality(inst, sol, dual.xi)
    assert report.passed, report.format()


def test_verify_rejects_overcharged_dual():
    inst = two_leaf_star(Rat(2), Rat(1))
    sol, dual = solve_eds_tree(inst)
    bad = dict(dual.xi)
    bad[1] = bad[1] + 1  # pushes the dual total past the optimum
    report = verify_eds_optimality(inst, sol, bad)
    assert not report.passed


def test_verify_zero_instance():
    tree = RootedTree([0, 0], 0)
    inst = EdsInstance(tree, {0: ZERO, 1: ZERO}, {1: ZERO}, {1: ZERO})
    sol, dual = solve_eds_tree(inst)
    report = verify_eds_optimality(inst, sol, dual.xi)
    assert report.passed


# -- pinned outputs ---------------------------------------------------------


def _deep_tree_text(n):
    """A deep, narrow eds-tree: node v hangs off one of the three nodes made
    just before it, so the depth grows like n / 2."""
    lines = ["problem eds-tree", f"nodes {n}", "root 0"]
    lines += [f"node {v} {v * 37 % 11}" for v in range(n)]
    for v in range(1, n):
        pen = "inf" if v % 4 == 1 else str(v * 13 % 11)
        lines.append(f"edge {max(0, v - 1 - v * 7 % 3)} {v} {v * 5 % 11} {pen}")
    return "\n".join(lines) + "\n"


# sha256 of (`solve --certificate` stdout, certificate bytes).  The n=40
# seed 4 instance is the one whose dual `verify` cannot complete; its output
# is pinned as it is.
GOLDEN = {
    "random-n7-s0": (
        "da0e71f81bee220dff66d84c6bbeb2855066ab550e4804c6f07220b355af784a",
        "bfb87b943bdcbc91b7c699c03f3619bf7b072661f109fc106b79a62cc113681e",
    ),
    "random-n7-s1": (
        "6ff405289e54cbf9b9e0e81d8539bb2a0e1d2ee652ace5fbe88513fa453388f4",
        "6a6b586394bf5b632c2fdfd26136618d934833dabf176c38279aba86c9f12554",
    ),
    "random-n7-s2": (
        "cfed4856e560a467ffa928aff9da269fbcb7164e7346f0c46f3c3db80331fd1d",
        "18dbf0cd18e4e8db3fc2986b3834ee131a7edfd126c815b6ab3acc4b46ffbdcb",
    ),
    "random-n7-s3": (
        "fe59bff4768e64206917b155819b73e73c89d091d9ef171877f88eb4d00f8598",
        "aa03fa0ff12b522fb9429be8e6ac7a7a099b95c4776bd6fdb4e97050d950662f",
    ),
    "random-n40-s0": (
        "8bbe6345cab589bd4042480ad82031c214485b0883b6732a2fcb771370ef1d99",
        "75e8d00a61d0f780a54b3d6b84fd79f663988a02f81428de1ff1a4798ff9ada9",
    ),
    "random-n40-s1": (
        "c200883f6a4bf1f3f9a7bd5b915dd520ddc3788e83f0b2a5c637eb76969c1a51",
        "5fb88ce379cd8b63bd568527b4c211f3bb75822e3c62800231bb13dccf65c4ee",
    ),
    "random-n40-s4": (
        "890d66eca53664ebf9de58cbbe4448ec0447f98563d929059159d5eef3a56856",
        "01f2547d40f2aaedafe0f4cab55acd5d998846add3f53580a570b02afe30f0e7",
    ),
    "random-n60-s0": (
        "6ffe4bff271e9088558d7d8e953b91a9c2a205fb59d2440703275a1a188e0422",
        "e6604297d23b6eb27ae9654075a7395445835b43df2373354f038aa7464f4659",
    ),
    "random-n60-s1": (
        "c86be3b9725f2e424aabfc9817b1571bcabb05f018fbf3cdab88c3ecd1457a8f",
        "ac5ad5049c631454bb2b64d7b8787fdb158c7067f376771f3a01e91d01c54642",
    ),
    "random-n60-s2": (
        "2a52c2b709771510a6ff31b2de2e67d128b058cd04d70a6bcc1c8a04bb7d5dc0",
        "cfd00f3e56a88495c3ba1d9495dae773ebb3f948f048f10a78f5f8ef5fb0ed51",
    ),
    "random-n250-s1": (
        "80616b79c2cbbbaec497baa313b1ae91428133f28713c5c34bdc43c7fc53be07",
        "8a764715a562cad2a59ac58934aa4450a32a204ff2bb6a236bea07954341bbfa",
    ),
    "random-n250-s2": (
        "aa1c12a5208e09d24743ff53a36dc4e7736711db187f0ecf78e942461b6e73fe",
        "3d51bf3be46bdd1b79c37e89c091e61f4debf1aa3f6a9bff1c3912c30173bb88",
    ),
    "deep-300": (
        "4db02e76d8c55a709ac43681c8874dcdd9230f0dd8e75d88e5e211ce015a9406",
        "2dadf11f710fb9812b6abae6acface1582c79ff0330393f3925320c15568780b",
    ),
}


def _golden_digests(name, tmp_path, capsys):
    inst = tmp_path / "inst.eds"
    if name.startswith("deep-"):
        inst.write_text(_deep_tree_text(int(name.split("-")[1])))
    else:
        n, seed = (part[1:] for part in name.split("-")[1:])
        argv = ["gen", "random-tree-eds", "--n", n, "--seed", seed, "-o", str(inst)]
        assert cli.run(argv) == 0
    cert = tmp_path / "out.cert"
    capsys.readouterr()
    assert cli.run(["solve", str(inst), "--certificate", str(cert)]) == 0
    stdout = capsys.readouterr().out.encode()
    return (hashlib.sha256(stdout).hexdigest(), hashlib.sha256(cert.read_bytes()).hexdigest())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_solve_outputs_are_pinned(name, tmp_path, capsys):
    assert _golden_digests(name, tmp_path, capsys) == GOLDEN[name]


# -- fractional weights ------------------------------------------------------


def _fractional(n, seed):
    """`random-tree-eds --n N --seed S` with every finite weight and penalty
    redrawn as p/q, q from 2 to 9, so the denominators are mixed; the
    infinite penalties stay."""
    inst = gen_instance("random-tree-eds", n=n, seed=seed)
    rng = Random(seed)

    def frac(value):
        if is_inf(value):
            return value
        q = rng.randint(2, 9)
        return Rat(rng.randint(0, 10 * q), q)

    node_weight, edge_weight, penalty = rat_weights(inst)
    return EdsInstance(
        inst.graph,
        {v: frac(w) for v, w in sorted(node_weight.items())},
        {e: frac(w) for e, w in sorted(edge_weight.items())},
        {e: frac(p) for e, p in sorted(penalty.items())},
    )


# sha256 of (`solve --certificate` stdout, certificate bytes) on `_fractional`.
GOLDEN_FRACTIONAL = {
    "fractional-n7-s0": (
        "0db484324e7e433533a7431b2ddd85025580f7c0648a3046c454a11b7a7b2009",
        "8de79cc502fe16b762a9595fefcd56662ba90727f8df307418ec8e7a943e4b19",
    ),
    "fractional-n7-s1": (
        "4edba8b320bd99181635ed59069c59839fa33b7d157f7c3c7816ab8e9f2dc23f",
        "e2eb31f2d6b94ff94fe80967d5b9c306c9587288b4e52070966de034b9beafe2",
    ),
    "fractional-n7-s2": (
        "255216727236a7294211d62c2259adb3f017cc3f639cc70d0e2b09b1c2f4aa71",
        "8fa2cec893a46695e0f0427b96e9ce9604070e68c0801ab8941cdeaca9d51913",
    ),
    "fractional-n10-s0": (
        "19b3f54cc3195a6cebabbc4da3653b8918ec75869c7a9f95ebff25de1c727296",
        "5911a4d7bd442f3dabfc7b42d0e9895ffdcda3ad2787f5abcd34a2b0345bcfce",
    ),
    "fractional-n10-s1": (
        "d58649199f6cc41ce33e69ca251efed3f56889332ba78c4042946365c7c8b342",
        "f16872c4f1fa50e0762a062f52e20312f32858eab9603833a8c99a0062495049",
    ),
    "fractional-n10-s2": (
        "d9dd4f29b0c792ae39a69596e7fb88c02b582e67186c63707bbc43f8be7e48cb",
        "40966572bd6d300db70348c1cbcfe7f67cbb9187879401d98b7cb980bce4734c",
    ),
    "fractional-n60-s0": (
        "6c5df066adbf5241eb7db840ae6de9becbc4b6de722fcb6df569341613fa6f1e",
        "2af85dd71a11948576fd1b2b081900ec4db9c0cda498360737f97723d460593a",
    ),
    "fractional-n60-s1": (
        "485aecaf85911a8581b26e4ccee302ffb72d1bffac8ded2e11ca9d04048eff5a",
        "c88c752319ffec0bf5e18218c86993c8f9df3df86bb85a4072f9f156f9fede58",
    ),
    "fractional-n60-s2": (
        "0277c26d6783a8c9086600e7d8c6f3ebf891a024888830a886bdac40c28d8613",
        "957ba8fdaddf053f31f82d0736b50d735cb975e8111a4182f0fb928ed6b538bf",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_FRACTIONAL))
def test_fractional_solve_outputs_are_pinned(name, tmp_path, capsys):
    n, seed = (int(part[1:]) for part in name.split("-")[1:])
    inst = tmp_path / "inst.eds"
    inst.write_text(serialize_instance(_fractional(n, seed)))
    cert = tmp_path / "out.cert"
    capsys.readouterr()
    assert cli.run(["solve", str(inst), "--certificate", str(cert)]) == 0
    stdout = capsys.readouterr().out.encode()
    got = (hashlib.sha256(stdout).hexdigest(), hashlib.sha256(cert.read_bytes()).hexdigest())
    assert got == GOLDEN_FRACTIONAL[name]


def test_fractional_instances_mix_denominators_and_infinite_penalties():
    values = [
        x
        for n in (7, 10, 60)
        for inst in [_fractional(n, 0)]
        for x in [value for column in rat_weights(inst) for value in column.values()]
    ]
    assert any(is_inf(x) for x in values)
    assert {x.denominator for x in values if not is_inf(x)} >= {2, 3, 5, 7}


_FRACTIONS = st.builds(Rat, st.integers(0, 12), st.integers(2, 9))


@st.composite
def fractional_trees(draw):
    n = draw(st.integers(1, 13))  # at most 12 edges
    parent = [0] + [draw(st.integers(0, v - 1)) for v in range(1, n)]
    tree = RootedTree(parent, 0)
    weights = st.one_of(_WEIGHTS, _FRACTIONS)
    penalties = st.one_of(_PENALTIES, _FRACTIONS)
    return EdsInstance(
        tree,
        {v: draw(weights) for v in range(n)},
        {e: draw(weights) for e in tree.edge_ids()},
        {e: draw(penalties) for e in tree.edge_ids()},
    )


@settings(max_examples=100, deadline=None, database=None)
@given(fractional_trees(), st.builds(Rat, st.integers(1, 30), st.integers(1, 9)))
def test_scaling_every_weight_scales_the_dual(inst, k):
    sol, dual = solve_eds_tree(inst)
    assert sol.total == dual.total == brute_force_eds(inst).total
    assert sol == eds_solution(inst, sol.edges)
    node_weight, edge_weight, penalty = rat_weights(inst)
    scaled = EdsInstance(
        inst.graph,
        {v: w * k for v, w in node_weight.items()},
        {e: w * k for e, w in edge_weight.items()},
        {e: p if is_inf(p) else p * k for e, p in penalty.items()},
    )
    sol_k, dual_k = solve_eds_tree(scaled)
    assert sol_k.edges == sol.edges
    assert dual_k.xi == {e: x * k for e, x in dual.xi.items()}
    assert dual_k.total == dual.total * k == sum(dual_k.xi.values(), ZERO)


# -- the dual in units ---------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda: gen_instance("random-tree-eds", n=60, seed=1),
    lambda: parse_instance(_deep_tree_text(300)),
    lambda: _fractional(60, 1),
    lambda: _fractional(250, 2),
])
def test_certificate_from_units_has_the_bytes_of_the_rationals(make):
    """`solve` writes the eds-tree certificate from the dual's integer units:
    the ints themselves on integer data, and ``Rat(unit, scale)`` with a
    scale above 1.  Either way the bytes are those of the rational dual,
    and an int in ``xi`` prints as the equal Rat does."""
    inst = make()
    sol, dual = solve_eds_tree(inst)
    assert sorted(dual.xi) == sorted(inst.graph.edge_ids())
    assert all(type(x) is Rat for x in dual.xi.values())
    assert dual.xi == {e: Rat(u, inst.scale) for e, u in dual.units.items()}
    assert dual.total == Rat(dual.total_units, inst.scale) == sum(dual.xi.values(), ZERO)
    text = serialize_certificate(eds_tree_certificate(inst, sol, dual.xi))
    integral = {e: int(x) if x.denominator == 1 else x for e, x in dual.xi.items()}
    assert serialize_certificate(eds_tree_certificate(inst, sol, integral)) == text
    _, cert, _ = cli._solve_eds_tree(inst)
    assert serialize_certificate(cert) == text
    assert all(type(x) is (int if inst.scale == 1 else Rat) for x in cert.xi.values())
