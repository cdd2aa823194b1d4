"""Primal-dual tree multicut: reduction gadgets, frozen runs, verification."""

import functools
import hashlib
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcover import (
    INF,
    Demand,
    InstanceError,
    MulticutInstance,
    Rat,
    RootedTree,
    brute_force_multicut,
    gen_instance,
    multicut_solution,
    solve_multicut_tree,
)
from graphcover import lp, multicut_tree
from graphcover.lp import LpModel
from graphcover.multicut_tree import (
    IncreaseState,
    _load,
    _over_common_denominator,
    big_m_edges,
    deletion_phase,
    dual_violation,
    increase_iteration,
    kept_solution,
    reduce_prize_collecting,
    run_increase_phase,
    run_multicut_pipeline,
    verify_multicut,
)
from graphcover.rationals import ONE, ZERO, fmt_rat, is_inf

from _support import path_nodes, rat_weights, small_multicuts, star_multicut


@pytest.mark.parametrize("make,message", [
    (lambda: reduce_prize_collecting(gen_instance("star-gap-eds", n=2)),
     "prize-collecting reduction needs a multicut instance"),
    (lambda: IncreaseState(gen_instance("star-gap-eds", n=2)),
     "increase phase needs a multicut instance"),
    (lambda: run_multicut_pipeline(gen_instance("star-gap-eds", n=2)),
     "the multicut solver needs a multicut tree instance"),
    (lambda: IncreaseState(star_multicut(1, 2, Rat(3))),
     "increase phase needs all demand penalties infinite; "
     "apply the prize-collecting reduction first"),
], ids=["reduce", "increase", "pipeline", "finite-penalty"])
def test_entry_guards_have_their_messages(make, message):
    with pytest.raises(InstanceError) as err:
        make()
    assert str(err.value) == message


# -- penalty compilation ----------------------------------------------------


def test_reduction_is_noop_without_finite_penalties():
    inst = star_multicut(1, 2, INF)
    inst0, mapping = reduce_prize_collecting(inst)
    assert inst0 == inst
    assert mapping == {}


def _finite_values(inst):
    """Every finite node weight, edge weight and demand penalty."""
    node_weight, edge_weight, _ = rat_weights(inst)
    values = [*node_weight.values(), *edge_weight.values()]
    return [w for w in values + [d.penalty for d in inst.demands] if not is_inf(w)]


#: A star with an integer penalty, and a deeper tree whose weights and
#: penalties have mixed denominators, one of them held by a penalty alone.
_GADGET_CASES = [
    star_multicut(1, 2, Rat(5)),
    MulticutInstance(
        RootedTree([0, 0, 0, 1], 0),
        {0: Rat(1, 2), 1: ZERO, 2: Rat(1, 3), 3: Rat(2)},
        {1: Rat(3, 4), 2: Rat(2), 3: Rat(1, 6)},
        [Demand(3, 2, Rat(5, 4)), Demand(1, 2, INF), Demand(2, 3, Rat(7, 10))],
    ),
]


def test_reduction_adds_detour_gadget():
    for inst in _GADGET_CASES:
        _check_detour_gadget(inst)


def _check_detour_gadget(inst):
    inst0, mapping = reduce_prize_collecting(inst)
    finite = [i for i, d in enumerate(inst.demands) if not is_inf(d.penalty)]
    assert inst0.tree.n == inst.tree.n + 2 * len(finite)
    assert len(inst0.tree.edge_ids()) == len(inst.tree.edge_ids()) + 2 * len(finite)
    assert all(is_inf(d.penalty) for d in inst0.demands)
    assert sorted(mapping) == finite
    guards = big_m_edges(inst0, mapping)
    assert len(guards) == len(finite)
    big_m = 1 + sum(_finite_values(inst))
    for i, pay_edge in mapping.items():
        # the rerouted demand starts at the new far node and keeps its target
        d0 = inst0.demands[i]
        assert d0.t == inst.demands[i].t
        assert d0.s == pay_edge >= inst.tree.n
        # one gadget edge carries the old penalty, the guard edge is never worth cutting
        assert rat_weights(inst0)[1][pay_edge] == inst.demands[i].penalty
        guard = inst0.tree.parent[pay_edge]
        assert guard in guards and inst0.tree.parent[guard] == inst.demands[i].s
        assert rat_weights(inst0)[1][guard] == big_m
    # the compiled values clear the same least denominator as the source's
    def scale(x):
        return math.lcm(*(w.denominator for w in _finite_values(x)))

    assert inst0.scale == inst.scale == scale(inst0) == scale(inst)


def test_gadget_cut_means_paying_the_penalty():
    # cutting is expensive, the penalty is cheap: the solver pays it
    inst = star_multicut(10, 20, Rat(1))
    sol, dual, ratio = solve_multicut_tree(inst)
    assert sol.edges == ()
    assert sol.penalty == 1
    assert sol.total == 1


# -- frozen runs ------------------------------------------------------------


def test_two_leaf_star_cuts_cheap_edge():
    sol, dual, ratio = solve_multicut_tree(star_multicut(1, 2, INF))
    assert sol.edges == (1,)
    assert sol.total == 1
    assert dual.total == 1
    assert ratio == 1


def test_subdivided_star_within_factor_two():
    inst = gen_instance("subdivided-star-multicut", n=4)
    sol, dual, ratio = solve_multicut_tree(inst)
    assert sol.total >= 3  # the exact optimum
    assert sol.total <= 2 * dual.total


def test_zero_weight_instance_is_free():
    tree = RootedTree([0, 0, 0], 0)
    inst = MulticutInstance(
        tree,
        {v: ZERO for v in range(3)},
        {1: ZERO, 2: ZERO},
        [Demand(1, 2, INF)],
    )
    sol, dual, ratio = solve_multicut_tree(inst)
    assert sol.total == 0
    assert dual.total == 0
    assert ratio == 1


# -- increase phase internals ------------------------------------------------


def test_first_iteration_saturates_cheap_edge():
    inst0, _ = reduce_prize_collecting(star_multicut(1, 2, INF))
    state = increase_iteration(IncreaseState(inst0), 0)
    assert state.dual.xi[0] == 1
    assert state.dual.nu[(1, 0)] == 1  # the cheap edge is saturated
    assert list(state.F) == [1]
    assert state.witness[0] == 1


def test_single_demand_everything_nonrelaxable():
    inst0, _ = reduce_prize_collecting(star_multicut(1, 2, INF))
    state = increase_iteration(IncreaseState(inst0), 0)
    # with one demand no earlier mu mass exists, so no node is relaxable
    nonrelax = state.snapshot().nonrelax
    assert {v for v in path_nodes(inst0, 0) if (v, 0) not in nonrelax} == set()


def test_deletion_keeps_single_witness():
    inst0, _ = reduce_prize_collecting(star_multicut(3, 2, INF))
    state = run_increase_phase(IncreaseState(inst0))
    kept = deletion_phase(state)
    assert kept == frozenset({state.witness[0]})


# -- incremental increase-phase state ----------------------------------------


def _edges_at(inst, j, v):
    """Demand j's path edges at node v, ascending, read from the path."""
    parent = inst.tree.parent
    return sorted(f for f in inst.path_edges(j) if v in (parent[f], f))


def _reference_limit(state, bottleneck):
    """Each node's non-relaxable limit, the least fixed point from scratch:
    every pointer starts at its node's first holder and moves on, in
    sweeps, while that holder is pinned, until no pointer moves."""
    pos, end, holders = state.position, len(state.order), state.holders
    first = dict.fromkeys(holders, 0)

    def limit(u):
        seq = holders.get(u, ())
        return pos[seq[first[u]]] if seq and first[u] < len(seq) else end

    moved = True
    while moved:
        moved = False
        for v, seq in holders.items():
            if first[v] < len(seq):
                j = seq[first[v]]
                if any(
                    (f, j) in bottleneck and pos[j] <= limit(state.far_end(f, v))
                    for f in _edges_at(state.instance, j, v)
                ):
                    first[v] += 1
                    moved = True
    return {v: limit(v) for v in holders if limit(v) < end}


def _reference_classification(state):
    """The classification rebuilt from scratch: tight rows, saturated
    capacities, bottleneck rows, the non-relaxable pairs by repeated
    sweeps with targets found by scanning every earlier demand, and each
    node's limit."""
    inst = state.instance
    parent = inst.tree.parent
    k = len(inst.demands)
    nu_sum = {e: ZERO for e in inst.tree.edge_ids()}
    mu_sum = {v: ZERO for v in range(inst.tree.n)}
    for (e, _), val in state.nu.items():
        nu_sum[e] += val
    for (v, _), val in state.mu.items():
        mu_sum[v] += val
    node_weight, edge_weight, _ = rat_weights(inst)
    sat_edge = {e for e in nu_sum if nu_sum[e] == edge_weight[e]}
    sat_node = {v for v in mu_sum if mu_sum[v] == node_weight[v]}
    tight = set()
    for d in range(k):
        for e in state.path_edges[d]:
            lhs = (
                state.nu.get((e, d), ZERO)
                + state.mu.get((parent[e], d), ZERO)
                + state.mu.get((e, d), ZERO)
            )
            if lhs == state.xi.get(d, ZERO):
                tight.add((e, d))
    bottleneck = {
        (e, d)
        for (e, d) in tight
        if e in sat_edge and parent[e] in sat_node and e in sat_node
    }

    def targets(d, v):
        earlier = state.order[: state.position[d]]
        return [j for j in earlier if state.mu.get((v, j), ZERO) > 0]

    nonrelax = set()
    pairs = [(v, d) for d in range(k) for v in path_nodes(inst, d)]
    changed = True
    while changed:
        changed = False
        for v, d in pairs:
            if (v, d) in nonrelax:
                continue
            if all(
                any(
                    (f, j) in bottleneck and (state.far_end(f, v), j) in nonrelax
                    for f in _edges_at(inst, j, v)
                )
                for j in targets(d, v)
            ):
                nonrelax.add((v, d))
                changed = True
    limit = _reference_limit(state, bottleneck)
    return tight, sat_edge, sat_node, bottleneck, nonrelax, limit


def _rows(state, test):
    """The path rows (e, d) of every demand that pass ``test(e, d)``."""
    inst = state.instance
    return {(e, d) for d in range(len(inst.demands)) for e in inst.path_edges(d) if test(e, d)}


def _classification(state, snap):
    inst = state.instance
    pairs = [(v, d) for d in range(len(inst.demands)) for v in path_nodes(inst, d)]
    tight, bottleneck = _rows(snap, snap.is_tight), _rows(snap, snap.is_bottleneck)
    nonrelax = {pair for pair in pairs if pair in snap.nonrelax}
    return tight, snap.sat_edge, snap.sat_node, bottleneck, nonrelax, snap.nonrelax.limit


@settings(max_examples=120, deadline=None, database=None)
@given(small_multicuts(max_nodes=9))
def test_incremental_snapshot_matches_reference(inst):
    inst0, _ = reduce_prize_collecting(inst)
    state = IncreaseState(inst0)
    taken = []
    real = IncreaseState.snapshot

    def checked(self):
        snap = real(self)
        ref = _reference_classification(self)
        assert _classification(self, snap) == ref
        taken.append(snap)
        return snap

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(IncreaseState, "snapshot", checked)
        run_increase_phase(state)
        state.snapshot()
    assert len(taken) > 1


def _backward_limit_moves(inst):
    """Run the increase phase, checking the classification of every
    snapshot against the reference, and name why each node that holds mass
    at two consecutive snapshots has its ``limit`` (no entry: all holders
    pinned) move back: "insert" when its holders changed, "toggle" when a
    bottleneck row of an edge at it did, else "cascade" (a neighbour's
    limit moved back)."""
    inst0, _ = reduce_prize_collecting(inst)
    state = IncreaseState(inst0)
    seen = []
    real = IncreaseState.snapshot

    def checked(self):
        snap = real(self)
        assert _classification(self, snap) == _reference_classification(self)
        holders = {v: list(seq) for v, seq in self.holders.items()}
        seen.append((holders, dict(self.nonrelax.limit), _rows(self, self.is_bottleneck)))
        return snap

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(IncreaseState, "snapshot", checked)
        run_increase_phase(state)
    end = len(state.order)
    kinds = set()
    for (holders0, limit0, rows0), (holders1, limit1, rows1) in zip(seen, seen[1:]):
        flipped = {e for e, _ in rows0 ^ rows1}
        for v in holders0.keys() & holders1.keys():
            if limit1.get(v, end) < limit0.get(v, end):
                if holders0[v] != holders1[v]:
                    kinds.add("insert")
                elif flipped.intersection(inst0.tree.incident(v)):
                    kinds.add("toggle")
                else:
                    kinds.add("cascade")
    return kinds


# runs where a node's limit moves back between two snapshots, found in a
# screen of the pinned step specs, 3,000 ``small_multicuts`` (none there) and
# 1,410 runs ((9, 4) seeds 0-599, (20, 8) 0-399, (40, 10) 0-149, (60, 15)
# 0-59, (20, 8) 0-99 with each fractional weight variant).  Insertions ahead
# of the pointer are the common case (40 runs), rows toggling off are rare
# (7 runs), and only (60, 15, 46) moves a node back whose own holders and
# rows did not change.
@pytest.mark.parametrize(
    "spec, kinds",
    [((20, 8, 241), {"insert", "toggle"}), ((60, 15, 46), {"toggle", "cascade"})],
)
def test_limit_moves_back_and_matches_reference(spec, kinds):
    assert _backward_limit_moves(_step_instance(*spec)) == kinds


def test_settle_work_is_bounded_by_the_dual_writes(monkeypatch):
    """The classification revisits a holder node only when a write or a
    neighbour can move its limit, so over a whole increase phase it visits
    at most twice as many holder nodes as there are dual writes (816 against
    1,469 writes here; a fixed point from scratch at every snapshot visits
    22,679)."""
    writes = []
    for name in ("set_xi", "set_nu", "set_mu"):

        def counted(self, *args, real=getattr(IncreaseState, name)):
            writes.append(args)
            real(self, *args)

        monkeypatch.setattr(IncreaseState, name, counted)
    inst = gen_instance("random-tree-multicut", n=2000, k=500, seed=1)
    state = run_increase_phase(IncreaseState(reduce_prize_collecting(inst)[0]))
    assert 0 < state.settle_visits <= 2 * len(writes)


def _reference_uncovered(state):
    """The first demand in processing order whose path misses F, by a
    rescan of every demand."""
    for d in state.order:
        if not any(e in state.F for e in state.path_edges[d]):
            return d
    return None


def _reference_witness(state, i):
    """Demand i's witness by the all-demand rule: among its terminal edges,
    the deepest (then least) edge tight for every demand whose path holds
    it, else the deepest terminal edge."""
    inst = state.instance
    parent, depth = inst.tree.parent, inst.tree.depth
    terminal = [
        e
        for e in state.path_edges[i]
        if state.is_bottleneck(e, i)
        and (parent[e], i) in state.nonrelax
        and (e, i) in state.nonrelax
    ]
    witnesses = [
        e
        for e in terminal
        if all(
            state.is_tight(e, j)
            for j in range(len(inst.demands))
            if e in state.path_edges[j]
        )
    ]
    return min(witnesses or terminal, key=lambda e: (-depth[e], e))


def _check_cursor_and_index(inst):
    """At every increase iteration the resumed scan of ``uncovered`` gives
    the demand a full rescan gives, and the witness chosen through the
    edge-to-demand index is the one the all-demand rule chooses.  No dual
    write follows the last classification of an iteration, so the state
    after it still holds that classification."""
    inst0, _ = reduce_prize_collecting(inst)
    state = IncreaseState(inst0)
    seen = []
    real = multicut_tree.increase_iteration

    def checked(state, i):
        assert i == _reference_uncovered(state)
        real(state, i)
        assert state.witness[i] == _reference_witness(state, i)
        seen.append(i)
        return state

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multicut_tree, "increase_iteration", checked)
        run_increase_phase(state)
    assert _reference_uncovered(state) is None
    assert seen == state.processed


@settings(max_examples=150, deadline=None, database=None)
@given(small_multicuts(max_nodes=10))
def test_cursor_and_index_match_full_scans(inst):
    _check_cursor_and_index(inst)


# runs where the all-demand rule decides the witness, found in a sweep of
# 1,900 runs ((9, 4) seeds 0-999, (20, 8) 0-599, (40, 10) 0-199, (60, 15)
# 0-99).  On the first two a deeper terminal edge is loose for another demand
# and a shallower one is the witness; on the last two no terminal edge is
# tight for every demand through it, so the witness falls back to a terminal
# edge.
@pytest.mark.parametrize("spec", [(20, 8, 479), (40, 10, 17), (20, 8, 87), (9, 4, 490)])
def test_witness_rule_matches_full_scan(spec):
    n, k, seed = spec
    _check_cursor_and_index(gen_instance("random-tree-multicut", n=n, k=k, seed=seed))


def test_pipeline_checks_the_dual_from_scratch_once(monkeypatch):
    """Each solve checks the whole dual once, in ``verify_multicut``."""
    callers = []
    real = multicut_tree.dual_violation

    def counted(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(*args)

    monkeypatch.setattr(multicut_tree, "dual_violation", counted)
    for n, k, seed in [(9, 4, 0), (20, 8, 1), (40, 10, 2)]:
        callers.clear()
        run_multicut_pipeline(gen_instance("random-tree-multicut", n=n, k=k, seed=seed))
        assert callers == ["verify_multicut"]


def _run_with_overfull_edge(mp, at_step):
    """Run the multicut pipeline, pushing one nu write of step ``at_step``
    past its edge's capacity.  Returns the step the AssertionError escaped
    from (None when no step was running) and its message."""
    inst = gen_instance("random-tree-multicut", n=20, k=6, seed=1)
    calls = {"started": 0, "returned": 0, "corrupted": False}
    real_step, real_set_nu = multicut_tree._step_lp, IncreaseState.set_nu

    def step(*args):
        calls["started"] += 1
        eps = real_step(*args)
        calls["returned"] += 1
        return eps

    def set_nu(self, key, val):
        if calls["started"] == at_step > calls["returned"] and not calls["corrupted"]:
            val += rat_weights(self.instance)[1][key[0]] + 1
            calls["corrupted"] = True
        real_set_nu(self, key, val)

    mp.setattr(multicut_tree, "_step_lp", step)
    mp.setattr(IncreaseState, "set_nu", set_nu)
    with pytest.raises(AssertionError) as caught:
        run_multicut_pipeline(inst)
    assert calls["corrupted"]
    running = calls["started"] if calls["started"] > calls["returned"] else None
    return running, str(caught.value)


def test_corrupted_write_caught_at_its_own_step(monkeypatch):
    step, message = _run_with_overfull_edge(monkeypatch, at_step=3)
    assert step == 3 and message.startswith("edge capacity violated at")
    # without the per-step check only the pipeline's from-scratch check of
    # its output sees the fault
    monkeypatch.setattr(IncreaseState, "check_step", lambda self: None)
    step, message = _run_with_overfull_edge(monkeypatch, at_step=3)
    assert step is None and "dual-feasible" in message


def _two_solve_step(model):
    """A step LP solved as two LPs: the largest step, then, with the step
    pinned, the least total move, which the tie-break stands for."""
    plain = LpModel(model.name, model.sense, model.variables, model.objective, model.constraints)
    first = lp.simplex_solve(plain)
    refine = LpModel("refine", "min", model.variables, model.tiebreak, list(model.constraints))
    refine.add_constraint("pin_eps_lo", {"eps": ONE}, ">=", first.value)
    refine.add_constraint("pin_eps_hi", {"eps": ONE}, "<=", first.value)
    return first, lp.simplex_solve(refine)


def test_step_tiebreak_matches_two_solves(monkeypatch):
    """On every step LP of a sweep, the one solve with the tie-break gives
    the step and the assignment of the two-solve reference; on some steps
    the largest step alone leaves a tie that the tie-break settles."""
    settled = []

    def solve(model):
        res = lp.simplex_solve(model)
        first, ref = _two_solve_step(model)
        assert res.value == first.value and res.assignment == ref.assignment
        settled.append(ref.assignment != first.assignment)
        return res

    monkeypatch.setattr(multicut_tree, "simplex_solve", solve)
    # a small sweep, plus two instances where the largest step alone
    # leaves such a tie (22 of the 23,889 steps of the 1,800-instance
    # multicut set do)
    sweep = [(9, 4, s) for s in range(30)] + [(20, 8, s) for s in range(15)]
    for n, k, seed in sweep + [(9, 4, 566), (20, 8, 152)]:
        inst = gen_instance("random-tree-multicut", n=n, k=k, seed=seed)
        run_increase_phase(IncreaseState(reduce_prize_collecting(inst)[0]))
    assert any(settled)


# -- step LP models and their outcome pinned by digest ----------------------


def _model_text(model):
    """Every part of an LpModel that the simplex reads, one line per row;
    a row's coefficients are listed in variable order.  Each variable is
    written as ``name:1``, the nonnegativity mark the pinned digests were
    taken with."""
    lines = [
        f"{model.name} {model.sense}",
        " ".join(f"{v}:1" for v in model.variables),
        " ".join(f"{v}:{fmt_rat(c)}" for v, c in sorted(model.objective.items())),
        " ".join(f"{v}:{fmt_rat(c)}" for v, c in sorted(model.tiebreak.items())),
    ]
    order = {v: i for i, v in enumerate(model.variables)}
    for con in model.constraints:
        coeffs = sorted(con.coeffs.items(), key=lambda item: order[item[0]])
        cells = " ".join(f"{v}:{fmt_rat(c)}" for v, c in coeffs)
        lines.append(f"{con.name} {cells} {con.relation} {fmt_rat(con.rhs)}")
    return "\n".join(lines) + "\n"


# the weight variants of a spec's fourth element: a function of the id of
# the node, edge or demand and its weight or finite penalty
_WEIGHTS = {
    "w/7": lambda x, w: w / 7,
    "odd w/3": lambda x, w: w / 3 if x % 2 else w,
}


def _step_instance(n, k, seed, weights=None):
    """``gen random-tree-multicut`` with every weight and finite penalty
    replaced as ``_WEIGHTS[weights]`` says (as generated when None)."""
    inst = gen_instance("random-tree-multicut", n=n, k=k, seed=seed)
    if weights is None:
        return inst
    f = _WEIGHTS[weights]
    return MulticutInstance(
        inst.tree,
        {v: f(v, w) for v, w in rat_weights(inst)[0].items()},
        {e: f(e, w) for e, w in rat_weights(inst)[1].items()},
        [
            Demand(d.s, d.t, d.penalty if is_inf(d.penalty) else f(i, d.penalty))
            for i, d in enumerate(inst.demands)
        ],
    )


@functools.lru_cache(maxsize=None)
def _step_run(*spec):
    """One increase phase and deletion phase on ``_step_instance(*spec)``:
    the sha256 digest of every LP it solves, in solve order, the final
    state and the kept cut."""
    models = hashlib.sha256()
    real = multicut_tree.simplex_solve

    def solve(model):
        models.update(_model_text(model).encode())
        return real(model)

    inst0, _ = reduce_prize_collecting(_step_instance(*spec))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multicut_tree, "simplex_solve", solve)
        state = run_increase_phase(IncreaseState(inst0))
    return models.hexdigest(), state, deletion_phase(state)


def _step_digests(*spec):
    """Two sha256 digests of one increase phase: of every LP it solves, in
    solve order, and of its outcome, the kept cut and the final dual."""
    models, state, kept = _step_run(*spec)
    outcome = hashlib.sha256()
    outcome.update(f"{' '.join(str(e) for e in sorted(kept))}\n".encode())
    dual = state.dual
    for table in (dual.xi, dual.nu, dual.mu):
        outcome.update(
            " ".join(f"{key}={fmt_rat(val)}" for key, val in table.items()).encode()
        )
        outcome.update(b"\n")
    return models, outcome.hexdigest()


# (n, k, seed[, weights]) -> digest of the LP models.  On (20, 8, 7) an
# earlier rule both lowered nu on an edge of F and failed its deletion
# phase; it now pins a kept cut.
GOLDEN_STEP_MODELS = {
    (9, 4, 0): "a23c7ca0411780c259ed78a087589d2d13754ca3f3e06c88fbf46d3e2cadf725",
    (9, 4, 1): "724360a99b37df56a8deeddf86b4009756b4a022904f3c96d06cacc06705e212",
    (9, 4, 2): "0a1ff9d83082f3b4bc1d88ef142341466b99cd7e39bcf712b2411c5308efbb8f",
    (9, 4, 3): "f833a6013ada8b00161d638c01e9627dfa89b659164e66fa1bafc90550ee6aa3",
    (20, 8, 0): "d97f9055c3025905d42661da2b598ebd836da8844c864327303d12bc128ac6fb",
    (20, 8, 1): "1471d39c127f9145b82105d0aad2995c722960274572f7067242a8970c502220",
    (20, 8, 2): "84bbdb6a315ba7dd21c8b07c11ea118f165547cbfd9a20f141880e7d03f557bc",
    (20, 8, 3): "34cbfe79807b4fb29195d9939416b942e000b8f71c31e2c832ad7358b2a144e5",
    (20, 8, 4): "041f1d4843aacc74f7383fcfffe20b7edec6ec3f07e54b7a4fe8099303b7ff12",
    (20, 8, 5): "fd744c4b0999682f3e6f26f13ffa2dd323c4e097de93691a4622738d28ffd52f",
    (20, 8, 6): "b9c72187444c8d34a0c30c95018f68ad0548e6a6ab84c2096f29547bb5c37d10",
    (20, 8, 7): "5e8d224ce1d2e9c9895059664be410c4eb0f804771e7d6f64e87e14ed4a759b6",
    (40, 10, 0): "2c0662adb37b3853047c63b812578818b9d27d208ce9723dd02061d6258d0a76",
    (40, 10, 1): "4cc6cf715adfa31be0d273aa5f470b46a0e890c93ab71814a79ed82108b8ac31",
    (40, 10, 2): "75272481fa280b8d689691cafc4c1cdd0cee7b17bbe0e2b60c26c48e68d30cc6",
    (40, 10, 3): "3f5cf5182f239c5606f327eedf61524b61e42c45d52d30052c6bbc710649899c",
    (60, 15, 0): "d2c7920ecadde0a694c63e5a01ec097d799aadf342fc393aafc25ff222f7bd6f",
    (60, 15, 1): "f6fef9d630b47a92cf03e0456d84391a2239171dd2125f2df7648b052f385f05",
    (100, 25, 0): "79c196e91e3b1c7eb63da9c9f436ae663b0c80016c9cbda82bb369b3c647cba6",
    # integral weights, non-integral final duals, as on (20, 8, 0) above
    (9, 4, 16): "a33fa8d3bf8a1b48084b0818cb63fabc9e9c0bc1206fdcfffcf6d4013eacd111",
    (20, 8, 53): "cc447a19507893494a55131066da6a30ef14c8d479c5db90c0f3aecfd473ca3f",
    # non-integral weights: all of them, and those of odd ids (see _WEIGHTS)
    (9, 4, 0, "w/7"): "4126ba1a1c189e7ac3e546e5f7546c00e454a686afda69a7668834947ec543b0",
    (20, 8, 1, "w/7"): "eec09945026037143fbf6da5f94c24eaa626c181bc956c355b1e9ec09183c300",
    (40, 10, 2, "w/7"): "39526bb27c307158df37ac30ce0600240ab33f873051f5c7aa46a553281f63ec",
    (60, 15, 0, "w/7"): "c25d87698e950cdfeed2de9a054600d7988dcc71fef621c054cf6999e6e61045",
    (9, 4, 1, "odd w/3"): "f9d3f436956e08dbdbd55834d40b08efcfa5e7eec987c79c92a77ba26295b79e",
    (20, 8, 2, "odd w/3"): "e47e1ae58e942cdae43d61c4958cdaf8a7f8e34c5d1ca2aa869a3977dc0f1051",
    (40, 10, 3, "odd w/3"): "1cde0948a2cbc8c15cb2bd2d1f2a8fc100765f39f79f4d25e2710330ba7e5ef6",
    (60, 15, 1, "odd w/3"): "9fb92362797936c6ee612530829c38559205d8831d64a3a42999ed103a7ad49c",
}

# (n, k, seed[, weights]) -> digest of the kept cut and the final dual.
GOLDEN_STEP_OUTCOMES = {
    (9, 4, 0): "f37bba4b1d64766698ab6e90352aec2dd5eaac84a7843225d2aac52c569f830a",
    (9, 4, 1): "4c0f45c8cf8fa37e56e722b71ec5fc40f13739e86b73c9b6c24518d6836757d9",
    (9, 4, 2): "c0dc656f15cf84c17626fae2dad8fbcbc266b6f70b3ae7d1504dc9b6b1f2117d",
    (9, 4, 3): "eb640e8f3a9392202df83857654d8900b06481d65168da915764cd4c19b07c23",
    (20, 8, 0): "62e622f949c51fd2473beab00af1949f5fa60cc5a525b7c16f2d19a83dc04d49",
    (20, 8, 1): "76097c2c23751ec68d160e898b7e71b46c72bbb324b173532086c7b7d516d6c3",
    (20, 8, 2): "a76d74d27ed02c8ca4cb6c9bf8d753eaee37cdca64d9da57825fca7fdf212c6a",
    (20, 8, 3): "2d7b466709a45fa82482156692de0be9f4778765afb34122653c3958e6bf26c9",
    (20, 8, 4): "63cdb37a299767ea0f7d198e98a609b9bb22a5a6a808e67c51533c55e28c99c6",
    (20, 8, 5): "3b0431a587ece89226b566edbb4c46ab36eaf7574a0486b29babd8898e08ab3e",
    (20, 8, 6): "249cea1238c3a9ebf12f8d0ed29d9fdce8488e2bfadf3669d2519b3dc2f181de",
    (20, 8, 7): "2a0487f56ec147b2a88554273a177855d37e8aa479398322b9e8b0d5bc5574db",
    (40, 10, 0): "3b242e4b72cddba0019479cbc6a7db65060c11ebe4962d03d2732d8787e88111",
    (40, 10, 1): "f3117bfc0690b92e84f4ed0cf753df3d7092881f205e82b32ccf890ae990710e",
    (40, 10, 2): "1707adeb9785ed02924bd64f9f369413d61403cb6eb40c9ea22dcf392bcff4ff",
    (40, 10, 3): "7377560d45b3e6065b5c9f2014300fab259c7d019f97c63fe7935f2e8da3f9fe",
    (60, 15, 0): "79afc221e537c27d4557e2cec520f106a8aae7db511560065f5b0b841c7b3ee0",
    (60, 15, 1): "d2696e8a8b98bbd01585534dfd4cfa60104610607ebbab9fb57b091bed54229d",
    (100, 25, 0): "057ba40b3e00b96fcad3c9615a4319c8307aaeb328171d37b02e91c595f13700",
    # integral weights, non-integral final duals, as on (20, 8, 0) above
    (9, 4, 16): "bbade661cc58d5323cb17811432d21a171f465b5bebb01ff15a552a2816a7762",
    (20, 8, 53): "80de35c725eba828aa8593f2b82c9d5220ade3d591cae7358ac80461ef4743bc",
    # non-integral weights: all of them, and those of odd ids (see _WEIGHTS)
    (9, 4, 0, "w/7"): "c4e692fbcf395597151d59579797feb0b66aa338c68ad6954c0b9fc42a32b6c4",
    (20, 8, 1, "w/7"): "91b598d586e5ed5169386cdb137117566036ef8d42c8cc9fd4d3fd25a484d2a9",
    (40, 10, 2, "w/7"): "3941af09d8fb861d4fac7889043614414676521497cd272f6f491d4a24cb43c9",
    (60, 15, 0, "w/7"): "960d68e4a8dfa30912485005239b5f68a67fa3a8e61f16c53d1ce504d7e8bbf2",
    (9, 4, 1, "odd w/3"): "418da3f1fc572d01d1192d20cf053fd28ab1ddb85a9d579112489d13af476dc0",
    (20, 8, 2, "odd w/3"): "6091ab4279c78effe6153ab61c572f45ef1079af7de708f465dd28a91202708b",
    (40, 10, 3, "odd w/3"): "a6ae6d8bd7e2ccc4f96ff722097c2a56d29ddc684c1fb3313e33f9531b6f2e84",
    (60, 15, 1, "odd w/3"): "4eb6346b11818e172cd7d191742a7154fd622e14c2b9e59fa94c84c846481f55",
}


@pytest.mark.parametrize("spec", sorted(GOLDEN_STEP_MODELS))
def test_step_and_refine_models_are_pinned(spec):
    assert _step_digests(*spec)[0] == GOLDEN_STEP_MODELS[spec]


@pytest.mark.parametrize("spec", sorted(GOLDEN_STEP_OUTCOMES))
def test_step_outcomes_are_pinned(spec):
    assert _step_digests(*spec)[1] == GOLDEN_STEP_OUTCOMES[spec]


@pytest.mark.parametrize("spec", sorted(GOLDEN_STEP_OUTCOMES))
def test_integral_duals_are_ints_until_read(spec):
    """The increase phase keeps each integral dual value and running
    capacity sum as an int and every other value as a Rat;
    ``IncreaseState.dual`` hands out Rats only."""
    _, state, _ = _step_run(*spec)
    for table in (state.xi, state.nu, state.mu):
        for val in table.values():
            assert type(val) is (int if val.denominator == 1 else Rat)
    for val in state.nu_sum + state.mu_sum:
        assert type(val) is (int if val.denominator == 1 else Rat)
    dual = state.dual
    assert all(
        type(val) is Rat for table in (dual.xi, dual.nu, dual.mu) for val in table.values()
    )


def test_pinned_duals_take_both_branches():
    """Among the pinned runs, an instance with integral weights ends with a
    non-integral dual value, and one with non-integral weights with an
    integral one, so both kinds of value meet in the same sums."""

    def kinds(spec):
        dual = _step_run(*spec)[1].dual
        return {v.denominator == 1 for t in (dual.xi, dual.nu, dual.mu) for v in t.values()}

    assert kinds((9, 4, 16)) == {True, False}
    assert kinds((40, 10, 3, "odd w/3")) == {True, False}


def test_solver_returns_rat_dual_and_ratio():
    for spec in [(9, 4, 16), (20, 8, 1), (20, 8, 2, "odd w/3")]:
        _, dual, ratio = solve_multicut_tree(_step_instance(*spec))
        assert type(ratio) is Rat
        assert all(
            type(v) is Rat for t in (dual.xi, dual.nu, dual.mu) for v in t.values()
        )


# -- verification -----------------------------------------------------------


def test_verifier_accepts_pipeline_output():
    for seed in (0, 5, 9):
        inst = gen_instance("random-tree-multicut", n=8, k=3, seed=seed)
        inst0, _ = reduce_prize_collecting(inst)
        state = run_increase_phase(IncreaseState(inst0))
        kept = deletion_phase(state)
        report = verify_multicut(inst0, kept, state.dual)
        assert report.passed, report.format()


def test_verifier_rejects_empty_cut():
    inst0, _ = reduce_prize_collecting(star_multicut(1, 2, INF))
    state = run_increase_phase(IncreaseState(inst0))
    report = verify_multicut(inst0, frozenset(), state.dual)
    assert not report.passed
    assert any("demand" in f for f in report.failures())


def _lca_below_root():
    """Root 0 with children 1 and 4, and 1 with leaves 2 and 3.  The one
    demand (2, 3) has lca 1, on its path, whose parent edge 1 is not."""
    tree = RootedTree([0, 0, 1, 1, 0], 0)
    return MulticutInstance(
        tree,
        {v: ONE for v in range(5)},
        {e: Rat(3) for e in range(1, 5)},
        [Demand(2, 3, INF)],
    )


def _star():
    return star_multicut(1, 2, INF)


def _w7():
    return _step_instance(20, 8, 1, "w/7")


# (instance, changes, the dual's common denominator, the first violated row
# or None).  The star's changes are integral.  Thirds on the lca instance
# (scale 1) and 49ths on the w/7 spec (scale 7) give a common denominator
# other than the scale; for each, an edge row, a node row and a support row
# exactly at its bound are accepted, and one unit of the denominator over it
# is rejected.
@pytest.mark.parametrize(
    "make, changes, den, message",
    [
        pytest.param(
            _star, [("nu", (1, 0), 5)], 1, "edge capacity violated at 1", id="edge-capacity"
        ),
        pytest.param(
            _star, [("mu", (0, 0), 5)], 1, "node capacity violated at 0", id="node-capacity"
        ),
        pytest.param(_star, [("xi", 0, 5)], 1, "support row violated (1,0)", id="support-row"),
        pytest.param(
            _star, [("mu", (1, 0), -1)], 1, "negative dual value mu[(1, 0)]", id="negative"
        ),
        # xi(0) = 1 and nu[(1, 0)] = 1 before the changes: the support rows of
        # a demand with xi = 0 are skipped, its nonnegativity rows are not
        pytest.param(
            _star,
            [("xi", 0, -1), ("nu", (1, 0), -2)],
            1,
            "negative dual value nu[(1, 0)]",
            id="negative-at-zero-xi",
        ),
        # xi(0) = 5, nu 3 on edges 2 and 3 (weight 3), mu 1 at nodes 1, 2, 3
        # (weight 1): every capacity is saturated and the rows at 2 and 3 tight
        pytest.param(_lca_below_root, [("xi", 0, -Rat(1, 3))], 3, None, id="thirds-at-capacity"),
        pytest.param(
            _lca_below_root,
            [("xi", 0, -Rat(1, 3)), ("nu", (2, 0), Rat(1, 3))],
            3,
            "edge capacity violated at 2",
            id="thirds-edge-over",
        ),
        pytest.param(
            _lca_below_root,
            [("xi", 0, -Rat(1, 3)), ("mu", (1, 0), Rat(1, 3))],
            3,
            "node capacity violated at 1",
            id="thirds-node-over",
        ),
        pytest.param(
            _lca_below_root,
            [("xi", 0, -Rat(1, 3)), ("mu", (2, 0), -Rat(1, 3))],
            3,
            None,
            id="thirds-support-tight",
        ),
        pytest.param(
            _lca_below_root,
            [("xi", 0, -Rat(1, 3)), ("mu", (2, 0), -Rat(2, 3))],
            3,
            "support row violated (2,0)",
            id="thirds-support-over",
        ),
        # xi(4) = 1/7 and nu[(1, 4)] = 1/7, the only value on edge 1 (weight
        # 5/7); node 6 (weight 10/7) is saturated
        pytest.param(
            _w7,
            [("xi", 4, -Rat(1, 49)), ("nu", (1, 4), Rat(4, 7))],
            49,
            None,
            id="49ths-edge-at-capacity",
        ),
        pytest.param(
            _w7,
            [("xi", 4, -Rat(1, 49)), ("nu", (1, 4), Rat(29, 49))],
            49,
            "edge capacity violated at 1",
            id="49ths-edge-over",
        ),
        pytest.param(_w7, [("xi", 4, -Rat(1, 49))], 49, None, id="49ths-node-at-capacity"),
        pytest.param(
            _w7,
            [("xi", 4, -Rat(1, 49)), ("mu", (6, 0), Rat(1, 49))],
            49,
            "node capacity violated at 6",
            id="49ths-node-over",
        ),
        pytest.param(
            _w7,
            [("xi", 4, -Rat(1, 49)), ("nu", (1, 4), -Rat(1, 49))],
            49,
            None,
            id="49ths-support-tight",
        ),
        pytest.param(
            _w7,
            [("xi", 4, -Rat(1, 49)), ("nu", (1, 4), -Rat(2, 49))],
            49,
            "support row violated (1,4)",
            id="49ths-support-over",
        ),
    ],
)
def test_verifier_rejects_capacity_violation(make, changes, den, message):
    inst0, _ = reduce_prize_collecting(make())
    state = run_increase_phase(IncreaseState(inst0))
    kept = deletion_phase(state)
    dual = state.dual
    for table, key, change in changes:
        values = getattr(dual, table)
        values[key] = values.get(key, ZERO) + change
    assert _violation(inst0, dual, den) == message
    report = verify_multicut(inst0, kept, dual)
    assert ("dual-feasible" in report.failures()) == (message is not None)


def _violation(inst, dual, den):
    """``dual_violation`` on the dual over its common denominator, which
    must be ``den``."""
    common, xi, nu, mu = _over_common_denominator(dual)
    assert common == den
    return dual_violation(inst, den, xi, nu, mu, _load(nu), _load(mu))


@pytest.mark.parametrize("value", [ZERO, ONE])
@pytest.mark.parametrize(
    "table, key",
    [
        pytest.param("nu", (1, 0), id="nu-at-the-lca-parent-edge"),
        pytest.param("mu", (4, 0), id="mu-off-the-path"),
        pytest.param("mu", (0, 0), id="mu-above-the-lca"),
        pytest.param("nu", (-1, 0), id="nu-at-minus-one"),
        pytest.param("mu", (5, 0), id="mu-at-n"),
        pytest.param("nu", (10**9, 0), id="nu-at-a-large-int"),
    ],
)
def test_verifier_rejects_dual_entries_off_the_path(table, key, value):
    inst = _lca_below_root()
    assert inst.lca(0) == 1 and path_nodes(inst, 0) == (2, 1, 3)
    state = run_increase_phase(IncreaseState(inst))
    kept = deletion_phase(state)
    dual = state.dual
    assert verify_multicut(inst, kept, dual).passed
    getattr(dual, table)[key] = value
    if 0 <= key[0] < inst.tree.n:
        # every row of the dual system still holds: only the domain is broken
        assert _violation(inst, dual, 1) is None
    else:
        what = "edge" if table == "nu" else "node"
        assert _violation(inst, dual, 1) == f"dual value at {key[0]}, which is no {what}"
    report = verify_multicut(inst, kept, dual)
    assert "dual-feasible" in report.failures()


def test_only_processed_demands_hold_a_support_row():
    """A demand's support sums are made on its first nu or mu write, so a
    demand that is never processed holds none."""
    inst = gen_instance("random-tree-multicut", n=30, k=12, seed=5, inf_prob=1)
    state = run_increase_phase(IncreaseState(reduce_prize_collecting(inst)[0]))
    assert len(state.processed) < len(inst.demands)
    assert set(state.xi) <= set(state.support) <= set(state.processed)


@pytest.mark.parametrize("value", [ZERO, ONE])
def test_a_nu_key_at_the_root_names_no_edge(value):
    inst = _lca_below_root()
    dual = run_increase_phase(IncreaseState(inst)).dual
    root = inst.tree.root
    dual.nu[(root, 0)] = value
    assert _violation(inst, dual, 1) == f"dual value at {root}, which is no edge"


# -- randomized battery ------------------------------------------------------


def test_factor_two_on_random_trees():
    for seed in range(50):
        inst = gen_instance(
            "random-tree-multicut",
            n=3 + seed % 7,
            k=1 + seed % 4,
            seed=seed,
            inf_prob=0.3,
        )
        sol, dual, ratio = solve_multicut_tree(inst)
        opt = brute_force_multicut(inst).total
        assert opt <= sol.total <= 2 * opt
        assert dual.total <= opt
        assert sol.total <= 2 * dual.total


_positive = st.builds(Rat, st.integers(1, 6), st.sampled_from([1, 1, 2, 3]))


@settings(max_examples=1000, deadline=None, database=None)
@given(small_multicuts(max_nodes=10, node_weights=_positive))
def test_no_ratio_above_two_on_small_trees(inst):
    inst0, _, state, kept, dual = run_multicut_pipeline(inst)
    report = verify_multicut(inst0, kept, dual)
    assert report.passed, report.format()
    sol = kept_solution(inst, inst0, kept)
    # priced from the compiled walks as from the original instance's own
    assert sol == multicut_solution(inst, [e for e in kept if e < inst.tree.n])
    assert sol.total <= 2 * dual.total
    assert dual.total <= brute_force_multicut(inst).total
    for d in state.processed:
        # at most one kept edge on each side of the lca, placed by the rule
        up = inst0.path(d).up
        places = [inst0.place(d, e) for e in kept]
        assert sum(0 <= at < up for at in places) <= 1
        assert sum(at > up for at in places) <= 1
