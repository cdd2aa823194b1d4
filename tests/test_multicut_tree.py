"""Primal-dual tree multicut: reduction gadgets, frozen runs, verification."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcover import (
    INF,
    Demand,
    MulticutInstance,
    Rat,
    RootedTree,
    brute_force_multicut,
    gen_instance,
    solve_multicut_tree,
)
from graphcover import multicut_tree
from graphcover.multicut_tree import (
    IncreaseState,
    _load,
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
from graphcover.rationals import ZERO, fmt_rat, is_inf

from _support import small_multicuts, star_multicut


# -- penalty compilation ----------------------------------------------------


def test_reduction_is_noop_without_finite_penalties():
    inst = star_multicut(1, 2, INF)
    inst0, mapping = reduce_prize_collecting(inst)
    assert inst0 == inst
    assert mapping == {}


def test_reduction_adds_detour_gadget():
    inst = star_multicut(1, 2, Rat(5))
    inst0, mapping = reduce_prize_collecting(inst)
    assert inst0.tree.n == inst.tree.n + 2
    assert len(inst0.tree.edge_ids()) == len(inst.tree.edge_ids()) + 2
    assert all(is_inf(d.penalty) for d in inst0.demands)
    # the rerouted demand starts at the new far node and keeps its target
    d0 = inst0.demands[0]
    assert d0.t == inst.demands[0].t
    assert d0.s >= inst.tree.n
    # one gadget edge carries the old penalty, the guard edge is never worth cutting
    (pay_edge,) = mapping.values()
    assert inst0.edge_weight[pay_edge] == 5
    guards = big_m_edges(inst0, mapping)
    assert len(guards) == 1
    (guard,) = guards
    assert inst0.edge_weight[guard] > sum(
        w for w in inst.edge_weight.values()
    ) + sum(w for w in inst.node_weight.values())


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
    assert {v for v in state.node_set[0] if (v, 0) not in nonrelax} == set()


def test_deletion_keeps_single_witness():
    inst0, _ = reduce_prize_collecting(star_multicut(3, 2, INF))
    state = run_increase_phase(IncreaseState(inst0))
    kept = deletion_phase(state)
    assert kept == frozenset({state.witness[0]})


# -- incremental increase-phase state ----------------------------------------


def _reference_classification(state):
    """The classification rebuilt from scratch: tight rows, saturated
    capacities, bottleneck rows, and the non-relaxable pairs by repeated
    sweeps with targets found by scanning every earlier demand."""
    inst = state.instance
    parent = inst.tree.parent
    k = len(inst.demands)
    nu_sum = {e: ZERO for e in inst.tree.edge_ids()}
    mu_sum = {v: ZERO for v in range(inst.tree.n)}
    for (e, _), val in state.nu.items():
        nu_sum[e] += val
    for (v, _), val in state.mu.items():
        mu_sum[v] += val
    sat_edge = {e for e in nu_sum if nu_sum[e] == inst.edge_weight[e]}
    sat_node = {v for v in mu_sum if mu_sum[v] == inst.node_weight[v]}
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
    pairs = [(v, d) for d in range(k) for v in state.path_nodes[d]]
    changed = True
    while changed:
        changed = False
        for v, d in pairs:
            if (v, d) in nonrelax:
                continue
            if all(
                any(
                    (f, j) in bottleneck and (state.far_end(f, v), j) in nonrelax
                    for f in state.edges_at[j].get(v, ())
                )
                for j in targets(d, v)
            ):
                nonrelax.add((v, d))
                changed = True
    return tight, sat_edge, sat_node, bottleneck, nonrelax


def _classification(state, snap):
    pairs = [(v, d) for d in range(len(state.path_nodes)) for v in state.path_nodes[d]]
    nonrelax = {pair for pair in pairs if pair in snap.nonrelax}
    return snap.tight, snap.sat_edge, snap.sat_node, snap.bottleneck, nonrelax


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
        taken.append((snap, ref))
        return snap

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(IncreaseState, "snapshot", checked)
        run_increase_phase(state)
        state.snapshot()
    assert len(taken) > 1
    # later writes leave every earlier snapshot as it was
    for snap, ref in taken:
        assert _classification(state, snap) == ref


def _run_with_overfull_edge(mp, at_step):
    """Run the increase phase, pushing one nu write of step ``at_step`` past
    its edge's capacity.  Returns the step the AssertionError escaped from
    (None when no step was running) and its message."""
    inst0, _ = reduce_prize_collecting(
        gen_instance("random-tree-multicut", n=20, k=6, seed=1)
    )
    state = IncreaseState(inst0)
    calls = {"started": 0, "returned": 0, "corrupted": False}
    real_step, real_set_nu = multicut_tree._step_lp, IncreaseState.set_nu

    def step(*args):
        calls["started"] += 1
        eps = real_step(*args)
        calls["returned"] += 1
        return eps

    def set_nu(self, key, val):
        if calls["started"] == at_step > calls["returned"] and not calls["corrupted"]:
            val += self.instance.edge_weight[key[0]] + 1
            calls["corrupted"] = True
        real_set_nu(self, key, val)

    mp.setattr(multicut_tree, "_step_lp", step)
    mp.setattr(IncreaseState, "set_nu", set_nu)
    with pytest.raises(AssertionError) as caught:
        run_increase_phase(state)
    assert calls["corrupted"]
    running = calls["started"] if calls["started"] > calls["returned"] else None
    return running, str(caught.value)


def test_corrupted_write_caught_at_its_own_step(monkeypatch):
    step, message = _run_with_overfull_edge(monkeypatch, at_step=3)
    assert step == 3 and message.startswith("edge capacity violated at")
    # without the per-step check only the from-scratch check at the end of
    # the phase sees the fault
    monkeypatch.setattr(IncreaseState, "check_step", lambda self: None)
    step, message = _run_with_overfull_edge(monkeypatch, at_step=3)
    assert step is None and message.startswith("edge capacity violated at")


# -- step and refine LP models pinned by digest ------------------------------


def _model_text(model):
    """Every part of an LpModel that the simplex reads, one line per row;
    a row's coefficients are listed in variable order."""
    lines = [
        f"{model.name} {model.sense}",
        " ".join(f"{v}:{int(model.nonneg[v])}" for v in model.variables),
        " ".join(f"{v}:{fmt_rat(c)}" for v, c in sorted(model.objective.items())),
    ]
    order = {v: i for i, v in enumerate(model.variables)}
    for con in model.constraints:
        coeffs = sorted(con.coeffs.items(), key=lambda item: order[item[0]])
        cells = " ".join(f"{v}:{fmt_rat(c)}" for v, c in coeffs)
        lines.append(f"{con.name} {cells} {con.relation} {fmt_rat(con.rhs)}")
    return "\n".join(lines) + "\n"


def _step_models_digest(n, k, seed):
    """sha256 of every step and refine LP the increase phase solves, in
    solve order, then the kept cut and the final dual."""
    digest = hashlib.sha256()
    real = multicut_tree.simplex_solve

    def solve(model):
        digest.update(_model_text(model).encode())
        return real(model)

    inst0, _ = reduce_prize_collecting(
        gen_instance("random-tree-multicut", n=n, k=k, seed=seed)
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multicut_tree, "simplex_solve", solve)
        state = run_increase_phase(IncreaseState(inst0))
    outcome = " ".join(str(e) for e in sorted(deletion_phase(state)))
    dual = state.dual
    digest.update(f"{outcome}\n".encode())
    for table in (dual.xi, dual.nu, dual.mu):
        digest.update(
            " ".join(f"{key}={fmt_rat(val)}" for key, val in table.items()).encode()
        )
        digest.update(b"\n")
    return digest.hexdigest()


# (n, k, seed) -> digest.  On (20, 8, 7) an earlier rule both lowered nu on
# an edge of F and failed its deletion phase; it now pins a kept cut.
GOLDEN_STEP_MODELS = {
    (9, 4, 0): "a5fc29242510d29c9ec84813837ac27d504c76ea4b353ddf8fde73a3ac9eefdf",
    (9, 4, 1): "3957da77c498a46838a25047c801764d0c25f41e819c6db11779c5c86e70aecd",
    (9, 4, 2): "0b2f207f9fedc2b133aaa2a11b45db00e3b3244b9631cf710dde0125adeacb22",
    (9, 4, 3): "b819f6d343cadcdbd0ad71a2e76f18651fa65be1aff15cfebd45bc56a1ca14ef",
    (20, 8, 0): "9d89b6f2bca0f8cab8a0cbdda71d6d82450aae989281be6e1af6e8fd34f9ba10",
    (20, 8, 1): "16c893564aa4ddf10f806d20597a790faa18029070877f57315f367b164cf643",
    (20, 8, 2): "6085298eb7feb8c6ec61fd3aa3db4f3e7a398703cb96e43c325b50aff8bc63ff",
    (20, 8, 3): "6914f27d9079124211e1754e18eb9850af638938e1a0a3c39ab5e9b86ce1246c",
    (20, 8, 4): "f2a2fe6992e3297d05bfe126023aa4e4598f85f9312824742dce2ea0abcd8013",
    (20, 8, 5): "7c36aecbac0c58d8fe8a43a99590f59dd388e990a6f4d5349481f0b852330801",
    (20, 8, 6): "1d0ff2c7a3a44ffac14d230f35c0f70a3cc63bf475793924b18634bf98e6abd7",
    (20, 8, 7): "87c80279f58675d622aec00d38aaa1f445361962cce52e85d20fa0ee2c0629a5",
    (40, 10, 0): "d0231afc0d8870d58e333e1cd697f722cbe8652dcaa135aef67f2fe4f592d421",
    (40, 10, 1): "5b511f93197d14f20782d7f1672514b6dcf012c55a2bfad649179dbb237667fd",
    (40, 10, 2): "aee288f9d8d077e3ff55241ba6e981443423bd149b2e1b84e4e844fbc6d88193",
    (40, 10, 3): "adbac7024db29cb6f7febc990ac520476cf77d1cfbc545b3ac35ca398777a700",
    (60, 15, 0): "883e1069696350fd3e9bdcbaf8073040677e839c255881ea8d42f0cb2dab0c1f",
    (60, 15, 1): "fb9e808c9a7dd7d6ff9bcf2761bc6418dc68bc8fe372316988b8679100241653",
    (100, 25, 0): "0beb93c2e841c6dd6bce376a564f36891f6afe0bfd733003b1f6851796f1258c",
}


@pytest.mark.parametrize("spec", sorted(GOLDEN_STEP_MODELS))
def test_step_and_refine_models_are_pinned(spec):
    assert _step_models_digest(*spec) == GOLDEN_STEP_MODELS[spec]


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


@pytest.mark.parametrize(
    "table, key, change, message",
    [
        pytest.param("nu", (1, 0), 5, "edge capacity violated at 1", id="edge-capacity"),
        pytest.param("mu", (0, 0), 5, "node capacity violated at 0", id="node-capacity"),
        pytest.param("xi", 0, 5, "support row violated (1,0)", id="support-row"),
        pytest.param("mu", (1, 0), -1, "negative dual value mu[(1, 0)]", id="negative"),
    ],
)
def test_verifier_rejects_capacity_violation(table, key, change, message):
    inst0, _ = reduce_prize_collecting(star_multicut(1, 2, INF))
    state = run_increase_phase(IncreaseState(inst0))
    kept = deletion_phase(state)
    dual = state.dual
    values = getattr(dual, table)
    values[key] = values.get(key, ZERO) + change
    report = verify_multicut(inst0, kept, dual)
    assert not report.passed
    assert "dual-feasible" in report.failures()
    loads = _load(dual.nu), _load(dual.mu)
    assert dual_violation(inst0, dual.xi, dual.nu, dual.mu, *loads) == message


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
    assert kept_solution(inst, kept).total <= 2 * dual.total
    assert dual.total <= brute_force_multicut(inst).total
    for d in state.processed:
        for leg in state.legs[d]:
            assert len(kept & leg) <= 1
