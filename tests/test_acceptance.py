"""End-to-end acceptance gate.

Eight numbered checks, each one test function, so `pytest -v` reports one
pass/fail line per check.  Batteries are shared between checks through
module-scoped fixtures; every quantity is compared with exact rational
arithmetic, zero tolerance.
"""

import pytest

from graphcover import (
    Rat,
    brute_force_cover,
    brute_force_eds,
    brute_force_facility_location,
    brute_force_multicut,
    cli,
    complete_eds_dual,
    gen_instance,
    multicut_solution,
    reduce_to_eds,
    relaxation_value,
    solve_eds_general,
    solve_eds_tree,
)
from graphcover.eds_general import harmonic
from graphcover.multicut_tree import run_multicut_pipeline, verify_multicut
from graphcover.rationals import is_inf

from _support import rat_weights

TREE_RUNS = 300
CUT_RUNS = 300
GENERAL_RUNS = 100
COVER_RUNS = 50


# ---------------------------------------------------------------------------
# shared batteries


@pytest.fixture(scope="module")
def tree_battery():
    """Seeded random tree instances: at most 12 edges, integer weights in
    [0, 10], penalties in [0, 10] plus infinity."""
    records = []
    for seed in range(TREE_RUNS):
        n = 2 + seed % 12
        inf_prob = (0.0, 0.25, 0.5)[seed % 3]
        inst = gen_instance(
            "random-tree-eds", n=n, seed=seed, wmax=10, pmax=10, inf_prob=inf_prob
        )
        sol, dual = solve_eds_tree(inst)
        opt = brute_force_eds(inst)
        records.append((seed, inst, sol, dual, opt))
    return records


@pytest.fixture(scope="module")
def multicut_battery():
    """Seeded random tree instances: at most 10 edges and 5 demands, with
    finite and infinite penalties mixed."""
    records = []
    for seed in range(CUT_RUNS):
        n = 2 + seed % 10
        k = 1 + seed % 5
        inf_prob = (0.0, 0.3, 0.6)[seed % 3]
        inst = gen_instance(
            "random-tree-multicut",
            n=n,
            k=k,
            seed=seed,
            wmax=10,
            pmax=10,
            inf_prob=inf_prob,
        )
        # the pipeline itself asserts dual feasibility after every step and
        # verifies the kept cut before returning
        inst0, _, state, kept, dual = run_multicut_pipeline(inst)
        sol = multicut_solution(inst, frozenset(e for e in kept if e < inst.tree.n))
        opt = brute_force_multicut(inst)
        records.append((seed, inst, inst0, state, kept, dual, sol, opt))
    return records


@pytest.fixture(scope="module")
def general_battery():
    """Seeded random general-graph instances with at most 8 edges.  A record
    only lands in the list after the solver's internal exact checks passed
    (rounded cover within 4x of the fractional mass, greedy within the
    harmonic factor of the cover value, paid penalty within twice the
    fractional penalty mass)."""
    records = []
    for seed in range(GENERAL_RUNS):
        n = 4 + seed % 5
        m = min(5 + seed % 4, n * (n - 1) // 2)
        inf_prob = (0.0, 0.25, 0.5, 0.9)[seed % 4]
        inst = gen_instance(
            "random-eds-general",
            n=n,
            m=m,
            seed=seed,
            wmax=10,
            pmax=10,
            inf_prob=inf_prob,
        )
        sol, lower, factor, _ = solve_eds_general(inst)
        opt = brute_force_eds(inst)
        records.append((seed, inst, sol, lower, factor, opt))
    return records


# ---------------------------------------------------------------------------
# 1. exact tree solver


def test_01_tree_solver_is_exact(tree_battery):
    assert len(tree_battery) >= 300
    for seed, inst, sol, dual, opt in tree_battery:
        assert sol.total == opt.total, f"seed {seed}: objective differs from brute force"
        assert dual.total == sol.total, f"seed {seed}: dual total differs from objective"
    print(f"\ntree solver exact on {len(tree_battery)}/{len(tree_battery)} instances -- PASS")


# ---------------------------------------------------------------------------
# 2. dual certificates complete, tampering breaks them


def test_02_duals_complete_and_tampering_fails(tree_battery):
    for seed, inst, sol, dual, opt in tree_battery:
        assert complete_eds_dual(inst, dual.xi) is not None, f"seed {seed}: no completion"

    tampered = 0
    for seed, inst, sol, dual, opt in tree_battery:
        if tampered >= 10:
            break
        victim = None
        penalty = rat_weights(inst)[2]
        for e, x in dual.xi.items():
            room = penalty[e]
            if is_inf(room) or x + 1 <= room:
                victim = e
                break
        if victim is None:
            continue
        bad = dict(dual.xi)
        bad[victim] = bad[victim] + 1
        assert complete_eds_dual(inst, bad) is None, (
            f"seed {seed}: completion survived pushing the dual past the optimum"
        )
        tampered += 1
    assert tampered >= 1, "no tamperable instance found"
    print(f"\n{len(tree_battery)} completions feasible, {tampered} tampered duals rejected -- PASS")


# ---------------------------------------------------------------------------
# 3. multicut within factor two


def _leg_edges(inst0, i, endpoint):
    tree = inst0.tree
    a = inst0.lca(i)
    out = []
    x = endpoint
    while x != a:
        out.append(x)  # edge id equals the lower end node
        x = tree.parent[x]
    return out


def test_03_multicut_factor_two(multicut_battery):
    assert len(multicut_battery) >= 300
    for seed, inst, inst0, state, kept, dual, sol, opt in multicut_battery:
        assert opt.total <= sol.total, f"seed {seed}: beat the optimum"
        assert sol.total <= 2 * opt.total, f"seed {seed}: worse than twice the optimum"
        assert dual.total <= opt.total, f"seed {seed}: dual exceeds the optimum"
        # coverage and the per-leg bound, re-derived here from the raw output
        for i in range(len(inst0.demands)):
            assert kept & set(inst0.path_edges(i)), f"seed {seed}: demand {i} uncovered"
        for i in state.witness:
            d = inst0.demands[i]
            for endpoint in (d.s, d.t):
                leg = set(_leg_edges(inst0, i, endpoint))
                assert len(kept & leg) <= 1, (
                    f"seed {seed}: demand {i} keeps two edges on one leg"
                )
    print(f"\nmulticut within factor two on {len(multicut_battery)} instances -- PASS")


# ---------------------------------------------------------------------------
# 4. integrality gaps


def test_04_integrality_gaps():
    for n in range(2, 9):
        star = gen_instance("star-gap-eds", n=n)
        assert relaxation_value(star, "natural") == Rat(1, n)
        assert relaxation_value(star, "strengthened") == 1
        assert brute_force_eds(star).total == 1

        sd = gen_instance("subdivided-star-multicut", n=n)
        assert relaxation_value(sd, "natural") <= Rat(n, 4)
        assert brute_force_multicut(sd).total == n - 1
        assert relaxation_value(sd, "strengthened") >= Rat(n - 1, 2)
    print("\ngap families reproduce for n=2..8 -- PASS")


# ---------------------------------------------------------------------------
# 5. general-graph pipeline within the logarithmic factor


def test_05_general_pipeline_log_bound(general_battery):
    assert len(general_battery) >= 100
    for seed, inst, sol, lower, factor, opt in general_battery:
        assert factor == 4 * harmonic(inst.graph.n)
        assert sol.total <= factor * opt.total, f"seed {seed}: outside the factor"
    print(f"\nrounding pipeline within 4*H(n) on {len(general_battery)} instances -- PASS")


# ---------------------------------------------------------------------------
# 6. covering reductions are faithful


def test_06_reduction_fidelity():
    checked = 0
    seed = 0
    while checked < COVER_RUNS:
        sc = gen_instance(
            "random-set-cover", n=1 + seed % 4, m=1 + (seed // 4) % 4, seed=seed
        )
        sc_opt = brute_force_cover(sc)
        red = reduce_to_eds(sc)
        sol = brute_force_eds(red.instance)
        assert sol.total == sc_opt, f"set-cover seed {seed}: optimum changed"
        assert not (set(sol.edges) & red.big_m_edges), f"set-cover seed {seed}"
        checked += 1
        seed += 1

    checked = 0
    seed = 0
    while checked < COVER_RUNS:
        fl = gen_instance(
            "random-facility-location",
            clients=1 + seed % 4,
            facilities=1 + (seed // 4) % 4,
            seed=seed,
            skip_prob=(0.0, 0.0, 0.4)[seed % 3],
        )
        fl_opt = brute_force_facility_location(fl)
        red = reduce_to_eds(fl)
        sol = brute_force_eds(red.instance)
        if is_inf(fl_opt):
            assert sol.total >= red.big_m, f"facility seed {seed}: missed the barrier"
        else:
            assert sol.total == fl_opt, f"facility seed {seed}: optimum changed"
            assert not (set(sol.edges) & red.big_m_edges), f"facility seed {seed}"
            checked += 1
        seed += 1
    print(f"\n{COVER_RUNS}+{COVER_RUNS} covering reductions preserve optima -- PASS")


# ---------------------------------------------------------------------------
# 7. weak duality everywhere


def test_07_weak_duality_chain(tree_battery, multicut_battery, general_battery):
    for seed, inst, sol, dual, opt in tree_battery:
        penalty = rat_weights(inst)[2]
        for e, x in dual.xi.items():
            assert x >= 0, f"seed {seed}: negative dual"
            assert is_inf(penalty[e]) or x <= penalty[e], f"seed {seed}"
        lp = relaxation_value(inst, "strengthened")
        assert dual.total <= lp <= opt.total, f"tree seed {seed}: chain broken"

    for seed, inst, inst0, state, kept, dual, sol, opt in multicut_battery:
        report = verify_multicut(inst0, kept, dual)
        assert report.passed, f"cut seed {seed}: {'; '.join(report.failures())}"
        lp = relaxation_value(inst0, "strengthened")
        assert dual.total <= lp <= opt.total, f"cut seed {seed}: chain broken"

    for seed, inst, sol, lower, factor, opt in general_battery:
        assert lower == relaxation_value(inst, "strengthened"), f"general seed {seed}"
        assert lower <= opt.total, f"general seed {seed}: bound above optimum"
    print("\ndual <= relaxation <= optimum holds on every solved instance -- PASS")


# ---------------------------------------------------------------------------
# 8. deterministic certificates and reports


def _batch_suite(root):
    cases = [
        ("star5.eds", ["gen", "star-gap-eds", "--n", "5"]),
        ("sd4.tree", ["gen", "subdivided-star-multicut", "--n", "4"]),
        ("t1.eds", ["gen", "random-tree-eds", "--n", "9", "--seed", "21"]),
        ("t2.eds", ["gen", "random-tree-eds", "--n", "6", "--seed", "22"]),
        ("m1.tree", ["gen", "random-tree-multicut", "--n", "8", "--k", "3", "--seed", "23"]),
        ("m2.tree", ["gen", "random-tree-multicut", "--n", "5", "--k", "2", "--seed", "24"]),
        ("g1.eds", ["gen", "random-eds-general", "--n", "6", "--m", "7", "--seed", "25"]),
        ("g2.eds", ["gen", "random-eds-general", "--n", "5", "--m", "6", "--seed", "26"]),
        ("sc.cov", ["gen", "random-set-cover", "--seed", "27"]),
        ("fl.cov", ["gen", "random-facility-location", "--seed", "28"]),
    ]
    root.mkdir()
    for name, args in cases:
        assert cli.run(args + ["-o", str(root / name)]) == 0


def test_08_deterministic_outputs(tmp_path, capsys):
    suite = tmp_path / "suite"
    _batch_suite(suite)

    outputs = []
    for run in (1, 2):
        report = tmp_path / f"report{run}.tsv"
        certs = tmp_path / f"certs{run}"
        code = cli.run(
            ["batch", str(suite), "--report", str(report), "--certificates", str(certs)]
        )
        capsys.readouterr()
        assert code == 0, f"batch run {run} failed"
        blob = {"report": report.read_bytes()}
        for cert in sorted(certs.iterdir()):
            blob[cert.name] = cert.read_bytes()
        outputs.append(blob)

    assert outputs[0].keys() == outputs[1].keys()
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], f"{name} differs between runs"
    assert len(outputs[0]) >= 9  # the report plus one certificate per solvable kind
    print(f"\n{len(outputs[0]) - 1} certificates and the report are byte-identical across runs -- PASS")
