"""Certificate round-trip, verification, and tamper detection for all kinds."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings

from graphcover import (
    InstanceError,
    ParseError,
    eds_general_certificate,
    eds_tree_certificate,
    gen_instance,
    build_relaxation,
    multicut_certificate,
    parse_certificate,
    parse_instance,
    serialize_certificate,
    serialize_instance,
    solve_eds_general,
    solve_eds_tree,
    verify_certificate,
)
from graphcover import certificates, cli
from graphcover.certificates import CERTIFICATE_DIRECTIVES
from graphcover.instances import eds_solution, multicut_solution
from graphcover.multicut_tree import (
    multicut_ratio,
    reduce_prize_collecting,
    run_multicut_pipeline,
)
from graphcover.rationals import ZERO, is_inf

from _support import edited_texts


def _tree_cert(seed=3):
    inst = gen_instance("random-tree-eds", n=7, seed=seed)
    sol, dual = solve_eds_tree(inst)
    return inst, eds_tree_certificate(inst, sol, dual.xi)


def _multicut_cert(seed=4):
    inst = gen_instance("random-tree-multicut", n=7, k=3, seed=seed)
    _, _, _, kept, dual = run_multicut_pipeline(inst)
    sol = multicut_solution(inst, [e for e in kept if e < inst.tree.n])
    ratio = multicut_ratio(sol.total, dual.total)
    return inst, multicut_certificate(sol, ratio, kept, dual)


def _general_cert(seed=2):
    inst = gen_instance("random-eds-general", n=5, m=6, seed=seed)
    return inst, eds_general_certificate(*solve_eds_general(inst))


# -- round-trips ------------------------------------------------------------


@pytest.mark.parametrize("make", [_tree_cert, _multicut_cert, _general_cert])
def test_serialize_parse_round_trip(make):
    _, cert = make()
    text = serialize_certificate(cert)
    again = parse_certificate(text)
    assert again == cert
    assert serialize_certificate(again) == text


def test_tree_certificate_lists_every_edge_xi():
    inst, cert = _tree_cert()
    assert sorted(cert.xi) == sorted(inst.graph.edge_ids())


# -- verification accepts solver output --------------------------------------


@pytest.mark.parametrize("make", [_tree_cert, _multicut_cert, _general_cert])
def test_verify_accepts_solver_output(make):
    inst, cert = make()
    report = verify_certificate(inst, parse_certificate(serialize_certificate(cert)))
    assert report.passed, report.format()


# -- tampering is caught -----------------------------------------------------


def test_tampered_tree_dual_rejected():
    inst, cert = _tree_cert()
    edge = min(cert.xi)
    cert.xi[edge] = cert.xi[edge] + 1
    cert.objective = cert.objective + 1  # keep the total consistent on purpose
    report = verify_certificate(inst, cert)
    assert not report.passed


def test_tampered_multicut_cut_rejected():
    inst, cert = _multicut_cert()
    cert.edges = ()
    report = verify_certificate(inst, cert)
    assert not report.passed


def test_a_cut_guard_edge_is_rejected():
    inst, cert = _multicut_cert()
    edges = cert.edges
    guards = reduce_prize_collecting(inst)[1]
    assert guards
    for g in guards:
        cert.edges = (*edges, g)
        assert "no-pendant-guard-edge" in verify_certificate(inst, cert).failures()


def test_tampered_multicut_ratio_rejected():
    inst, cert = _multicut_cert()
    cert.ratio = cert.ratio + 1
    report = verify_certificate(inst, cert)
    assert not report.passed


def test_tampered_general_lower_rejected():
    inst, cert = _general_cert()
    cert.lower = cert.lower + 1
    report = verify_certificate(inst, cert)
    assert not report.passed


# -- the eds-general primal-dual pair -----------------------------------------


def _still_proves(inst, text):
    """The judge of an accepted edit: the pair still proves the stated
    lower bound, by plain Fraction sums over the relaxation's rows, for
    x >= 0, y >= 0, every row and dual row, and c.x = b.y = lower * scale."""
    cert = parse_certificate(text)
    model = build_relaxation(inst, "strengthened")
    x = {v: Fraction(cert.primal.get(v, 0)) for v in model.variables}
    y = {c.name: Fraction(cert.dual.get(c.name, 0)) for c in model.constraints}
    if set(cert.primal) - set(x) or set(cert.dual) - set(y):
        return False
    if any(q < 0 for q in (*x.values(), *y.values())):
        return False
    for c in model.constraints:  # every relaxation row is a >= row
        if sum(k * x[v] for v, k in c.coeffs.items()) < c.rhs:
            return False
    load = dict.fromkeys(model.variables, Fraction(0))
    for c in model.constraints:
        for v, k in c.coeffs.items():
            load[v] += k * y[c.name]
    if any(load[v] > model.objective.get(v, 0) for v in model.variables):
        return False
    cx = sum(model.objective.get(v, 0) * x[v] for v in model.variables)
    by = sum(c.rhs * y[c.name] for c in model.constraints)
    return cx == by == cert.lower * inst.scale


def _pair_edits(text):
    """(line, edited text) for each pair line: the line dropped, its value
    raised by 1 and by 1/7, doubled, halved and negated, and its name
    replaced by one the relaxation lacks."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        head, *rest = line.split()
        if head not in ("primal", "dual"):
            continue
        name, q = rest[0], Fraction(rest[1])
        values = [q + 1, q + Fraction(1, 7), 2 * q, q / 2, -q]
        news = [None] + [f"{head} {name} {v}" for v in values] + [f"{head} {name}_9 {q}"]
        for new in news:
            edited = lines[:i] + ([new] if new else []) + lines[i + 1:]
            yield line, "\n".join(edited) + "\n"


@pytest.mark.parametrize("seed", [2, 3])
def test_every_pair_edit_is_rejected_unless_it_still_proves_the_bound(seed):
    """A pair line dropped, re-valued or renamed fails ``verify`` unless
    the judge finds the pair still a proof of the stated bound, as when a
    zero-cost variable rises within its rows' slack.  An edit of a priced
    entry changes c.x or b.y, so it is always rejected."""
    inst, cert = _general_cert(seed)
    text = serialize_certificate(cert)
    model = build_relaxation(inst, "strengthened")
    rhs = {c.name: c.rhs for c in model.constraints}
    rejected = accepted = 0
    for line, edited in _pair_edits(text):
        report = verify_certificate(inst, parse_certificate(edited))
        head, name, _ = line.split()
        priced = (model.objective if head == "primal" else rhs).get(name, 0) != 0
        if report.passed:
            assert not priced and _still_proves(inst, edited), (line, edited)
            accepted += 1
        else:
            assert set(report.failures()) <= {
                "pair-names", "primal-feasible", "dual-feasible", "pair-values-equal",
                "lower-bound-recomputed"}, report.format()
            rejected += 1
    assert rejected > 4 * accepted


def test_a_pair_line_naming_what_the_relaxation_lacks_is_rejected():
    inst, cert = _general_cert()
    for head, name in (("primal", "x_e99"), ("primal", "cover_0"), ("dual", "x_e0")):
        text = serialize_certificate(cert) + f"{head} {name} 0\n"
        report = verify_certificate(inst, parse_certificate(text))
        assert report.failures() == ["pair-names", "lower-bound-recomputed"], report.format()


def test_verify_checks_the_pair_without_a_simplex(monkeypatch):
    """With the pair, no LP is solved; without it, as in a certificate
    written before the pair lines, the bound is re-solved and passes."""
    inst, cert = _general_cert()
    assert cert.primal and cert.dual

    def no_simplex(model):
        raise AssertionError("verify solved an LP")

    with monkeypatch.context() as mp:
        mp.setattr(certificates, "simplex_solve", no_simplex)
        report = verify_certificate(inst, cert)
    assert report.passed, report.format()
    bare = replace(cert, primal={}, dual={})
    text = serialize_certificate(bare)
    assert "primal" not in text and "dual" not in text
    report = verify_certificate(inst, parse_certificate(text))
    assert report.passed and "pair-names" not in [name for name, _, _ in report.checks]


_PATH3 = "problem eds-general\nnodes 3\nnode 0 0\nnode 1 0\nnode 2 0\n" \
    "edge 0 1 100 1\nedge 1 2 100 1\n"


@pytest.mark.parametrize("pair", [True, False])
def test_an_objective_beyond_the_factor_is_rejected(pair):
    """Both edges of the 3-node path cost 200, against a lower bound of 2
    and a factor of 22/3: the edges and objective agree, and only
    ``within-factor`` fails, with the pair or through the re-solve."""
    inst = parse_instance(_PATH3)
    cert = eds_general_certificate(*solve_eds_general(inst))
    assert (cert.objective, cert.lower) == (2, 2)
    cert.edges = (0, 1)
    cert.objective = eds_solution(inst, cert.edges).total
    assert cert.objective == 200
    if not pair:
        cert = replace(cert, primal={}, dual={})
    report = verify_certificate(inst, cert)
    assert report.failures() == ["within-factor"], report.format()


@pytest.mark.parametrize("pair", [True, False])
def test_an_infinite_objective_fails_weak_duality(pair):
    """With no edge chosen, the 3-node path leaves its infinite-penalty edge
    undominated: the certificate states ``objective inf``, which the edges
    recompute, and only ``weak-duality`` and ``within-factor`` fail."""
    inst = parse_instance(_PATH3.replace("edge 0 1 100 1", "edge 0 1 100 inf"))
    cert = eds_general_certificate(*solve_eds_general(inst))
    cert.edges = ()
    cert.objective = eds_solution(inst, cert.edges).total
    assert is_inf(cert.objective)
    if not pair:
        cert = replace(cert, primal={}, dual={})
    report = verify_certificate(inst, parse_certificate(serialize_certificate(cert)))
    assert report.failures() == ["weak-duality", "within-factor"], report.format()


def test_kind_mismatch_rejected():
    inst, _ = _tree_cert()
    _, other = _general_cert()
    report = verify_certificate(inst, other)
    assert not report.passed


def test_foreign_edge_rejected():
    inst, cert = _multicut_cert()
    cert.edges = cert.edges + (999,)
    report = verify_certificate(inst, cert)
    assert not report.passed


@pytest.mark.parametrize("make", [_tree_cert, _general_cert])
def test_an_unknown_edge_stops_at_edges_exist(make):
    inst, cert = make()
    cert.edges = cert.edges + (1000000,)
    report = verify_certificate(inst, cert)
    assert report.checks[1:] == [("edges-exist", False, "unknown edges: [1000000]")]


@pytest.mark.parametrize("seed", range(4))
def test_every_multicut_xi_line_dropped_is_rejected(seed):
    """The multicut dual is written sparsely, an absent line meaning zero,
    so a dropped ``xi`` line lowers the dual total below the one the stated
    ratio was computed from."""
    inst, cert = _multicut_cert(seed)
    assert 0 not in (*cert.xi.values(), *cert.nu.values(), *cert.mu.values())
    lines = serialize_certificate(cert).splitlines(keepends=True)
    dropped = 0
    for at, line in enumerate(lines):
        if line.startswith("xi "):
            text = "".join(lines[:at] + lines[at + 1:])
            report = verify_certificate(inst, parse_certificate(text))
            assert "ratio-recomputed" in report.failures(), (line, report.format())
            dropped += 1
    assert dropped == len(cert.xi) > 0


def test_serialize_refuses_an_unknown_kind():
    _, cert = _tree_cert()
    with pytest.raises(InstanceError, match="unknown certificate kind 'eds-forest'"):
        serialize_certificate(replace(cert, kind="eds-forest"))


# -- parser errors -----------------------------------------------------------


def test_parse_needs_header():
    with pytest.raises(ParseError) as err:
        parse_certificate("objective 3\n")
    assert "line 1" in str(err.value)


def _over_a_penalty(inst, cert):
    """xi of edge 1 one over its penalty of 3, and xi of edge 2 one lower,
    so the dual total still equals the objective."""
    assert (cert.xi[1], inst.penalty_units[1], inst.scale) == (3, 3, 1)
    cert.xi[1] += 1
    cert.xi[2] -= 1
    return cert


def _raised(field):
    def edit(inst, cert):
        setattr(cert, field, getattr(cert, field) + 1)
        return cert
    return edit


def _without_xi(inst, cert):
    cert.xi = dict.fromkeys(cert.xi, ZERO)
    return cert


@pytest.mark.parametrize("make, edit, failures", [
    (_tree_cert, lambda inst, cert: _general_cert()[1], ["kind-matches"]),
    (_tree_cert, _raised("objective"), ["objective-recomputed"]),
    (_multicut_cert, _raised("objective"), ["objective-recomputed"]),
    (_general_cert, _raised("objective"), ["objective-recomputed"]),
    (_general_cert, _raised("factor"), ["factor-is-4H"]),
    (_tree_cert, _without_xi, ["dual-total-equals-objective"]),
    (_tree_cert, _over_a_penalty, ["dual-values-within-penalties", "dual-completion-feasible"]),
    (_multicut_cert, _without_xi, ["within-twice-dual", "ratio-recomputed"]),
], ids=[
    "kind", "tree-objective", "multicut-objective", "general-objective", "factor",
    "tree-dual-total", "tree-over-penalty", "multicut-dual-total",
])
def test_each_tamper_fails_exactly_its_checks(make, edit, failures):
    """A certificate edited in one way fails exactly the checks that read
    what the edit broke."""
    inst, cert = make()
    assert verify_certificate(inst, edit(inst, cert)).failures() == failures


def test_parse_rejects_duplicates():
    _, cert = _tree_cert()
    text = serialize_certificate(cert)
    dup = text + text.splitlines()[1] + "\n"
    with pytest.raises(ParseError):
        parse_certificate(dup)


@pytest.mark.parametrize(
    "make, directive",
    [(_multicut_cert, "ratio"), (_general_cert, "lower"), (_general_cert, "factor")],
)
def test_parse_rejects_duplicate_scalar_line(make, directive):
    _, cert = make()
    lines = serialize_certificate(cert).splitlines()
    at = next(i for i, line in enumerate(lines) if line.split()[0] == directive)
    lines.insert(at, f"{directive} 99")
    with pytest.raises(ParseError) as err:
        parse_certificate("\n".join(lines) + "\n")
    assert str(err.value) == f"line {at + 2}: duplicate '{directive}' line"


@pytest.mark.parametrize("make", [_tree_cert, _multicut_cert, _general_cert])
def test_parse_rejects_a_repeated_edge_at_its_line(make):
    _, cert = make()
    lines = serialize_certificate(cert).splitlines()
    at = next(i for i, line in enumerate(lines) if line.split()[0] == "edge")
    lines.append(lines[at])
    with pytest.raises(ParseError) as err:
        parse_certificate("\n".join(lines) + "\n")
    e = lines[at].split()[1]
    assert str(err.value) == f"line {len(lines)}: duplicate edge entry for {e}"


def test_parse_reports_a_missing_objective_at_the_last_line():
    text = "certificate eds-tree\nedge 1\n# no objective\nxi 1 2\n"
    with pytest.raises(ParseError) as err:
        parse_certificate(text)
    assert str(err.value) == "line 4: missing 'objective' line"


@pytest.mark.parametrize("end", ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"])
def test_certificate_lines_split_as_splitlines_splits_them(end):
    for make in (_tree_cert, _multicut_cert, _general_cert):
        text = serialize_certificate(make()[1])
        assert parse_certificate(text.replace("\n", end)) == parse_certificate(text)
    text = "certificate eds-tree\nobjective 1\nedge 1\nxi 1 1\nedge 1\n"
    with pytest.raises(ParseError) as err:
        parse_certificate(text.replace("\n", end))
    assert str(err.value) == "line 5: duplicate edge entry for 1"


def test_parse_rejects_wrong_kind_directive():
    text = "certificate eds-tree\nobjective 1\nratio 1\n"
    with pytest.raises(ParseError):
        parse_certificate(text)


_MAKERS = {"eds-tree": _tree_cert, "multicut-tree": _multicut_cert, "eds-general": _general_cert}

#: A line of each directive that not every kind takes, and those kinds.
_FOREIGN = [
    ("ratio 1", ("eds-tree", "eds-general")),
    ("lower 1", ("eds-tree", "multicut-tree")),
    ("factor 1", ("eds-tree", "multicut-tree")),
    ("xi 0 1", ("eds-general",)),
    ("primal x_e0 1", ("eds-tree", "multicut-tree")),
    ("dual cover_0 1", ("eds-tree", "multicut-tree")),
    ("nu 1 0 1", ("eds-tree", "eds-general")),
    ("mu 1 0 1", ("eds-tree", "eds-general")),
]


def test_every_directive_but_objective_and_edge_is_foreign_to_some_kind():
    heads = {line.split()[0] for line, _ in _FOREIGN}
    assert heads | {"objective", "edge"} == set(CERTIFICATE_DIRECTIVES)


@pytest.mark.parametrize("extra", ["", " 2"])
@pytest.mark.parametrize(
    "line, kind", [(line, kind) for line, kinds in _FOREIGN for kind in kinds]
)
def test_parse_rejects_a_directive_its_kind_does_not_take(line, kind, extra):
    """Whatever its field count, the line is named with the instance files'
    message."""
    lines = serialize_certificate(_MAKERS[kind]()[1]).splitlines()
    lines.insert(2, line + extra)
    with pytest.raises(ParseError) as err:
        parse_certificate("\n".join(lines) + "\n")
    assert str(err.value) == f"line 3: '{line.split()[0]}' is not valid for {kind}"


@pytest.mark.parametrize("kind", sorted(_MAKERS))
@pytest.mark.parametrize("line", ["witness 0 1", "processed 0"])
def test_a_retired_multicut_line_is_an_unknown_directive(line, kind, tmp_path, capsys):
    """``witness`` and ``processed`` are no longer part of any format:
    either fails to parse at its line, and ``verify`` exits 2."""
    inst, cert = _MAKERS[kind]()
    lines = serialize_certificate(cert).splitlines()
    lines.insert(2, line)
    text = "\n".join(lines) + "\n"
    message = f"line 3: unknown directive {line.split()[0]!r}"
    with pytest.raises(ParseError) as err:
        parse_certificate(text)
    assert str(err.value) == message
    (tmp_path / "inst").write_text(serialize_instance(inst))
    (tmp_path / "cert").write_text(text)
    capsys.readouterr()
    assert cli.run(["verify", str(tmp_path / "inst"), str(tmp_path / "cert")]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "fault, message",
    [
        (lambda toks: [*toks[:2], "x"], "malformed rational 'x'"),
        (lambda toks: [*toks, "1"], "'xi' takes an id and a value"),
        (lambda toks: [toks[0], "1", toks[2]], "duplicate xi entry for 1"),
    ],
)
def test_a_fault_past_the_first_block_is_named_at_its_line(fault, message):
    """A certificate over 8 KB is read a block at a time; the error still
    names the faulty line, not a later line of its block."""
    inst = gen_instance("random-tree-eds", n=2000, seed=1)
    sol, dual = solve_eds_tree(inst)
    lines = serialize_certificate(eds_tree_certificate(inst, sol, dual.xi)).splitlines()
    at = len(lines) * 3 // 4
    assert lines[at].startswith("xi ") and len("\n".join(lines[:at])) > 1 << 14
    lines[at] = " ".join(fault(lines[at].split()))
    with pytest.raises(ParseError) as err:
        parse_certificate("\n".join(lines) + "\n")
    assert str(err.value) == f"line {at + 1}: {message}"


def test_parse_rejects_unknown_directive():
    text = "certificate eds-tree\nobjective 1\nbogus 1\n"
    with pytest.raises(ParseError) as err:
        parse_certificate(text)
    assert "line 3" in str(err.value)


_CERT_TEXTS = [
    serialize_certificate(make()[1]) for make in (_tree_cert, _multicut_cert, _general_cert)
]


@settings(max_examples=700, deadline=None, database=None)
@given(edited_texts(_CERT_TEXTS))
def test_edited_certificate_files_parse_or_raise_parse_error(text):
    try:
        parse_certificate(text)
    except ParseError:
        pass
