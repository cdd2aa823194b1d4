"""Certificate documents: emission, parsing, and verification.

A certificate is a line-based text file in the same style as instance files:
``#`` starts a comment and rationals print as ``p/q`` (integers without the
``/1``).  The first directive names the certificate kind, which must match
the instance it is checked against.  One table,
:data:`CERTIFICATE_DIRECTIVES`, says which kinds take each directive, how
its fields are read and which of its lines may not repeat, and the column
reader of instance files (`instances.read_columns`) reads certificates
through it.  ``objective`` and the kind's bounds each appear exactly once;
a repeated one is a parse error, never a silent overwrite.

* ``eds-tree``: the chosen edges and one dual value per edge.  Verification
  recomputes the objective, requires the dual total to equal it, and
  completes the per-edge values into a full feasible dual.
* ``multicut-tree``: the kept cut of the penalty-compiled tree, the stated
  ``ratio`` and the dual's nonzero values; an absent value is zero.
  Verification rebuilds the compiled tree and its guard edges
  deterministically, and re-checks that no guard edge is cut, coverage,
  exact dual feasibility, the factor-2 bound, saturation, and the ratio.
* ``eds-general``: the chosen edges, objective, relaxation ``lower`` bound,
  target ``factor``, and the strengthened LP's optimum x (``primal``) and
  dual optimum y (``dual``) in units.  Verification recomputes the
  objective and the LP's value, from x and y in integers or, with no pair,
  by re-solving, and checks ``lower <= objective <= factor * lower``.

:func:`verify_certificate` checks the kind, then hands over to the kind's
verifier; every verifier recomputes the objective the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm
from operator import attrgetter
from typing import Dict, Optional, Tuple

from .eds_general import harmonic
from .eds_tree import verify_eds_optimality
from .instances import (
    EdsInstance,
    InstanceError,
    MulticutInstance,
    ParseError,
    eds_solution,
    problem_kind,
    read_columns,
    read_int,
)
from .lp import LpModel, LpResult, dual_model, simplex_solve
from .multicut_tree import (
    MulticutDual,
    kept_solution,
    reduce_prize_collecting,
    verify_multicut,
)
from .rationals import ExtRat, ONE, Rat, ZERO, fmt_rat, is_inf, parse_rat
from .relaxations import as_lexicographic, build_relaxation
from .reporting import CheckReport

CERTIFICATE_KINDS = ("eds-tree", "multicut-tree", "eds-general")
_TREES, _CUT, _GENERAL = CERTIFICATE_KINDS[:2], CERTIFICATE_KINDS[1:2], CERTIFICATE_KINDS[2:]


def _value_or_inf(tok: str) -> ExtRat:
    """A value token or ``inf``."""
    return parse_rat(tok, allow_inf=True)


#: Every certificate directive, in the shape of `instances.DIRECTIVES`: for
#: the kinds that take it, the readers of its fields, the message for a
#: wrong number of them and its rule, if any.  A value is read by
#: `parse_rat`, so a negative one parses and verification rejects it; only
#: ``objective`` takes ``inf``.  The directives whose rule keys no field
#: hold one value, once: the objective, then each kind's bounds.
CERTIFICATE_DIRECTIVES = {
    "objective": {CERTIFICATE_KINDS: (
        (_value_or_inf,), "'objective' takes one value, once",
        (0, "'objective' takes one value, once"))},
    "ratio": {_CUT: (
        (parse_rat,), "'ratio' takes one value and is multicut-only",
        (0, "duplicate 'ratio' line"))},
    "lower": {_GENERAL: (
        (parse_rat,), "'lower' takes one value and is eds-general-only",
        (0, "duplicate 'lower' line"))},
    "factor": {_GENERAL: (
        (parse_rat,), "'factor' takes one value and is eds-general-only",
        (0, "duplicate 'factor' line"))},
    "edge": {CERTIFICATE_KINDS: (
        (read_int,), "'edge' takes one id", (1, "duplicate edge entry for {}"))},
    "xi": {_TREES: (
        (read_int, parse_rat), "'xi' takes an id and a value", (1, "duplicate xi entry for {}"))},
    "nu": {_CUT: (
        (read_int, read_int, parse_rat), "'nu' takes edge, demand and value (multicut-only)",
        (2, "duplicate nu entry for {}"))},
    "mu": {_CUT: (
        (read_int, read_int, parse_rat), "'mu' takes node, demand and value (multicut-only)",
        (2, "duplicate mu entry for {}"))},
    "primal": {_GENERAL: (
        (str, parse_rat), "'primal' takes a variable and a value (eds-general-only)",
        (1, "duplicate primal entry for {}"))},
    "dual": {_GENERAL: (
        (str, parse_rat), "'dual' takes a row and a value (eds-general-only)",
        (1, "duplicate dual entry for {}"))},
}


def _scalars(kind: str):
    """The directives that a certificate of ``kind`` holds once, in print order."""
    return [head for head, groups in CERTIFICATE_DIRECTIVES.items()
            for group, (_, _, rule) in groups.items() if kind in group and rule and not rule[0]]


@dataclass
class Certificate:
    """Parsed certificate; unused fields stay empty for a given kind."""

    kind: str
    edges: Tuple[int, ...] = ()
    objective: ExtRat = ZERO
    xi: Dict[int, Rat] = field(default_factory=dict)
    nu: Dict[Tuple[int, int], Rat] = field(default_factory=dict)
    mu: Dict[Tuple[int, int], Rat] = field(default_factory=dict)
    ratio: Optional[Rat] = None
    lower: Optional[Rat] = None
    factor: Optional[Rat] = None
    primal: Dict[str, Rat] = field(default_factory=dict)
    dual: Dict[str, Rat] = field(default_factory=dict)


def eds_tree_certificate(inst: EdsInstance, sol, xi: Dict[int, Rat]) -> Certificate:
    """``xi`` may hold ints, which print as the equal Rats do."""
    return Certificate(
        kind="eds-tree",
        edges=tuple(sorted(sol.edges)),
        objective=sol.total,
        xi={e: xi.get(e, ZERO) for e in sorted(inst.graph.edge_ids())},
    )


def multicut_certificate(sol, ratio: Rat, kept, dual: MulticutDual) -> Certificate:
    return Certificate(
        kind="multicut-tree",
        edges=tuple(sorted(kept)),
        objective=sol.total,
        ratio=ratio,
        xi=dict(dual.xi),
        nu=dict(dual.nu),
        mu=dict(dual.mu),
    )


def eds_general_certificate(sol, lower: Rat, factor: Rat, pair: LpResult) -> Certificate:
    return Certificate(
        kind="eds-general",
        edges=tuple(sorted(sol.edges)),
        objective=sol.total,
        lower=lower,
        factor=factor,
        primal={v: q for v, q in pair.assignment.items() if q},  # zeros left out
        dual={r: q for r, q in pair.duals.items() if q},
    )


def serialize_certificate(cert: Certificate) -> str:
    """Canonical text form; identical certificates serialize identically."""
    if cert.kind not in CERTIFICATE_KINDS:
        raise InstanceError(f"unknown certificate kind {cert.kind!r}")
    lines = [f"certificate {cert.kind}"]
    lines += [f"{head} {fmt_rat(getattr(cert, head))}" for head in _scalars(cert.kind)]
    for e in sorted(cert.edges):
        lines.append(f"edge {e}")
    for key in sorted(cert.xi):
        lines.append(f"xi {key} {fmt_rat(cert.xi[key])}")
    for e, i in sorted(cert.nu):
        lines.append(f"nu {e} {i} {fmt_rat(cert.nu[(e, i)])}")
    for v, i in sorted(cert.mu):
        lines.append(f"mu {v} {i} {fmt_rat(cert.mu[(v, i)])}")
    for head in ("primal", "dual"):
        lines += [f"{head} {name} {fmt_rat(q)}" for name, q in getattr(cert, head).items()]
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> Certificate:
    """Parse a certificate file.  Errors report 1-based line numbers."""
    kind, columns = read_columns(
        text, "certificate", CERTIFICATE_KINDS, "certificate", CERTIFICATE_DIRECTIVES)
    if not columns["objective"][0]:
        raise ParseError(f"line {len(text.splitlines())}: missing 'objective' line")

    def rows(head):
        """The field values of head's lines, a tuple a line; none if the kind
        does not take head."""
        return zip(*columns.get(head, ()))

    nu, mu = ({(x, i): val for x, i, val in rows(head)} for head in ("nu", "mu"))
    return Certificate(
        kind=kind,
        edges=tuple(sorted(columns["edge"][0])),
        xi=dict(rows("xi")),
        nu=nu,
        mu=mu,
        primal=dict(rows("primal")),
        dual=dict(rows("dual")),
        **{head: columns[head][0][0] for head in _scalars(kind) if columns[head][0]},
    )


def verify_certificate(inst, cert: Certificate) -> CheckReport:
    """Check a certificate against an instance; one named entry per check."""
    report = CheckReport()
    kind = problem_kind(inst)
    if not report.add(
        "kind-matches", kind == cert.kind, f"instance {kind}, certificate {cert.kind}"
    ):
        return report
    return _VERIFIERS[kind](inst, cert, report)


def _edges_in_range(report, edge_ids, edges) -> bool:
    known = set(edge_ids)
    stray = sorted(set(edges) - known)
    return report.add("edges-exist", not stray, f"unknown edges: {stray}")


def _objective_recomputed(report, sol, cert: Certificate) -> None:
    report.add(
        "objective-recomputed",
        sol.total == cert.objective,
        f"stated {fmt_rat(cert.objective)}, recomputed {fmt_rat(sol.total)}",
    )


def _verify_eds_tree(inst: EdsInstance, cert: Certificate, report: CheckReport):
    if not _edges_in_range(report, inst.graph.edge_ids(), cert.edges):
        return report
    sol = eds_solution(inst, cert.edges)
    _objective_recomputed(report, sol, cert)
    sub = verify_eds_optimality(inst, sol, cert.xi)
    report.checks.extend(sub.checks)
    return report


def _verify_multicut_tree(inst: MulticutInstance, cert: Certificate, report: CheckReport):
    inst0, guards = reduce_prize_collecting(inst)
    if not _edges_in_range(report, inst0.tree.edge_ids(), cert.edges):
        return report
    kept = set(cert.edges)
    report.add(
        "no-pendant-guard-edge",
        not (kept & guards),
        "the compiled tree's guard edges must never be cut",
    )
    dual = MulticutDual(xi=dict(cert.xi), nu=dict(cert.nu), mu=dict(cert.mu))
    sub = verify_multicut(inst0, kept, dual)
    report.checks.extend(sub.checks)

    sol = kept_solution(inst, inst0, kept)
    _objective_recomputed(report, sol, cert)
    total = dual.total
    stated = cert.ratio
    if total > 0:
        ratio_ok = stated is not None and not is_inf(sol.total) and stated == sol.total / total
    else:
        ratio_ok = stated == ONE and sol.total == ZERO
    report.add("ratio-recomputed", ratio_ok, f"stated {stated}, dual total {total}")
    return report


def _verify_eds_general(inst: EdsInstance, cert: Certificate, report: CheckReport):
    if not _edges_in_range(report, inst.graph.edge_ids(), cert.edges):
        return report
    sol = eds_solution(inst, cert.edges)
    _objective_recomputed(report, sol, cert)
    model = build_relaxation(inst, "strengthened")
    if cert.primal or cert.dual:
        value = _pair_value(model, cert, report)
    else:  # solved, as before certificates had a pair
        value = simplex_solve(as_lexicographic(model)).value
    value = value and value / inst.scale  # priced in units
    report.add(
        "lower-bound-recomputed",
        value is not None and cert.lower == value,
        f"stated {cert.lower}, relaxation {value}",
    )
    report.add(
        "factor-is-4H",
        cert.factor == Rat(4) * harmonic(inst.graph.n),
        f"stated {cert.factor}",
    )
    stated = cert.lower is not None and not is_inf(cert.objective)
    report.add(
        "weak-duality",
        stated and cert.lower <= cert.objective,
        "lower bound must not exceed the objective",
    )
    report.add(
        "within-factor",
        stated and cert.factor is not None and cert.objective <= cert.factor * cert.lower,
        "objective must not exceed factor times the lower bound",
    )
    return report


def _pair_value(model: LpModel, cert: Certificate, report: CheckReport) -> Optional[Rat]:
    """The optimum of ``model``, a ``min`` LP with integer data, that the
    certificate's x and y prove in integers over their least common
    denominator d, or None: x >= 0 meets its rows, y >= 0 those of its dual,
    and c.x = b.y (Dhiflaoui et al., *SODA* 2003)."""
    dual = dual_model(model)
    sides = ((model, cert.primal, "primal-feasible"), (dual, cert.dual, "dual-feasible"))
    stray, d, values, ok = [], 1, [], True
    for lp, side, _ in sides:
        stray += sorted(set(side).difference(lp.variables))
        d = lcm(d, *map(attrgetter("denominator"), side.values()))
    if not report.add("pair-names", not stray, f"not in the relaxation: {stray[:3]}"):
        return None
    for lp, side, check in sides:
        point, unmet, value = {}, [], 0
        for k, q in side.items():
            point[k] = x = int(q * d)
            value += lp.objective.get(k, 0) * x
            if x < 0:
                unmet.append(k)
        for con in lp.constraints:
            lhs = -con.rhs * d
            for v, c in con.coeffs.items():
                lhs += c * point.get(v, 0)
            if lhs < 0 if con.relation == ">=" else lhs > 0:
                unmet.append(con.name)
        values.append(Rat(value, d))
        ok = report.add(check, not unmet, " ".join(unmet[:3])) and ok
    cx, by = values
    return by if report.add("pair-values-equal", cx == by, f"c.x {cx}, b.y {by}") and ok else None


_VERIFIERS = {
    "eds-tree": _verify_eds_tree,
    "multicut-tree": _verify_multicut_tree,
    "eds-general": _verify_eds_general,
}
