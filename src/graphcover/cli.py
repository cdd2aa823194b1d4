"""Command-line front end: solve, verify, gap experiments, generation, batch.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 internal assertion failure.  All numbers print as exact rationals
(``p/q``, integers without the ``/1``), so identical inputs give
byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .certificates import (
    Certificate,
    eds_general_certificate,
    eds_tree_certificate,
    multicut_certificate,
    parse_certificate,
    serialize_certificate,
    verify_certificate,
)
from .eds_general import solve_eds_general
from .eds_tree import solve_eds_tree
from .instances import (
    EdsInstance,
    InstanceError,
    MulticutInstance,
    ParseError,
    gen_instance,
    multicut_solution,
    parse_instance,
    serialize_instance,
    problem_kind,
)
from .multicut_tree import run_multicut_pipeline
from .oracle import (
    OracleCapError,
    brute_force_cover,
    brute_force_eds,
    brute_force_facility_location,
    brute_force_multicut,
)
from .rationals import ONE, Rat, ZERO, fmt_rat, is_inf
from .relaxations import relaxation_value

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

_GEN_KINDS = (
    "star-gap-eds",
    "subdivided-star-multicut",
    "random-tree-eds",
    "random-tree-multicut",
    "random-eds-general",
    "random-set-cover",
    "random-facility-location",
)
_GEN_INT_PARAMS = (
    "n", "m", "k", "wmax", "pmax", "cmax", "omax", "dmax", "clients", "facilities",
)
_GEN_FLOAT_PARAMS = ("inf_prob", "skip_prob")


class _CliError(Exception):
    """Usage-level failure carrying the message to print on stderr."""


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}")


def _load_instance(path: str):
    return parse_instance(_read(path))


def _solve(inst):
    """Dispatch by problem kind; returns (printable lines, certificate)."""
    kind = problem_kind(inst)
    if kind == "eds-tree":
        sol, dual = solve_eds_tree(inst)
        cert = eds_tree_certificate(inst, sol, dual.xi)
        extra = [f"dual-total {fmt_rat(dual.total)}", "ratio 1"]
    elif kind == "multicut-tree":
        inst0, _, state, kept = run_multicut_pipeline(inst)
        dual = state.dual
        original = sorted(e for e in kept if e < inst.tree.n)
        sol = multicut_solution(inst, original)
        total = dual.total
        ratio = sol.total / total if total > 0 else ONE
        cert = multicut_certificate(
            inst, sol, ratio, kept, dual, state.witness, state.processed
        )
        extra = [f"dual-total {fmt_rat(total)}", f"ratio {fmt_rat(ratio)}"]
    elif kind == "eds-general":
        sol, lower, factor = solve_eds_general(inst)
        cert = eds_general_certificate(inst, sol, lower, factor)
        extra = [f"lower {fmt_rat(lower)}", f"factor {fmt_rat(factor)}"]
    else:
        raise _CliError(f"solve does not support {kind}; use the oracle subcommand")
    lines = [
        f"problem {kind}",
        f"objective {fmt_rat(sol.total)}",
        f"edge-weight {fmt_rat(sol.edge_weight)}",
        f"node-weight {fmt_rat(sol.node_weight)}",
        f"penalty {fmt_rat(sol.penalty)}",
        " ".join(["edges"] + [str(e) for e in sol.edges]),
        *extra,
    ]
    return lines, cert


def _oracle_lines(inst) -> List[str]:
    kind = problem_kind(inst)
    if isinstance(inst, EdsInstance):
        sol = brute_force_eds(inst)
    elif isinstance(inst, MulticutInstance):
        sol = brute_force_multicut(inst)
    else:
        value = (
            brute_force_cover(inst)
            if kind == "set-cover"
            else brute_force_facility_location(inst)
        )
        return [f"problem {kind}", f"optimum {fmt_rat(value)}"]
    return [
        f"problem {kind}",
        f"optimum {fmt_rat(sol.total)}",
        " ".join(["edges"] + [str(e) for e in sol.edges]),
    ]


def _gap_line(inst, relaxation: str) -> str:
    if not isinstance(inst, (EdsInstance, MulticutInstance)):
        raise _CliError("gap needs an EDS or multicut instance")
    lp = relaxation_value(inst, relaxation)
    opt = (
        brute_force_eds(inst) if isinstance(inst, EdsInstance) else brute_force_multicut(inst)
    ).total
    if lp > 0:
        gap = fmt_rat(opt / lp) if not is_inf(opt) else "inf"
    else:
        gap = "1" if opt == ZERO else "inf"
    return f"LP={fmt_rat(lp)}, OPT={fmt_rat(opt)}, gap={gap}"


def _do_gen(args) -> int:
    params = {}
    for name in _GEN_INT_PARAMS:
        value = getattr(args, name)
        if value is not None:
            params[name] = value
    for name in _GEN_FLOAT_PARAMS:
        value = getattr(args, name)
        if value is not None:
            params[name] = value
    inst = gen_instance(args.kind, seed=args.seed, **params)
    text = serialize_instance(inst)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _batch_optimum(inst):
    """Brute-force optimum for a batch row, or None above the oracle's cap."""
    try:
        if isinstance(inst, EdsInstance):
            return brute_force_eds(inst).total
        if isinstance(inst, MulticutInstance):
            return brute_force_multicut(inst).total
        if problem_kind(inst) == "set-cover":
            return brute_force_cover(inst)
        return brute_force_facility_location(inst)
    except OracleCapError:
        return None


def _batch_cells(inst, opt, shown: str, cert_path: Optional[Path]) -> List[str]:
    """Report cells after the name for an EDS or multicut instance."""
    natural = relaxation_value(inst, "natural")
    strengthened = relaxation_value(inst, "strengthened")
    _, cert = _solve(inst)
    if cert_path:
        cert_path.write_text(serialize_certificate(cert))
    verdict = "pass" if verify_certificate(inst, cert).passed else "fail"
    objective = cert.objective
    if opt is None:
        ovr = "-"
    elif opt > 0:
        ovr = fmt_rat(objective / opt) if not is_inf(objective) else "inf"
    else:
        ovr = "1" if objective == ZERO else "inf"
    return [fmt_rat(natural), fmt_rat(strengthened), fmt_rat(objective), shown, ovr, verdict]


def _do_batch(args) -> int:
    """One report row per instance.  A row whose solve trips an internal
    check gets the verdict ``error``; the batch goes on and exits 3."""
    directory = Path(args.directory)
    if not directory.is_dir():
        raise _CliError(f"{args.directory} is not a directory")
    cert_dir = Path(args.certificates) if args.certificates else None
    if cert_dir:
        cert_dir.mkdir(parents=True, exist_ok=True)
    rows = [
        "instance\tnatural-lp\tstrengthened-lp\tobjective\toptimum\tratio\tverdict"
    ]
    verdicts = set()
    for path in sorted(p for p in directory.iterdir() if p.is_file()):
        inst = parse_instance(path.read_text())
        opt = _batch_optimum(inst)
        shown = "-" if opt is None else fmt_rat(opt)
        if isinstance(inst, (EdsInstance, MulticutInstance)):
            cert_path = cert_dir / (path.name + ".cert") if cert_dir else None
            try:
                cells = _batch_cells(inst, opt, shown, cert_path)
            except AssertionError as exc:
                sys.stderr.write(f"internal check failed on {path.name}: {exc}\n")
                cells = ["-", "-", "-", shown, "-", "error"]
            verdicts.add(cells[-1])
        else:
            cells = ["-", "-", "-", shown, "-", "-"]
        rows.append("\t".join([path.name, *cells]))
    report = "\n".join(rows) + "\n"
    if args.report:
        Path(args.report).write_text(report)
    else:
        sys.stdout.write(report)
    if "error" in verdicts:
        return EXIT_INTERNAL
    return EXIT_VERIFY if "fail" in verdicts else EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphcover",
        description="Solvers, oracles, and certificate checks for "
        "cover-or-pay edge domination and tree multicut.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the solver matching the problem header")
    p.add_argument("file")
    p.add_argument("--certificate", metavar="OUT", help="write a certificate here")

    p = sub.add_parser("oracle", help="brute-force optimum")
    p.add_argument("file")

    p = sub.add_parser("verify", help="check a certificate against an instance")
    p.add_argument("file")
    p.add_argument("certificate")

    p = sub.add_parser("gap", help="exact relaxation value vs brute-force optimum")
    p.add_argument("file")
    p.add_argument(
        "--relaxation",
        choices=("natural", "strengthened"),
        required=True,
    )

    p = sub.add_parser("gen", help="write a generated instance")
    p.add_argument("kind", choices=_GEN_KINDS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", metavar="FILE")
    for name in _GEN_INT_PARAMS:
        p.add_argument(f"--{name}", type=int, default=None)
    for name in _GEN_FLOAT_PARAMS:
        p.add_argument(f"--{name}", type=float, default=None)

    p = sub.add_parser("batch", help="solve+oracle+verify every instance in a directory")
    p.add_argument("directory")
    p.add_argument("--report", metavar="OUT", help="write the TSV table here")
    p.add_argument(
        "--certificates", metavar="DIR", help="write per-instance certificates here"
    )
    return parser


def run(argv: List[str]) -> int:
    """Entry point; returns the process exit code instead of raising."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        if args.command == "solve":
            lines, cert = _solve(_load_instance(args.file))
            if args.certificate:
                Path(args.certificate).write_text(serialize_certificate(cert))
            sys.stdout.write("\n".join(lines) + "\n")
            return EXIT_OK
        if args.command == "oracle":
            lines = _oracle_lines(_load_instance(args.file))
            sys.stdout.write("\n".join(lines) + "\n")
            return EXIT_OK
        if args.command == "verify":
            inst = _load_instance(args.file)
            cert = parse_certificate(_read(args.certificate))
            report = verify_certificate(inst, cert)
            sys.stdout.write(report.format() + "\n")
            return EXIT_OK if report.passed else EXIT_VERIFY
        if args.command == "gap":
            sys.stdout.write(
                _gap_line(_load_instance(args.file), args.relaxation) + "\n"
            )
            return EXIT_OK
        if args.command == "gen":
            return _do_gen(args)
        return _do_batch(args)
    except (ParseError, InstanceError, OracleCapError, _CliError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except AssertionError as exc:
        sys.stderr.write(f"internal check failed: {exc}\n")
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
