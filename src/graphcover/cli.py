"""Command-line front end: solve, verify, gap experiments, generation, batch.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error, out
of memory or a number over Python's int/str digit limit, 3 internal
assertion failure.  All numbers print as exact rationals (``p/q``,
integers without the ``/1``), so identical inputs give byte-identical
output.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from pathlib import Path
from typing import Callable, List, NamedTuple, Optional

from .certificates import (
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
    GEN_FLOAT_PARAMS,
    GEN_INT_PARAMS,
    GEN_KINDS,
    InstanceError,
    ParseError,
    gen_instance,
    multicut_solution,
    parse_instance,
    serialize_instance,
    problem_kind,
)
from .multicut_tree import multicut_ratio, run_multicut_pipeline
from .oracle import (
    OracleCapError,
    brute_force_cover,
    brute_force_eds,
    brute_force_facility_location,
    brute_force_multicut,
)
from .rationals import ZERO, DigitLimitError, fmt_rat, is_inf
from .relaxations import relaxation_value, relaxation_values

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

#: The exit code each batch verdict calls for; ``batch`` exits with the
#: highest one among its rows.
_VERDICT_EXIT = {"fail": EXIT_VERIFY, "invalid": EXIT_USAGE, "error": EXIT_INTERNAL}


#: The report cells of a file that cannot be read, parsed or held in memory.
_INVALID_ROW = ["-", "-", "-", "-", "-", "invalid"]


class _CliError(Exception):
    """Usage-level failure carrying the message to print on stderr."""


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(f"cannot read {path}: {exc}")


def _load_instance(path: str):
    return parse_instance(_read(path))


def _solve_eds_tree(inst):
    sol, dual = solve_eds_tree(inst)
    # an int prints as the equal Rat does, so integer units need no Rat
    cert = eds_tree_certificate(inst, sol, dual.units if dual.scale == 1 else dual.xi)
    return sol, cert, [f"dual-total {fmt_rat(dual.total)}", "ratio 1"]


def _solve_multicut_tree(inst):
    _, _, _, kept, dual = run_multicut_pipeline(inst)
    sol = multicut_solution(inst, [e for e in kept if e < inst.tree.n])
    ratio = multicut_ratio(sol.total, dual.total)
    cert = multicut_certificate(sol, ratio, kept, dual)
    return sol, cert, [f"dual-total {fmt_rat(dual.total)}", f"ratio {fmt_rat(ratio)}"]


def _solve_eds_general(inst):
    sol, lower, factor, pair = solve_eds_general(inst)
    cert = eds_general_certificate(sol, lower, factor, pair)
    return sol, cert, [f"lower {fmt_rat(lower)}", f"factor {fmt_rat(factor)}"]


def _eds_oracle(inst):
    sol = brute_force_eds(inst)
    return sol.total, sol.edges


def _multicut_oracle(inst):
    sol = brute_force_multicut(inst)
    return sol.total, sol.edges


class _Kind(NamedTuple):
    """One problem kind: ``oracle`` gives the optimum and its edges (None
    for cover problems); ``solve`` gives the solution, certificate and extra
    output lines, and is None for oracle-only kinds.  Both reach the library
    through this module's globals at call time, so a wrapper set on a
    module attribute sees every call."""

    oracle: Callable
    solve: Optional[Callable] = None


_KINDS = {
    "eds-tree": _Kind(_eds_oracle, _solve_eds_tree),
    "eds-general": _Kind(_eds_oracle, _solve_eds_general),
    "multicut-tree": _Kind(_multicut_oracle, _solve_multicut_tree),
    "set-cover": _Kind(lambda inst: (brute_force_cover(inst), None)),
    "facility-location": _Kind(lambda inst: (brute_force_facility_location(inst), None)),
}


def _solve(inst):
    """The printed lines and the certificate of the kind's solver."""
    kind = problem_kind(inst)
    solve = _KINDS[kind].solve
    if solve is None:
        raise _CliError(f"solve does not support {kind}; use the oracle subcommand")
    sol, cert, extra = solve(inst)
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
    value, edges = _KINDS[kind].oracle(inst)
    lines = [f"problem {kind}", f"optimum {fmt_rat(value)}"]
    if edges is not None:
        lines.append(" ".join(["edges"] + [str(e) for e in edges]))
    return lines


def _ratio_cell(num, den) -> str:
    """num / den as gap and batch print it; zero over zero reads 1."""
    if den > 0:
        return fmt_rat(num / den) if not is_inf(num) else "inf"
    return "1" if num == ZERO else "inf"


def _gap_line(inst, relaxation: str) -> str:
    kind = _KINDS[problem_kind(inst)]
    if kind.solve is None:
        raise _CliError("gap needs an EDS or multicut instance")
    opt, _ = kind.oracle(inst)  # first, so an instance over the oracle cap solves no LP
    lp = relaxation_value(inst, relaxation)
    return f"LP={fmt_rat(lp)}, OPT={fmt_rat(opt)}, gap={_ratio_cell(opt, lp)}"


def _do_gen(args) -> int:
    params = {}
    for name in GEN_INT_PARAMS + GEN_FLOAT_PARAMS:
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


def _batch_cells(inst, opt, shown: str, cert_path: Optional[Path]) -> List[str]:
    """Report cells after the name for an instance the solver supports.
    The LPs are solved last, so a row whose solve fails computes none."""
    _, cert = _solve(inst)
    if cert_path:
        cert_path.write_text(serialize_certificate(cert))
    verdict = "pass" if verify_certificate(inst, cert).passed else "fail"
    natural, strengthened = relaxation_values(inst)
    objective = cert.objective
    ovr = "-" if opt is None else _ratio_cell(objective, opt)
    return [fmt_rat(natural), fmt_rat(strengthened), fmt_rat(objective), shown, ovr, verdict]


def _batch_row(path: Path, cert_dir: Optional[Path]) -> List[str]:
    """The report cells after the name of one file, the verdict last."""
    try:
        inst = _load_instance(str(path))
    except (ParseError, InstanceError, _CliError) as exc:
        sys.stderr.write(f"error: {path.name}: {exc}\n")
        return _INVALID_ROW
    kind = _KINDS[problem_kind(inst)]
    try:
        opt, _ = kind.oracle(inst)
    except OracleCapError:
        opt = None
    shown = "-" if opt is None else fmt_rat(opt)
    if kind.solve is None:
        return ["-", "-", "-", shown, "-", "-"]
    cert_path = cert_dir / (path.name + ".cert") if cert_dir else None
    try:
        return _batch_cells(inst, opt, shown, cert_path)
    except AssertionError as exc:
        sys.stderr.write(f"internal check failed on {path.name}: {exc}\n")
        return ["-", "-", "-", shown, "-", "error"]


def _do_batch(args) -> int:
    """One report row per file, written as it completes.  A file that
    cannot be read, parsed or held in memory gets the verdict ``invalid``,
    and a row whose solve trips an internal check the verdict ``error``;
    the batch goes on either way, and exits with the highest code its rows
    call for (see ``_VERDICT_EXIT``)."""
    directory = Path(args.directory)
    if not directory.is_dir():
        raise _CliError(f"{args.directory} is not a directory")
    cert_dir = Path(args.certificates) if args.certificates else None
    if cert_dir:
        cert_dir.mkdir(parents=True, exist_ok=True)
    paths = sorted(p for p in directory.iterdir() if p.is_file())  # before the report exists
    verdicts = set()
    with open(args.report, "w") if args.report else contextlib.nullcontext(sys.stdout) as out:
        out.write("instance\tnatural-lp\tstrengthened-lp\tobjective\toptimum\tratio\tverdict\n")
        for path in paths:
            try:
                cells = _batch_row(path, cert_dir)
            except (MemoryError, DigitLimitError) as exc:
                sys.stderr.write(f"error: {path.name}: {exc if exc.args else 'out of memory'}\n")
                cells = _INVALID_ROW
            verdicts.add(cells[-1])
            out.write("\t".join([path.name, *cells]) + "\n")
            out.flush()
    return max((_VERDICT_EXIT.get(v, EXIT_OK) for v in verdicts), default=EXIT_OK)


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
    p.add_argument("kind", choices=GEN_KINDS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", metavar="FILE")
    for name in GEN_INT_PARAMS:
        p.add_argument(f"--{name}", type=int, default=None)
    for name in GEN_FLOAT_PARAMS:
        p.add_argument(f"--{name}", type=float, default=None)

    p = sub.add_parser("batch", help="solve+oracle+verify every instance in a directory")
    p.add_argument("directory")
    p.add_argument("--report", metavar="OUT", help="write the TSV table here")
    p.add_argument(
        "--certificates", metavar="DIR", help="write per-instance certificates here"
    )
    return parser


#: The parser, built on first use and shared by every later call of `run`.
_parser = functools.cache(_build_parser)


def run(argv: List[str]) -> int:
    """Entry point; returns the process exit code instead of raising."""
    try:
        args = _parser().parse_args(argv)
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
    except (ParseError, InstanceError, OracleCapError, DigitLimitError, _CliError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        return EXIT_USAGE
    except AssertionError as exc:
        sys.stderr.write(f"internal check failed: {exc}\n")
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
