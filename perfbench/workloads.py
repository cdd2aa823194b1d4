"""The benchmark's workloads: their inputs, operations and output checks.

An operation is one or more calls of ``graphcover.cli.run`` that together
make one user action (``solve``; ``solve`` then ``verify``; ``batch``).  A
workload is a round of operations repeated a fixed number of times; every
round draws fresh seeded instances for the same slots, so the operations
that fail, and their share, are the same in every run.

Instances come from families of generator seeds.  A family's pool is the
seeds ``0..pool-1`` minus the ones known to fail; ``perfbench/screen.py``
re-derives those lists, and the README lists them.  The faults behind them
are kept in view by fixed reproducer operations in every ``certify`` round.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import refcheck

# ---------------------------------------------------------------------------
# instance families


@dataclass(frozen=True)
class Family:
    """Instances from one generator at fixed parameters."""

    name: str
    kind: str  # a ``graphcover gen`` kind, or "deep-tree-eds" (built here)
    params: Tuple[Tuple[str, int], ...]
    pool: int = 0
    excluded: Tuple[int, ...] = ()
    seed: Optional[int] = None  # set for a single instance, the same in every run

    def seeds(self) -> List[int]:
        if self.seed is not None:
            return [self.seed]
        return [s for s in range(self.pool) if s not in self.excluded]

    def write(self, cli, path: Path, seed: int) -> None:
        if self.kind == "deep-tree-eds":
            path.write_text(deep_tree_text(seed, **dict(self.params)))
            return
        argv = ["gen", self.kind, "--seed", str(seed), "-o", str(path)]
        for key, value in self.params:
            argv += [f"--{key}", str(value)]
        if cli.run(argv) != 0:
            raise RuntimeError(f"gen failed: {argv}")


def deep_tree_text(seed: int, n: int, width: int = 3) -> str:
    """A deep, narrow eds-tree: each node hangs off one of the `width`
    nodes made just before it, so depth grows like n / 2.  Weights and
    penalties follow ``gen random-tree-eds`` (0..10, a quarter infinite)."""
    rng = random.Random(seed)
    lines = ["problem eds-tree", f"nodes {n}", "root 0"]
    lines += [f"node {v} {rng.randint(0, 10)}" for v in range(n)]
    for v in range(1, n):
        u = max(0, v - 1 - rng.randrange(width))
        pen = "inf" if rng.random() < 0.25 else str(rng.randint(0, 10))
        lines.append(f"edge {u} {v} {rng.randint(0, 10)} {pen}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# operations


@dataclass
class Op:
    """One user action: its CLI calls and the check of their outputs."""

    name: str
    argvs: List[List[str]]
    check: Callable[[List[Tuple[int, str, str]]], List[str]]


def stdout_fields(out: str) -> Dict[str, str]:
    fields = {}
    for line in out.splitlines():
        key, _, rest = line.partition(" ")
        fields[key] = rest
    return fields


def certificate_xi(text: str) -> Dict[int, Fraction]:
    xi = {}
    for line in text.splitlines():
        toks = line.split()
        if toks and toks[0] == "xi":
            xi[int(toks[1])] = Fraction(toks[2])
    return xi


def check_eds_tree_solve(inst_path: Path, cert_path: Path, out: str) -> List[str]:
    """Objective equals the tree DP optimum and the edges' recomputed cost;
    the certificate's xi lie in [0, penalty] and sum to the objective."""
    inst = refcheck.parse_instance(inst_path.read_text())
    f = stdout_fields(out)
    objective = Fraction(f["objective"])
    edges = [int(t) for t in f["edges"].split()]
    errors = []
    optimum = refcheck.eds_tree_optimum(inst)
    if objective != optimum:
        errors.append(f"{inst_path.name}: objective {objective} != DP optimum {optimum}")
    if refcheck.eds_objective(inst, edges) != objective:
        errors.append(f"{inst_path.name}: edges do not cost the stated objective")
    xi = certificate_xi(cert_path.read_text())
    if sorted(xi) != sorted(inst.ends):
        errors.append(f"{inst_path.name}: xi does not cover every edge")
    elif any(x < 0 or (inst.pen[e] is not None and x > inst.pen[e]) for e, x in xi.items()):
        errors.append(f"{inst_path.name}: xi outside [0, penalty]")
    elif sum(xi.values(), Fraction(0)) != objective:
        errors.append(f"{inst_path.name}: xi total != objective")
    return errors


def solve_op(inst_path: Path) -> Op:
    cert = inst_path.with_suffix(".cert")

    def check(res):
        return check_eds_tree_solve(inst_path, cert, res[0][1])

    return Op(inst_path.stem, [["solve", str(inst_path), "--certificate", str(cert)]], check)


def roundtrip_op(inst_path: Path) -> Op:
    """``solve --certificate`` then ``verify``, checked per problem kind."""
    cert = inst_path.with_suffix(".cert")

    def check(res):
        (_, solved, _), (_, verified, _) = res
        errors = []
        if not verified.rstrip().endswith("verdict: PASS"):
            errors.append(f"{inst_path.name}: verify did not pass")
        inst = refcheck.parse_instance(inst_path.read_text())
        f = stdout_fields(solved)
        objective = Fraction(f["objective"])
        edges = [int(t) for t in f["edges"].split()]
        if inst.kind == "eds-tree":
            errors += check_eds_tree_solve(inst_path, cert, solved)
        elif inst.kind == "multicut-tree":
            recomputed = refcheck.multicut_objective(inst, edges)
            if recomputed is None:
                errors.append(f"{inst_path.name}: a demand is neither cut nor payable")
            elif recomputed != objective:
                errors.append(f"{inst_path.name}: objective {objective} != recomputed {recomputed}")
            if objective > 2 * Fraction(f["dual-total"]):
                errors.append(f"{inst_path.name}: objective above twice the dual total")
        else:
            lower = Fraction(f["lower"])
            if refcheck.eds_objective(inst, edges) != objective:
                errors.append(f"{inst_path.name}: edges do not cost the stated objective")
            if not refcheck.close(lower, refcheck.relaxation_lp(inst, "strengthened")):
                errors.append(f"{inst_path.name}: lower {lower} != HiGHS strengthened value")
            if not lower <= objective <= 4 * refcheck.harmonic(inst.n) * lower:
                errors.append(f"{inst_path.name}: objective outside [lower, 4 H(n) lower]")
        return errors

    return Op(inst_path.stem,
              [["solve", str(inst_path), "--certificate", str(cert)],
               ["verify", str(inst_path), str(cert)]], check)


def batch_op(directory: Path, out: Path) -> Op:
    report = out / "report.tsv"
    certs = out / "certs"

    def check(res):
        errors = []
        rows = report.read_text().splitlines()[1:]
        for row in rows:
            name, natural, strong, objective, optimum, _, verdict = row.split("\t")
            inst = refcheck.parse_instance((directory / name).read_text())
            opt = Fraction(optimum)
            if inst.kind in ("set-cover", "facility-location"):
                own = (refcheck.set_cover_optimum if inst.kind == "set-cover"
                       else refcheck.facility_location_optimum)(inst)
                if own != opt:
                    errors.append(f"{name}: optimum {opt} != exhaustive {own}")
                continue
            natural, strong, objective = Fraction(natural), Fraction(strong), Fraction(objective)
            if verdict != "pass":
                errors.append(f"{name}: verdict {verdict}")
            if not natural <= strong <= opt:
                errors.append(f"{name}: natural <= strengthened <= optimum fails")
            for kind, value in (("natural", natural), ("strengthened", strong)):
                if not refcheck.close(value, refcheck.relaxation_lp(inst, kind)):
                    errors.append(f"{name}: {kind} {value} != HiGHS")
            if inst.kind == "eds-tree":
                if opt != refcheck.eds_tree_optimum(inst):
                    errors.append(f"{name}: optimum {opt} != DP optimum")
            else:
                dual = sum(certificate_xi((certs / (name + ".cert")).read_text()).values(),
                           Fraction(0))
                if not dual <= opt <= objective <= 2 * opt:
                    errors.append(f"{name}: dual <= optimum <= objective <= 2 optimum fails")
        if len(rows) != len(list(directory.iterdir())):
            errors.append(f"{directory.name}: report has {len(rows)} rows")
        return errors

    return Op(directory.name,
              [["batch", str(directory), "--report", str(report), "--certificates", str(certs)]],
              check)


# ---------------------------------------------------------------------------
# reference loops: a workload's times are scaled by the loop closest to its work


def fraction_sums() -> None:
    """Exact rational arithmetic, the work of the simplex and the solvers."""
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(1, i)


def fraction_sums_and_dict_copies() -> None:
    """Rational arithmetic plus dict copies, the work of the eds-tree solver."""
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i)
    table = {i: total for i in range(2000)}
    copies = [dict(table) for _ in range(12)]
    del copies  # freed inside the timed loop, as the solver's copies are


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Workload:
    """A round of slots; each slot draws one instance per round."""

    name: str
    round_seconds: float  # nominal duration of one round on the reference machine
    slots: List[Family]
    make_op: Callable[[List[Path], Path], Op]
    per_op: int = 1  # instances per operation (a batch directory holds several)
    reference: Callable[[], None] = fraction_sums
    reference_s: float = 0.003  # the loop's time at the speed times are given in

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / self.round_seconds))

    def prepare(self, cli, work: Path, seed: int, rounds: int) -> List[Op]:
        """Write the inputs of `rounds` rounds and return their operations."""
        rng = random.Random(f"{self.name}:{seed}")
        draws = {}
        for fam in {f.name: f for f in self.slots}.values():
            need = rounds * sum(1 for f in self.slots if f.name == fam.name)
            seeds = fam.seeds()
            rng.shuffle(seeds)
            draws[fam.name] = iter((seeds * (need // len(seeds) + 1))[:need])
        ops = []
        for r in range(rounds):
            paths = []
            for i, fam in enumerate(self.slots):
                gen_seed = next(draws[fam.name])
                sub = work / "in" / f"r{r}" / (f"op{i // self.per_op}" if self.per_op > 1 else "")
                sub.mkdir(parents=True, exist_ok=True)
                path = sub / f"{i:02d}-{fam.name}-s{gen_seed}{SUFFIX[fam.kind]}"
                fam.write(cli, path, gen_seed)
                paths.append(path)
                if len(paths) == self.per_op:
                    ops.append(self.make_op(paths, work / "out" / f"r{r}" / sub.name))
                    paths = []
        return ops


SUFFIX = {
    "deep-tree-eds": ".eds",
    "random-tree-eds": ".eds",
    "random-tree-multicut": ".cut",
    "random-eds-general": ".gen",
    "random-set-cover": ".sc",
    "random-facility-location": ".fl",
}

def _tree(shape: str, n: int) -> Family:
    kind = "deep-tree-eds" if shape == "deep" else "random-tree-eds"
    return Family(f"{shape}{n}", kind, (("n", n),), 40)


# Twice as many 500-node trees as the others, so the median falls inside
# their cluster.  The 1000-node tree is deep: random ones of that size vary
# too much in solve time (2 to 4 s) for a handful per run to be steady.
TREE_SOLVE = Workload(
    "tree-solve",
    round_seconds=5.0,
    slots=[_tree(shape, n) for shape in ("rand", "deep") for n in (250, 500, 500)]
    + [_tree("deep", 1000)],
    make_op=lambda paths, out: solve_op(paths[0]),
    reference=fraction_sums_and_dict_copies,
    reference_s=0.00275,
)

# Excluded seeds fail every time: eds60 with F1 (verify cannot complete the
# dual), cut100 with F2 (the deletion phase trips an assertion).
CERT_EDS = Family("eds60", "random-tree-eds", (("n", 60),), 100, (23, 57))
CERT_CUT = Family("cut100", "random-tree-multicut", (("k", 25), ("n", 100)), 100,
                  (38, 41, 48, 51))
CERT_GEN = Family("gen6", "random-eds-general", (("m", 6), ("n", 6)), 100)

CERTIFY = Workload(
    "certify",
    round_seconds=3.8,
    slots=[CERT_EDS, CERT_CUT, CERT_GEN] * 3 + [
        # F1: the eds-tree dual cannot be completed, so verify fails.
        Family("f1", "random-tree-eds", (("n", 40),), seed=4),
        # F2: the multicut deletion phase trips an assertion (exit 3).
        Family("f2", "random-tree-multicut", (("k", 8), ("n", 20)), seed=7),
    ],
    make_op=lambda paths, out: roundtrip_op(paths[0]),
)

BATCH_TREES = [
    Family("eds7", "random-tree-eds", (("n", 7),), 200),
    Family("eds10", "random-tree-eds", (("n", 10),), 200, (123,)),  # F1
    Family("cut6", "random-tree-multicut", (("k", 3), ("n", 6)), 200),
    Family("cut8", "random-tree-multicut", (("k", 3), ("n", 8)), 200),
]

BATCH = Workload(
    "batch",
    round_seconds=1.0,
    slots=BATCH_TREES + [Family("sc", "random-set-cover", (("m", 6), ("n", 5)), 200)]
    + BATCH_TREES + [Family("fl", "random-facility-location",
                            (("clients", 4), ("facilities", 5)), 200)],
    make_op=lambda paths, out: batch_op(paths[0].parent, out),
    per_op=5,
)

WORKLOADS = {w.name: w for w in (TREE_SOLVE, CERTIFY, BATCH)}


def batch_rerun_identical(cli, op: Op, scratch: Path, call) -> List[str]:
    """Re-run a batch operation into `scratch`; outputs must match byte for byte."""
    argv = list(op.argvs[0])
    report, certs = Path(argv[3]), Path(argv[5])
    argv[3], argv[5] = str(scratch / "report.tsv"), str(scratch / "certs")
    rc, _, _ = call(cli, argv)
    errors = [] if rc == 0 else [f"re-run of {op.name} exited {rc}"]
    if (scratch / "report.tsv").read_bytes() != report.read_bytes():
        errors.append(f"re-run of {op.name}: report differs")
    first = sorted(p.name for p in certs.iterdir())
    if first != sorted(p.name for p in (scratch / "certs").iterdir()) or any(
        (scratch / "certs" / n).read_bytes() != (certs / n).read_bytes() for n in first
    ):
        errors.append(f"re-run of {op.name}: certificates differ")
    return errors
