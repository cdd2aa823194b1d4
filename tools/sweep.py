"""Byte-identity sweep: run a corpus of ``graphcover`` commands against one
source tree and record a digest of everything each command produced.

Run from the repository root; it needs only the standard library:

    python tools/sweep.py --src SRC --out DIGESTS.json [--full]
    python tools/sweep.py --compare A.json B.json

``SRC`` is a directory holding the ``graphcover`` package, such as the
``src`` of a checkout.  The package is imported from there once; then each
command runs in its own forked process, through ``graphcover.cli.run``,
with stdout and stderr sent to files.  The commands of one case run in
order in one fresh directory, so a later command reads what an earlier
one wrote.  The JSON holds, per command, its arguments and the sha256 of
its stdout, of its stderr and of every file it wrote, and its exit code.
``--compare`` lists each command whose record differs between two such
files, with its arguments, and exits 1 when there is one.

:data:`CORPUS` is the one table of what runs.  The quick sweep takes the
first few seeds of each row, and runs in well under a minute; ``--full``
takes every seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile
import traceback
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

#: The sweep's own commands, not ``graphcover``'s.  ``add-guard-edge INST
#: CERT OUT`` writes CERT with one more cut edge, the first guard edge of
#: INST's penalty-compiled tree (the node id right after the original
#: tree's, present when some demand's penalty is finite).  A certificate
#: holding it must fail ``verify``'s ``no-pendant-guard-edge``.
#: ``sevenths INST OUT`` writes the eds instance INST with every node
#: weight, edge weight and finite penalty w as w/7, so its solve runs at a
#: scale other than 1.
GUARD, SEVENTHS = "add-guard-edge", "sevenths"

_CUT = (
    "solve inst --certificate cert",
    "verify inst cert",
    f"{GUARD} inst cert guarded",
    "verify inst guarded",
)
_SOLVE = ("solve inst --certificate cert", "verify inst cert")
_SEVENTHS = (f"{SEVENTHS} inst inst7", "solve inst7 --certificate cert7", "verify inst7 cert7")

#: The corpus: per row, a case name, the commands of one case, with
#: ``{seed}`` standing for the case's seed, and the number of seeds of the
#: quick and of the full sweep.  Multicut runs with the default
#: ``--inf_prob`` and with 0 and 1; the eds kinds are spot checks, and each
#: batch directory holds multicut files.  The eds trees of 250 and 1,000
#: nodes, the sizes of the ``tree-solve`` benchmark, are also solved in
#: sevenths.
CORPUS: List[Tuple[str, Sequence[str], int, int]] = [
    (
        f"cut{n}{tag}",
        (f"gen random-tree-multicut --n {n} --k {k} --seed {{seed}}{opt} -o inst", *_CUT),
        quick,
        full,
    )
    for n, k, quick, full in ((9, 4, 3, 200), (20, 8, 2, 200), (60, 15, 1, 50), (100, 25, 1, 50))
    for tag, opt in (("", ""), ("-inf0", " --inf_prob 0"), ("-inf1", " --inf_prob 1"))
] + [
    ("eds40", ("gen random-tree-eds --n 40 --seed {seed} -o inst", *_SOLVE), 2, 20),
    ("eds40-inf1", ("gen random-tree-eds --n 40 --seed {seed} --inf_prob 1 -o inst", *_SOLVE), 2, 20),
] + [
    (
        f"eds{n}{tag}",
        (f"gen random-tree-eds --n {n} --seed {{seed}}{opt} -o inst", *_SOLVE, *_SEVENTHS),
        1,
        full,
    )
    for n, full in ((250, 10), (1000, 4))
    for tag, opt in (("", ""), ("-inf1", " --inf_prob 1"))
] + [
    ("general6", ("gen random-eds-general --n 6 --m 6 --seed {seed} -o inst", *_SOLVE), 2, 10),
    (
        "batch",
        (
            "gen random-tree-multicut --n 7 --k 3 --seed {seed} -o in/cut7",
            "gen random-tree-multicut --n 8 --k 3 --seed {seed} --inf_prob 1 -o in/cut8",
            "gen random-tree-eds --n 7 --seed {seed} -o in/eds7",
            "batch in",
            "batch in --report report --certificates certs",
        ),
        2,
        10,
    ),
]


def cases(corpus, full: bool = False) -> List[Tuple[str, List[List[str]]]]:
    """Each case of ``corpus``, named ``row/seed``, with its commands."""
    return [
        (f"{name}/{seed}", [line.format(seed=seed).split() for line in lines])
        for name, lines, quick, count in corpus
        for seed in range(count if full else quick)
    ]


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _files(root: Path) -> Dict[str, str]:
    return {
        str(p.relative_to(root)): _digest(p) for p in sorted(root.rglob("*")) if p.is_file()
    }


def _add_guard_edge(inst: str, cert: str, out: str) -> int:
    lines = Path(inst).read_text().split("\n")
    n = next(int(line.split()[1]) for line in lines if line.startswith("nodes "))
    finite = any(line.startswith("demand ") and line.split()[-1] != "inf" for line in lines)
    Path(out).write_text(Path(cert).read_text() + (f"edge {n}\n" if finite else ""))
    return 0


def _sevenths(inst: str, out: str) -> int:
    def seventh(token: str) -> str:
        return token if token == "inf" else str(Fraction(token) / 7)

    lines = []
    for line in Path(inst).read_text().split("\n"):
        head, *fields = line.split(" ")
        weights = {"node": 1, "edge": 2}.get(head, 0)  # trailing weight fields
        if weights:
            fields[-weights:] = map(seventh, fields[-weights:])
        lines.append(" ".join([head, *fields]))
    Path(out).write_text("\n".join(lines))
    return 0


_OWN = {GUARD: _add_guard_edge, SEVENTHS: _sevenths}


def _run(cli, argv: List[str], cwd: Path, out: Path, err: Path) -> int:
    """Run one command in a forked process; its exit code."""
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 70
        try:
            os.chdir(cwd)
            for fd, path in ((1, out), (2, err)):
                os.dup2(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC), fd)
            # fresh streams on the new descriptors, whatever sys.stdout was
            sys.stdout, sys.stderr = (open(fd, "w", closefd=False) for fd in (1, 2))
            own = _OWN.get(argv[0])
            code = own(*argv[1:]) if own else cli.run(argv)
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def sweep(src: str, todo: List[Tuple[str, List[List[str]]]]) -> Dict[str, dict]:
    """The record of each command of ``todo``, run against the package
    under ``src``, keyed ``case/index``."""
    sys.path.insert(0, str(Path(src).resolve()))
    from graphcover import cli

    records: Dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as tmp:
        out, err = Path(tmp, "stdout"), Path(tmp, "stderr")
        for case, commands in todo:
            work = Path(tmp, "case")
            (work / "in").mkdir(parents=True)  # for a batch case's instances
            before: Dict[str, str] = {}
            for i, argv in enumerate(commands):
                code = _run(cli, argv, work, out, err)
                after = _files(work)
                records[f"{case}/{i}"] = {
                    "argv": argv,
                    "exit": code,
                    "stdout": _digest(out),
                    "stderr": _digest(err),
                    "files": {p: h for p, h in after.items() if before.get(p) != h},
                }
                before = after
            shutil.rmtree(work)
    return records


def compare(a: Dict[str, dict], b: Dict[str, dict]) -> List[str]:
    """One line per command whose record differs, or that only one side
    ran, naming what differs and the command's arguments."""
    lines = []
    for key in [*a, *(k for k in b if k not in a)]:
        ra, rb = a.get(key), b.get(key)
        if ra == rb:
            continue
        if ra is None or rb is None:
            what = "only in " + ("A" if rb is None else "B")
        else:
            what = ", ".join(f for f in ("exit", "stdout", "stderr", "files") if ra[f] != rb[f])
        lines.append(f"{key}: {what}: {' '.join((ra or rb)['argv'])}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", help="the directory holding the graphcover package")
    parser.add_argument("--out", help="write the digests here")
    parser.add_argument("--full", action="store_true", help="run every seed of the corpus")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two digest files")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text())["commands"] for p in args.compare)
        diff = compare(a, b)
        print("\n".join(diff + [f"{len(diff)} of {len(a.keys() | b.keys())} commands differ"]))
        return 1 if diff else 0
    if not (args.src and args.out):
        parser.error("--src and --out are needed unless --compare is given")
    records = sweep(args.src, cases(CORPUS, args.full))
    doc = {"corpus": "full" if args.full else "quick", "commands": records}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{len(records)} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
