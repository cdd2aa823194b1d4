"""List the generator seeds of each instance family whose operation fails.

    python3 perfbench/screen.py [--workload certify]

Runs every seed in each family's pool through the workload's own operation
(a batch family one instance per directory), with the exclusions ignored,
and prints the seeds that fail and any whose outputs are wrong.  The
``excluded`` tuples in ``workloads.py`` are this script's output; the
README names the fault behind each.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import run
import workloads


def screen(workload, fam, cli, work: Path):
    failing, wrong = [], []
    for seed in replace(fam, excluded=()).seeds():
        sub = work / fam.name / f"s{seed}"
        sub.mkdir(parents=True)
        path = sub / f"{fam.name}-s{seed}{workloads.SUFFIX[fam.kind]}"
        fam.write(cli, path, seed)
        op = workload.make_op([path], work / "out" / fam.name / f"s{seed}")
        _, _, (outs,) = run.execute(workload, cli, [op])
        if run.failed(op, outs):
            failing.append(seed)
        elif op.check(outs):
            wrong.append(seed)
    return failing, wrong


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    cli = run.fresh_import().cli
    chosen = [workloads.WORKLOADS[args.workload]] if args.workload else list(
        workloads.WORKLOADS.values())
    for workload in chosen:
        work = root / ".perfbench" / "screen" / workload.name
        shutil.rmtree(work, ignore_errors=True)
        for fam in {f.name: f for f in workload.slots if f.seed is None}.values():
            failing, wrong = screen(workload, fam, cli, work)
            print(f"{workload.name} {fam.name}: pool {fam.pool}, "
                  f"excluded={tuple(failing)}, wrong={tuple(wrong)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
