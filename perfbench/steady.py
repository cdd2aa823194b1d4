"""Steadiness check: sets of benchmark runs of the same code, compared.

    python3 perfbench/steady.py [--workload certify] [--runs 10] [--sets 2]

Runs the command in BENCHMARK.json ``--runs`` times per set on each
workload, each run with its own seed, one run at a time.  For each
end-to-end metric it prints, per set, the median and the spread (the
distance between the first and third quartile as a share of the median),
and, from the second set on, how much worse the median got than in the
first set.  Both are printed beside the metric's bound.  The failed share of
operations must be the same in every set.  Raw results are kept in
``.perfbench/steady/<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(bench: dict, workload: str, seed: int) -> dict:
    argv = bench["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in bench["workloads"]]
    out_dir = Path(".perfbench") / "steady"
    out_dir.mkdir(parents=True, exist_ok=True)
    steady = True
    for name in names:
        sets = []
        with open(out_dir / f"{name}.jsonl", "w") as log:
            for k in range(args.sets):
                results = []
                for i in range(args.runs):
                    seed = args.first_seed + k * args.runs + i
                    res = run_once(bench, name, seed)
                    log.write(json.dumps({"set": k, "seed": seed, **res}) + "\n")
                    log.flush()
                    steady &= res["correct"]
                    results.append(res)
                sets.append(results)
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets]
        if len(set(shares)) > 1:
            steady = False
        print(f"{name}: correct {all(r['correct'] for s in sets for r in s)}, "
              f"failed share per set {shares}")
        for metric in bench["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            worse = 1 if metric["better"] == "lower" else -1
            medians = []
            for k, results in enumerate(sets):
                values = [r["metrics"][key]["value"] for r in results]
                med, spr = statistics.median(values), spread(values)
                medians.append(med)
                line = (f"  {key:12s} set {k}: median {med:.6g} {metric['unit']}, "
                        f"spread {spr:.3f} (bound {bound}, a third {bound / 3:.3f})")
                if key != "setup_s" and spr > bound:
                    steady = False
                    line += "  SPREAD ABOVE BOUND"
                if k:
                    shift = worse * (med - medians[0]) / medians[0]
                    line += f", worse than set 0 by {shift:+.3f}"
                    if shift > bound:
                        steady = False
                        line += "  SHIFT ABOVE BOUND"
                print(line)
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
