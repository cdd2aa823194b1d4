"""graphcover benchmark: one workload, end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload tree-solve --seed 1 --seconds 30 --trace 0

Run it from the repository root: it imports graphcover from ``src/``.  The
workload's operations are written under ``.perfbench/<workload>/``, run one
after another in this process as calls of ``graphcover.cli.run`` with
stdout captured, and then checked against ``refcheck``.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics, end-to-end with ``--trace 0`` and per layer with ``--trace 1``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # scipy, used only by the checks, starts no thread pool

import argparse
import contextlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import tracer
import workloads

SETUP_REPEATS = 5


class ScaledClock:
    """Times calls in reference-speed seconds; keeps the raw wall times.

    Processor speed on a shared machine drifts by up to 1.7x over minutes,
    and CPU time drifts with wall time.  So every timed call is scaled by
    the workload's reference loop, timed just before and just after it:
    reported times are those of a machine on which the loop takes
    ``workload.reference_s``.
    """

    def __init__(self, workload):
        self.loop, self.reference_s = workload.reference, workload.reference_s
        self.before = self._loop_seconds()
        self.loops = [self.before]
        self.raw = []

    def _loop_seconds(self) -> float:
        start = perf_counter()
        self.loop()
        return perf_counter() - start

    def time(self, fn):
        start = perf_counter()
        result = fn()
        raw = perf_counter() - start
        after = self._loop_seconds()
        scaled = raw * self.reference_s * 2 / (self.before + after)
        self.before = after
        self.loops.append(after)
        self.raw.append(raw)
        return result, scaled


def call(cli, argv):
    """One ``graphcover`` command in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    return rc, out.getvalue(), err.getvalue()


def fresh_import():
    """Import graphcover anew, as a new process would."""
    for name in [m for m in sys.modules if m == "graphcover" or m.startswith("graphcover.")]:
        del sys.modules[name]
    importlib.import_module("graphcover.cli")
    return sys.modules["graphcover"]


def setup(workload, work: Path, seed: int, rounds: int):
    """Import graphcover and write the inputs, SETUP_REPEATS times; the
    median is the set-up time.  Returns it with the last package and ops."""
    def once():
        gc = fresh_import()
        return gc, workload.prepare(gc.cli, work, seed, rounds)

    clock = ScaledClock(workload)
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        (gc, ops), scaled = clock.time(once)
        times.append(scaled)
    return statistics.median(times), gc, ops


def run_op(cli, op):
    outs = []
    for argv in op.argvs:
        outs.append(call(cli, argv))
        if outs[-1][0] != 0:
            break
    return outs


def execute(workload, cli, ops):
    """Run every operation once, in order.  Returns each one's scaled time,
    the clock (with the raw times) and each one's outputs."""
    clock = ScaledClock(workload)
    seconds, outputs = [], []
    for op in ops:
        outs, scaled = clock.time(lambda: run_op(cli, op))
        seconds.append(scaled)
        outputs.append(outs)
    return seconds, clock, outputs


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(seconds, setup_s, rss) -> dict:
    return {
        "ops_per_s": {"value": len(seconds) / sum(seconds), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(seconds) * 1000.0, "unit": "ms"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def failed(op, outs) -> bool:
    return len(outs) < len(op.argvs) or outs[-1][0] != 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "graphcover" / "cli.py").is_file():
        print("error: src/graphcover not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    workload = workloads.WORKLOADS[args.workload]
    work = root / ".perfbench" / args.workload
    rounds = workload.rounds(args.seconds)

    setup_s, gc, ops = setup(workload, work, args.seed, rounds)
    if not Path(gc.__file__).resolve().is_relative_to(root / "src"):
        print(f"error: imported graphcover from {gc.__file__}", file=sys.stderr)
        return 2
    seconds, clock, results = execute(workload, gc.cli, ops)
    metrics = end_to_end(seconds, setup_s, peak_rss_mb())

    if args.trace:
        trace = tracer.Tracer()
        start = perf_counter()
        trace.install(gc)
        install_s = perf_counter() - start
        try:
            traced_seconds, _, results = execute(workload, gc.cli, ops)
        finally:
            trace.uninstall()
        traced = end_to_end(traced_seconds, setup_s + install_s, peak_rss_mb())
        trace.write_spans(work / "spans.jsonl")
        layer = trace.metrics()
        for (name, unit), key in zip(tracer.OVERHEAD_METRICS, traced):
            layer[name] = {"value": traced[key]["value"] - metrics[key]["value"], "unit": unit}
        raw = (len(clock.raw) / sum(clock.raw), statistics.median(clock.raw) * 1000.0,
               statistics.median(clock.loops) * 1000.0)
        for (name, unit), value in zip(tracer.RAW_METRICS, raw):
            layer[name] = {"value": value, "unit": unit}
        metrics = layer

    errors = []
    n_failed = 0
    for op, outs, sec in zip(ops, results, seconds):
        if failed(op, outs):
            n_failed += 1
            last = (outs[-1][2] or outs[-1][1]).strip().splitlines()[-1:]
            print(f"op {op.name} {sec * 1000:.0f} ms failed: exit {outs[-1][0]} {last}")
        else:
            print(f"op {op.name} {sec * 1000:.0f} ms")
            try:
                errors += op.check(outs)
            except (ValueError, KeyError, IndexError, OSError) as exc:
                errors.append(f"{op.name}: output unreadable: {exc!r}")
    if workload is workloads.BATCH and not failed(ops[0], results[0]):
        errors += workloads.batch_rerun_identical(gc.cli, ops[0], work / "rerun", call)
    for line in errors:
        print(f"wrong: {line}")
    print(f"untraced wall clock: {sum(clock.raw):.2f} s for {len(clock.raw)} operations; "
          f"reference loop median {statistics.median(clock.loops) * 1000:.3f} ms "
          f"against {workload.reference_s * 1000:.3f} ms")
    print(f"workload {args.workload}: seed {args.seed}, {rounds} rounds, "
          f"{len(ops)} operations, Rat backend "
          f"{gc.rationals.Rat.__module__}.{gc.rationals.Rat.__name__}")
    print(json.dumps({"correct": not errors, "attempted": len(ops),
                      "failed": n_failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
