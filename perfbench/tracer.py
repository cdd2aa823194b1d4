"""Spans and counters around graphcover's layers, for the traced run only.

Wrappers are installed on the module attributes through which each layer is
called (``cli.parse_instance``, ``relaxations.simplex_solve``, ...), so the
program itself is unchanged.  A span records name, start, end and parent;
a layer's self time is its span's duration minus that of its child spans.
Counts are kept at the same boundaries.  LP spans are named by model
family, read from ``LpModel.name``, and the ``lp`` module's pivot step is
wrapped to count pivots per family.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

LP_FAMILIES = ("natural", "strengthened", "edge-cover", "dual-completion", "step", "refine")
LP_FIELDS = (("calls", "count"), ("self_ms", "ms"), ("pivots", "count"),
             ("rows", "count"), ("vars", "count"), ("nonzeros", "count"))

#: Every per-layer metric of a traced run, with its unit, in report order.
LAYER_METRICS = [
    ("eds_tree.solve.calls", "count"),
    ("eds_tree.solve.self_ms", "ms"),
    ("eds_tree.steps.A-keep", "count"),
    ("eds_tree.steps.A-delete", "count"),
    ("eds_tree.steps.B-trim", "count"),
    ("eds_tree.steps.B-drop", "count"),
    ("instances.parse.calls", "count"),
    ("instances.parse.self_ms", "ms"),
    ("instances.parse.bytes", "bytes"),
    ("certificates.emit.self_ms", "ms"),
    ("certificates.serialize.self_ms", "ms"),
    ("certificates.bytes", "bytes"),
    ("certificates.parse.self_ms", "ms"),
    ("certificates.verify.calls", "count"),
    ("certificates.verify.self_ms", "ms"),
    ("eds_tree.verify.self_ms", "ms"),
    ("relaxations.complete_dual.calls", "count"),
    ("relaxations.complete_dual.self_ms", "ms"),
    ("multicut_tree.solve.calls", "count"),
    ("multicut_tree.solve.self_ms", "ms"),
    ("multicut_tree.increase.iterations", "count"),
    ("multicut_tree.deletion.self_ms", "ms"),
    ("multicut_tree.verify.self_ms", "ms"),
    ("eds_general.solve.calls", "count"),
    ("eds_general.solve.self_ms", "ms"),
    ("eds_general.greedy.self_ms", "ms"),
    ("relaxations.build.calls", "count"),
    ("relaxations.build.self_ms", "ms"),
    ("oracle.eds.self_ms", "ms"),
    ("oracle.multicut.self_ms", "ms"),
    ("oracle.cover.self_ms", "ms"),
    ("oracle.calls", "count"),
    ("cli.run.calls", "count"),
    ("cli.run.self_ms", "ms"),
] + [(f"lp.{fam}.{fld}", unit) for fam in LP_FAMILIES for fld, unit in LP_FIELDS]

#: Traced minus untraced, per end-to-end metric.
OVERHEAD_METRICS = [
    ("trace_overhead.ops_per_s", "1/s"),
    ("trace_overhead.op_p50_ms", "ms"),
    ("trace_overhead.peak_rss_mb", "MB"),
    ("trace_overhead.setup_s", "s"),
]

#: The untraced run in plain wall-clock time, and the reference loop's time.
RAW_METRICS = [
    ("raw.ops_per_s", "1/s"),
    ("raw.op_p50_ms", "ms"),
    ("raw.reference_loop_ms", "ms"),
]


def lp_family(model) -> str:
    name = model.name
    for prefix in ("step", "refine"):
        if name.startswith(prefix + "_demand"):
            return prefix
    return name


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.open = []  # indices of the spans not yet ended
        self.counts = defaultdict(int)
        self.lp_open = []  # families of the simplex solves in progress
        self.patches = []  # (module, attribute, original)

    # -- wrappers --------------------------------------------------------

    def _patch(self, module, attr, make):
        original = getattr(module, attr)
        self.patches.append((module, attr, original))
        setattr(module, attr, make(original))

    def span(self, module, attr, name, after=None):
        """Wrap module.attr in a span; after(args, result) updates counts."""

        def make(fn):
            def wrapper(*args, **kwargs):
                idx = len(self.spans)
                self.spans.append([name, perf_counter(), None,
                                   self.open[-1] if self.open else -1])
                self.open.append(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.spans[idx][2] = perf_counter()
                    self.open.pop()
                if after is not None:
                    after(args, result)
                return result

            return wrapper

        self._patch(module, attr, make)

    def counter(self, module, attr, after):
        def make(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                after(args, result)
                return result

            return wrapper

        self._patch(module, attr, make)

    def lp_span(self, module):
        """Span around module.simplex_solve, named by the model's family."""

        def make(fn):
            def wrapper(model):
                fam = lp_family(model)
                name = f"lp.{fam}"
                self.counts[name + ".rows"] += len(model.constraints)
                self.counts[name + ".vars"] += len(model.variables)
                self.counts[name + ".nonzeros"] += sum(len(c.coeffs) for c in model.constraints)
                idx = len(self.spans)
                self.spans.append([name, perf_counter(), None,
                                   self.open[-1] if self.open else -1])
                self.open.append(idx)
                self.lp_open.append(fam)
                try:
                    return fn(model)
                finally:
                    self.spans[idx][2] = perf_counter()
                    self.open.pop()
                    self.lp_open.pop()

            return wrapper

        self._patch(module, "simplex_solve", make)

    def install(self, gc) -> None:
        """Wrap the layers of the imported graphcover package ``gc``."""
        cli, c = gc.cli, self.counts

        def steps(args, result):
            for ctx in result[2]:
                c[f"eds_tree.steps.{ctx.tag}-{ctx.branch}"] += 1

        def parsed(args, result):
            c["instances.parse.bytes"] += len(args[0].encode())

        def serialized(args, result):
            c["certificates.bytes"] += len(result.encode())

        def iteration(args, result):
            c["multicut_tree.increase.iterations"] += 1

        def pivot(fn):
            def wrapper(*args):
                if self.lp_open:
                    c[f"lp.{self.lp_open[-1]}.pivots"] += 1
                return fn(*args)

            return wrapper

        self.span(cli, "run", "cli.run")
        self.span(cli, "parse_instance", "instances.parse", parsed)
        self.span(cli, "solve_eds_tree", "eds_tree.solve")
        self.counter(gc.eds_tree, "solve_eds_tree_trace", steps)
        for attr in ("eds_tree_certificate", "multicut_certificate", "eds_general_certificate"):
            self.span(cli, attr, "certificates.emit")
        self.span(cli, "serialize_certificate", "certificates.serialize", serialized)
        self.span(cli, "parse_certificate", "certificates.parse")
        self.span(cli, "verify_certificate", "certificates.verify")
        self.span(gc.certificates, "verify_eds_optimality", "eds_tree.verify")
        self.span(gc.eds_tree, "complete_eds_dual", "relaxations.complete_dual")
        self.span(cli, "run_multicut_pipeline", "multicut_tree.solve")
        self.counter(gc.multicut_tree, "increase_iteration", iteration)
        self.span(gc.multicut_tree, "deletion_phase", "multicut_tree.deletion")
        for mod in (gc.multicut_tree, gc.certificates):
            self.span(mod, "verify_multicut", "multicut_tree.verify")
        self.span(cli, "solve_eds_general", "eds_general.solve")
        self.span(gc.eds_general, "greedy_facility_location", "eds_general.greedy")
        for mod in (gc.relaxations, gc.eds_general, gc.certificates):
            self.span(mod, "build_relaxation", "relaxations.build")
        self.span(cli, "brute_force_eds", "oracle.eds")
        self.span(cli, "brute_force_multicut", "oracle.multicut")
        self.span(cli, "brute_force_cover", "oracle.cover")
        self.span(cli, "brute_force_facility_location", "oracle.cover")
        for mod in (gc.relaxations, gc.eds_general, gc.certificates, gc.multicut_tree):
            self.lp_span(mod)
        self._patch(gc.lp, "_pivot", pivot)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self.patches):
            setattr(module, attr, original)
        self.patches.clear()

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict:
        """Calls, self time and counts per layer; absent layers read 0."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            self_s[name] += end - start
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        out = {}
        for metric, unit in LAYER_METRICS:
            layer, _, field = metric.rpartition(".")
            if field == "calls":
                value = calls[layer] if layer != "oracle" else sum(
                    calls[f"oracle.{k}"] for k in ("eds", "multicut", "cover"))
            elif field == "self_ms":
                value = self_s[layer] * 1000.0
            else:
                value = self.counts[metric]
            out[metric] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
