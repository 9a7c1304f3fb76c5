"""Spans around the calls between striplab's layers, recorded from outside.

Each patch replaces a function under the name its caller looks it up by.
`scan.py` imported `zeta_shifted_grid` by name, so the scan's zeta calls are
seen only through `striplab.scan.zeta_shifted_grid`; `targets` reaches the
same function as `striplab.zeta.zeta_shifted_grid`.  Calls through
`geometry.<name>` and `targets.resolve_target` are looked up at call time,
so patching the defining module catches them.  Patches are in place only
while a traced job runs; checks and untraced jobs call the originals.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import striplab.approximation as approximation_mod
import striplab.cli as cli_mod
import striplab.geometry as geometry_mod
import striplab.repair as repair_mod
import striplab.scan as scan_mod
import striplab.targets as targets_mod
import striplab.zeta as zeta_mod

# (module, attribute, layer, span name)
PATCHES = (
    (scan_mod, "zeta_shifted_grid", "zeta", "zeta_shifted_grid"),
    (zeta_mod, "zeta_shifted_grid", "zeta", "zeta_shifted_grid"),
    (scan_mod, "discrepancy", "scan", "discrepancy"),
    (scan_mod, "scan_density", "scan", "scan_density"),
    (scan_mod, "line_universality", "scan", "line_universality"),
    (targets_mod, "resolve_target", "targets", "resolve_target"),
    (repair_mod, "roots", "polynomial", "roots"),
    (repair_mod, "perturbation_bound", "polynomial", "perturbation_bound"),
    (repair_mod, "min_modulus_certificate", "polynomial", "min_modulus_certificate"),
    (repair_mod, "approximate", "approximation", "approximate"),
    (repair_mod, "repair_nonvanishing", "repair", "repair_nonvanishing"),
    (repair_mod, "approximate_nonvanishing", "repair", "approximate_nonvanishing"),
    (approximation_mod, "lawson_refine", "approximation", "lawson_refine"),
    (approximation_mod, "evaluate", "polynomial", "evaluate"),
    (approximation_mod, "derivative_bound", "polynomial", "derivative_bound"),
    (geometry_mod, "discretize", "geometry", "discretize"),
    (geometry_mod, "distance", "geometry", "distance"),
    (geometry_mod, "nearest_exterior", "geometry", "nearest_exterior"),
    (geometry_mod, "bounding_radius", "geometry", "bounding_radius"),
    (geometry_mod, "build_set", "geometry", "build_set"),
    (cli_mod, "main", "cli", "main"),
)

# every per-layer metric the traced run reports, with its unit; counts and
# times marked "/job" are means over the traced jobs
PER_LAYER_UNITS = {
    "zeta.evals": "1/job",
    "zeta.busy_s": "s/job",
    "zeta.us_per_eval": "us",
    "zeta.terms": "1/job",
    "zeta.mterms_per_s": "Mterm/s",
    "zeta.us_per_eval.t1e3": "us",
    "zeta.us_per_eval.t1e4": "us",
    "zeta.us_per_eval.t1e5": "us",
    "scan.trace_evals": "1/job",
    "scan.refine_evals": "1/job",
    "scan.refine_share": "ratio",
    "scan.trace_s": "s/job",
    "scan.refine_s": "s/job",
    "scan.self_s": "s/job",
    "scan.pool_speedup": "ratio",
    "targets.resolve_s": "s/job",
    "targets.points": "1/job",
    "approximation.degree_attempts": "1/job",
    "approximation.lawson_iters": "1/job",
    "approximation.lawson_s": "s/job",
    "approximation.ms_per_lawson_iter": "ms",
    "approximation.grid_builds_per_job": "1/job",
    "approximation.self_s": "s/job",
    "approximation.lawson_ms.deg8": "ms",
    "approximation.lawson_ms.deg16": "ms",
    "approximation.lawson_ms.deg32": "ms",
    "approximation.audit_over_eps": "ratio",
    "polynomial.roots_calls": "1/job",
    "polynomial.roots_s": "s/job",
    "polynomial.evaluate_s": "s/job",
    "polynomial.bound_s": "s/job",
    "polynomial.roots_ms.deg8": "ms",
    "polynomial.roots_ms.deg16": "ms",
    "polynomial.roots_ms.deg32": "ms",
    "polynomial.roots_ms.deg60": "ms",
    "repair.calls": "1/job",
    "repair.busy_s": "s/job",
    "repair.self_s": "s/job",
    "repair.roots_moved": "1/job",
    "repair.bound_evals_per_call": "1/call",
    "repair.success_ratio": "ratio",
    "repair.modulus_tightness": "log10",
    "geometry.distance_calls": "1/job",
    "geometry.distance_s": "s/job",
    "geometry.nearest_exterior_calls": "1/job",
    "geometry.discretize_s": "s/job",
    "geometry.grid_points": "1/job",
    "cli.self_s": "s/job",
    "cli.json_bytes": "B/job",
    "cli.csv_bytes": "B/job",
    "trace.overhead_ratio": "ratio",
}

# the spans whose arguments or result the metrics read; no other span keeps
# them, so the traced run does not hold every intermediate array alive
KEEP_ARGS = {"zeta_shifted_grid", "resolve_target"}
KEEP_RESULT = {"lawson_refine", "repair_nonvanishing", "discretize"}

# span fields
NAME, LAYER, START, END, PARENT, JOB, ARGS, RESULT, RAISED = range(9)


class Tracer:
    """In-memory spans: [name, layer, start, end, parent index, job id,
    call arguments, result, raised].  Arguments and results that the metrics
    need are kept by reference, so counts are derived after the run, not
    inside spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1
        self.origin = perf_counter()
        self._patches = []
        for mod, attr, layer, name in PATCHES:
            orig = getattr(mod, attr)
            self._patches.append((mod, attr, orig, self._wrap(orig, layer, name)))

    def _wrap(self, fn, layer, name):
        spans, stack = self.spans, self.stack
        keep_args, keep_result = name in KEEP_ARGS, name in KEEP_RESULT

        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.job,
                    args if keep_args else None, None, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if keep_result:
                span[RESULT] = result
            return result

        return traced

    def record(self, job_id: int, fn):
        """Run fn() as job `job_id` with every patch in place."""
        try:
            for mod, attr, _, traced in self._patches:
                setattr(mod, attr, traced)
            self.job = job_id
            return self._wrap(fn, "bench", "job")()
        finally:
            self.job = -1
            for mod, attr, orig, _ in self._patches:
                setattr(mod, attr, orig)

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id,job,parent,layer,name,start_s,end_s,raised\n")
            for i, s in enumerate(self.spans):
                fh.write(
                    f"{i},{s[JOB]},{s[PARENT]},{s[LAYER]},{s[NAME]},"
                    f"{s[START] - self.origin:.9f},{s[END] - self.origin:.9f},{int(s[RAISED])}\n"
                )


def self_times(spans) -> list[float]:
    """A span's duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _zeta_terms(args) -> int:
    # N = max(min_terms, ceil(terms_per_unit_t * |t|)) per point, as zeta.py
    # chooses it before any doubling; labelled as computed, not counted
    grid, t = args[0], args[1]
    params = args[2] if len(args) > 2 else zeta_mod.DEFAULT_PARAMS
    return sum(
        max(params.min_terms, math.ceil(params.terms_per_unit_t * abs(z.imag + t)))
        for z in grid.points
    )


def layer_metrics(tracer: Tracer, jobs: int, facts: dict[int, dict]) -> dict[str, float]:
    """Per-layer metrics over `jobs` traced jobs; `facts` holds what each
    job's check learned (trace length, audit results, file sizes).
    Counts and times are per job; a layer a workload never reaches reads 0."""
    spans = tracer.spans
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    self_by_layer: dict[str, float] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)
        self_by_layer[s[LAYER]] = self_by_layer.get(s[LAYER], 0.0) + own[i]

    def idx(name):
        return by_name.get(name, [])

    def busy(name):
        return sum(spans[i][END] - spans[i][START] for i in idx(name))

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {}

    zeta_calls = idx("zeta_shifted_grid")
    evals = sum(len(spans[i][ARGS][0]) for i in zeta_calls)
    terms = sum(_zeta_terms(spans[i][ARGS]) for i in zeta_calls)
    zeta_busy = busy("zeta_shifted_grid")
    m["zeta.evals"] = evals / jobs
    m["zeta.busy_s"] = zeta_busy / jobs
    m["zeta.us_per_eval"] = ratio(zeta_busy * 1e6, evals)
    m["zeta.terms"] = terms / jobs
    m["zeta.mterms_per_s"] = ratio(terms / 1e6, zeta_busy)

    # serial scans evaluate the trace first, in order, then refine
    trace_n = refine_n = 0
    trace_s = refine_s = 0.0
    per_job: dict[int, list[int]] = {}
    for i in idx("discrepancy"):
        per_job.setdefault(spans[i][JOB], []).append(i)
    for job, calls in per_job.items():
        n_trace = facts.get(job, {}).get("trace_points", len(calls))
        for k, i in enumerate(calls):
            d = spans[i][END] - spans[i][START]
            if k < n_trace:
                trace_n += 1
                trace_s += d
            else:
                refine_n += 1
                refine_s += d
    m["scan.trace_evals"] = trace_n / jobs
    m["scan.refine_evals"] = refine_n / jobs
    m["scan.refine_share"] = ratio(refine_n, trace_n + refine_n)
    m["scan.trace_s"] = trace_s / jobs
    m["scan.refine_s"] = refine_s / jobs
    m["scan.self_s"] = self_by_layer.get("scan", 0.0) / jobs

    m["targets.resolve_s"] = busy("resolve_target") / jobs
    m["targets.points"] = sum(len(spans[i][ARGS][1]) for i in idx("resolve_target")) / jobs

    lawson = [spans[i] for i in idx("lawson_refine") if not spans[i][RAISED]]
    iters = sum(s[RESULT].iterations for s in lawson)
    lawson_s = busy("lawson_refine")
    approximate_ids = set(idx("approximate"))
    m["approximation.degree_attempts"] = len(idx("lawson_refine")) / jobs
    m["approximation.lawson_iters"] = iters / jobs
    m["approximation.lawson_s"] = lawson_s / jobs
    m["approximation.ms_per_lawson_iter"] = ratio(lawson_s * 1e3, iters)
    m["approximation.grid_builds_per_job"] = (
        sum(1 for i in idx("discretize") if spans[i][PARENT] in approximate_ids) / jobs
    )
    m["approximation.self_s"] = self_by_layer.get("approximation", 0.0) / jobs
    audits = [f["audit_over_eps"] for f in facts.values() if "audit_over_eps" in f]
    m["approximation.audit_over_eps"] = max(audits) if audits else 0.0

    m["polynomial.roots_calls"] = len(idx("roots")) / jobs
    m["polynomial.roots_s"] = busy("roots") / jobs
    m["polynomial.evaluate_s"] = busy("evaluate") / jobs
    m["polynomial.bound_s"] = (
        busy("perturbation_bound") + busy("min_modulus_certificate") + busy("derivative_bound")
    ) / jobs

    repairs = idx("repair_nonvanishing")
    ok = [spans[i] for i in repairs if not spans[i][RAISED]]
    bound_calls: dict[int, int] = {}
    for i in idx("perturbation_bound"):
        # the repair span is the direct parent of its bound evaluations
        bound_calls[spans[i][PARENT]] = bound_calls.get(spans[i][PARENT], 0) + 1
    tight = [x for f in facts.values() for x in f.get("modulus_log10", ())]
    m["repair.calls"] = len(repairs) / jobs
    m["repair.busy_s"] = busy("repair_nonvanishing") / jobs
    m["repair.self_s"] = self_by_layer.get("repair", 0.0) / jobs
    m["repair.roots_moved"] = sum(len(s[RESULT][1].moved_roots) for s in ok) / jobs
    m["repair.bound_evals_per_call"] = ratio(sum(bound_calls.values()), len(bound_calls))
    m["repair.success_ratio"] = ratio(len(ok), len(repairs))
    m["repair.modulus_tightness"] = statistics.median(tight) if tight else 0.0

    discretized = [spans[i] for i in idx("discretize") if not spans[i][RAISED]]
    m["geometry.distance_calls"] = len(idx("distance")) / jobs
    m["geometry.distance_s"] = busy("distance") / jobs
    m["geometry.nearest_exterior_calls"] = len(idx("nearest_exterior")) / jobs
    m["geometry.discretize_s"] = busy("discretize") / jobs
    m["geometry.grid_points"] = sum(len(s[RESULT]) for s in discretized) / jobs

    m["cli.self_s"] = self_by_layer.get("cli", 0.0) / jobs
    m["cli.json_bytes"] = sum(f.get("json_bytes", 0) for f in facts.values()) / jobs
    m["cli.csv_bytes"] = sum(f.get("csv_bytes", 0) for f in facts.values()) / jobs
    return m
