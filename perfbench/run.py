"""striplab benchmark: one closed-loop client per workload, in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports striplab from ./src.  With
--trace 0 it reports the end-to-end metrics, with --trace 1 the per-layer
metrics of a separate traced run.  Human-readable lines come first; the
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

from time import perf_counter

STARTED = perf_counter()  # a set-up probe times itself from here

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from calibration import Clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_s_p50": "s",
    "job_s_tail": "s",
    "jobs_per_s": "jobs/s",
    "cpu_s_per_job": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def cpu_seconds() -> float:
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def run_job(job, errors, tracer=None, job_id=-1):
    """Time one job, then check it.  Returns (wall s, cpu s, failed, wrong,
    facts): failed counts the job's operations that raised a striplab error
    or gave a wrong output, wrong only the latter."""
    c0 = cpu_seconds()
    t0 = perf_counter()
    try:
        out = job.run() if tracer is None else tracer.record(job_id, job.run)
    except errors.StriplabError as exc:
        wall, cpu = perf_counter() - t0, cpu_seconds() - c0
        print(f"raised  {job.label}: {type(exc).__name__}: {exc}")
        return wall, cpu, job.ops, 0, {}
    wall, cpu = perf_counter() - t0, cpu_seconds() - c0
    wrong, facts = job.check(out)
    for line in wrong:
        print(f"wrong   {job.label}: {line}")
    return wall, cpu, len(wrong) + facts.get("raised", 0), len(wrong), facts


def tail(times):
    """Highest percentile with at least ten samples beyond it; with fewer
    than 21 samples there is none above the median, and the median stands."""
    xs = sorted(times)
    n = len(xs)
    if n < 21:
        return statistics.median(xs), 50.0
    return xs[n - 11], 100.0 * (n - 10) / n


def setup_probe_times(args) -> tuple[list[float], list[float]]:
    """Set-up time of fresh processes that import, build inputs and run one
    warm-up job: what a command-line user pays on every run.  Each probe
    times itself and samples the reference afterwards on its own core.
    Returns the times and their scales (see calibration.py)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times, scales = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr}")
        elapsed, scale = map(float, proc.stdout.split())
        times.append(elapsed)
        scales.append(scale)
    return times, scales


def machine_info(np) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "striplab" / "__init__.py").is_file():
        print(f"perfbench: no striplab sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import striplab
    from striplab import errors

    if Path(striplab.__file__).resolve().parent != SRC / "striplab":
        print(f"perfbench: imported striplab from {striplab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        return _run(args, np, errors, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, np, errors, workloads, workdir) -> int:
    make = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        # set-up only: the warm-up job's output is checked in the main run
        make(args.seed, workdir).warmup_job().run()
        elapsed = perf_counter() - STARTED
        print(elapsed, make.reference.reference_s / make.reference.measure())
        return 0

    info = machine_info(np)
    print(f"machine {json.dumps(info)}")
    print(f"workload {args.workload}, seed {args.seed} ({make.uses_seed}), "
          f"{args.seconds:g} s, trace {args.trace}")

    setup, setup_scales = ([], []) if args.trace else setup_probe_times(args)
    workload = make(args.seed, workdir)
    for job in workload.prepare_jobs():
        if run_job(job, errors)[2]:
            print(f"perfbench: warm-up job {job.label} failed", file=sys.stderr)
            return 1

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    walls, cpus = [], []
    attempted = failed = wrong = 0
    traced_walls, plain_walls, facts = [], [], {}
    traced_jobs = 0
    clock = Clock(make.reference)
    deadline = perf_counter() + args.seconds
    while perf_counter() < deadline:
        job = workload.next_job()
        wall, cpu, job_failed, job_wrong, _ = run_job(job, errors)
        walls.append(wall)
        cpus.append(cpu)
        attempted += job.ops
        failed += job_failed
        wrong += job_wrong
        if tracer is None:
            clock.after_job()
            continue
        # the same job again, traced; the pair gives the tracing overhead
        t_wall, _, t_failed, t_wrong, facts[traced_jobs] = run_job(job, errors, tracer, traced_jobs)
        traced_jobs += 1
        attempted += job.ops
        failed += t_failed
        wrong += t_wrong
        if job_failed == t_failed == 0:
            plain_walls.append(wall)
            traced_walls.append(t_wall)

    if tracer is None:
        scales = clock.scales()
        scaled = [w * k for w, k in zip(walls, scales)]
        p_tail, pct = tail(scaled)
        metrics = {
            "setup_s": statistics.median(t * k for t, k in zip(setup, setup_scales)),
            "job_s_p50": statistics.median(scaled),
            "job_s_tail": p_tail,
            "jobs_per_s": len(scaled) / sum(scaled),
            "cpu_s_per_job": sum(c * k for c, k in zip(cpus, scales)) / len(cpus),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
        print(f"jobs {len(walls)}, tail = p{pct:.1f} of {len(walls)} samples, "
              f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} operations)")
        print(f"unscaled: setup probes {', '.join(f'{t:.4f}' for t in setup)} s, "
              f"job p50 {statistics.median(walls):.6g} s, jobs/s {len(walls) / sum(walls):.6g}, "
              f"cpu/job {sum(cpus) / len(cpus):.6g} s; scale median {statistics.median(scales):.4f}, "
              f"range {min(scales):.4f}-{max(scales):.4f}")
    else:
        import sweeps

        metrics = tracing.layer_metrics(tracer, traced_jobs, facts)
        metrics.update(sweeps.all_sweeps())
        metrics["trace.overhead_ratio"] = (
            sum(traced_walls) / sum(plain_walls) if plain_walls else 0.0
        )
        units = tracing.PER_LAYER_UNITS
        if set(metrics) != set(units):
            raise RuntimeError(f"per-layer metrics differ from the table: {set(metrics) ^ set(units)}")
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write_csv(str(spans_path))
        print(f"traced jobs {traced_jobs}, spans {len(tracer.spans)} -> {spans_path}")

    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
