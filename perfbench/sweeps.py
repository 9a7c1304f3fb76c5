"""Kernel sweeps of the traced run: one kernel, one size, warm, median of
several repetitions.  Inputs are fixed, so the sweeps ignore the seed."""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

import striplab
from workloads import A6_PARAMS, LineScan


def _median_time(fn, reps: int) -> float:
    fn()  # warm: lazy tables and caches fill here
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def zeta_sweep() -> dict[str, float]:
    """zeta_em at sigma 0.8 with the criterion-6 parameters, per t-decade."""
    out = {}
    for label, t, reps in (("t1e3", 1e3, 200), ("t1e4", 1e4, 60), ("t1e5", 1e5, 20)):
        s = complex(0.8, t)
        out[f"zeta.us_per_eval.{label}"] = 1e6 * _median_time(
            lambda: striplab.zeta_em(s, A6_PARAMS), reps
        )
    return out


def roots_sweep() -> dict[str, float]:
    """Aberth root finding on monic polynomials with roots drawn uniformly
    from the unit disk."""
    rng = np.random.default_rng(2010)
    out = {}
    for degree, reps in ((8, 15), (16, 15), (32, 7), (60, 5)):
        r = np.sqrt(rng.uniform(0, 1, degree)) * np.exp(2j * np.pi * rng.uniform(0, 1, degree))
        P = striplab.from_roots(1.0, tuple(r))
        out[f"polynomial.roots_ms.deg{degree}"] = 1e3 * _median_time(
            lambda: striplab.roots(P), reps
        )
    return out


def lawson_sweep() -> dict[str, float]:
    """One default lawson_refine (10 reweightings) of |z| on [-1/2, 1/2]
    sampled at covering radius 5e-4 (1001 points)."""
    grid = striplab.discretize(striplab.Segment(-0.5, 0.5), 5e-4)
    target = striplab.resolve_target({"kind": "builtin", "name": "abs"}, grid)
    out = {}
    for degree in (8, 16, 32):
        out[f"approximation.lawson_ms.deg{degree}"] = 1e3 * _median_time(
            lambda: striplab.lawson_refine(grid, target, degree), 3
        )
    return out


def pool_speedup() -> float:
    """Serial over two-process time of one line_scan job, best of two each,
    alternating which runs first."""
    workload = LineScan(0, "")
    t_start = 42225.0
    times = {1: [], 2: []}
    for order in ((1, 2), (2, 1)):
        for threads in order:
            job = workload.job_at(t_start, threads=threads)
            t0 = perf_counter()
            report = job.run()
            times[threads].append(perf_counter() - t0)
            problem, _ = job.check(report)
            if problem:
                raise RuntimeError(f"pool_speedup job with threads={threads}: {problem}")
    return min(times[1]) / min(times[2])


def all_sweeps() -> dict[str, float]:
    out = {}
    out.update(zeta_sweep())
    out.update(roots_sweep())
    out.update(lawson_sweep())
    out["scan.pool_speedup"] = pool_speedup()
    return out
