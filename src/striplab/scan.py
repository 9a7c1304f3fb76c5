"""Vertical-shift discrepancy scans: D(t) = max over the grid of
|zeta(z + it) - f(z)|, hit-interval detection below a threshold, and the
finite-horizon empirical density of hits.

Hit detection is conservative-by-grid: a dip narrower than the coarse step
that lies strictly between two same-side grid points is missed, and interval
endpoints are bisection-refined to refine_tol, so the empirical density is a
grid-audited proxy, not a rigorous measure.  Reports carry the step so the
refinement can be audited by rerunning at step/2.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import geometry, targets, zeta
from .errors import InvalidSpec, PrecisionExhausted
from .geometry import CompactSet, SampleGrid, Segment
from .targets import TargetFunction
from .zeta import DEFAULT_PARAMS, ZetaParams, zeta_shifted_grid

DEFAULT_GRID_H = 0.05


@dataclass(frozen=True)
class ScanConfig:
    T: float
    step: float
    eps: float
    refine_tol: float = 1e-4
    t_start: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.T < math.inf:
            raise InvalidSpec("scan horizon T must be positive and finite")
        if not 0.0 <= self.t_start < self.T:
            raise InvalidSpec("t_start must satisfy 0 <= t_start < T")
        if not 0.0 < self.step <= self.T / 10.0:
            raise InvalidSpec("step must be positive and at most T/10")
        if not 0.0 < self.refine_tol < self.step:
            raise InvalidSpec("refine_tol must be positive and below step")
        if not 0.0 <= self.eps < math.inf:
            raise InvalidSpec("eps must be nonnegative and finite")


@dataclass(frozen=True, eq=False)
class ScanReport:
    ts: np.ndarray
    ds: np.ndarray
    hit_intervals: tuple[tuple[float, float], ...]
    empirical_density: float
    best_t: float
    best_d: float
    eps: float
    step: float
    t_start: float
    horizon: float
    truncated: bool = False

    def to_dict(self) -> dict:
        return {
            "eps": self.eps,
            "step": self.step,
            "t_start": self.t_start,
            "T": self.horizon,
            "hit_intervals": [[lo, hi] for lo, hi in self.hit_intervals],
            "empirical_density": self.empirical_density,
            "best_t": self.best_t,
            "best_D": self.best_d,
            "truncated": self.truncated,
        }


def discrepancy(
    grid: SampleGrid,
    target: TargetFunction,
    t: float,
    params: ZetaParams = DEFAULT_PARAMS,
    rows: zeta.DirichletRows | None = None,
) -> float:
    """max over grid points of |zeta(z_i + it) - f_i|; `rows` are the
    grid's zeta.shift_rows when the caller reuses them across t."""
    if len(target.samples) != len(grid):
        raise InvalidSpec("target and grid lengths differ")
    values, _ = zeta_shifted_grid(grid, t, params, rows=rows)
    return float(np.max(np.abs(values - target.samples)))


def _trace_grid(config: ScanConfig) -> np.ndarray:
    span = config.T - config.t_start
    count = int(np.floor(span / config.step + 1e-9))
    ts = config.t_start + config.step * np.arange(count + 1)
    if ts[-1] < config.T - 1e-9 * max(1.0, abs(config.T)):
        ts = np.append(ts, config.T)
    return ts


def _chunk_worker(payload):
    grid, target, ts, params, rows = payload
    ds = []
    for t in ts:
        try:
            ds.append(discrepancy(grid, target, t, params, rows))
        except PrecisionExhausted:
            return ds, True
    return ds, False


def _evaluate_trace(grid, target, ts, params, threads, rows):
    """D along ts, cut at the first point that exhausts precision; chunks
    run in a process pool when threads > 1, else in-process."""
    chunks = np.array_split(ts, min(len(ts), threads * 4)) if threads > 1 else [ts]
    payloads = [(grid, target, chunk, params, rows) for chunk in chunks]
    out = []
    with (ProcessPoolExecutor(max_workers=threads) if threads > 1 else contextlib.nullcontext()) as pool:
        for ds, failed in (pool.map if pool else map)(_chunk_worker, payloads):
            out.extend(ds)
            if failed:
                return np.array(out), True
    return np.array(out), False


def _refine_crossing(t_out, t_in, eps, d_eval, refine_tol):
    # d(t_out) >= eps, d(t_in) < eps; returns the bracket midpoint
    while abs(t_in - t_out) > refine_tol:
        mid = 0.5 * (t_out + t_in)
        if d_eval(mid) < eps:
            t_in = mid
        else:
            t_out = mid
    return 0.5 * (t_out + t_in)


def _assemble_intervals(ts, ds, eps, d_eval, refine_tol):
    hits = ds < eps
    intervals = []
    i = 0
    n = len(ts)
    while i < n:
        if not hits[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and hits[j + 1]:
            j += 1
        lo = ts[0] if i == 0 else _refine_crossing(ts[i - 1], ts[i], eps, d_eval, refine_tol)
        hi = ts[-1] if j == n - 1 else _refine_crossing(ts[j + 1], ts[j], eps, d_eval, refine_tol)
        intervals.append((float(lo), float(hi)))
        i = j + 1
    return tuple(intervals)


def scan_on_grid(grid, target, config, params=DEFAULT_PARAMS, threads=1) -> ScanReport:
    """Core scan over an already-built grid and resolved target."""
    _warn_if_outside_strip(grid)
    ts = _trace_grid(config)
    rows = zeta.shift_rows(grid.points, config.T, params)
    ds, truncated = _evaluate_trace(grid, target, ts, params, threads, rows)
    ts = ts[: len(ds)]
    if len(ds) == 0:
        raise PrecisionExhausted("scan failed before the first trace point")

    def d_eval(t):
        return discrepancy(grid, target, t, params, rows)

    intervals = _assemble_intervals(ts, ds, config.eps, d_eval, config.refine_tol)
    total = sum(hi - lo for lo, hi in intervals)
    density = total / (config.T - config.t_start)
    best_idx = int(np.argmin(ds))
    return ScanReport(
        ts=ts,
        ds=ds,
        hit_intervals=intervals,
        empirical_density=float(density),
        best_t=float(ts[best_idx]),
        best_d=float(ds[best_idx]),
        eps=config.eps,
        step=config.step,
        t_start=config.t_start,
        horizon=config.T,
        truncated=truncated,
    )


def scan_density(
    K: CompactSet,
    target_spec,
    config: ScanConfig,
    params: ZetaParams = DEFAULT_PARAMS,
    threads: int = 1,
    grid_h: float = DEFAULT_GRID_H,
) -> ScanReport:
    """Trace D(t) over [t_start, T] on a uniform grid, refine threshold
    crossings by bisection, and report hit intervals plus their density."""
    grid = geometry.discretize(K, grid_h)
    target = targets.resolve_target(target_spec, grid, params)
    return scan_on_grid(grid, target, config, params, threads)


def line_universality(
    sigma: float,
    C: float,
    f,
    config: ScanConfig,
    params: ZetaParams = DEFAULT_PARAMS,
    threads: int = 1,
    grid_h: float | None = None,
) -> ScanReport:
    """Scan with K the vertical segment [sigma, sigma + iC]; the target is a
    function of the imaginary offset t in [0, C] (callable, constant,
    TargetFunction, or dict spec).  best_t is the shift-witness candidate."""
    if not 0.5 < sigma < 1.0:
        raise InvalidSpec("sigma must lie in the open interval (1/2, 1)")
    if not C > 0:
        raise InvalidSpec("C must be positive")
    K = Segment(complex(sigma), complex(sigma, C))
    h = grid_h if grid_h is not None else min(DEFAULT_GRID_H, C / 4.0)
    grid = geometry.discretize(K, h)
    spec = (lambda z: f(float(z.imag))) if callable(f) else f
    target = targets.resolve_target(spec, grid, params)
    return scan_on_grid(grid, target, config, params, threads)


def _warn_if_outside_strip(grid: SampleGrid):
    re = grid.points.real
    if np.any(re <= 0.5) or np.any(re >= 1.0):
        warnings.warn(
            "the set is not inside the open strip 1/2 < Re(z) < 1; "
            "universality offers no guarantee there",
            RuntimeWarning,
            stacklevel=3,
        )


def write_trace_csv(report: ScanReport, path) -> None:
    """CSV trace `t,D`, 17 significant digits, byte-stable across reruns."""
    lines = ["t,D"]
    lines.extend(f"{t:.17g},{d:.17g}" for t, d in zip(report.ts, report.ds))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
