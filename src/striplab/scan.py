"""Vertical-shift discrepancy scans: D(t) = max over the grid of
|zeta(z + it) - f(z)|, hit-interval detection below a threshold, and the
finite-horizon empirical density of hits.

The trace evaluates the coarse t grid in blocks of shifts, one batched
zeta._evaluate call per block of at most _BLOCK_PAIRS (point, shift) pairs
or one shift, so a grid of more than _BLOCK_PAIRS points (1 024) gets
one-shift blocks, and takes D per column.  A value depends only on (z, t, params), not on its
block, so the trace is the same serially, in the process pool and in any
block width, and D at a trace point equals discrepancy() there.  Bisection
refines all threshold crossings of a scan in lockstep, one batched call for
the midpoints of each step.

Hit detection is conservative-by-grid: a dip narrower than the coarse step
that lies strictly between two same-side grid points is missed, and interval
endpoints are bisection-refined to refine_tol, so the empirical density is a
grid-audited proxy, not a rigorous measure.  Reports carry the step so the
refinement can be audited by rerunning at step/2, and the largest zeta error
estimate over the trace so that D can be read against it.
"""

from __future__ import annotations

import contextlib
import math
import operator
import warnings
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import geometry, targets, zeta
from .errors import InvalidSpec, PrecisionExhausted
from .geometry import CompactSet, SampleGrid, Segment
from .targets import TargetFunction
from .zeta import DEFAULT_PARAMS, ZetaParams, zeta_shifted_grid

DEFAULT_GRID_H = 0.05

# the most (point, shift) pairs of one batched zeta call in the trace.  On
# the scan500 benchmark job (one point, 10 001 shifts; 2 cores, x86-64;
# median scaled job time over 10 interleaved 5 s runs, unscaled in
# brackets) 2^8 pairs took 0.076 s (0.068) at 39.2 MB peak RSS, 2^10
# 0.068 s (0.060) at 39.3 MB, 2^12 0.069 s (0.072) at 39.7 MB and 2^14 (the
# whole trace in one call) 0.072 s (0.071) at 41.0 MB
_BLOCK_PAIRS = 1 << 10

# the most trace points a scan may ask for: the trace keeps t, D and the
# error estimate, 24 bytes a point, so the cap stands at 400 MB; a scan to
# T = 1e5 at step 0.05 traces 2e6 points
_MAX_TRACE_POINTS = 1 << 24


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
        steps, ends_at_T = _trace_steps(self)
        points = steps + 1 + ends_at_T
        if points > _MAX_TRACE_POINTS:
            raise InvalidSpec(
                f"the trace would have {points} points, above the cap {_MAX_TRACE_POINTS} (2^24)"
            )


@dataclass(frozen=True, eq=False)
class ScanReport:
    ts: np.ndarray
    ds: np.ndarray
    hit_intervals: tuple[tuple[float, float], ...]
    empirical_density: float
    best_t: float
    best_d: float
    max_zeta_error: float
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
            "max_zeta_error": self.max_zeta_error,
            "truncated": self.truncated,
        }


def discrepancy(
    grid: SampleGrid,
    target: TargetFunction,
    t: float,
    params: ZetaParams = DEFAULT_PARAMS,
) -> float:
    """max over grid points of |zeta(z_i + it) - f_i|."""
    if len(target.samples) != len(grid):
        raise InvalidSpec("target and grid lengths differ")
    values, _ = zeta_shifted_grid(grid, t, params)
    return float(np.max(np.abs(values - target.samples)))


def _trace_steps(config: ScanConfig) -> tuple[int, bool]:
    """(k, ends_at_T): the trace holds t_start + i * step for i = 0..k, the
    last within T up to 1e-9 of a step, and then T itself when that last
    point falls short of T, that is when the step does not divide the span."""
    steps = math.floor((config.T - config.t_start) / config.step + 1e-9)
    last = config.t_start + config.step * steps
    return steps, last < config.T - 1e-9 * max(1.0, abs(config.T))


def _trace_grid(config: ScanConfig) -> np.ndarray:
    steps, ends_at_T = _trace_steps(config)
    ts = config.t_start + config.step * np.arange(steps + 1)
    return np.append(ts, config.T) if ends_at_T else ts


def _columns(grid, target, ts, params, rows):
    """(D, largest zeta error estimate, exhausted) at each shift of ts,
    from one batched zeta evaluation."""
    values, errors, exhausted = zeta._evaluate(grid.points, ts, params, rows)
    d = np.max(np.abs(values - target.samples[:, None]), axis=0)
    return d, np.max(errors, axis=0), exhausted.any(axis=0)


def _evaluate_trace(grid, target, ts, params, threads, rows):
    """(D, error estimates, truncated) along ts, cut before the first point
    that exhausts precision.  The trace is cut once into blocks of at most
    _BLOCK_PAIRS pairs (at least one shift); they run in-process, or with
    threads > 1 in a process pool that takes them in 4 chunks per worker,
    so that the rows are pickled once per chunk."""
    step = max(1, _BLOCK_PAIRS // len(grid.points))
    blocks = [ts[lo : lo + step] for lo in range(0, len(ts), step)]
    args = (repeat(grid), repeat(target), blocks, repeat(params), repeat(rows))
    chunksize = -(-len(blocks) // (4 * threads))
    ds, errs = [], []
    if threads > 1:
        # imported here, not at the top: multiprocessing and logging add
        # about 30 ms to every process that imports striplab
        from concurrent.futures import ProcessPoolExecutor

        executor = ProcessPoolExecutor(max_workers=threads)
    else:
        executor = contextlib.nullcontext()
    with executor as pool:
        columns = pool.map(_columns, *args, chunksize=chunksize) if pool else map(_columns, *args)
        for d, err, failed in columns:
            stop = int(np.argmax(failed)) if failed.any() else len(d)
            ds.append(d[:stop])
            errs.append(err[:stop])
            if stop < len(d):
                break
    return np.concatenate(ds), np.concatenate(errs), stop < len(d)


def _refine_crossings(t_out, t_in, eps, d_eval, refine_tol):
    """Midpoints of the brackets (t_out, t_in), d(t_out) >= eps > d(t_in),
    each bisected until it is at most refine_tol wide.  The brackets are
    bisected in lockstep, so each step evaluates D at all their midpoints
    in one call; a bracket's result does not depend on the others."""
    t_out = np.array(t_out, dtype=np.float64)
    t_in = np.array(t_in, dtype=np.float64)
    active = np.flatnonzero(np.abs(t_in - t_out) > refine_tol)
    while len(active):
        mid = 0.5 * (t_out[active] + t_in[active])
        hit = d_eval(mid) < eps
        t_in[active[hit]] = mid[hit]
        t_out[active[~hit]] = mid[~hit]
        active = active[np.abs(t_in[active] - t_out[active]) > refine_tol]
    return 0.5 * (t_out + t_in)


def _assemble_intervals(ts, ds, eps, d_eval, refine_tol):
    # runs [first, last] of trace points below eps, from the edges of the
    # hit mask; an end inside the trace is a crossing between the point
    # outside and the run's end point, refined run by run, lower end first
    hits = np.concatenate(([False], ds < eps, [False]))
    edges = np.flatnonzero(hits[1:] != hits[:-1])
    inside = np.column_stack((edges[0::2], edges[1::2] - 1))
    outside = inside + [-1, 1]
    crossing = (outside >= 0) & (outside < len(ts))
    ends = ts[inside]
    ends[crossing] = _refine_crossings(
        ts[outside[crossing]], ends[crossing], eps, d_eval, refine_tol
    )
    return tuple(map(tuple, ends.tolist()))


def scan_on_grid(grid, target, config, params=DEFAULT_PARAMS, threads=1) -> ScanReport:
    """Core scan over an already-built grid and resolved target; threads is
    an integer >= 1, the worker processes of the trace."""
    try:
        threads = operator.index(threads)
    except TypeError:
        raise InvalidSpec(f"threads must be an integer, not {threads!r}") from None
    if threads < 1:
        raise InvalidSpec(f"threads must be at least 1, not {threads}")
    if len(target.samples) != len(grid):
        raise InvalidSpec("target and grid lengths differ")
    _warn_if_outside_strip(grid)
    ts = _trace_grid(config)
    rows = zeta.shift_rows(grid.points, config.T, params)
    ds, errs, truncated = _evaluate_trace(grid, target, ts, params, threads, rows)
    ts = ts[: len(ds)]
    if len(ds) == 0:
        raise PrecisionExhausted("scan failed before the first trace point")

    def d_eval(mids):
        d, _, failed = _columns(grid, target, mids, params, rows)
        if failed.any():
            t = mids[np.argmax(failed)]
            raise PrecisionExhausted(f"zeta exhausted precision while refining at t = {t}")
        return d

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
        max_zeta_error=float(np.max(errs)),
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
    TargetFunction, or dict spec); a callable is called at each t, as a
    float.  best_t is the shift-witness candidate."""
    if not 0.5 < sigma < 1.0:
        raise InvalidSpec("sigma must lie in the open interval (1/2, 1)")
    if not 0.0 < C < math.inf:
        raise InvalidSpec("C must be positive and finite")
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
    # one % per chunk of 2^14 rows over its flat (t, D) Python floats: the
    # bytes of f"{t:.17g}" row by row, in about 2/3 of the time (10-15
    # against 19 ms for the 10 001 rows of scan500, one chunk, on a 2-core
    # x86-64 host), with the format string and floats of one chunk alive
    # at a time
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("t,D\n")
        step = 1 << 14
        for lo in range(0, len(report.ts), step):
            cut = slice(lo, lo + step)
            flat = np.column_stack((report.ts[cut], report.ds[cut])).ravel().tolist()
            fh.write("%.17g,%.17g\n" * (len(flat) // 2) % tuple(flat))
