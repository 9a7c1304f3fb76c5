import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from striplab import (
    PointSet,
    ScanConfig,
    Segment,
    TargetFunction,
    discrepancy,
    discretize,
    line_universality,
    resolve_target,
    scan_density,
    write_trace_csv,
    zeta_em,
)
import striplab.scan as scan_mod
import striplab.zeta as zeta_mod
from striplab.errors import InvalidSpec, PrecisionExhausted
from striplab.zeta import DEFAULT_PARAMS, ZetaParams, zeta_shifted_grid

POINT = PointSet((0.75,))


def check_report(rep):
    # structural ScanReport invariants
    assert np.all(rep.ds >= 0.0)
    assert 0.0 <= rep.empirical_density <= 1.0
    assert rep.best_d == rep.ds.min()
    assert rep.ds[np.where(rep.ts == rep.best_t)][0] == rep.best_d
    for lo, hi in rep.hit_intervals:
        assert rep.t_start <= lo <= hi <= rep.horizon
    for (a, b), (c, d) in zip(rep.hit_intervals, rep.hit_intervals[1:]):
        assert b < c


@pytest.fixture(scope="module")
def point_grid():
    return discretize(POINT, 0.1)


# ---------------------------------------------------------------- discrepancy


def test_discrepancy_self_similarity_at_zero(point_grid):
    target = resolve_target({"kind": "zeta"}, point_grid)
    assert discrepancy(point_grid, target, 0.0) <= 1e-12


def test_discrepancy_constant_offset(point_grid):
    target = TargetFunction((zeta_em(0.75 + 0j).value + 1.0,))
    assert discrepancy(point_grid, target, 0.0) == pytest.approx(1.0, abs=1e-10)


def test_discrepancy_is_compositional(point_grid):
    target = resolve_target({"kind": "zeta"}, point_grid)
    expected = abs(zeta_em(0.75 + 50.0j).value - zeta_em(0.75 + 0j).value)
    assert discrepancy(point_grid, target, 50.0) == pytest.approx(expected, abs=1e-12)


def test_self_similarity_matches_scalars():
    seg = Segment(0.75, 0.75 + 0.2j)
    grid = discretize(seg, 0.02)
    target = resolve_target({"kind": "zeta"}, grid)
    assert target.samples.dtype == complex and not target.samples.flags.writeable
    for z, f in zip(grid.points, target.samples):
        assert f == zeta_em(complex(z)).value


# ---------------------------------------------------------------- scan core


def test_scan_always_hits_at_zero_shift():
    cfg = ScanConfig(T=20.0, step=0.05, eps=0.3)
    rep = scan_density(POINT, {"kind": "zeta"}, cfg)
    check_report(rep)
    assert rep.hit_intervals and rep.hit_intervals[0][0] == 0.0
    assert rep.empirical_density > 0.0
    assert rep.best_t == 0.0 and rep.best_d <= 1e-12


def test_scan_threshold_above_range_gives_density_one():
    cfg = ScanConfig(T=20.0, step=0.5, eps=1e9)
    rep = scan_density(POINT, {"kind": "zeta"}, cfg)
    check_report(rep)
    assert rep.hit_intervals == ((0.0, 20.0),)
    assert rep.empirical_density == pytest.approx(1.0)


def test_scan_eps_zero_never_hits():
    cfg = ScanConfig(T=10.0, step=0.5, eps=0.0)
    rep = scan_density(POINT, {"kind": "zeta"}, cfg)
    check_report(rep)
    assert rep.hit_intervals == ()
    assert rep.empirical_density == 0.0


def test_scan_monotone_threshold():
    cfg1 = ScanConfig(T=20.0, step=0.05, eps=0.3)
    cfg2 = ScanConfig(T=20.0, step=0.05, eps=0.8)
    rep1 = scan_density(POINT, {"kind": "zeta"}, cfg1)
    rep2 = scan_density(POINT, {"kind": "zeta"}, cfg2)
    # grid-level hit sets nest exactly
    assert set(np.flatnonzero(rep1.ds < cfg1.eps)) <= set(np.flatnonzero(rep2.ds < cfg2.eps))
    # refined intervals nest up to the bisection tolerance
    for lo, hi in rep1.hit_intervals:
        assert any(
            lo >= lo2 - cfg1.refine_tol and hi <= hi2 + cfg1.refine_tol
            for lo2, hi2 in rep2.hit_intervals
        )
    assert rep1.empirical_density <= rep2.empirical_density + 1e-12


def test_scan_step_halving_stability():
    coarse = scan_density(POINT, {"kind": "zeta"}, ScanConfig(T=20.0, step=0.05, eps=0.3))
    fine = scan_density(POINT, {"kind": "zeta"}, ScanConfig(T=20.0, step=0.025, eps=0.3))
    assert len(fine.hit_intervals) >= len(coarse.hit_intervals)
    assert fine.empirical_density == pytest.approx(coarse.empirical_density, rel=0.10)


def test_scan_warns_outside_strip():
    cfg = ScanConfig(T=10.0, step=0.5, eps=0.5)
    with pytest.warns(RuntimeWarning):
        scan_density(PointSet((2.0,)), {"kind": "zeta"}, cfg)


def test_scan_past_the_precision_guard_names_the_guard():
    # the rows for a horizon past the 1e8 guard name the guard, not the term
    # cap that a count clipped to the guard would exceed
    cfg = ScanConfig(T=1.5e8, step=1.5e7, eps=0.3)
    with pytest.raises(InvalidSpec, match=r"^\|Im\(s\)\| = 150000000.0 exceeds the precision guard 1e\+08$"):
        scan_density(POINT, {"kind": "zeta"}, cfg)
    with pytest.raises(InvalidSpec, match=r"^\|Im\(s\)\| = 150000000.2 exceeds the precision guard 1e\+08$"):
        line_universality(0.8, 0.2, 1.0, cfg)


def test_scan_truncates_on_precision_loss():
    params = ZetaParams(terms_per_unit_t=1e-9, min_terms=2, bernoulli_terms=12)
    cfg = ScanConfig(T=2000.0, step=100.0, eps=0.5)
    rep = scan_density(POINT, {"kind": "zeta"}, cfg, params)
    check_report(rep)
    assert rep.truncated
    assert len(rep.ts) < 21  # stopped before the full trace
    assert rep.hit_intervals and rep.hit_intervals[0][0] == 0.0


def test_scan_raises_when_the_first_trace_point_exhausts_precision():
    # N = 2, doubled to 8, leaves an estimate above 1e-6 already at t = 0
    params = ZetaParams(terms_per_unit_t=1e-9, min_terms=2, bernoulli_terms=1)
    cfg = ScanConfig(T=10.0, step=1.0, eps=0.5)
    with pytest.raises(PrecisionExhausted, match="before the first trace point"):
        scan_density(POINT, {"kind": "builtin", "name": "constant", "value": 1.0}, cfg, params)


def test_scan_raises_when_refinement_exhausts_precision():
    # with N = max(3, ceil(2 t)) doubled twice the estimate saws: at Re s =
    # 0.75 and t = 1.46 (N = 12) it is 1.6e-6, above 1e-6, while the trace
    # points 0.46 (N = 12) and 2.46 (N = 20) stay below, at 5.6e-7 and
    # 6.3e-7, so the crossing between them fails at its first midpoint
    params = ZetaParams(terms_per_unit_t=2.0, min_terms=3, bernoulli_terms=1)
    grid = discretize(PointSet((0.75,)), 0.1)
    _, errors, exhausted = zeta_mod._evaluate(grid.points, [0.46, 1.46, 2.46], params)
    assert exhausted[0].tolist() == [False, True, False]
    target = TargetFunction(zeta_mod._evaluate(grid.points, [2.46], params)[0][:, 0])
    cfg = ScanConfig(T=20.0, step=2.0, eps=1e-3, t_start=0.46)
    with pytest.raises(PrecisionExhausted, match="while refining at t = 1.46"):
        scan_mod.scan_on_grid(grid, target, cfg, params)


def test_scan_config_validation():
    with pytest.raises(InvalidSpec):
        ScanConfig(T=10.0, step=2.0, eps=0.5)  # step > T/10
    with pytest.raises(InvalidSpec):
        ScanConfig(T=10.0, step=1.0, eps=0.5, refine_tol=2.0)
    with pytest.raises(InvalidSpec):
        ScanConfig(T=-1.0, step=0.05, eps=0.5)
    with pytest.raises(InvalidSpec):
        ScanConfig(T=10.0, step=0.5, eps=-0.1)
    with pytest.raises(InvalidSpec):
        ScanConfig(T=math.inf, step=0.05, eps=0.5)
    with pytest.raises(InvalidSpec):
        ScanConfig(T=10.0, step=0.5, eps=math.inf)
    with pytest.raises(InvalidSpec):
        ScanConfig(T=10.0, step=0.5, eps=math.nan)
    # 2e9 trace points are refused before anything is allocated
    with pytest.raises(InvalidSpec, match="trace would have 2000000001 points"):
        ScanConfig(T=1e8, step=0.05, eps=0.5)
    assert ScanConfig(T=1e5, step=0.05, eps=0.5).T == 1e5


def test_trace_count_is_the_trace_length():
    # the step does not divide the span, so T is a trace point of its own
    cfg = ScanConfig(T=10.5, step=1.0, eps=0.5)
    assert scan_mod._trace_steps(cfg) == (10, True)
    assert len(scan_mod._trace_grid(cfg)) == 12
    # at the cap, before anything is allocated: 2^24 points pass, and the
    # point T past the last whole step makes 2^24 + 1
    assert ScanConfig(T=2.0**24 - 1.0, step=1.0, eps=0.5).T == 2.0**24 - 1.0
    with pytest.raises(InvalidSpec, match="trace would have 16777217 points"):
        ScanConfig(T=2.0**24 - 0.5, step=1.0, eps=0.5)


def test_scan_threads_deterministic():
    cfg = ScanConfig(T=15.0, step=0.25, eps=0.5)
    serial = scan_density(POINT, {"kind": "zeta"}, cfg, threads=1)
    parallel = scan_density(POINT, {"kind": "zeta"}, cfg, threads=2)
    assert np.array_equal(serial.ds, parallel.ds)
    assert serial.hit_intervals == parallel.hit_intervals
    assert serial.empirical_density == parallel.empirical_density


@pytest.mark.parametrize("threads", [0, -1, 1.5])
def test_scan_rejects_threads_that_are_not_integers_from_one(threads):
    # unchecked, 0 divides by zero in the trace's chunk size, -1 runs
    # serially without a word and 1.5 raises TypeError in the process pool
    cfg = ScanConfig(T=15.0, step=0.25, eps=0.5)
    with pytest.raises(InvalidSpec, match="threads"):
        scan_density(POINT, {"kind": "zeta"}, cfg, threads=threads)


def test_scan_takes_numpy_integer_threads():
    cfg = ScanConfig(T=15.0, step=0.25, eps=0.5)
    report = scan_density(POINT, {"kind": "zeta"}, cfg, threads=np.int64(1))
    assert np.array_equal(report.ds, scan_density(POINT, {"kind": "zeta"}, cfg).ds)


@pytest.mark.parametrize("value", [np.int64(2), np.float32(2.0), np.complex64(2.0)])
def test_numpy_scalars_resolve_as_constant_targets(point_grid, value):
    assert np.array_equal(resolve_target(value, point_grid).samples, [2.0 + 0j])


def test_line_universality_takes_a_numpy_constant():
    cfg = ScanConfig(T=50.0, step=1.0, eps=0.75, refine_tol=0.25)
    report = line_universality(0.8, 0.2, np.int64(1), cfg)
    assert np.array_equal(report.ds, line_universality(0.8, 0.2, 1, cfg).ds)


@pytest.mark.parametrize("with_rows", [True, False])
def test_trace_does_not_depend_on_the_blocks(monkeypatch, with_rows):
    # two points share an Im; the trace as one block and one phase table, as
    # blocks of one shift (1 // 3 pairs rounds up to one shift) with a table
    # per tau, through the process pool and one zeta call per t
    grid = discretize(PointSet((0.6 + 0.1j, 0.8 + 0.1j, 0.7 + 0.3j)), 0.1)
    target = resolve_target({"kind": "zeta"}, grid)
    ts = np.linspace(0.0, 300.0, 61)
    rows = zeta_mod.shift_rows(grid.points, ts[-1]) if with_rows else None
    traces = {}
    for label, budget, threads in (("one block", 1 << 16, 1), ("blocks of one", 1, 1), ("pool", None, 2)):
        if budget is not None:
            monkeypatch.setattr(zeta_mod, "_BLOCK_ENTRIES", budget)
            monkeypatch.setattr(scan_mod, "_BLOCK_PAIRS", budget)
        ds, errs, truncated = scan_mod._evaluate_trace(grid, target, ts, DEFAULT_PARAMS, threads, rows)
        monkeypatch.undo()
        assert not truncated and len(ds) == len(ts)
        traces[label] = ds
    per_t = []
    for t in ts:
        values = zeta_mod._evaluate(grid.points, [t], DEFAULT_PARAMS, rows)[0][:, 0]
        per_t.append(np.max(np.abs(values - target.samples)))
    for ds in traces.values():
        assert np.array_equal(ds, per_t)


@pytest.mark.parametrize("kept", [2, 1, 0])
def test_scan_past_the_rows_cut_is_the_scan_with_rows(monkeypatch, kept):
    # the criterion-6 grid to T = 2000: with the cut one entry short of
    # kept + 1 rows the scan keeps the rows of the first `kept` of its 3
    # points, and each call builds rows for the others; every figure of the
    # report is the same bit for bit
    grid = discretize(Segment(0.8, 0.8 + 0.2j), 0.05)
    target = resolve_target(1.0, grid)
    cfg = ScanConfig(T=2000.0, step=0.5, eps=0.3)
    params = ZetaParams(terms_per_unit_t=0.35)
    cached = scan_mod.scan_on_grid(grid, target, cfg, params)
    rows = zeta_mod.shift_rows(grid.points, cfg.T, params)
    assert len(rows) == len(grid) == 3
    monkeypatch.setattr(zeta_mod, "_SCAN_ENTRIES", (kept + 1) * rows.shape[1] - 1)
    assert np.array_equal(zeta_mod.shift_rows(grid.points, cfg.T, params), rows[:kept])
    past = scan_mod.scan_on_grid(grid, target, cfg, params)
    assert len(cached.hit_intervals) > 100
    assert np.array_equal(past.ts, cached.ts) and np.array_equal(past.ds, cached.ds)
    assert past.hit_intervals == cached.hit_intervals
    assert (past.best_t, past.best_d) == (cached.best_t, cached.best_d)
    assert past.max_zeta_error == cached.max_zeta_error


def test_scan_rows_hold_the_n_decided_at_the_horizon(monkeypatch):
    # at 0.1 terms per unit t the pairs near T = 2000 are decided at 4 N0
    # (N = 804 at the horizon, N0 = 201): the scan's rows are built that
    # wide, once, and serve every pair; rows of N0 left 19 calls to build
    # their own.  Every figure of the report is the same bit for bit
    K, cfg = Segment(0.75, 0.75 + 0.2j), ScanConfig(T=2000.0, step=20.0, eps=0.5)
    params = ZetaParams(terms_per_unit_t=0.1)
    dirichlet_table = zeta_mod._dirichlet_table
    built = []

    def recording(points, count):
        built.append(count)
        return dirichlet_table(points, count)

    monkeypatch.setattr(zeta_mod, "_dirichlet_table", recording)
    report = scan_density(K, 1.0, cfg, params)
    assert built == [804]
    built.clear()
    monkeypatch.setattr(zeta_mod, "shift_rows", lambda points, t_max, params: dirichlet_table(points, 201))
    narrow = scan_density(K, 1.0, cfg, params)
    assert len(built) == 19 and max(built) == 804
    assert np.array_equal(narrow.ts, report.ts) and np.array_equal(narrow.ds, report.ds)
    assert narrow.hit_intervals == report.hit_intervals
    assert (narrow.best_t, narrow.best_d) == (report.best_t, report.best_d)
    assert narrow.max_zeta_error == report.max_zeta_error


@pytest.mark.parametrize("cap", [None, 2000])
def test_low_term_scan_truncates_without_rows_for_exhausted_pairs(monkeypatch, cap):
    # with one correction every pair near T = 2000 fails its estimate even
    # at 4 N0, so the scan truncates at t = 12, inside the first of its
    # three blocks, and its rows keep N0's width (N0 = 1001 at the horizon)
    # where 4 N0 would be 4004: the plan grows no wider than the largest N
    # summed, 4 N0 = 1364 at the block's last shift, and a term cap between
    # the two leaves the report as it is
    if cap is not None:
        monkeypatch.setattr(zeta_mod, "_MAX_TERMS", cap)
    grid = discretize(Segment(0.75, 0.75 + 0.2j), 0.05)
    target = resolve_target(1.0, grid)
    cfg = ScanConfig(T=2000.0, step=2.0, eps=0.5)
    params = ZetaParams(bernoulli_terms=1)
    em_tail = zeta_mod._em_tail
    summed = []

    def recording(s, N, partial, last, kb):
        summed.extend(N.tolist())
        return em_tail(s, N, partial, last, kb)

    monkeypatch.setattr(zeta_mod, "_em_tail", recording)
    monkeypatch.setattr(zeta_mod, "_plan_cache", None)
    assert len(scan_mod._trace_grid(cfg)) > scan_mod._BLOCK_PAIRS // len(grid)
    report = scan_mod.scan_on_grid(grid, target, cfg, params)
    assert report.truncated and report.ts[-1] == 12.0
    assert max(summed) == 1364
    assert len(zeta_mod._plan_cache.order) == zeta_mod._row_width(1364)
    assert zeta_mod.shift_rows(grid.points, cfg.T, params).shape == (3, zeta_mod._row_width(1001))
    dirichlet_table = zeta_mod._dirichlet_table
    monkeypatch.setattr(zeta_mod, "shift_rows", lambda points, t_max, params: dirichlet_table(points, 1001))
    narrow = scan_mod.scan_on_grid(grid, target, cfg, params)
    assert np.array_equal(narrow.ts, report.ts) and np.array_equal(narrow.ds, report.ds)
    assert narrow.hit_intervals == report.hit_intervals
    assert narrow.max_zeta_error == report.max_zeta_error


def test_shift_rows_stop_at_the_term_cap(monkeypatch):
    # the pairs at T = 2000 and 0.1 terms per unit t pass at 4 N0 = 804; a
    # term cap of 500 cuts the rows there, where N0 = 201 fits under it
    grid = discretize(Segment(0.75, 0.75 + 0.2j), 0.05)
    params = ZetaParams(terms_per_unit_t=0.1)
    assert zeta_mod.shift_rows(grid.points, 2000.0, params).shape == (3, zeta_mod._row_width(804))
    monkeypatch.setattr(zeta_mod, "_MAX_TERMS", 500)
    assert zeta_mod.shift_rows(grid.points, 2000.0, params).shape == (3, zeta_mod._row_width(500))


@pytest.mark.parametrize(
    "params, T", [(DEFAULT_PARAMS, 500.0), (DEFAULT_PARAMS, 1e5), (ZetaParams(terms_per_unit_t=0.35), 1e5)]
)
def test_scan_rows_of_default_and_a6_scans_hold_n0(params, T):
    # at the default and the A6 rates no pair is decided past N0 at the
    # horizon, so the rows keep N0's width
    grid = discretize(Segment(0.8, 0.8 + 0.2j), 0.05)
    n0 = math.ceil(params.terms_per_unit_t * (T + 0.2))
    assert zeta_mod.shift_rows(grid.points, T, params).shape == (3, zeta_mod._row_width(n0))


def test_precision_loss_inside_a_block_truncates_where_the_per_t_path_does():
    params = ZetaParams(terms_per_unit_t=1e-9, min_terms=2, bernoulli_terms=12)
    cfg = ScanConfig(T=2000.0, step=100.0, eps=0.5)
    grid = discretize(POINT, 0.1)
    target = resolve_target({"kind": "zeta"}, grid, params)
    per_t = []
    for t in scan_mod._trace_grid(cfg):
        try:
            per_t.append(discrepancy(grid, target, t, params))
        except PrecisionExhausted:
            break
    # the whole trace of 21 shifts at one point is one block, and it fails
    # inside it
    assert len(scan_mod._trace_grid(cfg)) == 21 <= scan_mod._BLOCK_PAIRS
    assert 0 < len(per_t) < 20
    rep = scan_mod.scan_on_grid(grid, target, cfg, params)
    assert rep.truncated and np.array_equal(rep.ds, per_t)


def _point_by_point_intervals(ts, ds, eps, d_eval, refine_tol):
    # the reference: runs [i, j] of trace points below eps found by walking
    # the trace point by point, each run's crossings refined lower end first
    hits = ds < eps
    runs = []
    i = 0
    n = len(ts)
    while i < n:
        if not hits[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and hits[j + 1]:
            j += 1
        runs.append((i, j))
        i = j + 1
    outside = [k for i, j in runs for k in (i - 1, j + 1) if 0 <= k < n]
    inside = [k for i, j in runs for k, m in ((i, i - 1), (j, j + 1)) if 0 <= m < n]
    refined = iter(scan_mod._refine_crossings(ts[outside], ts[inside], eps, d_eval, refine_tol).tolist())
    return tuple(
        (float(ts[0]) if i == 0 else next(refined), float(ts[-1]) if j == n - 1 else next(refined))
        for i, j in runs
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]), min_size=1, max_size=40))
@example([0.2])  # one point, a hit
@example([0.8])  # one point, no hit
@example([0.0] * 7)  # all hits
@example([1.0] * 7)  # no hits
@example([0.2, 0.8, 0.2, 0.8, 0.5, 0.0])  # one-point runs, at the first and the last point
def test_intervals_are_the_runs_of_a_point_by_point_scan(levels):
    ts = 0.5 * np.arange(len(levels))
    ds = np.array(levels)
    calls = []

    def d_eval(mids):
        calls.append(mids.copy())
        return np.interp(mids, ts, ds)

    got = scan_mod._assemble_intervals(ts, ds, 0.5, d_eval, 1e-3)
    got_calls, calls[:] = calls[:], []
    assert got == _point_by_point_intervals(ts, ds, 0.5, d_eval, 1e-3)
    assert all(type(end) is float for interval in got for end in interval)
    # the same midpoints, in the same order, at each bisection step
    assert len(got_calls) == len(calls)
    assert all(np.array_equal(a, b) for a, b in zip(got_calls, calls))


def test_max_zeta_error_is_the_largest_estimate_on_the_trace():
    grid = discretize(Segment(0.75, 0.75 + 0.2j), 0.05)
    cfg = ScanConfig(T=60.0, step=0.5, eps=0.5)
    rep = scan_density(Segment(0.75, 0.75 + 0.2j), {"kind": "zeta"}, cfg, grid_h=0.05)
    largest = max(float(np.max(zeta_shifted_grid(grid, t)[1])) for t in rep.ts)
    assert 0.0 < rep.max_zeta_error <= 1e-6
    assert rep.max_zeta_error == largest
    assert rep.to_dict()["max_zeta_error"] == largest


def test_trace_csv_is_byte_stable(tmp_path):
    cfg = ScanConfig(T=12.0, step=0.5, eps=0.5)
    rep = scan_density(POINT, {"kind": "zeta"}, cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace_csv(rep, p1)
    rep2 = scan_density(POINT, {"kind": "zeta"}, cfg)
    write_trace_csv(rep2, p2)
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    assert b1.startswith(b"t,D\n")
    assert len(b1.splitlines()) == len(rep.ts) + 1


def test_trace_csv_bytes_equal_the_numpy_scalar_format(tmp_path):
    # the rows are formatted from Python floats; numpy scalars, as the rows
    # were once formatted, must give the same bytes on edge values
    values = np.array([5e-324, 1e308, 0.1 + 0.2, -0.0, math.nan, 1.0])
    rep = scan_density(POINT, 1.0, ScanConfig(T=10.0, step=1.0, eps=0.5))
    rep = dataclasses.replace(rep, ts=values, ds=values[::-1])
    path = tmp_path / "trace.csv"
    write_trace_csv(rep, path)
    rows = [f"{t:.17g},{d:.17g}" for t, d in zip(rep.ts, rep.ds)]
    assert path.read_bytes() == ("\n".join(["t,D", *rows]) + "\n").encode("ascii")
    assert path.read_bytes().splitlines()[1:4] == [
        b"4.9406564584124654e-324,1",
        b"1e+308,nan",
        b"0.30000000000000004,-0",
    ]


def test_trace_csv_bytes_equal_the_row_by_row_format(tmp_path):
    # the rows are formatted by one % over the flat (t, D) floats; the
    # bytes must be those of the f-string lines, on the shifts 0.05 k and
    # on subnormal, huge and infinite values and a D of 0.0
    ts = np.concatenate((0.05 * np.arange(40), [5e-324, 1e300, math.inf]))
    ds = np.concatenate(([0.0], np.sqrt(ts[1:-3]), [1e300, 5e-324, 0.0]))
    rep = scan_density(POINT, 1.0, ScanConfig(T=10.0, step=1.0, eps=0.5))
    rep = dataclasses.replace(rep, ts=ts, ds=ds)
    path = tmp_path / "trace.csv"
    write_trace_csv(rep, path)
    rows = [f"{t:.17g},{d:.17g}" for t, d in zip(ts.tolist(), ds.tolist())]
    assert path.read_bytes() == ("\n".join(["t,D", *rows]) + "\n").encode("ascii")
    assert path.read_bytes().splitlines()[-3:] == [
        b"4.9406564584124654e-324,1.0000000000000001e+300",
        b"1.0000000000000001e+300,4.9406564584124654e-324",
        b"inf,0",
    ]


def test_trace_csv_bytes_across_chunks(tmp_path):
    # a trace is written in chunks of 2^14 rows: 40 000 rows span three,
    # the last one short, and the bytes are those of the f-string lines
    rng = np.random.default_rng(7)
    ts = np.cumsum(rng.uniform(0.0, 0.1, 40_000))
    ds = rng.lognormal(0.0, 3.0, 40_000)
    rep = scan_density(POINT, 1.0, ScanConfig(T=10.0, step=1.0, eps=0.5))
    rep = dataclasses.replace(rep, ts=ts, ds=ds)
    path = tmp_path / "trace.csv"
    write_trace_csv(rep, path)
    rows = [f"{t:.17g},{d:.17g}" for t, d in zip(ts.tolist(), ds.tolist())]
    assert path.read_bytes() == ("\n".join(["t,D", *rows]) + "\n").encode("ascii")


# ---------------------------------------------------------------- line mode


def test_line_self_similar_hits_at_zero():
    f = lambda t: zeta_em(complex(0.75, t)).value  # noqa: E731
    cfg = ScanConfig(T=5.0, step=0.25, eps=0.25)
    rep = line_universality(0.75, 0.2, f, cfg)
    check_report(rep)
    assert rep.hit_intervals and rep.hit_intervals[0][0] == 0.0


def test_line_target_is_called_at_each_offset_as_a_float():
    # one call per grid point, each on the float Im z, never on an array
    cfg = ScanConfig(T=5.0, step=0.25, eps=0.25)
    seen = []

    def f(t):
        seen.append(t)
        return math.cos(t)

    rep = line_universality(0.75, 0.2, f, cfg)
    grid = discretize(Segment(0.75, 0.75 + 0.2j), scan_mod.DEFAULT_GRID_H)
    assert all(type(t) is float for t in seen) and seen == grid.points.imag.tolist()
    target = TargetFunction([math.cos(t) for t in seen])
    assert np.array_equal(rep.ds, scan_mod.scan_on_grid(grid, target, cfg).ds)


def test_line_degenerate_matches_point_scan():
    cfg = ScanConfig(T=10.0, step=0.5, eps=0.6)
    v = zeta_em(0.75 + 0j).value
    line = line_universality(0.75, 1e-9, lambda t: v, cfg, grid_h=1.0)
    point = scan_density(POINT, TargetFunction((v,)), cfg)
    assert np.allclose(line.ds, point.ds, atol=1e-6)
    assert len(line.hit_intervals) == len(point.hit_intervals)


def test_line_validates_sigma_and_c():
    cfg = ScanConfig(T=10.0, step=0.5, eps=0.5)
    with pytest.raises(InvalidSpec):
        line_universality(0.4, 0.2, lambda t: 1.0, cfg)
    with pytest.raises(InvalidSpec):
        line_universality(0.75, -1.0, lambda t: 1.0, cfg)
    for C in (math.inf, math.nan):
        with pytest.raises(InvalidSpec, match="C must be positive and finite"):
            line_universality(0.75, C, lambda t: 1.0, cfg)
