import math

import numpy as np
import pytest

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


def test_scan_truncates_on_precision_loss():
    params = ZetaParams(terms_per_unit_t=1e-9, min_terms=2, bernoulli_terms=12)
    cfg = ScanConfig(T=2000.0, step=100.0, eps=0.5)
    rep = scan_density(POINT, {"kind": "zeta"}, cfg, params)
    check_report(rep)
    assert rep.truncated
    assert len(rep.ts) < 21  # stopped before the full trace
    assert rep.hit_intervals and rep.hit_intervals[0][0] == 0.0


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


def test_scan_threads_deterministic():
    cfg = ScanConfig(T=15.0, step=0.25, eps=0.5)
    serial = scan_density(POINT, {"kind": "zeta"}, cfg, threads=1)
    parallel = scan_density(POINT, {"kind": "zeta"}, cfg, threads=2)
    assert np.array_equal(serial.ds, parallel.ds)
    assert serial.hit_intervals == parallel.hit_intervals
    assert serial.empirical_density == parallel.empirical_density


@pytest.mark.parametrize("with_rows", [True, False])
def test_trace_does_not_depend_on_the_blocks(monkeypatch, with_rows):
    # two points share an Im; the trace as one block and one phase table, as
    # blocks of one shift (1 // 3 pairs rounds up to one shift) with a table
    # per tau, through the process pool and one discrepancy call per t
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
    per_t = np.array([discrepancy(grid, target, t, DEFAULT_PARAMS, rows) for t in ts])
    for ds in traces.values():
        assert np.array_equal(ds, per_t)


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


# ---------------------------------------------------------------- line mode


def test_line_self_similar_hits_at_zero():
    f = lambda t: zeta_em(complex(0.75, t)).value  # noqa: E731
    cfg = ScanConfig(T=5.0, step=0.25, eps=0.25)
    rep = line_universality(0.75, 0.2, f, cfg)
    check_report(rep)
    assert rep.hit_intervals and rep.hit_intervals[0][0] == 0.0


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
