import math
import tracemalloc
import warnings
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from helpers import doubling_reference, shifted_pairs
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import loggamma

import striplab.zeta as zeta_mod
from striplab import CantorProduct, PointSet, Segment, ZetaParams, bernoulli_table, discretize, zeta_em, zeta_shifted_grid
from striplab.errors import InvalidSpec, PrecisionExhausted
from striplab.geometry import SampleGrid
from striplab.scan import DEFAULT_GRID_H
from striplab.zeta import DEFAULT_PARAMS

ORACLE = DEFAULT_PARAMS.quadrupled()

# frozen on first run against the quadrupled-parameter oracle (and mpmath)
ZETA_075 = -3.4412853869452236
# frozen fixed point of the sign-change bisection below
FIRST_ZERO = 14.134725141734677


def _row_ns(count):
    """The n of a Dirichlet or phase row that holds every n <= count coprime
    to 6, in its order: 2 and 3, whose terms are the Euler factors, then
    the n coprime to 6."""
    return np.array([2, 3] + [n for n in range(1, count + 1) if math.gcd(n, 6) == 1])


def _row_width(count):
    return len(_row_ns(count))


# ---------------------------------------------------------------- bernoulli


def test_bernoulli_small_values():
    table = bernoulli_table(2)
    assert table[0] == pytest.approx(1.0 / 6.0, abs=1e-16)
    assert table[1] == pytest.approx(-1.0 / 30.0, abs=1e-16)


def test_bernoulli_b12_vs_exact_recurrence():
    # independent exact-rational recurrence oracle
    B = [Fraction(1)]
    for m in range(1, 13):
        s = Fraction(0)
        for j in range(m):
            s += math.comb(m + 1, j) * B[j]
        B.append(-s / (m + 1))
    assert B[12] == Fraction(-691, 2730)
    assert bernoulli_table(6)[5] == pytest.approx(float(Fraction(-691, 2730)), abs=1e-18)


def test_bernoulli_vs_sympy():
    import sympy

    table = bernoulli_table(15)
    for k in range(1, 16):
        assert table[k - 1] == pytest.approx(float(sympy.bernoulli(2 * k)), rel=1e-15)


# ---------------------------------------------------------------- zeta_em


def test_zeta_two_closed_form():
    zv = zeta_em(2.0 + 0j)
    assert abs(zv.value - math.pi**2 / 6.0) <= 1e-12
    assert zv.error_estimate <= 1e-12


def test_zeta_zero_closed_form():
    assert abs(zeta_em(0j).value - (-0.5)) <= 1e-12


def test_zeta_at_three_quarters_regression():
    zv = zeta_em(0.75 + 0j)
    oracle = zeta_em(0.75 + 0j, ORACLE)
    assert abs(zv.value - oracle.value) <= 1e-10
    assert abs(zv.value - ZETA_075) <= 1e-13


def test_zeta_near_first_critical_zero():
    assert abs(zeta_em(0.5 + 14.134725j).value) <= 1e-4


def _hardy_z(t, params):
    # rotate the critical-line values to the real axis (test-only gamma use)
    theta = loggamma(complex(0.25, t / 2.0)).imag - (t / 2.0) * math.log(math.pi)
    return (np.exp(1j * theta) * zeta_em(complex(0.5, t), params).value).real


def _bisect_zero(params, lo=14.0, hi=14.2):
    flo = _hardy_z(lo, params)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _hardy_z(mid, params) * flo > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13:
            break
    return 0.5 * (lo + hi)


def test_first_zero_bracketing_self_consistent():
    t_default = _bisect_zero(DEFAULT_PARAMS)
    t_oracle = _bisect_zero(ORACLE)
    assert abs(t_default - t_oracle) <= 1e-6
    assert abs(t_default - FIRST_ZERO) <= 1e-9


def test_pole_guard():
    with pytest.raises(InvalidSpec, match="too close to the pole at 1"):
        zeta_em(1.0 + 0j)
    with pytest.raises(InvalidSpec, match="too close to the pole at 1"):
        zeta_em(1.0 + 1e-13j)


def test_supported_range_guards():
    with pytest.raises(InvalidSpec, match="outside the supported range"):
        zeta_em(-1.5 + 0j)
    with pytest.raises(InvalidSpec, match="exceeds the precision guard"):
        zeta_em(0.75 + 2e8j)
    for s in (complex(math.nan, 1.0), complex(0.75, math.nan), complex(math.inf, 0.0)):
        with pytest.raises(InvalidSpec, match="not finite"):
            zeta_em(s)


def test_params_validation():
    with pytest.raises(ValueError):
        ZetaParams(min_terms=1)
    with pytest.raises(ValueError):
        ZetaParams(bernoulli_terms=0)
    with pytest.raises(ValueError):
        ZetaParams(bernoulli_terms=31)
    # N past the term cap, or not an integer, used to fail inside _choose_n
    for min_terms in (10**20, 2**26 + 1, math.inf, math.nan, 20.5):
        with pytest.raises(ValueError, match="min_terms"):
            ZetaParams(min_terms=min_terms)
    with pytest.raises(ValueError, match="bernoulli_terms"):
        ZetaParams(bernoulli_terms=2.5)
    for per_unit_t in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="terms_per_unit_t"):
            ZetaParams(terms_per_unit_t=per_unit_t)


def test_precision_exhausted_at_extreme_params():
    params = ZetaParams(terms_per_unit_t=1e-9, min_terms=2, bernoulli_terms=12)
    with pytest.raises(PrecisionExhausted):
        zeta_em(0.75 + 2e5j, params)


# ---------------------------------------------------------------- batched


def test_grid_single_point_matches_scalar():
    grid = discretize(PointSet((0.75,)), 0.1)
    values, errors = zeta_shifted_grid(grid, 0.0)
    zv = zeta_em(0.75 + 0j)
    assert values.shape == errors.shape == (1,)
    assert values[0] == zv.value and errors[0] == zv.error_estimate


def test_grid_vertical_segment_matches_scalar_calls():
    grid = discretize(Segment(0.75, 0.75 + 0.2j), 0.02)
    values, _ = zeta_shifted_grid(grid, 100.0)
    for z, v in zip(grid.points, values):
        assert abs(v - zeta_em(complex(z) + 100.0j).value) <= 1e-12


def test_grid_horizontal_points_against_oracle():
    grid = discretize(PointSet((2.0, 3.0)), 0.1)
    (v2, v3), _ = zeta_shifted_grid(grid, 0.0)
    assert abs(v2 - math.pi**2 / 6.0) <= 1e-12
    oracle3 = zeta_em(3.0 + 0j, ORACLE)
    assert abs(v3 - oracle3.value) <= 1e-12
    assert abs(v3 - 1.2020569031595943) <= 1e-12


def test_grid_shares_phase_table_for_equal_im():
    # the points share one phase table at t; the shift's phase is taken apart
    # from Im z, so a value may differ from the scalar call in the last bits
    mpmath = pytest.importorskip("mpmath")
    grid = discretize(PointSet((0.6 + 0.3j, 0.9 + 0.3j)), 0.1)
    values, errors = zeta_shifted_grid(grid, 7.5)
    for z, v, err in zip(grid.points, values, errors):
        assert abs(v - zeta_em(complex(z) + 7.5j).value) <= 1e-14 * abs(v)
        assert abs(v - _mpmath_at_shift(mpmath, z, 7.5)) <= max(err, 1e-12)


def test_no_points_or_no_shifts_give_empty_arrays():
    # P x B values, estimates and marks with P or B zero, as a grid with no
    # points is accepted; they used to fail in a reduction over no counts
    grid = SampleGrid(np.empty(0, dtype=complex), 0.1)
    values, errors = zeta_shifted_grid(grid, 10.0)
    assert values.shape == errors.shape == (0,)
    assert values.dtype == complex and errors.dtype == float
    for points, ts in (([], [0.0, 43225.0]), ([0.75, 0.6 + 0.2j], [])):
        for out, dtype in zip(zeta_mod._evaluate(points, ts, DEFAULT_PARAMS), (complex, float, bool)):
            assert out.shape == (len(points), len(ts)) and out.dtype == dtype


def test_grid_propagates_offending_index():
    params = ZetaParams(terms_per_unit_t=1e-9, min_terms=2, bernoulli_terms=12)
    grid = discretize(PointSet((0.75, 0.75 + 2e5j)), 0.1)
    with pytest.raises(PrecisionExhausted) as excinfo:
        zeta_shifted_grid(grid, 0.0, params)
    assert excinfo.value.index == 1


def test_grid_offending_index_with_rows_past_their_width():
    # the rows hold N = 2: 2, 3 and the one n = 1 coprime to 6, which serve
    # N = 4 as well; the offender at index 5 doubles past them to N = 8 and
    # fails in rows built for it, at its index in the grid.  It fails its
    # estimate at the horizon even at N = 8, so shift_rows keeps N0's width
    params = ZetaParams(terms_per_unit_t=1e-9, min_terms=2, bernoulli_terms=12)
    grid = discretize(PointSet(tuple(0.75 + 0.1j * k for k in range(5)) + (0.75 + 2e5j, 0.8)), 0.01)
    rows = zeta_mod.shift_rows(grid.points, 0.0, params)
    assert rows.shape == (7, 3)
    _, _, exhausted = zeta_mod._evaluate(grid.points, [0.0], params, rows)
    assert np.flatnonzero(exhausted[:, 0]).tolist() == [5]


def test_grid_with_scan_rows_matches_one_shot():
    grid = discretize(Segment(0.8, 0.8 + 0.2j), 0.05)
    params = ZetaParams(terms_per_unit_t=0.35)
    rows = zeta_mod.shift_rows(grid.points, 2e3, params)
    # a row holds 2, 3 and the n <= N coprime to 6, N = ceil(0.35 (2000 + 0.2))
    assert rows.shape == (len(grid), _row_width(math.ceil(0.35 * (2e3 + 0.2)))) == (3, 236)
    for t in (0.0, 250.0, 1999.5):
        v, err, _ = zeta_mod._evaluate(grid.points, [t], params, rows)
        w, err_w = zeta_shifted_grid(grid, t, params)
        assert np.array_equal(v[:, 0], w) and np.array_equal(err[:, 0], err_w)


def test_doubling_past_the_rows_leaves_them_at_their_width():
    # at t = 1e3 N doubles twice (100 -> 400) past the width of rows of
    # N0 = 100, 2, 3 and the 33 n <= 100 coprime to 6; the doubled points
    # get rows built for them and the rows given do not grow
    grid = discretize(PointSet(ORACLE_SIGMAS), 0.1)
    params = ZetaParams(terms_per_unit_t=0.1)
    rows = zeta_mod._dirichlet_table(grid.points, 100)
    for a, b in zip(zeta_shifted_grid(grid, 1e3, params), zeta_mod._evaluate(grid.points, [1e3], params, rows)):
        assert np.array_equal(a, b[:, 0])
    assert rows.shape == (3, _row_width(100)) == (3, 35)


def test_rows_built_for_scattered_points_match_the_call_without_rows(monkeypatch):
    # at 0.1 terms per unit t the rows hold N = 100, 35 entries; points 1, 3
    # and 5 (Im 1e3) are decided at N = 400, past them, and get rows built
    # for them among points that take the scan's rows, once each.  At two
    # rows of N = 400 per block, points 1 and 3 are built together as one
    # group and point 5 alone
    points = np.array([0.75, 0.75 + 1e3j, 0.8, 0.8 + 1e3j, 0.7, 0.7 + 1e3j, 0.6 + 0.5j])
    params = ZetaParams(terms_per_unit_t=0.1)
    rows = zeta_mod._dirichlet_table(points, 100)
    assert rows.shape == (7, 35)
    assert zeta_mod._decide_n(points, params).tolist() == [20, 400, 20, 400, 20, 400, 20]
    expected = zeta_mod._evaluate(points, [0.0], params)
    dirichlet_table = zeta_mod._dirichlet_table
    built = []

    def recording(group, count):
        built.append((group.tolist(), count))
        return dirichlet_table(group, count)

    monkeypatch.setattr(zeta_mod, "_dirichlet_table", recording)
    monkeypatch.setattr(zeta_mod, "_BLOCK_ENTRIES", 2 * _row_width(400))
    result = zeta_mod._evaluate(points, [0.0], params, rows)
    assert built == [([0.75 + 1e3j, 0.8 + 1e3j], 400), ([0.7 + 1e3j], 400)]
    for a, b in zip(expected, result):
        assert np.array_equal(a, b)


def test_one_phase_row_per_point(monkeypatch):
    # one phase-table row per point of a Dirichlet table, equal Im or not,
    # and one per shift
    phase_table = zeta_mod._phase_table
    calls = []

    def recording(taus, count):
        calls.extend(taus)
        return phase_table(taus, count)

    monkeypatch.setattr(zeta_mod, "_phase_table", recording)
    grid = discretize(PointSet((0.6, 0.7, 0.8, 0.6 + 0.1j, 0.7 + 0.1j)), 0.1)
    rows = zeta_mod.shift_rows(grid.points, 50.0)
    assert calls == [0.0, 0.0, 0.0, 0.1, 0.1] == grid.points.imag.tolist()
    zeta_mod._evaluate(grid.points, [50.0], DEFAULT_PARAMS, rows)
    assert len(calls) == 6
    # without rows the call builds its own: a row per point, then the t row
    zeta_shifted_grid(grid, 50.0)
    assert calls[6:] == [0.0, 0.0, 0.0, 0.1, 0.1, 50.0]


def test_wide_rows_build_one_phase_row_per_point(monkeypatch):
    # the rectangle of the scan past the rows cut, at 2 terms per unit t as
    # that scan runs: at T = 1.501e5 its rows hold 2, 3 and the 100 067
    # n <= N = 300 201 coprime to 6, wider than a table, and the cut keeps
    # 41 of its 49 points.  They share 7 distinct Im, yet each point takes
    # a phase row of its own, one table each, and each row is its point's
    # amplitudes times the phase row at its own Im
    rect = CantorProduct(np.array([[0.0, 1.0]]), 0.0, 1.0, 0.4, 0.55)
    points = discretize(rect, DEFAULT_GRID_H).points
    taus = np.unique(points.imag)
    assert (len(points), len(taus), len(np.unique(points.imag[:41]))) == (49, 7, 7)
    phase_table = zeta_mod._phase_table
    calls = []

    def recording(taus, count):
        calls.append(list(taus))
        return phase_table(taus, count)

    monkeypatch.setattr(zeta_mod, "_phase_table", recording)
    rows = zeta_mod.shift_rows(points, 1.501e5, ZetaParams(terms_per_unit_t=2.0))
    assert rows.shape == ((1 << 22) // 100_069, 100_069) == (41, _row_width(300_201))
    assert calls == [[tau] for tau in points.imag[:41]]
    ln = zeta_mod._factor_plan(300_201).ln[: _row_width(300_201)]
    assert np.array_equal(ln, np.log(_row_ns(300_201)))
    phases = {tau: phase_table([tau], 300_201)[0] for tau in taus}
    for z, row in zip(points, rows):
        assert np.array_equal(row, np.exp(-z.real * ln) * phases[z.imag])


def test_values_do_not_depend_on_the_blocks_where_n_varies(monkeypatch):
    # at 2 terms per unit t N runs from 20 to 200 along the segment at t = 0,
    # and from 20 to about 1000 across the shuffled shifts of one call, so
    # the pairs of one block have very different N; as blocks of one pair,
    # at the default budget and as a few large blocks the values and
    # estimates are the same floats
    params = ZetaParams(terms_per_unit_t=2.0)
    grid = discretize(Segment(0.75, 0.75 + 100j), 0.05)
    points = np.array([0.6 + 0.1j, 0.8 + 0.1j, 0.7 + 3.0j])
    shifts = np.random.default_rng(5).permutation(np.linspace(0.0, 500.0, 41))
    results = []
    for budget in (1, zeta_mod._BLOCK_ENTRIES, 1 << 16):
        monkeypatch.setattr(zeta_mod, "_BLOCK_ENTRIES", budget)
        results.append(zeta_shifted_grid(grid, 0.0, params) + zeta_mod._evaluate(points, shifts, params))
    counts = zeta_mod._choose_n(grid.points.imag, params)
    assert (counts.min(), counts.max()) == (20, 200)
    assert not results[0][4].any()
    for result in results[1:]:
        for a, b in zip(results[0], result):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("with_rows", [False, True])
def test_values_do_not_depend_on_the_weighting_runs(monkeypatch, with_rows):
    # at 0.1 terms per unit t N0 runs from 20 to 101 across the 125 pairs of
    # one call; 110 of them are decided past N0, to N <= 202, most past the
    # rows of T = 1e3, and 51 of those to 4 N0 <= 404.  Each pair is summed
    # once, at its decided N.  With the weighting bound at 64 cutoffs every
    # call of more than two pairs is split into runs of one or two, and the
    # values, estimates and exhausted flags are those of one weighting pass
    # per call
    params = ZetaParams(terms_per_unit_t=0.1)
    points = np.array([0.6 + 0.1j, 0.8 + 0.1j, 0.7 + 3.0j, 0.75, 0.9 - 2.0j])
    shifts = np.concatenate((np.linspace(0.0, 990.0, 23), [1e3, 1e3]))
    rows = zeta_mod.shift_rows(points, 1e3, params) if with_rows else None
    partial_sums = zeta_mod._partial_sums
    results, runs = [], []

    def recording(table, f_idx, shift, ts, counts):
        runs[-1].append(counts.copy())
        return partial_sums(table, f_idx, shift, ts, counts)

    monkeypatch.setattr(zeta_mod, "_partial_sums", recording)
    for bound in (1 << 30, zeta_mod._WEIGHT_ENTRIES, 64):
        monkeypatch.setattr(zeta_mod, "_WEIGHT_ENTRIES", bound)
        runs.append([])
        results.append(zeta_mod._evaluate(points, shifts, params, rows))
    shifted = shifted_pairs(points, shifts)
    n0, counts = zeta_mod._choose_n(shifted.imag, params), zeta_mod._decide_n(shifted, params)
    assert ((counts > n0).sum(), (counts > 2 * n0).sum(), counts.max()) == (110, 51, 404)
    # the split calls' runs, of one or two pairs, hold every pair once
    runs[2] = [c for c in runs[2] if len(c) <= 2]
    for run in runs:
        assert np.array_equal(np.sort(np.concatenate(run)), np.sort(counts))
    assert [len(c) for c in runs[0]] == [len(c) for c in runs[1]]
    for result in results[1:]:
        for a, b in zip(results[0], result):
            assert np.array_equal(a, b)


def test_weighting_pass_memory_is_bounded():
    # the 49-point rectangle at 600 shifts near t = 4e4 with its scan rows,
    # 49 x 6 719 entries (5.3 MB): one weighting pass over all 29 400 pairs
    # would hold about 120 MB of segment sums and weights, and the runs of
    # _WEIGHT_ENTRIES cutoffs keep the call near 9 MB
    rect = CantorProduct(np.array([[0.0, 1.0]]), 0.0, 1.0, 0.4, 0.55)
    points = discretize(rect, DEFAULT_GRID_H).points
    ts = 4e4 + 0.5 * np.arange(600)
    rows = zeta_mod.shift_rows(points, ts[-1])
    assert rows.shape == (49, 6_719)
    tracemalloc.start()
    try:
        zeta_mod._evaluate(points, ts, DEFAULT_PARAMS, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * rows.nbytes


def test_shift_rows_keep_the_first_points_that_fit():
    # N = 2e5 at t = 2e5 and one term per unit t, a row of 2, 3 and the
    # 66 667 n <= N coprime to 6: the 2^22-entry cut holds the rows of the
    # first 62 of 100 points, the same rows as the table of those points alone
    params = ZetaParams(terms_per_unit_t=1.0)
    points = 0.5 + 0.004 * np.arange(100) + 0j
    rows = zeta_mod.shift_rows(points, 2e5, params)
    assert rows.shape == ((1 << 22) // 66_669, 66_669) == (62, _row_width(200_000))
    assert np.array_equal(rows[61], zeta_mod._dirichlet_table(points[61:62], 200_000)[0])
    assert zeta_mod.shift_rows(points, 2e2, params).shape == (100, _row_width(200)) == (100, 69)


def test_shift_rows_outside_the_supported_range_warn_of_nothing():
    # with one correction the estimate at Re s = -5 takes the log of
    # Re s + 3 < 0: it is not a number, doubles nothing and warns of
    # nothing, and the point's InvalidSpec comes from the call that sums it.
    # The other point fails its estimate even at 4 N0 = 20, so the rows
    # keep N0 = 5
    params = ZetaParams(min_terms=2, bernoulli_terms=1)
    points = np.array([-5.0 + 0j, 0.75])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = zeta_mod.shift_rows(points, 10.0, params)
    assert zeta_mod._decide_n(points + 10j, params).tolist() == [5, 20]
    assert rows.shape == (2, _row_width(5))
    with pytest.raises(InvalidSpec, match="outside the supported range"):
        zeta_mod._evaluate(points, [10.0], params, rows)


def test_factor_plan_holds_no_more_than_the_largest_n(monkeypatch):
    em_tail = zeta_mod._em_tail
    used = []

    def recording(s, N, partial, last, kb):
        used.extend(N.tolist())
        return em_tail(s, N, partial, last, kb)

    monkeypatch.setattr(zeta_mod, "_em_tail", recording)
    monkeypatch.setattr(zeta_mod, "_plan_cache", None)
    zeta_em(0.75 + 1e4j)
    # the plan is as wide as the largest row asked for, holds its logs, and
    # has int32 indices
    plan = zeta_mod._plan_cache
    assert len(plan.order) == _row_width(max(used))
    assert np.array_equal(plan.ln, np.log(_row_ns(max(used))))
    for indices in (plan.primes, plan.factors, plan.cofactors, plan.order):
        assert indices.dtype == np.int32


def test_term_cap_raises_before_allocating(monkeypatch):
    # |Im s| = 9e7 passes the 1e8 precision guard but asks for N = 9e7 terms
    # at one term per unit t (the default rate reaches the cap nowhere
    # below the guard)
    params = ZetaParams(terms_per_unit_t=1.0)
    monkeypatch.setattr(zeta_mod, "_plan_cache", None)
    with pytest.raises(InvalidSpec, match="term cap 67108864"):
        zeta_em(0.75 + 9e7j, params)
    grid = discretize(PointSet((0.75,)), 0.1)
    with pytest.raises(InvalidSpec, match="term cap"):
        zeta_mod.shift_rows(grid.points, 9e7, params)
    with pytest.raises(InvalidSpec, match="term cap"):
        zeta_shifted_grid(grid, 9e7, params)
    assert zeta_mod._plan_cache is None


def test_zeta_at_one_million_below_the_term_cap(monkeypatch):
    # N = 5e5; monkeypatch puts the earlier plan back afterwards
    mpmath = pytest.importorskip("mpmath")
    monkeypatch.setattr(zeta_mod, "_plan_cache", None)
    zv = zeta_em(0.75 + 1e6j)
    assert abs(zv.value - _mpmath_at_shift(mpmath, 0.75 + 0j, 1e6)) <= 1e-12


@pytest.mark.parametrize("t", [1e3, 43225.0, 1e5, 1e6])
def test_zeta_em_within_5e_15_of_mpmath(monkeypatch, t):
    # the phases carry no error that grows with t: 5.6e-17, 8.3e-17, 7.0e-16
    # and 3.5e-16 measured against 30 digits at the default N = t / 2, where
    # longdouble logs gave 6.0e-14 at t = 1e6 and N = 2t
    mpmath = pytest.importorskip("mpmath")
    monkeypatch.setattr(zeta_mod, "_plan_cache", None)
    zv = zeta_em(complex(0.75, t))
    assert abs(zv.value - _mpmath_at_shift(mpmath, 0.75 + 0j, t)) <= 5e-15


# ---------------------------------------------------------------- phase tables


@lru_cache(maxsize=None)
def _wide_table(tau):
    # the wide table: exp(-i tau ln n) at 40 digits for n up to the largest
    # count below, tau taken as the double that the library is given
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        exact_tau = mpmath.mpf(tau)
        return np.array([complex(mpmath.expj(-exact_tau * mpmath.log(n))) for n in range(1, 15481)])


def _wide_reference(tau, count):
    return _wide_table(float(tau))[:count]


# Im z + t as the double the library computes from a grid point at t
IM_PLUS_T = 0.2 + 43225.0


@pytest.mark.parametrize("count", [20, 1000, 2047])
def test_phases_below_the_cut_are_the_wide_table(count):
    # every table holds 2, 3 and the n <= count coprime to 6, and takes its
    # phase at n = 1 and at the primes, 2 and 3 among them, from one
    # reduction, within _phase_table's stated 4e-16 (with room for a libm
    # off by a few ulp); each composite is a product of earlier entries and
    # adds one rounding per factor (9.2e-16 measured)
    sympy = pytest.importorskip("sympy")
    ns = _row_ns(count)
    wide_at = np.array([e for e, n in enumerate(ns) if n == 1 or sympy.isprime(int(n))])
    for tau in (0.0, 14.1, 2e3, 43225.0, IM_PLUS_T):
        table, wide = zeta_mod._phase_table([tau], count)[0], _wide_reference(tau, count)
        assert len(table) == len(ns)
        assert np.max(np.abs(table[wide_at] - wide[ns[wide_at] - 1])) <= 1e-15
        assert np.max(np.abs(table - wide[ns - 1])) <= 1e-14


@pytest.mark.parametrize("count", [2048, 4000, 15480])
def test_phases_past_the_cut_agree_with_the_wide_table(count):
    # up to the criterion-6 shift: 1.1e-15 measured at count 15480
    ns = _row_ns(count)
    for tau in (14.1, 2e3, 43225.0, IM_PLUS_T):
        table = zeta_mod._phase_table([tau], count)[0]
        assert np.max(np.abs(table - _wide_reference(tau, count)[ns - 1])) <= 1e-14


def test_prime_phases_against_mpmath_up_to_the_guard(monkeypatch):
    # 400 primes below 2e6, the largest among them, from the plan's
    # double-double logs: within 2e-15 at every tau up to the 1e8 guard
    # (3.1e-16 measured), where plain double logs would be 1e-8 off.  The
    # plan holds each prime's entry in a row, 2 and 3 first
    mpmath = pytest.importorskip("mpmath")
    sympy = pytest.importorskip("sympy")
    monkeypatch.setattr(zeta_mod, "_plan_cache", None)
    plan = zeta_mod._factor_plan(2_000_000)
    at = np.unique(np.append(np.linspace(0, len(plan.primes) - 1, 400).astype(int), len(plan.primes) - 1))
    primes = _row_ns(2_000_000)[plan.primes[at]]
    assert primes[0] == 2 and primes[-1] == 1_999_993
    assert all(sympy.isprime(int(p)) for p in primes)
    for tau in (IM_PLUS_T, 1e5, 1e6, 1e7, 1e8, -1e8):
        phases = zeta_mod._prime_phases(np.array([tau]), plan.ln_hi[at], plan.ln_lo[at])[:, 0]
        with mpmath.workdps(40):
            exact = np.array([complex(mpmath.expj(-mpmath.mpf(tau) * mpmath.log(int(p)))) for p in primes])
        assert np.max(np.abs(phases - exact)) <= 2e-15


def test_phase_table_does_not_depend_on_the_plan_size(monkeypatch):
    # a table of count 1000 holds 335 entries; a plan past the count leaves
    # rows for its extra primes unwritten (16 primes up to 1100), or, when
    # they outnumber the entries (2094 up to 20000), moves the composites
    # down
    sympy = pytest.importorskip("sympy")
    taus = [14.1, 2e3, 43225.0]
    monkeypatch.setattr(zeta_mod, "_plan_cache", None)
    own = zeta_mod._phase_table(taus, 1000)
    assert own.shape == (3, _row_width(1000)) == (3, 335)
    extra = {size: int(sympy.primepi(size) - sympy.primepi(1000)) for size in (1100, 20000)}
    assert extra[1100] <= 335 < extra[20000]
    for size in (1100, 20000):
        # the plan holds the primes, 168 of them up to 1000
        assert len(zeta_mod._factor_plan(size).primes) - 168 == extra[size]
        assert np.array_equal(zeta_mod._phase_table(taus, 1000), own)


# counts on either side of each 5^k where a composite pass ends, and others
PASS_EDGE_COUNTS = (2, 20, 124, 125, 126, 624, 625, 626, 1000, 3124, 3125, 3126, 15130, 15624, 15625, 15626)


def _tables_under_a_fresh_plan(monkeypatch, size, counts, taus):
    monkeypatch.setattr(zeta_mod, "_plan_cache", None)
    zeta_mod._factor_plan(size)
    return {count: zeta_mod._phase_table(taus, count) for count in counts}


def test_plan_pass_ends_count_the_composites_below_each_bound(monkeypatch):
    # the composites coprime to 6 below x: the row's entries below x less
    # 2, 3 and 1 and the primes from 5 on; a plan holds the ends of the
    # bounds up to its largest n (none below n = 125), and a fresh plan of
    # another size its own
    sympy = pytest.importorskip("sympy")
    for size, bounds in ((20, 0), (124, 0), (125, 1), (624, 1), (625, 2), (15624, 3), (20000, 4)):
        monkeypatch.setattr(zeta_mod, "_plan_cache", None)
        ends = zeta_mod._factor_plan(size).pass_ends
        xs = [5**k for k in range(3, 3 + bounds)]
        assert ends == tuple(_row_width(x - 1) - 1 - int(sympy.primepi(x - 1)) for x in xs)
        assert all(type(end) is int for end in ends)


def test_phase_tables_across_the_pass_bounds_and_plans(monkeypatch):
    # each count's table under a plan sized for it, and under plans for 1100
    # and for 20000 (where the primes past a small count outnumber its
    # entries, so the composites move down): the same bits every time, each
    # row the bits of the one-shift table, and the entries within 1e-12 of
    # the phases straight from double logs at tau = 14.1, which no wrong
    # pass end can meet
    taus = np.array([14.1, 0.0, 2e3, IM_PLUS_T])
    own = {}
    for count in PASS_EDGE_COUNTS:
        own.update(_tables_under_a_fresh_plan(monkeypatch, count, [count], taus))
        ns = _row_ns(count)
        assert own[count].shape == (len(taus), len(ns))
        assert np.max(np.abs(own[count][0] - np.exp(-1j * 14.1 * np.log(ns)))) <= 1e-12
        for b, tau in enumerate(taus):
            assert np.array_equal(zeta_mod._phase_table([tau], count)[0], own[count][b])
    for size in (1100, 20000):
        counts = [count for count in PASS_EDGE_COUNTS if count <= size]
        tables = _tables_under_a_fresh_plan(monkeypatch, size, counts, taus)
        for count in counts:
            assert np.array_equal(tables[count], own[count])
    # the plan built for count 20000 serves every narrower table, which
    # cuts it to its own count, and is never rebuilt for one
    wide = zeta_mod._plan_cache
    for count in (20, 124, 126, 626, 1000):
        assert np.array_equal(zeta_mod._phase_table(taus, count), own[count])
    assert zeta_mod._plan_cache is wide


@pytest.mark.parametrize("t", [43225.0, 1e5])
@pytest.mark.parametrize("im", [None, 0.2])
def test_product_phases_against_mpmath(t, im):
    # the longest product chains of a table (5^k, 7^k), primes and the
    # largest n coprime to 6, and the running products (2^-i tau)^k and
    # (3^-i tau)^k of its first two entries that make the powers of the
    # Euler factors, against 40 digits; im None is a shift t, 0.2 the double
    # Im z + t (table entries 4.6e-16, powers 1.7e-15 measured)
    mpmath = pytest.importorskip("mpmath")
    sympy = pytest.importorskip("sympy")
    count = math.ceil(0.35 * (t + 0.2))
    tau = t if im is None else im + t
    primes = list(sympy.primerange(5, count + 1))
    ns = sorted(
        {5**k for k in range(1, 10) if 5**k <= count}
        | {7**k for k in range(1, 10) if 7**k <= count}
        | set(primes[:20] + primes[-20:] + primes[:: len(primes) // 40])
        | {n for n in range(count - 20, count + 1) if math.gcd(n, 6) == 1}
    )
    product = zeta_mod._phase_table([tau], count)[0]
    entry = {n: e for e, n in enumerate(_row_ns(count))}
    entries = [entry[n] for n in ns]
    with mpmath.workdps(40):
        exact = np.array([complex(mpmath.expj(-mpmath.mpf(tau) * mpmath.log(n))) for n in ns])
    assert np.max(np.abs(product[entries] - exact)) <= 1e-14
    for p, phase in zip((2, 3), product[:2]):
        k = int(math.log(count, p))
        powers = zeta_mod._powers(np.array([phase]), k)[:, 0]
        with mpmath.workdps(40):
            exact = np.array([complex(mpmath.expj(-mpmath.mpf(tau) * mpmath.log(p**j))) for j in range(k + 1)])
        assert np.max(np.abs(powers - exact)) <= 1e-14


# ---------------------------------------------------------------- mpmath oracle

ORACLE_SIGMAS = (0.55, 0.75, 0.95)


def _mpmath_at_shift(mpmath, z, t):
    # zeta at the exact point Re z + i (Im z + t), not at its rounded double
    with mpmath.workdps(30):
        s = mpmath.mpc(mpmath.mpf(z.real), mpmath.mpf(z.imag) + mpmath.mpf(t))
        return complex(mpmath.zeta(s))


def _check_against_mpmath(t, params=DEFAULT_PARAMS):
    mpmath = pytest.importorskip("mpmath")
    # the horizontal grid's points share one phase table
    grid = discretize(PointSet(ORACLE_SIGMAS), 0.1)
    values, errors = zeta_shifted_grid(grid, t, params)
    for sigma, v, err in zip(ORACLE_SIGMAS, values, errors):
        zv = zeta_em(complex(sigma, t), params)
        assert (zv.value, zv.error_estimate) == (v, err)
        with mpmath.workdps(25):
            exact = complex(mpmath.zeta(mpmath.mpc(sigma, t)))
        assert abs(v - exact) <= max(err, 1e-11)


@pytest.mark.parametrize("t", [0.0, 14.1, 1e2, 1e3, 1e4, 1e5])
def test_against_mpmath(t):
    _check_against_mpmath(t)


DEFAULT_ORACLE_SIGMAS = (-0.9, 0.0, 0.55, 0.75, 0.95, 2.5)


@pytest.mark.parametrize("t", [0.0, 14.1, 1e2, 1e3, 1e4, 1e5])
def test_default_params_against_mpmath(t):
    # N = max(20, ceil(|t| / 2)) and 24 Bernoulli terms: the estimate is
    # Edwards' bound, at most 5.2e-24 of max(1, |zeta|) measured here.
    # Rounding is held to the largest of max(1, |zeta|), the size
    # N^(1-sigma) / |s - 1| of the tail term that the partial sum cancels
    # (156 at sigma = -0.9, t = 0) and the root-sum-square of the terms,
    # which carry one phase error each (2.3e6 at sigma = -0.9, t = 1e5);
    # both stay below 3.3 in the strip at t >= 14.1.  The errors measured up
    # to 7.3 u times that scale under this default, and up to 8.3 u under N =
    # max(20, |t|) with 12 terms
    mpmath = pytest.importorskip("mpmath")
    points = np.array(DEFAULT_ORACLE_SIGMAS, dtype=complex)
    values, errors, exhausted = zeta_mod._evaluate(points, [t], DEFAULT_PARAMS)
    assert not exhausted.any()
    n = np.arange(1.0, max(20, math.ceil(t / 2)) + 1.0)
    for sigma, v, err in zip(DEFAULT_ORACLE_SIGMAS, values[:, 0], errors[:, 0]):
        s = complex(sigma, t)
        exact = _mpmath_at_shift(mpmath, s, 0.0)
        size = max(1.0, abs(exact))
        assert err <= 1e-21 * size
        cancelled = n[-1] ** (1.0 - sigma) / abs(s - 1.0)
        assert abs(v - exact) <= 5e-15 * max(size, cancelled, math.sqrt(np.sum(n ** (-2.0 * sigma))))


STRIP_TS = (14.1, 21.0, 30.0, 40.0, 60.0, 100.0, 250.0, 1e3, 2.5e3, 1e4, 43225.0, 1e5, 3e5, 1e6)


def test_default_params_in_the_strip_against_mpmath(monkeypatch):
    # N = max(20, ceil(|t| / 2)) with 24 corrections: within 5.0e-16 of
    # max(1, |zeta|) on this sweep, where N = max(20, |t|) with 12 read up
    # to 5.8e-16 (at 0.55 + 1e5 i); the estimate, Edwards' bound, reads at
    # most 2.1e-22 of max(1, |zeta|), at t = 40, where N = |t| / 2 takes
    # over from 20
    mpmath = pytest.importorskip("mpmath")
    monkeypatch.setattr(zeta_mod, "_plan_cache", None)
    points = np.array(ORACLE_SIGMAS, dtype=complex)
    values, errors, exhausted = zeta_mod._evaluate(points, STRIP_TS, DEFAULT_PARAMS)
    assert not exhausted.any()
    for j, sigma in enumerate(ORACLE_SIGMAS):
        for b, t in enumerate(STRIP_TS):
            exact = _mpmath_at_shift(mpmath, complex(sigma, 0.0), t)
            size = max(1.0, abs(exact))
            assert abs(values[j, b] - exact) <= 5.9e-16 * size
            assert errors[j, b] <= 1e-21 * size


def _tails_checked(monkeypatch, t, params):
    # each (s, N, value, estimate) of the _em_tail calls that
    # _check_against_mpmath made at t
    em_tail = zeta_mod._em_tail
    seen = []

    def recording(s, N, partial, last, kb):
        values, errors = em_tail(s, N, partial, last, kb)
        seen.extend(zip(s.tolist(), N.tolist(), values.tolist(), errors.tolist()))
        return values, errors

    monkeypatch.setattr(zeta_mod, "_em_tail", recording)
    _check_against_mpmath(t, params)
    return seen


def _checked_after_doubling(monkeypatch, t, per_unit_t):
    # the N at which _check_against_mpmath summed each sigma at t, in the
    # order of ORACLE_SIGMAS: one _em_tail call for the grid's three pairs
    # and one for each one-point call, and each pair at one N
    seen = _tails_checked(monkeypatch, t, ZetaParams(terms_per_unit_t=per_unit_t))
    assert sorted(s.real for s, _, _, _ in seen) == sorted(2 * ORACLE_SIGMAS)
    ns = {sigma: {N for s, N, _, _ in seen if s.real == sigma} for sigma in ORACLE_SIGMAS}
    assert all(len(n) == 1 for n in ns.values())
    return [n.pop() for n in ns.values()]


@pytest.mark.parametrize("per_unit_t, ns", [(0.15, [300, 300, 300]), (0.1, [400, 400, 200])])
def test_against_mpmath_after_doubling(monkeypatch, per_unit_t, ns):
    # at t = 1e3 the first N leaves the estimate above 1e-6 at every sigma:
    # each sigma is summed once, at 2 N0, or at 4 N0 where 2 N0 leaves it
    # above too
    assert _checked_after_doubling(monkeypatch, 1e3, per_unit_t) == ns


def test_against_mpmath_after_doubling_past_the_product_cut(monkeypatch):
    # at t = 1e4 N0 = 1000; sigma 0.95 is summed at 2000, the others at 4000
    assert _checked_after_doubling(monkeypatch, 1e4, 0.1) == [4000, 4000, 2000]


def test_edwards_bound_covers_what_twice_the_first_omitted_term_misses(monkeypatch):
    # at t = 1e3, 0.1 terms per unit t and K = 20 corrections the series
    # decays slowly: at N = 200 the error is above twice the first omitted
    # term at every sigma (4.8e-7 against 3.6e-7 at 0.95, below the 1e-6
    # threshold, so a rule on that term would stop there), while Edwards'
    # bound, that term times |s + 41| / (sigma + 41), about 24 times it
    # here, covers the error at N = 200 and decides N = 400, where it covers
    # the error again.  The N = 200 values come straight from the sums
    mpmath = pytest.importorskip("mpmath")
    kb = 20
    params = ZetaParams(terms_per_unit_t=0.1, bernoulli_terms=kb)
    s = np.array(ORACLE_SIGMAS) + 1e3j
    N = np.full(len(s), 200)
    values, errors = zeta_mod._em_tail(s, N, *zeta_mod._sums(s, np.array([0.0]), N, None), kb)
    assert (errors > 1e-6).all()
    assert zeta_mod._decide_n(s, params).tolist() == [400, 400, 400]
    seen = _tails_checked(monkeypatch, 1e3, params)
    assert {N for _, N, _, _ in seen} == {400}
    exact = {z: _mpmath_at_shift(mpmath, z, 0.0) for z in s}
    for z, v, err in zip(s, values, errors):
        gap = abs(v - exact[z])
        assert 2.0 * err * (z.real + 2 * kb + 1) / abs(z + 2 * kb + 1) < gap <= err
    for z, _, v, err in seen:
        assert abs(v - exact[z]) <= max(err, 1e-11)


# ---------------------------------------------------------------- decided N


def _near_threshold(shifted, params):
    # an a-priori estimate at N0, 2 N0 or 4 N0 within rounding of the
    # threshold, where the decision and the doubling rule may differ
    n0 = zeta_mod._choose_n(shifted.imag, params)
    estimates = [zeta_mod._edwards_estimate(shifted, m * n0, params) for m in (1, 2, 4)]
    return np.any(np.abs(np.array(estimates) / zeta_mod._ERR_THRESHOLD - 1.0) < 1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.01, 1.0),
    st.integers(2, 40),
    st.integers(1, 12),
    st.lists(st.tuples(st.floats(-0.95, 3.0), st.floats(-30.0, 30.0)), min_size=1, max_size=4),
    st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=4),
    st.booleans(),
)
def test_decided_n_agrees_with_the_doubling_rule(per_unit_t, min_terms, kb, points, ts, with_rows):
    # low-term parameters, under which pairs double and exhaust: each pair
    # summed once, at its decided N, gives the values, estimates and
    # exhausted marks of the doubling rule bit for bit.  A pair not marked
    # exhausted has a finite value and an estimate at most the threshold
    params = ZetaParams(terms_per_unit_t=per_unit_t, min_terms=min_terms, bernoulli_terms=kb)
    points, ts = np.array([complex(*z) for z in points]), np.array(ts)
    shifted = shifted_pairs(points, ts)
    assume(np.all(np.abs(shifted - 1.0) >= 1e-12) and not _near_threshold(shifted, params))
    rows = zeta_mod.shift_rows(points, float(np.max(np.abs(ts))), params) if with_rows else None
    result = zeta_mod._evaluate(points, ts, params, rows)
    for a, b in zip(result, doubling_reference(points, ts, params, rows)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    values, errors, exhausted = result
    assert np.isfinite(values[~exhausted]).all() and (errors[~exhausted] <= zeta_mod._ERR_THRESHOLD).all()


def _summed_at(monkeypatch):
    # the N of each pair that _em_tail is given, call by call
    em_tail = zeta_mod._em_tail
    seen = []

    def recording(s, N, partial, last, kb):
        seen.append(N.tolist())
        return em_tail(s, N, partial, last, kb)

    monkeypatch.setattr(zeta_mod, "_em_tail", recording)
    return seen


@pytest.mark.parametrize("m", [1, 2, 4])
def test_a_tie_with_the_threshold_passes(monkeypatch, m):
    # sigma 0.95 at t = 1e3 and 0.1 terms per unit t, N0 = 100: with the
    # threshold at the pair's own a-priori estimate at m N0, or one ulp
    # above, the pair is decided at m N0; one ulp below, at the next N,
    # and at 4 N0 still past the last
    params = ZetaParams(terms_per_unit_t=0.1)
    s = np.array([0.95 + 1e3j])
    tie = float(zeta_mod._edwards_estimate(s, np.array([100 * m]), params)[0])
    seen = _summed_at(monkeypatch)
    below = np.nextafter(tie, 0.0)
    outcomes = ((tie, 100 * m), (np.nextafter(tie, np.inf), 100 * m), (below, min(200 * m, 400)))
    for threshold, n in outcomes:
        monkeypatch.setattr(zeta_mod, "_ERR_THRESHOLD", threshold)
        assert zeta_mod._decide_n(s, params).tolist() == [n]
        values, errors, exhausted = zeta_mod._evaluate(s, [0.0], params)
        assert seen.pop() == [n]
        assert exhausted[0, 0] == (not (errors[0, 0] <= threshold and np.isfinite(values[0, 0])))


def test_zeta_at_zero_with_the_fewest_terms():
    # s + 0 = 0 is a factor of Edwards' estimate: its log is -inf, with no
    # divide-by-zero warning, and the estimate 0 passes at N0 = 2
    params = ZetaParams(min_terms=2, bernoulli_terms=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert zeta_mod._decide_n(np.array([0j]), params).tolist() == [2]
        zv = zeta_em(0j, params)
    assert (zv.value, zv.error_estimate) == (-0.5, 0.0)


@pytest.mark.parametrize("s, kb", [(0.75 + 2e5j, 12), (0.75 + 1e7j, 30)])
def test_far_past_the_threshold_decides_4_n0_without_a_warning(s, kb):
    # N0 = 2 at 1e-9 terms per unit t.  At 0.75 + 2e5 i with 12 corrections
    # (test_precision_exhausted_at_extreme_params) the estimate reads
    # 1.6e108 at N = 2 and 5.1e92 at 8; at 0.75 + 1e7 i with 30 it is past
    # the largest double at every N, and its log is not
    params = ZetaParams(terms_per_unit_t=1e-9, min_terms=2, bernoulli_terms=kb)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert zeta_mod._decide_n(np.array([s]), params).tolist() == [8]
        assert zeta_mod._evaluate([s], [0.0], params)[2].all()
        with pytest.raises(PrecisionExhausted):
            zeta_em(s, params)


@pytest.mark.parametrize("with_rows", [False, True])
def test_one_sum_and_one_tail_per_call(monkeypatch, with_rows):
    # pairs decided at N0, 2 N0 and 4 N0 in one call are summed by one _sums
    # call and finished by one _em_tail call
    params = ZetaParams(terms_per_unit_t=0.1)
    points = np.array([0.55, 0.75, 0.95, 0.6 + 0.5j])
    ts = np.array([0.0, 1e3, 1e4])
    counts = zeta_mod._decide_n(shifted_pairs(points, ts), params)
    assert set((counts // zeta_mod._choose_n(shifted_pairs(points, ts).imag, params)).tolist()) == {1, 2, 4}
    rows = zeta_mod.shift_rows(points, 1e4, params) if with_rows else None
    calls = []

    def counting(name, call):
        def counted(*args):
            calls.append(name)
            return call(*args)

        return counted

    for name in ("_sums", "_em_tail"):
        monkeypatch.setattr(zeta_mod, name, counting(name, getattr(zeta_mod, name)))
    zeta_mod._evaluate(points, ts, params, rows)
    assert calls == ["_sums", "_em_tail"]


@pytest.mark.parametrize(
    "params, ts, calls",
    [
        # every default-parameter pair passes the screen: the screen alone
        (DEFAULT_PARAMS, [0.0, 1e3, 1e4], 1),
        # pairs decided at 2 N0 and 4 N0 fail it: the screen, then the
        # exact estimate at N0 and at 2 N0
        (ZetaParams(terms_per_unit_t=0.1), [0.0, 1e3, 1e4], 3),
    ],
)
def test_exact_estimates_only_for_pairs_the_screen_leaves(monkeypatch, params, ts, calls):
    points = np.array([0.55, 0.75, 0.95, 0.6 + 0.5j])
    edwards_estimate = zeta_mod._edwards_estimate
    screens = []

    def recording(s, counts, params, screen=False):
        screens.append(screen)
        return edwards_estimate(s, counts, params, screen)

    monkeypatch.setattr(zeta_mod, "_edwards_estimate", recording)
    zeta_mod._evaluate(points, ts, params)
    assert screens == [True] + [False] * (calls - 1)


def test_term_cap_is_decided_before_any_work(monkeypatch):
    # at Im s = 1e8 with one correction the estimate stays above 1e-6 at
    # N0 = 5e7 and at 1e8, so 4 N0 = 2e8 terms are decided, past the 2^26
    # cap: the term cap's InvalidSpec comes before any plan, row or sum
    def refused(*args):
        raise AssertionError("built before the term cap was checked")

    monkeypatch.setattr(zeta_mod, "_plan_cache", None)
    monkeypatch.setattr(zeta_mod, "_dirichlet_table", refused)
    monkeypatch.setattr(zeta_mod, "_partial_sums", refused)
    params = ZetaParams(bernoulli_terms=1)
    assert zeta_mod._decide_n(np.array([0.75 + 1e8j]), params).tolist() == [200_000_000]
    with pytest.raises(InvalidSpec, match="term cap 67108864"):
        zeta_em(0.75 + 1e8j, params)
    assert zeta_mod._plan_cache is None


@pytest.mark.parametrize("t", [43225.0, 1e5])
def test_grid_against_mpmath_at_exact_point(t):
    # the criterion-6 grid: Im z_j + t rounded to a double would put the
    # phase 1e-11 off at t = 1e5
    mpmath = pytest.importorskip("mpmath")
    grid = discretize(Segment(0.8, 0.8 + 0.2j), 0.05)
    params = ZetaParams(terms_per_unit_t=0.35)
    exact = [_mpmath_at_shift(mpmath, z, t) for z in grid.points]
    for rows in (None, zeta_mod.shift_rows(grid.points, t, params)):
        values, errors, _ = zeta_mod._evaluate(grid.points, [t], params, rows)
        for x, v, err in zip(exact, values[:, 0], errors[:, 0]):
            assert abs(v - x) <= max(err, 1e-12)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0.51, 0.99), st.floats(-5.0, 5.0)), min_size=1, max_size=3
    ),
    st.lists(st.floats(0.0, 2e3), min_size=1, max_size=3),
)
def test_batches_against_mpmath(points, ts):
    # one batched evaluation of every (point, shift) pair
    mpmath = pytest.importorskip("mpmath")
    points = np.array([complex(sigma, im) for sigma, im in points])
    values, errors, exhausted = zeta_mod._evaluate(points, ts, DEFAULT_PARAMS)
    assert values.shape == errors.shape == exhausted.shape == (len(points), len(ts))
    assert not exhausted.any()
    for j, z in enumerate(points):
        for b, t in enumerate(ts):
            assert abs(values[j, b] - _mpmath_at_shift(mpmath, z, t)) <= max(errors[j, b], 1e-12)


U = 2.0**-53


def _exact_sums(z, t, counts):
    # at 30 digits and at the exact point s = Re z + i (Im z + t): for each
    # N, sum_{n<N} n^-s, N^-s and the scale sum_{n<=N} n^-Re s
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        s = mpmath.mpc(mpmath.mpf(z.real), mpmath.mpf(z.imag) + mpmath.mpf(t))
        top = max(counts)
        terms = [mpmath.power(n, -s) for n in range(1, top + 1)]
        sizes = [mpmath.power(n, -mpmath.mpf(z.real)) for n in range(1, top + 1)]
        return [
            (complex(mpmath.fsum(terms[: N - 1])), complex(terms[N - 1]), float(mpmath.fsum(sizes[:N])))
            for N in counts
        ]


def _check_sums(points, ts, counts):
    # the partial sums and last terms of the pairs b * len(points) + j, as
    # _evaluate takes them, within 8 u sum_{n<=N} n^-Re s of 30 digits
    partial, last = zeta_mod._sums(points, ts, np.asarray(counts), None)
    for k, N in enumerate(counts):
        b, j = divmod(k, len(points))
        [(exact_partial, exact_last, scale)] = _exact_sums(points[j], ts[b], [N])
        assert abs(partial[k] - exact_partial) <= 8 * U * scale
        assert abs(last[k] - exact_last) <= 8 * U * scale


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(-1.0, 3.0, exclude_min=True, exclude_max=True), st.floats(-50.0, 50.0)),
        min_size=1,
        max_size=3,
    ),
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=3),
    st.data(),
)
def test_partial_sums_against_mpmath(points, ts, data):
    # each pair's N drawn on its own, so that a block holds pairs of many N
    # (worst 3.3 u sum n^-Re s measured on 800 draws, at Re s near 3, where
    # the summation over every n read 4.4 u sum)
    points = np.array([complex(sigma, im) for sigma, im in points])
    size = len(points) * len(ts)
    counts = data.draw(st.lists(st.integers(2, 400), min_size=size, max_size=size))
    _check_sums(points, np.array(ts), counts)


def _three_smooth_edges(top):
    # every N <= top with N or N - 1 3-smooth: N - 1 is a cutoff's edge for
    # some d, and N = d_N m_N splits with m_N = 1
    smooth = {2**a * 3**b for a in range(12) for b in range(8) if 2**a * 3**b <= top}
    return sorted(n for n in {d for d in smooth} | {d + 1 for d in smooth} if 2 <= n <= top)


@pytest.mark.parametrize(
    "z, t", [(0.5 + 14.1j, 0.0), (2.9 - 3.0j, 987.25), (-0.95 + 0j, 0.0), (0.8 + 0.2j, -431.5)]
)
def test_partial_sums_at_the_three_smooth_edges(z, t):
    counts = _three_smooth_edges(2000)
    assert len(counts) == 89 and counts[:10] == [2, 3, 4, 5, 6, 7, 8, 9, 10, 12]
    # one point per N in one call, so that the N share blocks
    partial, last = zeta_mod._sums(np.full(len(counts), z), np.array([t]), np.array(counts), None)
    for k, (exact_partial, exact_last, scale) in enumerate(_exact_sums(z, t, counts)):
        assert abs(partial[k] - exact_partial) <= 8 * U * scale
        assert abs(last[k] - exact_last) <= 8 * U * scale


# ---------------------------------------------------------------- invariants


def test_oracle_consistency_100_points():
    rng = np.random.default_rng(424242)
    for _ in range(100):
        s = complex(rng.uniform(0.4, 1.1), rng.uniform(0.0, 1e4))
        zv = zeta_em(s)
        zo = zeta_em(s, ORACLE)
        assert abs(zv.value - zo.value) <= max(zv.error_estimate, 1e-11)


def test_error_estimate_honesty():
    # at most 1% of the consistency suite may exceed the estimate, where the
    # estimate is floored at the double-precision round-off level 1e-11 that
    # the suite itself uses
    rng = np.random.default_rng(424242)
    violations = 0
    for _ in range(100):
        s = complex(rng.uniform(0.4, 1.1), rng.uniform(0.0, 1e4))
        zv = zeta_em(s)
        zo = zeta_em(s, ORACLE)
        if abs(zv.value - zo.value) > max(zv.error_estimate, 1e-11):
            violations += 1
    assert violations <= 1


def test_functional_equation_residual():
    rng = np.random.default_rng(777)
    for _ in range(20):
        s = complex(rng.uniform(0.05, 0.95), rng.uniform(0.5, 50.0))
        lhs = zeta_em(s).value
        chi = np.exp(s * np.log(2.0) + (s - 1.0) * np.log(np.pi) + loggamma(1.0 - s)) * np.sin(
            np.pi * s / 2.0
        )
        rhs = chi * zeta_em(1.0 - s).value
        assert abs(lhs - rhs) <= 1e-8


def test_conjugate_symmetry():
    rng = np.random.default_rng(888)
    for _ in range(30):
        s = complex(rng.uniform(0.4, 1.1), rng.uniform(0.0, 1e3))
        assert abs(zeta_em(np.conj(s)).value - np.conj(zeta_em(s).value)) <= 1e-13
