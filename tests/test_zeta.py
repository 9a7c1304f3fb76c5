import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import loggamma

import striplab.zeta as zeta_mod
from striplab import PointSet, Segment, ZetaParams, bernoulli_table, discretize, zeta_em, zeta_shifted_grid
from striplab.errors import InvalidSpec, PrecisionExhausted
from striplab.zeta import DEFAULT_PARAMS

ORACLE = DEFAULT_PARAMS.quadrupled()

# frozen on first run against the quadrupled-parameter oracle (and mpmath)
ZETA_075 = -3.4412853869452236
# frozen fixed point of the sign-change bisection below
FIRST_ZERO = 14.134725141734677


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


def test_grid_propagates_offending_index():
    params = ZetaParams(terms_per_unit_t=1e-9, min_terms=2, bernoulli_terms=12)
    grid = discretize(PointSet((0.75, 0.75 + 2e5j)), 0.1)
    with pytest.raises(PrecisionExhausted) as excinfo:
        zeta_shifted_grid(grid, 0.0, params)
    assert excinfo.value.index == 1


def test_grid_offending_index_with_rows_past_their_width():
    # the rows hold N = 2; the offender at index 5 doubles past them and
    # fails in the shared-phase path, with its index in the grid
    params = ZetaParams(terms_per_unit_t=1e-9, min_terms=2, bernoulli_terms=12)
    grid = discretize(PointSet(tuple(0.75 + 0.1j * k for k in range(5)) + (0.75 + 2e5j, 0.8)), 0.01)
    rows = zeta_mod.shift_rows(grid.points, 0.0, params)
    assert rows.table.shape == (7, 2)
    with pytest.raises(PrecisionExhausted) as excinfo:
        zeta_shifted_grid(grid, 0.0, params, rows)
    assert excinfo.value.index == 5


def test_grid_with_scan_rows_matches_one_shot():
    grid = discretize(Segment(0.8, 0.8 + 0.2j), 0.05)
    params = ZetaParams(terms_per_unit_t=0.35)
    rows = zeta_mod.shift_rows(grid.points, 2e3, params)
    assert rows.table.shape == (len(grid), math.ceil(0.35 * (2e3 + 0.2)))
    for t in (0.0, 250.0, 1999.5):
        (v, err), (w, err_w) = zeta_shifted_grid(grid, t, params, rows), zeta_shifted_grid(grid, t, params)
        assert np.all(np.abs(v - w) <= 1e-14 * np.abs(w))
        assert np.allclose(err, err_w, rtol=1e-12, atol=0.0)


def test_grid_rejects_rows_of_other_points():
    grid = discretize(Segment(0.8, 0.8 + 0.2j), 0.05)
    rows = zeta_mod.shift_rows(grid.points + 0.1, 1e2)
    with pytest.raises(InvalidSpec):
        zeta_shifted_grid(grid, 1.0, DEFAULT_PARAMS, rows)


def test_doubling_past_the_rows_leaves_them_at_their_width():
    # at t = 1e3 N doubles twice (100 -> 400) past the rows' width; the
    # doubled points take the shared-phase path and the rows do not grow
    grid = discretize(PointSet(ORACLE_SIGMAS), 0.1)
    params = ZetaParams(terms_per_unit_t=0.1)
    rows = zeta_mod.shift_rows(grid.points, 1e3, params)
    for a, b in zip(zeta_shifted_grid(grid, 1e3, params), zeta_shifted_grid(grid, 1e3, params, rows)):
        assert np.array_equal(a, b)
    assert rows.table.shape == (3, 100)


def test_one_wide_phase_table_per_distinct_im(monkeypatch):
    # one phase-table row per distinct tau
    phase_table = zeta_mod._phase_table
    calls = []

    def recording(taus, count):
        calls.extend(taus)
        return phase_table(taus, count)

    monkeypatch.setattr(zeta_mod, "_phase_table", recording)
    grid = discretize(PointSet((0.6, 0.7, 0.8, 0.6 + 0.1j, 0.7 + 0.1j)), 0.1)
    rows = zeta_mod.shift_rows(grid.points, 50.0)
    assert len(calls) == 2
    zeta_shifted_grid(grid, 50.0, DEFAULT_PARAMS, rows)
    assert len(calls) == 3
    zeta_shifted_grid(grid, 50.0)
    assert len(calls) == 5


def test_shift_rows_over_budget_is_none():
    points = np.full(100, 0.75 + 0j)
    assert zeta_mod.shift_rows(points, 1e6) is None
    assert zeta_mod.shift_rows(points, 1e2) is not None


def test_ln_cache_holds_no_more_than_the_largest_n(monkeypatch):
    em_tail = zeta_mod._em_tail
    used = []

    def recording(s, N, partial, last, kb):
        used.extend(N.tolist())
        return em_tail(s, N, partial, last, kb)

    monkeypatch.setattr(zeta_mod, "_em_tail", recording)
    monkeypatch.setattr(zeta_mod, "_ln_cache", zeta_mod._ln_cache[:63])
    monkeypatch.setattr(zeta_mod, "_plan_cache", None)
    zeta_em(0.75 + 1e4j)
    assert len(zeta_mod._ln_cache) <= max(used)
    # the factor plan was built too, at the log cache's size and with int32
    # indices
    plan = zeta_mod._plan_cache
    assert len(plan.order) == len(zeta_mod._ln_cache)
    for indices in (plan.primes, plan.factors, plan.cofactors, plan.order):
        assert indices.dtype == np.int32


def test_term_cap_raises_before_allocating(monkeypatch):
    # |Im s| = 5e7 passes the 1e8 precision guard but asks for N = 1e8 terms
    monkeypatch.setattr(zeta_mod, "_ln_cache", zeta_mod._ln_cache[:63])
    monkeypatch.setattr(zeta_mod, "_plan_cache", None)
    with pytest.raises(InvalidSpec, match="term cap 67108864"):
        zeta_em(0.75 + 5e7j)
    grid = discretize(PointSet((0.75,)), 0.1)
    assert zeta_mod.shift_rows(grid.points, 5e7) is None
    with pytest.raises(InvalidSpec, match="term cap"):
        zeta_shifted_grid(grid, 5e7)
    assert len(zeta_mod._ln_cache) == 63 and zeta_mod._plan_cache is None


def test_zeta_at_one_million_below_the_term_cap(monkeypatch):
    # N = 2e6; monkeypatch puts the earlier caches back afterwards
    mpmath = pytest.importorskip("mpmath")
    monkeypatch.setattr(zeta_mod, "_ln_cache", zeta_mod._ln_cache[:63])
    monkeypatch.setattr(zeta_mod, "_plan_cache", None)
    zv = zeta_em(0.75 + 1e6j)
    assert abs(zv.value - _mpmath_at_shift(mpmath, 0.75 + 0j, 1e6)) <= 1e-12


# ---------------------------------------------------------------- phase tables


def _wide_reference(tau, count):
    # every argument tau * ln n reduced mod 2 pi in wide precision, as the
    # phase tables take it at the primes
    dtype = zeta_mod._PHASE_DTYPE
    theta = np.asarray(tau, dtype=dtype) * np.log(np.arange(1.0, count + 1.0, dtype=dtype))
    theta = np.mod(theta, zeta_mod._TWO_PI_WIDE).astype(np.float64)
    return np.exp(theta * -1j)


def _im_plus_t(im, t):
    # the shared-phase path's argument, Im z + t summed in wide precision
    return zeta_mod._PHASE_DTYPE(im) + zeta_mod._PHASE_DTYPE(t)


@pytest.mark.parametrize("count", [20, 1000, 2047])
def test_phases_below_the_cut_are_the_wide_table(count):
    # every table takes the wide phase at n = 1 and at the primes, so there
    # it is the wide table bit for bit; each composite is a product of
    # earlier entries and stays within 1e-13 of the wide table
    sympy = pytest.importorskip("sympy")
    wide_at = np.array([0] + [p - 1 for p in sympy.primerange(2, count + 1)])
    for tau in (0.0, 14.1, 2e3, 43225.0, _im_plus_t(0.2, 43225.0)):
        table, wide = zeta_mod._phase_table([tau], count)[0], _wide_reference(tau, count)
        assert np.array_equal(table[wide_at], wide[wide_at])
        assert np.max(np.abs(table - wide)) <= 1e-13


@pytest.mark.parametrize("count", [2048, 4000, 15480])
def test_phases_past_the_cut_agree_with_the_wide_table(count):
    # up to the criterion-6 shift; at t = 1e5 each table sits about 7e-14
    # from mpmath, so their gap may reach twice that (mpmath test below)
    for tau in (14.1, 2e3, 43225.0, _im_plus_t(0.2, 43225.0)):
        table = zeta_mod._phase_table([tau], count)[0]
        assert np.max(np.abs(table - _wide_reference(tau, count))) <= 1e-13


def test_phase_table_does_not_depend_on_the_plan_size(monkeypatch):
    # a plan past the count leaves rows for its extra primes unwritten, or,
    # when they outnumber the count, moves the composites down
    taus = [14.1, 2e3, 43225.0]
    monkeypatch.setattr(zeta_mod, "_ln_cache", zeta_mod._ln_cache[:63])
    monkeypatch.setattr(zeta_mod, "_plan_cache", None)
    own = zeta_mod._phase_table(taus, 1000)
    for size in (1100, 20000):
        zeta_mod._ln_table(size)
        assert np.array_equal(zeta_mod._phase_table(taus, 1000), own)


@pytest.mark.parametrize("t", [43225.0, 1e5])
@pytest.mark.parametrize("im", [None, 0.2])
def test_product_phases_against_mpmath(t, im):
    # the longest product chains (2^k, 3^k), primes and the largest n,
    # against 40 digits; im None is the rows path's float t, 0.2 the
    # shared-phase path's Im z + t in wide precision
    mpmath = pytest.importorskip("mpmath")
    sympy = pytest.importorskip("sympy")
    count = math.ceil(0.35 * (t + 0.2))
    tau = t if im is None else _im_plus_t(im, t)
    primes = list(sympy.primerange(2, count + 1))
    ns = sorted(
        {2**k for k in range(1, count.bit_length()) if 2**k <= count}
        | {3**k for k in range(1, 10) if 3**k <= count}
        | set(primes[:20] + primes[-20:] + primes[:: len(primes) // 40])
        | set(range(count - 20, count + 1))
    )
    product, wide = zeta_mod._phase_table([tau], count)[0], _wide_reference(tau, count)
    with mpmath.workdps(40):
        exact_tau = mpmath.mpf(t) + (0 if im is None else mpmath.mpf(im))
        exact = np.array([complex(mpmath.expj(-exact_tau * mpmath.log(n))) for n in ns])
    index = np.array(ns) - 1
    assert np.max(np.abs(product[index] - exact)) <= np.max(np.abs(wide[index] - exact)) + 1e-15


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


def _checked_after_doubling(monkeypatch, t, per_unit_t):
    # the Ns that _check_against_mpmath used at t
    em_tail = zeta_mod._em_tail
    used = set()

    def recording(s, N, partial, last, kb):
        used.update(N.tolist())
        return em_tail(s, N, partial, last, kb)

    monkeypatch.setattr(zeta_mod, "_em_tail", recording)
    _check_against_mpmath(t, ZetaParams(terms_per_unit_t=per_unit_t))
    return sorted(used)


@pytest.mark.parametrize("per_unit_t, ns", [(0.15, [150, 300]), (0.1, [100, 200, 400])])
def test_against_mpmath_after_doubling(monkeypatch, per_unit_t, ns):
    # at t = 1e3 the first N leaves the estimate above 1e-6 at every sigma
    assert _checked_after_doubling(monkeypatch, 1e3, per_unit_t) == ns


def test_against_mpmath_after_doubling_past_the_product_cut(monkeypatch):
    # at t = 1e4 N doubles from 1000 and 2000 to 4000
    assert _checked_after_doubling(monkeypatch, 1e4, 0.1) == [1000, 2000, 4000]


@pytest.mark.parametrize("t", [43225.0, 1e5])
def test_grid_against_mpmath_at_exact_point(t):
    # the criterion-6 grid: Im z_j + t rounded to a double would put the
    # phase 1e-11 off at t = 1e5
    mpmath = pytest.importorskip("mpmath")
    grid = discretize(Segment(0.8, 0.8 + 0.2j), 0.05)
    params = ZetaParams(terms_per_unit_t=0.35)
    exact = [_mpmath_at_shift(mpmath, z, t) for z in grid.points]
    for rows in (None, zeta_mod.shift_rows(grid.points, t, params)):
        values, errors = zeta_shifted_grid(grid, t, params, rows)
        for x, v, err in zip(exact, values, errors):
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
