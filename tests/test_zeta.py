import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import loggamma

import striplab.zeta as zeta_mod
from striplab import PointSet, Segment, ZetaParams, bernoulli_table, discretize, zeta_em, zeta_shifted_grid
from striplab.errors import PoleAtOne, PrecisionExhausted
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
    with pytest.raises(PoleAtOne):
        zeta_em(1.0 + 0j)
    with pytest.raises(PoleAtOne):
        zeta_em(1.0 + 1e-13j)


def test_supported_range_guards():
    with pytest.raises(ValueError):
        zeta_em(-1.5 + 0j)
    with pytest.raises(ValueError):
        zeta_em(0.75 + 2e8j)


def test_params_validation():
    with pytest.raises(ValueError):
        ZetaParams(min_terms=1)
    with pytest.raises(ValueError):
        ZetaParams(bernoulli_terms=0)
    with pytest.raises(ValueError):
        ZetaParams(bernoulli_terms=31)


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
    # two points with equal imaginary part must agree exactly with scalars
    grid = discretize(PointSet((0.6 + 0.3j, 0.9 + 0.3j)), 0.1)
    values, _ = zeta_shifted_grid(grid, 7.5)
    for z, v in zip(grid.points, values):
        assert v == zeta_em(complex(z) + 7.5j).value


def test_grid_propagates_offending_index():
    params = ZetaParams(terms_per_unit_t=1e-9, min_terms=2, bernoulli_terms=12)
    grid = discretize(PointSet((0.75, 0.75 + 2e5j)), 0.1)
    with pytest.raises(PrecisionExhausted) as excinfo:
        zeta_shifted_grid(grid, 0.0, params)
    assert excinfo.value.index == 1


# ---------------------------------------------------------------- mpmath oracle

ORACLE_SIGMAS = (0.55, 0.75, 0.95)


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


@pytest.mark.parametrize("per_unit_t, ns", [(0.15, [150, 300]), (0.1, [100, 200, 400])])
def test_against_mpmath_after_doubling(monkeypatch, per_unit_t, ns):
    # at t = 1e3 the first N leaves the estimate above 1e-6 at every sigma
    em_eval = zeta_mod._em_eval
    used = set()

    def recording(s, N, kb, phase):
        used.add(N)
        return em_eval(s, N, kb, phase)

    monkeypatch.setattr(zeta_mod, "_em_eval", recording)
    _check_against_mpmath(1e3, ZetaParams(terms_per_unit_t=per_unit_t))
    assert sorted(used) == ns


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
