import cmath
import math
import sys
import warnings

import numpy as np
import pytest
from helpers import bits, polynomial_from_spec, reference_perturbation_bound, reference_roots
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from striplab import (
    FactoredPolynomial,
    Polynomial,
    Segment,
    derivative_bound,
    discretize,
    evaluate,
    evaluate_factored,
    from_roots,
    min_modulus_certificate,
    perturbation_bound,
    roots,
)
from striplab import polynomial
from striplab.errors import InvalidSpec, NoConvergence


def match_error(found, expected):
    cost = np.abs(np.subtract.outer(np.array(found), np.array(expected)))
    ri, ci = linear_sum_assignment(cost)
    return cost[ri, ci].max()


def random_separated_roots(rng, m, radius=2.0, min_sep=1e-3):
    while True:
        r = rng.uniform(-radius, radius, m) + 1j * rng.uniform(-radius, radius, m)
        r = r[np.abs(r) <= radius]
        if len(r) == 0:
            continue
        d = np.abs(r[:, None] - r[None, :])
        np.fill_diagonal(d, np.inf)
        if d.min() >= min_sep:
            return tuple(r)


# ---------------------------------------------------------------- evaluate


def test_evaluate_quadratic_at_root():
    p = Polynomial((1, 0, 1))  # z^2 + 1
    assert evaluate(p, 1j) == 0


def test_evaluate_constant():
    p = Polynomial((3,))
    assert evaluate(p, 17.5 - 2j) == 3


def test_evaluate_expanded_product_at_root():
    p = from_roots(1, (0.3, 0.7j))
    assert abs(evaluate(p, 0.3)) <= 1e-14


def test_evaluate_exact_for_degree_one():
    rng = np.random.default_rng(3)
    for _ in range(50):
        c0, c1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z = complex(*rng.standard_normal(2))
        assert evaluate(Polynomial((c0, c1)), z) == c1 * z + c0


def test_evaluate_array_matches_scalar():
    p = from_roots(2j, (0.5, -0.25j, 1.0))
    zs = np.array([0.1, 0.2 + 0.3j, -1.0])
    vals = evaluate(p, zs)
    assert all(vals[i] == evaluate(p, zs[i]) for i in range(3))


def _complex_loop(p, z):
    # evaluate's loop for points off the axes, as it ran for every point
    # before the axis paths: the oracle they must match float for float
    w = (z - p.center) / p.scale
    wr, wi = w.real.copy(), w.imag.copy()
    re = np.zeros(w.shape)
    im = np.zeros(w.shape)
    for c in reversed(p.coeffs):
        t = im * wi
        im *= wr
        im += re * wi
        im += c.imag
        re *= wr
        re -= t
        re += c.real
    acc = np.empty(w.shape, dtype=complex)
    acc.real, acc.imag = re, im
    return acc


def _assert_same_floats(p, z):
    got, want = evaluate(p, z), _complex_loop(p, z)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.abs(got), np.abs(want), equal_nan=True)


def _spread_coeffs(rng, m):
    # moduli over 10 decades, a third of the imaginary parts exactly 0
    cs = 10.0 ** rng.uniform(-5.0, 5.0, m + 1) * np.exp(2j * np.pi * rng.uniform(size=m + 1))
    cs.imag[rng.uniform(size=m + 1) < 1 / 3] = 0.0
    return tuple(cs)


@pytest.mark.parametrize("vertical", [False, True])
def test_evaluate_on_an_axis_gives_the_complex_loops_floats(vertical):
    rng = np.random.default_rng(20 + vertical)
    center, scale = 0.3 + 0.2j, 0.7
    along = np.linspace(-1.0, 1.0, 301) * scale
    z = center + (1j * along if vertical else along)
    w = (z - center) / scale
    assert not np.any(w.real if vertical else w.imag)
    for m in range(61):
        p = Polynomial(_spread_coeffs(rng, m), center, scale)
        _assert_same_floats(p, z)
        assert evaluate(p, complex(z[7])) == complex(_complex_loop(p, z[7:8])[0])


def test_evaluate_on_the_imaginary_axis_past_degree_100():
    # the real recurrence runs on the coefficients turned by i**k; Python's
    # 1j**k is not exact past k = 100 (1j**101 is 4.4e-15 + 1j), so turns
    # taken from it would move the values off the complex loop's
    rng = np.random.default_rng(24)
    center, scale = 0.3 + 0.2j, 0.7
    z = center + 1j * scale * np.linspace(-1.0, 1.0, 301)
    assert not np.any(((z - center) / scale).real)
    for m in range(101, 131):
        _assert_same_floats(Polynomial(_spread_coeffs(rng, m), center, scale), z)


def test_evaluate_on_points_with_negative_zero_imaginary_parts():
    z = np.array([complex(x, -0.0) for x in np.linspace(-2.0, 2.0, 41)])
    # the frame points' imaginary parts are zeros of both signs
    assert 0 < np.signbit(((z - 0j) / 1.5).imag).sum() < len(z)
    rng = np.random.default_rng(22)
    for m in (0, 1, 5, 30):
        _assert_same_floats(Polynomial(_spread_coeffs(rng, m), 0j, 1.5), z)


def test_evaluate_on_an_axis_with_non_finite_points_or_values():
    # inf and nan points, and values that overflow: the complex loop's
    # products by the zero part make NaN where the real recurrences keep inf
    p = Polynomial((1e300, -2e300 + 0j, 3e300 + 1j), 0.5, 1.0)
    z = np.array([0.5, 2.0, np.inf, -np.inf, np.nan, 1e10, -1e200])
    with np.errstate(all="ignore"):
        _assert_same_floats(p, z)
        _assert_same_floats(p, 0.5 + 1j * z)
        _assert_same_floats(Polynomial((2.0, 1.0)), z)
        assert np.isnan(evaluate(p, z)[2]) and cmath.isnan(evaluate(p, 1e200 + 0j))


def _one_axis_loop(p, z):
    # evaluate's axis path as one loop stepping both parts at once, as it
    # ran before each part got a recurrence of its own
    y, unit = polynomial._axis_coordinate((z - p.center) / p.scale)
    cs = p.coeffs if unit == 1 else polynomial._turn(p.coeffs, 1).tolist()
    re, im = np.zeros(y.shape), np.zeros(y.shape)
    for c in reversed(cs):
        re *= y
        re += c.real
        im *= y
        im += c.imag
    return [complex(a, b) for a, b in zip(re, im)]


@pytest.mark.parametrize("vertical", [False, True])
def test_evaluate_on_an_axis_keeps_the_one_loop_floats_and_zero_signs(vertical):
    rng = np.random.default_rng(25 + vertical)
    center, scale = 0.3 + 0.2j, 0.7
    along = np.concatenate([np.linspace(-1.0, 1.0, 201) * scale, [0.0, -0.0]])
    z = center + (1j * along if vertical else along)
    for m in range(0, 41, 4):
        cs = list(_spread_coeffs(rng, m))
        cs[0] = complex(-0.0, cs[0].imag)  # a zero real part of each sign
        p = Polynomial(tuple(cs), center, scale)
        assert bits(evaluate(p, z)) == bits(_one_axis_loop(p, z))


def test_evaluate_off_the_axes_keeps_the_complex_loop(monkeypatch):
    def axis_path(*args):
        raise AssertionError("the axis path ran off the axes")

    monkeypatch.setattr(polynomial, "_horner_real", axis_path)
    rng = np.random.default_rng(23)
    z = discretize(Segment(-1 - 1j, 1 + 1j), 0.01).points
    for m in (0, 3, 40):
        _assert_same_floats(Polynomial(_spread_coeffs(rng, m)), z)
    with pytest.raises(AssertionError, match="axis path"):
        evaluate(Polynomial((1, 2)), np.array([0.5, 1.5]))


unit_complex = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    coeffs=st.lists(unit_complex, min_size=1, max_size=21),
    leading=unit_complex.filter(lambda c: c != 0),
    roots_=st.lists(unit_complex, max_size=20),
    center=unit_complex,
    scale=st.floats(0.05, 20.0),
    z=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
)
def test_scalar_evaluation_is_the_array_evaluation(coeffs, leading, roots_, center, scale, z):
    p = Polynomial(tuple(coeffs), center, scale)
    fp = FactoredPolynomial(leading, tuple(roots_), scale)
    for value, values in (
        (evaluate(p, z), evaluate(p, np.array([z]))),
        (evaluate_factored(fp, z), evaluate_factored(fp, np.array([z]))),
    ):
        assert type(value) is complex
        assert value == values[0]


@pytest.mark.parametrize(
    "coeffs, scale",
    [((1, 2), 0.0), ((1, 2), float("inf")), ((float("inf"), 1), 1.0), ((1, float("nan"), 1), 1.0)],
)
def test_polynomial_rejects_non_finite_or_bad_scale(coeffs, scale):
    with pytest.raises(ValueError):
        Polynomial(coeffs, 0j, scale)


def test_trailing_zero_trim():
    p = Polynomial((1, 2, 0, 0))
    assert p.degree == 1 and p.coeffs == (1 + 0j, 2 + 0j)
    assert Polynomial((0, 0)).is_zero()


# ---------------------------------------------------------------- from_roots


def test_from_roots_pm_one():
    assert from_roots(1, (1, -1)).coeffs == (-1 + 0j, 0j, 1 + 0j)


def test_from_roots_empty():
    p = from_roots(2, ())
    assert p.coeffs == (2 + 0j,) and p.degree == 0


def test_from_roots_hand_expansion():
    p = from_roots(1, (0.3, 0.7j))
    expected = (0.21j, -(0.3 + 0.7j), 1 + 0j)
    assert np.allclose(p.coeffs, expected, atol=1e-16)


# ---------------------------------------------------------------- roots


def test_roots_of_z2_plus_1():
    found = roots(Polynomial((1, 0, 1)))
    assert match_error(found, (1j, -1j)) <= 1e-12


def test_roots_triple_cluster_degraded_accuracy():
    p = from_roots(1, (0.75, 0.75, 0.75))
    found = roots(p)
    assert max(abs(r - 0.75) for r in found) <= 1e-4


def test_roots_degree_ten_round_trip():
    rng = np.random.default_rng(99)
    expected = random_separated_roots(rng, 10)
    found = roots(from_roots(1, expected))
    assert match_error(found, expected) <= 1e-8


def test_roots_degree_60_on_ring_outside_unit_circle():
    # |c_k / c_m| reaches ~1e10 here, so the start ring must follow the roots
    # for |z|**60 to stay finite; the 60-factor expansion itself limits the
    # attainable accuracy to ~1e-3
    expected = 1.3 * np.exp(2j * np.pi * (np.arange(60) + 0.25) / 60)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        found = np.array(roots(from_roots(1, expected)))
    assert max(np.min(np.abs(found - r)) for r in expected) <= 1e-2


@pytest.mark.parametrize("radius, m", [(0.2, 30), (2.0, 45), (5.0, 30)])
def test_roots_accepted_only_at_small_backward_error(radius, m):
    # tiny (radius 0.2) and huge (radius 5) coefficients: a small absolute
    # residual says nothing there, so acceptance must mean a small backward error
    rng = np.random.default_rng(2024)
    expected = radius * np.exp(2j * np.pi * rng.uniform(size=m))
    found = roots(from_roots(1, expected))
    assert match_error(found, expected) <= 1e-2 * radius


def test_roots_raise_no_convergence_when_a_root_misses_the_test(monkeypatch):
    # with a zero tolerance only an exact floating-point root would pass
    p = from_roots(1, (0.3, 0.7j, -0.45 + 0.2j, 1.1 - 0.6j, -0.8j))
    monkeypatch.setattr(polynomial, "_ROOT_TOL", 0.0)
    with pytest.raises(NoConvergence):
        roots(p)


# 60 roots at random angles on |z| = 1e4, where |z|**60 reaches 1e240.  The
# expansion of this ring is ill-conditioned: the exact roots of
# from_roots(1, ring) lie up to 400 from the given ones (mpmath at 80
# digits), so only the backward error can be asked of any root finder.
RING_1E4 = [(4.0, a, 1) for a in 2 * np.pi * np.random.default_rng(2024).uniform(size=60)]


@settings(max_examples=200, deadline=None, derandomize=True)
@example(clusters=RING_1E4)
@given(
    clusters=st.lists(
        st.tuples(st.floats(-3.0, 3.0), st.floats(0.0, 2 * np.pi), st.integers(1, 4)),
        min_size=1,
        max_size=60,
    ),
)
def test_roots_meet_the_backward_error_test(clusters):
    # moduli over six decades and clusters of up to four equal roots
    expected = [10.0**e * np.exp(1j * a) for e, a, k in clusters for _ in range(k)][:60]
    p = from_roots(1, expected)
    desc = np.array(p.coeffs[::-1])
    found = np.array(roots(p))
    assert len(found) == len(expected)
    assert np.all(np.abs(np.polyval(desc, found)) <= 1e-12 * np.polyval(np.abs(desc), np.abs(found)))


def test_roots_degree_zero_raises():
    with pytest.raises(InvalidSpec, match="constant polynomials have no roots"):
        roots(Polynomial((5,)))


def test_roots_linear_closed_form():
    found = roots(Polynomial((-1.5 + 2j, 3)))
    assert abs(found[0] - -(-1.5 + 2j) / 3) <= 1e-15


def test_roots_of_subnormal_coefficients():
    # c_low / c_m of two subnormals used to overflow; a power of two that
    # brings |c_m| to order one divides them exactly
    assert roots(Polynomial((1e-310, 1e-310))) == (-1,)
    c = 1000 * 5e-324
    assert match_error(roots(Polynomial((-4 * c, 0, c))), (2, -2)) <= 1e-15


def test_roots_where_the_scaling_power_overflows():
    # s = 1e-155 for 1e-310 + w**2, and 1e-323 for 1e-320 + 1e3 w: s**-m
    # overflows, so the power of two in s goes on by ldexp
    found = roots(Polynomial((1e-310, 0, 1)))
    assert match_error(found, (1e-155j, -1e-155j)) <= 1e-12 * 1e-155
    (found,) = roots(Polynomial((1e-320, 1e3)))
    assert found.imag == 0 and abs(found.real + 1e-323) <= 5e-324


def test_roots_are_unchanged_by_a_power_of_two_on_the_coefficients():
    rng = np.random.default_rng(24)
    for m in (1, 4, 16, 40):
        cs = rng.standard_normal(m + 1) + 1j * rng.standard_normal(m + 1)
        found = roots(Polynomial(tuple(cs), 0.25, 2.0))
        for k in (-600, -7, 1, 300):
            assert roots(Polynomial(tuple(np.ldexp(cs.real, k) + 1j * np.ldexp(cs.imag, k)), 0.25, 2.0)) == found


def test_round_trip_property_200_cases():
    rng = np.random.default_rng(20240811)
    for _ in range(200):
        m = int(rng.integers(1, 16))
        expected = random_separated_roots(rng, m)
        found = roots(from_roots(1, expected))
        assert match_error(found, expected) <= 1e-8


def _roots_outcome(roots_of, p):
    """The bits of the roots, or the NoConvergence message, and the
    warnings raised on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = bits(roots_of(p))
        except NoConvergence as exc:
            out = str(exc)
    return out, [str(w.message) for w in caught]


_COEFF = st.floats(-10.0, 10.0, allow_subnormal=True)


@settings(max_examples=300, deadline=None, derandomize=True)
@example(coeffs=[(1.0, 0.0)], low_zeros=1, exponent=0, frame=0)  # degree 1, root 0
@example(coeffs=[(1.0, 0.0)], low_zeros=3, exponent=0, frame=1)  # no root but 0
@example(coeffs=[(-1.5, 2.0), (3.0, 0.0)], low_zeros=0, exponent=0, frame=0)  # degree 1
@example(coeffs=[(-4.0, 0.0), (0.0, 0.0), (1.0, 0.0)], low_zeros=0, exponent=-1064, frame=0)  # subnormal
@example(coeffs=[(1.0, 0.0), (1.0, 0.0)], low_zeros=0, exponent=-1074, frame=2)  # 5e-324 (1 + z)
@example(coeffs=[(1e-310, 0.0), (0.0, 0.0), (1.0, 0.0)], low_zeros=0, exponent=0, frame=1)  # s**-2 overflows
@example(coeffs=[(1.0, 0.0), (0.0, 0.0), (5e-324, 0.0)], low_zeros=0, exponent=0, frame=0)  # c_0 / c_2 overflows
@example(coeffs=[(1.0, 0.0), (5e-324, 0.0)], low_zeros=1, exponent=0, frame=0)  # root -2e323
@given(
    coeffs=st.lists(st.tuples(_COEFF, _COEFF), min_size=1, max_size=17).filter(lambda cs: cs[-1] != (0.0, 0.0)),
    low_zeros=st.integers(0, 3),
    exponent=st.sampled_from([0, 0, -30, 200, -1030, -1064, -1074]),
    frame=st.integers(0, 2),
)
def test_roots_are_the_numpy_paths_floats(coeffs, low_zeros, exponent, frame):
    # the companion matrix, eigenvalues, Newton step and backward-error sum
    # of roots are those that np.roots, np.polyval and np.polyder give,
    # float for float, with the same warnings: at degree 1, with zero low
    # coefficients (trailing zeros of the highest-first array np.roots
    # strips), and with subnormal coefficients.  Where numpy's path fails
    # because a scaling overflows (c_k / c_m, or its power s**(k - m)),
    # roots splits the powers of two off instead and must find every root,
    # silently, or raise NoConvergence only where Fujiwara's bound 2 max_k
    # |c_k / c_m|**(1/(m - k)) on the root moduli is past the float range
    cs = [0j] * low_zeros + [complex(np.ldexp(re, exponent), np.ldexp(im, exponent)) for re, im in coeffs]
    center, scale = ((0j, 1.0), (0.25 - 0.5j, 2.0), (1e3j, 1e-3))[frame]
    p = Polynomial(tuple(cs), center, scale)
    if p.degree == 0:
        return
    got, want = _roots_outcome(roots, p), _roots_outcome(reference_roots, p)
    if got == want:
        return
    assert isinstance(want[0], str) and any("overflow encountered" in w for w in want[1])
    if isinstance(got[0], str):
        m = p.degree
        rates = [(math.log(abs(c)) - math.log(abs(cs[m]))) / (m - k) for k, c in enumerate(cs[:m]) if c]
        assert math.log(2) + max(rates) > math.log(sys.float_info.max)
    else:
        assert len(got[0]) == p.degree and got[1] == []


def test_roots_where_the_coefficient_ratios_overflow():
    # c_0 / c_m is past the float range, and so was the first scaling by
    # c_m's power of two: the roots +-1e155i of 1e300 + 1e-10 w**2 and the
    # cube roots of -1e608 (moduli 10**202.67) of 1e308 + 1e-300 w**3 are
    # found without a warning, and so are the roots 1.3e308 and 1.5e308 of
    # 1e-310 (w - 1.3e308) (w - 1.5e308), whose geometric mean rounds to
    # 2**1024 in log2; the root -1e310 of 1e300 + 1e-10 w is past the float
    # range and raises
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = roots(Polynomial((1.95e306, -2.8e-2, 1e-310)))
        assert match_error(found, (1.3e308, 1.5e308)) <= 1e-12 * 1.5e308
        found = roots(Polynomial((1e300, 0, 1e-10)))
        assert match_error(found, (1e155j, -1e155j)) <= 1e-12 * 1e155
        found = roots(Polynomial((1e308, 0, 0, 1e-300)))
        expected = 10 ** (608 / 3) * np.exp(1j * np.pi * np.array([1, 3, 5]) / 3)
        assert match_error(found, expected) <= 1e-12 * 10 ** (608 / 3)
        with pytest.raises(NoConvergence, match="past the float range"):
            roots(Polynomial((1e300, 1e-10)))


def test_roots_match_the_numpy_paths_on_random_rings():
    rng = np.random.default_rng(35)
    for m in (1, 2, 5, 16, 33, 60):
        for _ in range(10):
            expected = rng.uniform(0.2, 3.0) * np.exp(2j * np.pi * rng.uniform(size=m))
            p = from_roots(complex(*rng.standard_normal(2)), expected)
            assert bits(roots(p)) == bits(reference_roots(p))


# ---------------------------------------------------------------- bounds


def test_perturbation_bound_identical_lists():
    assert perturbation_bound(3 + 1j, (0.1, 0.2j), (0.1, 0.2j), 2.0) == 0.0


def test_perturbation_bound_degree_one_exact():
    delta = 1e-3
    for R in (0.0, 0.5, 10.0):
        assert perturbation_bound(1.0, (0.0,), (1j * delta,), R) == pytest.approx(delta)


def test_perturbation_bound_length_mismatch():
    with pytest.raises(InvalidSpec, match="root lists differ in length"):
        perturbation_bound(1.0, (0.0,), (0.0, 1.0), 1.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    pairs=st.lists(
        st.tuples(
            st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
            st.complex_numbers(max_magnitude=0.1, allow_nan=False, allow_infinity=False),
            st.booleans(),
        ),
        max_size=40,
    ),
    leading=st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    R=st.floats(0.0, 5.0),
    center=st.sampled_from([0j, 0.5 - 0.25j]),
    scale=st.sampled_from([1.0, 0.3, 7.0]),
)
def test_perturbation_bound_is_the_numpy_telescoping(pairs, leading, R, center, scale):
    # the factors and products as Python floats, left to right, give
    # np.prod's floats over np.concatenate's vectors; unmoved roots add
    # nothing
    old = [r for r, _, _ in pairs]
    new = [r + step if moved else r for r, step, moved in pairs]
    args = (leading, old, new, R, center, scale)
    assert perturbation_bound(*args).hex() == reference_perturbation_bound(*args).hex()


def disk_samples(R, n, rng):
    r = R * np.sqrt(rng.uniform(0, 1, n))
    th = rng.uniform(0, 2 * np.pi, n)
    boundary = R * np.exp(1j * np.linspace(0, 2 * np.pi, n, endpoint=False))
    return np.concatenate([r * np.exp(1j * th), boundary])


def test_perturbation_bound_dominates_m3():
    rng = np.random.default_rng(5)
    R = 1.0
    old = random_separated_roots(rng, 3, radius=1.5)
    new = tuple(r + 0.05 * complex(*rng.standard_normal(2)) for r in old)
    B = perturbation_bound(1.0, old, new, R)
    zs = disk_samples(R, 5000, rng)
    diff = np.abs(evaluate_factored(FactoredPolynomial(1.0, old), zs)
                  - evaluate_factored(FactoredPolynomial(1.0, new), zs))
    assert B >= diff.max() * (1 - 1e-12)


def test_perturbation_bound_domination_100_cases():
    rng = np.random.default_rng(6)
    for _ in range(100):
        m = int(rng.integers(1, 9))
        lead = complex(*rng.standard_normal(2))
        if lead == 0:
            lead = 1.0
        R = rng.uniform(0.1, 2.0)
        old = np.array(random_separated_roots(rng, m, radius=1.5))
        new = old + rng.uniform(0, 0.1) * (
            rng.standard_normal(len(old)) + 1j * rng.standard_normal(len(old))
        )
        B = perturbation_bound(lead, old, new, R)
        zs = disk_samples(R, 5000, rng)
        diff = np.abs(evaluate_factored(FactoredPolynomial(lead, tuple(old)), zs)
                      - evaluate_factored(FactoredPolynomial(lead, tuple(new)), zs))
        assert B >= diff.max() * (1 - 1e-12)


def test_min_modulus_root_on_set():
    K = Segment(0.6, 0.8)
    assert min_modulus_certificate(FactoredPolynomial(1.0, (0.7,)), K) == 0.0


def test_min_modulus_single_root_distance():
    K = Segment(0.6, 0.8)
    L = min_modulus_certificate(FactoredPolynomial(1.0, (0.7 + 0.01j,)), K)
    assert L == pytest.approx(0.01, abs=1e-15)


def test_min_modulus_minorizes_100_cases():
    rng = np.random.default_rng(8)
    K = Segment(0.6, 0.8 + 0.1j)
    grid = discretize(K, 1e-3)
    for _ in range(100):
        m = int(rng.integers(1, 9))
        lead = complex(*rng.standard_normal(2)) or 1.0
        rts = random_separated_roots(rng, m, radius=1.5, min_sep=1e-6)
        fp = FactoredPolynomial(lead, rts)
        L = min_modulus_certificate(fp, K)
        sampled_min = float(np.min(np.abs(evaluate_factored(fp, grid.points))))
        assert L <= sampled_min * (1 + 1e-12)


def test_polynomial_json_round_trip():
    p = from_roots(1.5 - 0.5j, (0.3, 0.7j))
    spec = p.to_spec()
    assert spec == {"coeffs": [[c.real, c.imag] for c in p.coeffs]}
    assert polynomial_from_spec(spec) == p


def test_factored_round_trip_matches_expansion():
    rng = np.random.default_rng(10)
    rts = random_separated_roots(rng, 6)
    fp = FactoredPolynomial(1.5 - 0.5j, rts)
    p = from_roots(fp.leading, fp.roots)
    zs = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    assert np.allclose(evaluate(p, zs), evaluate_factored(fp, zs), rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------- frame


def test_framed_polynomial_evaluates_in_frame_variable():
    p = Polynomial((1 - 2j, 0.5, 3j), center=0.75 + 0.25j, scale=0.1)
    zs = np.array([0.7, 0.8 + 0.3j, 0.75 + 0.25j])
    w = (zs - p.center) / p.scale
    assert np.allclose(evaluate(p, zs), 1 - 2j + 0.5 * w + 3j * w**2, rtol=1e-14, atol=0)
    assert evaluate(p, zs[1]) == evaluate(p, zs)[1]


def test_framed_roots_are_returned_in_z():
    rng = np.random.default_rng(11)
    frame_roots = random_separated_roots(rng, 8, radius=1.0)
    c, rho = 0.75 + 0.5j, 0.1
    p = Polynomial(from_roots(1.0, frame_roots).coeffs, c, rho)
    found = roots(p)
    assert match_error(found, [c + rho * r for r in frame_roots]) <= 1e-12
    assert max(abs(evaluate(p, r)) for r in found) <= 1e-12


def test_framed_derivative_bound_dominates():
    rng = np.random.default_rng(12)
    c, rho = 0.75 + 0.5j, 0.1
    coeffs = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    p = Polynomial(tuple(coeffs), c, rho)
    # p'(z) = sum_k k a_k w**(k-1) / rho with w = (z - c) / rho
    dp = Polynomial(tuple(k * a for k, a in enumerate(coeffs))[1:], c, rho)
    for R, center in ((rho, c), (abs(c) + rho, 0j)):
        zs = center + disk_samples(R, 2000, rng)
        sampled = float(np.max(np.abs(evaluate(dp, zs)))) / rho
        assert sampled <= derivative_bound(p, R, center) * (1 + 1e-12)
    # the default frame keeps the plain formula sum_k k |c_k| R**(k-1)
    plain = Polynomial(tuple(coeffs))
    ks = np.arange(1, 7)
    assert derivative_bound(plain, 0.5) == float(np.sum(ks * np.abs(coeffs[1:]) * 0.5 ** (ks - 1.0)))


def test_perturbation_bound_centred_disk_dominates():
    rng = np.random.default_rng(13)
    c, R = 0.75 + 0.5j, 0.2
    old = tuple(c + 0.1 * r for r in random_separated_roots(rng, 5, radius=1.5))
    new = tuple(r + 0.01 * complex(*rng.standard_normal(2)) for r in old)
    B = perturbation_bound(0.5 - 1j, old, new, R, c)
    zs = c + disk_samples(R, 5000, rng)
    diff = np.abs(evaluate_factored(FactoredPolynomial(0.5 - 1j, old), zs)
                  - evaluate_factored(FactoredPolynomial(0.5 - 1j, new), zs))
    assert B >= diff.max() * (1 - 1e-12)
    # the disk about the origin that contains the centred one gives a larger bound
    assert perturbation_bound(0.5 - 1j, old, new, abs(c) + R) >= B


def test_polynomial_json_round_trip_with_frame():
    p = Polynomial((1, 2j, -0.5), 0.75 - 0.1j, 0.2)
    spec = p.to_spec()
    assert spec["center"] == [0.75, -0.1] and spec["scale"] == 0.2
    assert polynomial_from_spec(spec) == p


def test_scaled_factored_form_matches_framed_polynomial():
    rng = np.random.default_rng(14)
    c, rho, lead = 0.75 + 0.5j, 0.1, 0.5 - 1j
    frame_roots = random_separated_roots(rng, 6, radius=1.5)
    p = Polynomial(from_roots(lead, frame_roots).coeffs, c, rho)
    fp = FactoredPolynomial(lead, tuple(c + rho * r for r in frame_roots), rho)
    zs = c + disk_samples(rho, 2000, rng)
    assert np.allclose(evaluate_factored(fp, zs), evaluate(p, zs), rtol=1e-9, atol=1e-12)
    assert fp.to_spec()["scale"] == rho
    assert "scale" not in FactoredPolynomial(lead, fp.roots).to_spec()
    with pytest.raises(ValueError):
        FactoredPolynomial(complex("inf"), fp.roots, rho)
    with pytest.raises(ValueError):
        FactoredPolynomial(1, (complex("nan"),), rho)

    # each factor carries 1 / rho, so both certificates pick up rho**-6
    plain = FactoredPolynomial(lead, fp.roots)
    new = tuple(r + 1e-3 * complex(*rng.standard_normal(2)) for r in fp.roots)
    B = perturbation_bound(lead, fp.roots, new, rho, c, rho)
    assert B == pytest.approx(perturbation_bound(lead, fp.roots, new, rho, c) / rho**6, rel=1e-12)
    diff = np.abs(evaluate_factored(fp, zs) - evaluate_factored(FactoredPolynomial(lead, new, rho), zs))
    assert B >= diff.max() * (1 - 1e-12)
    K = Segment(c - rho, c + rho)
    L = min_modulus_certificate(fp, K)
    assert L == pytest.approx(min_modulus_certificate(plain, K) / rho**6, rel=1e-12)
    assert float(np.min(np.abs(evaluate_factored(fp, discretize(K, 1e-4).points)))) >= L
