import warnings

import numpy as np
import pytest
from hypothesis import given, settings
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
from striplab.errors import DegreeZero, LengthMismatch


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


def test_roots_degree_zero_raises():
    with pytest.raises(DegreeZero):
        roots(Polynomial((5,)))


def test_roots_linear_closed_form():
    found = roots(Polynomial((-1.5 + 2j, 3)))
    assert abs(found[0] - -(-1.5 + 2j) / 3) <= 1e-15


def test_round_trip_property_200_cases():
    rng = np.random.default_rng(20240811)
    for _ in range(200):
        m = int(rng.integers(1, 16))
        expected = random_separated_roots(rng, m)
        found = roots(from_roots(1, expected))
        assert match_error(found, expected) <= 1e-8


# ---------------------------------------------------------------- bounds


def test_perturbation_bound_identical_lists():
    assert perturbation_bound(3 + 1j, (0.1, 0.2j), (0.1, 0.2j), 2.0) == 0.0


def test_perturbation_bound_degree_one_exact():
    delta = 1e-3
    for R in (0.0, 0.5, 10.0):
        assert perturbation_bound(1.0, (0.0,), (1j * delta,), R) == pytest.approx(delta)


def test_perturbation_bound_length_mismatch():
    with pytest.raises(LengthMismatch):
        perturbation_bound(1.0, (0.0,), (0.0, 1.0), 1.0)


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
    assert Polynomial.from_spec(spec) == p


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
    assert Polynomial.from_spec(spec) == p


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
