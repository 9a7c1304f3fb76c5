import math

import numpy as np
import pytest
from helpers import random_repair_case, repair_round_trip_checks

from striplab import (
    Arc,
    CantorProduct,
    FactoredPolynomial,
    Polynomial,
    Segment,
    approximate,
    approximate_nonvanishing,
    bounding_radius,
    discretize,
    distance,
    evaluate,
    evaluate_factored,
    from_roots,
    nearest_exterior,
    original_roots,
    perturbation_bound,
    repair_nonvanishing,
    roots,
)
from striplab.errors import BudgetInfeasible, BudgetNotMet, InvalidSpec, ResolutionExhausted

ARC = Arc(0.75, 0.1, 0.0, 1.5 * math.pi)


# ---------------------------------------------------------------- repair


def test_repair_moves_root_on_segment():
    K = Segment(-0.1, 0.1)
    fp, cert = repair_nonvanishing(Polynomial((0, 1)), K, 0.05)
    (root,) = fp.roots
    # degree one: the bound is exactly the displacement, delta = budget/2
    assert cert.perturbation_bound_value == pytest.approx(0.025, rel=1e-9)
    assert abs(root) == pytest.approx(0.025, rel=1e-9)
    assert cert.min_modulus_lower_bound == pytest.approx(0.025, rel=1e-9)
    assert cert.perturbation_bound_value < 0.05
    assert distance(K, root) > 0


def test_repair_identity_when_all_roots_clear():
    K = Segment(0.6, 0.9)
    P = from_roots(2.0, (0.2j, 1.5, -0.5 - 0.5j))
    fp, cert = repair_nonvanishing(P, K, 1e-3)
    assert cert.moved_roots == ()
    assert cert.perturbation_bound_value == 0.0
    assert cert.min_modulus_lower_bound > 0


def test_repair_triple_root_cluster_on_segment():
    K = Segment(0.6, 0.9)
    P = from_roots(1.0, (0.7, 0.75, 0.8))
    fp, cert = repair_nonvanishing(P, K, 1e-2)
    assert len(cert.moved_roots) == 3
    assert cert.perturbation_bound_value < 1e-2
    assert cert.min_modulus_lower_bound > 0
    grid = discretize(K, 0.3 / 20_000)
    sampled_min = float(np.min(np.abs(evaluate_factored(fp, grid.points))))
    assert sampled_min >= cert.min_modulus_lower_bound


def test_repair_zero_polynomial_becomes_small_constant():
    K = Segment(-0.1, 0.1)
    fp, cert = repair_nonvanishing(Polynomial((0,)), K, 0.05)
    assert fp.roots == ()
    assert fp.leading == 0.025
    assert cert.perturbation_bound_value == 0.025
    assert cert.min_modulus_lower_bound == 0.025


def test_repair_nonzero_constant_untouched():
    K = Segment(-0.1, 0.1)
    fp, cert = repair_nonvanishing(Polynomial((3 + 4j,)), K, 0.05)
    assert fp.leading == 3 + 4j and fp.roots == ()
    assert cert.perturbation_bound_value == 0.0
    assert cert.min_modulus_lower_bound == 5.0


def test_repair_budget_validation():
    for budget in (0.0, math.inf):
        with pytest.raises(InvalidSpec):
            repair_nonvanishing(Polynomial((0, 1)), Segment(-0.1, 0.1), budget)
        with pytest.raises(InvalidSpec):
            approximate_nonvanishing(Segment(-0.1, 0.1), {"kind": "builtin", "name": "identity"}, budget)


def test_repair_degenerate_origin_point_set():
    # all roots on a single-point set at the origin: growth factor vanishes
    from striplab import PointSet

    fp, cert = repair_nonvanishing(Polynomial((0, 0, 1)), PointSet((0,)), 0.5)
    assert cert.perturbation_bound_value < 0.5
    assert cert.min_modulus_lower_bound > 0
    assert all(r != 0 for r in fp.roots)


def test_repair_on_cantor_fiber_edges():
    # the empty-interior skeleton of a product set admits the repair even for
    # roots placed exactly on its vertical edges
    from striplab import CantorProduct, fat_cantor, fiber_edges

    cp = CantorProduct(fat_cantor(2), y_lo=0.0, y_hi=0.3, scale=0.3, offset=0.55 + 0.1j)
    K = fiber_edges(cp)
    edge_x = K.offset.real + K.scale * K.intervals[0, 0]
    on_edge = complex(edge_x, 0.55 * (K.offset.imag + K.scale * (K.y_lo + K.y_hi)))
    P = from_roots(1.0, (on_edge, on_edge + 0.02, 1.5))
    fp, cert = repair_nonvanishing(P, K, 1e-3)
    assert cert.perturbation_bound_value < 1e-3
    assert cert.min_modulus_lower_bound > 0
    for r in fp.roots:
        assert distance(K, r) > 0


def test_repair_infeasible_when_the_first_displacement_underflows():
    # budget / (2 * growth) rounds to 0 for the least subnormal budget
    with pytest.raises(BudgetInfeasible, match="even an infinitesimal move") as info:
        repair_nonvanishing(Polynomial((0, 1)), Segment(-1, 1), 5e-324)
    assert info.value.required_delta == 0.0


def test_repair_infeasible_when_no_displacement_resolves():
    # a root on the set at 1e6: the displacement budget / 2 is already below
    # the 4 ulp(1e6) that nearest_exterior can resolve there, and so is every
    # halving of it, so the repair stops at once and names that limit
    with pytest.raises(BudgetInfeasible, match="at or below the resolution 8.88178e-10") as info:
        repair_nonvanishing(Polynomial((-1e6, 1)), Segment(1e6 - 1, 1e6 + 1), 1e-10)
    assert info.value.required_delta == 5e-11


def test_repair_keeps_halving_where_a_smaller_displacement_resolves():
    # on the edge of a gap of 1e-9 every probe within delta = 5e-3 down to
    # its margin 5e-9 lands in the set, far above the resolution at the
    # root; a few halvings bring the margin into the gap
    K = CantorProduct(np.array([[0, 0.5], [0.5 + 1e-9, 1]]), 0, 1)
    with pytest.raises(ResolutionExhausted):
        nearest_exterior(K, 0.5 + 0.5j, 5e-3)
    fp, cert = repair_nonvanishing(Polynomial((-0.5 - 0.5j, 1)), K, 1e-2)
    assert 0.5 < fp.roots[0].real < 0.5 + 1e-9 and distance(K, fp.roots[0]) > 0
    assert 0 < cert.perturbation_bound_value < 1e-2
    # a root 1e-20 off the set, below the resolution: the halvings bring the
    # margin below its clearance, and it stays where it is
    fp, cert = repair_nonvanishing(Polynomial((-1e6 - 1e-20j, 1)), Segment(1e6 - 1, 1e6 + 1), 1e-10)
    assert fp.roots == (1e6 + 1e-20j,) and cert.moved_roots == ()


def test_repair_of_a_subnormal_polynomial_reaches_its_modulus_floor():
    # roots used to raise NoConvergence on the subnormal coefficients; the
    # root 0 now moves off the set, and the floor 5e-324 * clearance / 100
    # rounds to 0
    with pytest.raises(BudgetInfeasible, match="modulus certificate collapsed"):
        repair_nonvanishing(Polynomial((0, 5e-324), 0, 100), Segment(-10, 10), 1e-3)


def test_repair_infeasible_when_the_modulus_floor_underflows():
    # leading 1e-300 and 30 roots on the set, in a frame of scale 100: the
    # moved roots are within 2 of the set, so the certified floor
    # 1e-300 * prod(clearance / 100) rounds to 0
    P = Polynomial(from_roots(1e-300, np.linspace(-0.009, 0.009, 30)).coeffs, 0j, 100.0)
    with pytest.raises(BudgetInfeasible, match="modulus certificate collapsed") as info:
        repair_nonvanishing(P, Segment(-1, 1), 1e-3)
    assert info.value.required_delta > 0


def test_repair_idempotent():
    K = Segment(0.6, 0.9)
    fp, cert = repair_nonvanishing(from_roots(1.0, (0.7, 0.75, 0.8)), K, 1e-2)
    again, cert2 = repair_nonvanishing(from_roots(fp.leading, fp.roots), K, 1e-2)
    assert cert2.moved_roots == ()
    assert cert2.perturbation_bound_value == 0.0


def test_repair_budget_accounting_recomputable():
    rng = np.random.default_rng(21)
    for _ in range(25):
        K, P, budget = random_repair_case(rng)
        fp, cert = repair_nonvanishing(P, K, budget)
        old = original_roots(fp, cert)
        recomputed = perturbation_bound(fp.leading, old, fp.roots, bounding_radius(K))
        assert abs(recomputed - cert.perturbation_bound_value) <= 1e-12


def test_repair_framed_polynomial_certificate_on_centred_disk():
    # two roots on the arc and one clear of it, given in the frame variable
    # w = (z - 0.75) / 0.1 in which the arc is part of the unit circle
    c, rho = 0.75, 0.1
    P = Polynomial(from_roots(0.3, (np.exp(0.5j), np.exp(2.0j), 1.5 - 2j)).coeffs, c, rho)
    fp, cert = repair_nonvanishing(P, ARC, 1e-3)
    assert len(cert.moved_roots) == 2
    assert cert.perturbation_bound_value < 1e-3
    old = original_roots(fp, cert)
    R = bounding_radius(ARC, c)
    assert R == pytest.approx(rho)
    assert fp.leading == P.leading and fp.scale == rho
    assert perturbation_bound(fp.leading, old, fp.roots, R, c, rho) == cert.perturbation_bound_value

    rng = np.random.default_rng(22)
    zs = c + R * np.sqrt(rng.uniform(0, 1, 2000)) * np.exp(2j * math.pi * rng.uniform(0, 1, 2000))
    before = evaluate_factored(FactoredPolynomial(fp.leading, old, rho), zs)
    # the roots are in z: before the moves the factored form is P itself
    assert np.allclose(before, evaluate(P, zs), rtol=1e-9, atol=1e-12)
    assert float(np.max(np.abs(before - evaluate_factored(fp, zs)))) <= cert.perturbation_bound_value
    on_set = discretize(ARC, 1e-4).points
    assert float(np.min(np.abs(evaluate_factored(fp, on_set)))) >= cert.min_modulus_lower_bound > 0


@pytest.mark.parametrize("rho", [1e-6, 1e6])
def test_repair_keeps_leading_in_frame_for_extreme_scales(rho):
    # at degree 60, rho**60 underflows (1e-360) or overflows (1e360), so the
    # z-leading coefficient P.leading / rho**60 is not a double; the factored
    # form keeps P.leading and divides each factor by rho instead.  The small
    # leading coefficient offsets the telescoping growth (M / rho)**59 = 2.1**59,
    # so that the two roots on the set move by a resolvable distance.
    K = Segment(-rho, rho)
    frame_roots = (0.3, -0.2) + tuple(1.1 * np.exp(2j * math.pi * (np.arange(58) + 0.5) / 58))
    P = Polynomial(from_roots(1e-19, frame_roots).coeffs, 0j, rho)
    fp, cert = repair_nonvanishing(P, K, 1e-3)
    assert fp.leading == P.leading and fp.scale == rho
    assert len(cert.moved_roots) == 2
    assert cert.perturbation_bound_value < 1e-3
    old = original_roots(fp, cert)
    assert perturbation_bound(fp.leading, old, fp.roots, rho, 0j, rho) == cert.perturbation_bound_value

    rng = np.random.default_rng(23)
    zs = rho * np.sqrt(rng.uniform(0, 1, 2000)) * np.exp(2j * math.pi * rng.uniform(0, 1, 2000))
    before = evaluate_factored(FactoredPolynomial(fp.leading, old, rho), zs)
    assert np.allclose(before, evaluate(P, zs), rtol=1e-9, atol=1e-12 * float(np.max(np.abs(before))))
    assert float(np.max(np.abs(before - evaluate_factored(fp, zs)))) <= cert.perturbation_bound_value
    for before_root, after_root, _ in cert.moved_roots:
        assert abs(after_root - before_root) > 1e-6 * rho
    on_set = discretize(K, rho * 1e-4).points
    assert float(np.min(np.abs(evaluate_factored(fp, on_set)))) >= cert.min_modulus_lower_bound > 0


def test_repair_randomized_soundness():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        K, P, budget = random_repair_case(rng)
        fp, cert = repair_nonvanishing(P, K, budget)
        assert cert.perturbation_bound_value < budget
        assert cert.min_modulus_lower_bound > 0
        repair_round_trip_checks(K, P, budget, fp, cert, rng)


# ---------------------------------------------------------------- pipeline


def test_pipeline_identity_on_segment_through_zero():
    K = Segment(-0.1, 0.1)
    fp, fit, cert = approximate_nonvanishing(K, {"kind": "builtin", "name": "identity"}, 0.1)
    assert fit.sup_error_on_samples <= 1e-12
    assert len(cert.moved_roots) == 1
    total = fit.sup_error_on_samples + cert.perturbation_bound_value
    assert total <= 0.05 and total < 0.1
    assert cert.min_modulus_lower_bound > 0


def test_pipeline_zero_target_yields_small_nonzero_constant():
    K = Segment(-0.1, 0.1)
    fp, fit, cert = approximate_nonvanishing(
        K, {"kind": "builtin", "name": "constant", "value": [0.0, 0.0]}, 0.1
    )
    assert fp.roots == ()
    assert 0 < abs(fp.leading) < 0.1
    assert fit.sup_error_on_samples + cert.perturbation_bound_value < 0.1


def test_pipeline_arc_conj_feasible_eps():
    eps = 0.4
    fp, fit, cert = approximate_nonvanishing(ARC, {"kind": "builtin", "name": "conj"}, eps)
    total = fit.sup_error_on_samples + cert.perturbation_bound_value
    assert total < eps
    assert cert.min_modulus_lower_bound > 0
    audit = discretize(ARC, fit.grid_covering_radius / 10.0)
    values = evaluate_factored(fp, audit.points)
    assert float(np.max(np.abs(values - np.conj(audit.points)))) < eps
    assert float(np.min(np.abs(values))) >= cert.min_modulus_lower_bound


@pytest.mark.parametrize("K, name, gap", [(ARC, "conj", 2.2e-11), (Segment(-0.5, 0.5), "abs", 6.1e-8)])
def test_factored_form_of_a_fit_matches_it_on_the_audit_grid(K, name, gap):
    # the criterion-1 fit and the benchmark's |z| fit, which the repair
    # starts from; each bound is twice the gap an earlier root solver left
    # (1.1e-11 and 3.0e-8).  The companion eigenvalues with their one Newton
    # step, as ``roots`` finds them, leave 1.3e-11 and 5.7e-8; the bare
    # eigenvalues leave 1.9e-11 and miss the second bound (9.8e-8)
    fit = approximate(K, {"kind": "builtin", "name": name}, 5e-3, 60)
    P = fit.polynomial
    fp = FactoredPolynomial(P.leading, roots(P), P.scale)
    z = discretize(K, fit.grid_covering_radius / 10.0).points
    assert float(np.max(np.abs(evaluate(P, z) - evaluate_factored(fp, z)))) <= gap


def test_pipeline_arc_conj_tight_eps_is_out_of_reach():
    # eps = 1e-2 needs a fit below 5e-3, and Bernstein-Walsh puts every
    # polynomial of degree <= 30 at least 0.1 * sin(3 pi / 8)**31 = 8.59e-3
    # away from conj on this arc, so a degree cap of 30 ends in BudgetNotMet;
    # the best fit (1.2e-2) stays well below the monomial basis's 7e-2 stall
    with pytest.raises(BudgetNotMet) as excinfo:
        approximate_nonvanishing(ARC, {"kind": "builtin", "name": "conj"}, 1e-2, max_degree=30)
    assert 5e-3 < excinfo.value.best.sup_error_on_samples < 2e-2


def test_pipeline_soundness_when_successful():
    rng = np.random.default_rng(77)
    for name, K, eps in [
        ("identity", Segment(-0.2, 0.3 + 0.1j), 0.05),
        ("conj", Segment(0.6, 0.6 + 0.2j), 0.01),
        ("abs", Arc(0.75, 0.1, 0.0, 1.5 * math.pi), 0.3),
    ]:
        fp, fit, cert = approximate_nonvanishing(K, {"kind": "builtin", "name": name}, eps)
        assert fit.sup_error_on_samples + cert.perturbation_bound_value < eps
        assert cert.min_modulus_lower_bound > 0
        audit = discretize(K, max(fit.grid_covering_radius / 10.0, 1e-5))
        assert float(np.min(np.abs(evaluate_factored(fp, audit.points)))) >= cert.min_modulus_lower_bound
