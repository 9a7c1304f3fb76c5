import math

import numpy as np
import pytest

from striplab import (
    Arc,
    CantorProduct,
    PointSet,
    Polynomial,
    Segment,
    approximate,
    discretize,
    evaluate,
    fat_cantor,
    fiber_edges,
    lawson_refine,
    resolve_target,
)
from striplab.approximation import TargetFunction, _weighted_basis, set_frame
from striplab.errors import (
    BudgetExceeded,
    BudgetNotMet,
    InsufficientSamples,
    InvalidSpec,
    RankDeficient,
)

ARC = Arc(0.75, 0.1, 0.0, 1.5 * math.pi)

# frozen first-run regressions for conj(z) on the three-quarter arc
ARC_CONJ_BUDGET_02_DEGREE = 0
ARC_CONJ_BUDGET_02_SUP = 0.1003279528748108


def segment_grid(n, a=-1.0, b=1.0):
    seg = Segment(a, b)
    h = abs(b - a) / (2.0 * (n - 1))
    g = discretize(seg, h)
    assert len(g) == n
    return g


# ---------------------------------------------------------------- plain LS


def test_fit_identity_degree_one():
    g = segment_grid(20)
    fit = lawson_refine(g, resolve_target({"kind": "builtin", "name": "identity"}, g), 1, 0)
    assert fit.sup_error_on_samples <= 1e-12


def test_fit_constant_samples_degree_zero():
    g = segment_grid(10)
    c = 0.3 - 0.8j
    fit = lawson_refine(g, TargetFunction((c,) * len(g)), 0, 0)
    assert fit.sup_error_on_samples <= 1e-15
    assert fit.polynomial.coeffs[0] == pytest.approx(c, abs=1e-15)


def test_fit_conj_on_vertical_segment_is_affine():
    # on Re(z) = 0.6 the conjugate equals 1.2 - z
    seg = Segment(0.6, 0.6 + 0.2j)
    g = discretize(seg, 0.005)
    fit = lawson_refine(g, resolve_target({"kind": "builtin", "name": "conj"}, g), 1, 0)
    assert fit.sup_error_on_samples <= 1e-10
    assert fit.polynomial.coeffs[0] == pytest.approx(1.2, abs=1e-9)
    assert fit.polynomial.coeffs[1] == pytest.approx(-1.0, abs=1e-9)


def test_fit_requires_enough_samples():
    g = discretize(PointSet((0.1, 0.9)), 0.1)
    with pytest.raises(InsufficientSamples):
        lawson_refine(g, TargetFunction((0j, 0j)), 5, 0)


def test_fit_duplicate_points_rank_deficient():
    g = discretize(PointSet((0.5, 0.5, 0.5)), 0.1)
    with pytest.raises(RankDeficient):
        lawson_refine(g, TargetFunction((1j, 1j, 1j)), 2, 0)


def mgs2_basis(z, w, degree):
    # reference: the same basis by modified Gram-Schmidt, one vector at a
    # time, with one reorthogonalization pass
    Q = np.zeros((len(z), degree + 1), dtype=complex)
    P = np.zeros((degree + 1, degree + 1), dtype=complex)
    Q[:, 0] = P[0, 0] = 1.0 / math.sqrt(w.sum())
    for k in range(1, degree + 1):
        q = z * Q[:, k - 1]
        pk = np.concatenate([[0j], P[:-1, k - 1]])
        for _ in range(2):
            for j in range(k):
                h = np.sum(w * np.conj(Q[:, j]) * q)
                q = q - h * Q[:, j]
                pk = pk - h * P[:, j]
        hn = math.sqrt(np.sum(w * np.abs(q) ** 2))
        Q[:, k], P[:, k] = q / hn, pk / hn
    return Q, P


def test_weighted_basis_orthonormal_under_lawson_weights():
    # degree 60 on the criterion-1 arc in its frame variable, with weights
    # spread over 14 decades like Lawson's floored ones: a single classical
    # Gram-Schmidt pass leaves 1e-12 to 2e-11 here, so the bound needs both
    g = discretize(ARC, 1e-3)
    c, rho = set_frame(ARC)
    rng = np.random.default_rng(2005)
    w = 10.0 ** rng.uniform(-14, 0, len(g))
    w /= w.sum()
    zeta = (g.points - c) / rho
    Q, P = _weighted_basis(zeta, w, 60)
    gram = Q.conj().T @ (w[:, None] * Q)
    assert np.max(np.abs(gram - np.eye(61))) <= 1e-14
    # Gram-Schmidt with a positive diagonal determines the basis, so the
    # one-vector-at-a-time loop gives it too, up to rounding (found 1e-14)
    Q_ref, P_ref = mgs2_basis(zeta, w, 60)
    assert np.max(np.abs(Q - Q_ref)) <= 1e-12 * np.max(np.abs(Q_ref))
    assert np.max(np.abs(P - P_ref)) <= 1e-12 * np.max(np.abs(P_ref))


def test_weighted_basis_rank_deficient_past_the_distinct_points():
    # three distinct points carry no fourth basis polynomial (lawson_refine
    # stops this case earlier with InsufficientSamples)
    with pytest.raises(RankDeficient):
        _weighted_basis(np.array([-0.5, 0.1j, 0.9]), np.full(3, 1.0 / 3), 3)


def test_fit_result_sup_is_recomputable():
    g = discretize(ARC, 0.005)
    target = resolve_target({"kind": "builtin", "name": "abs"}, g)
    fit = lawson_refine(g, target, 6, 0)
    resid = np.abs(evaluate(fit.polynomial, g.points) - np.array(target.samples))
    assert fit.sup_error_on_samples == pytest.approx(float(resid.max()), rel=0, abs=0)


# ---------------------------------------------------------------- lawson


def test_lawson_exact_target_one_iteration():
    g = segment_grid(25)
    target = resolve_target({"kind": "builtin", "name": "identity"}, g)
    ls = lawson_refine(g, target, 1, 0)
    lw = lawson_refine(g, target, 1, 10)
    assert lw.iterations == 1
    assert lw.sup_error_on_samples == ls.sup_error_on_samples
    assert lw.polynomial.coeffs == ls.polynomial.coeffs


def test_lawson_never_worse_than_plain_ls():
    g = discretize(ARC, 0.005)
    target = resolve_target({"kind": "builtin", "name": "abs"}, g)
    ls = lawson_refine(g, target, 8, 0)
    lw = lawson_refine(g, target, 8, 10)
    assert lw.sup_error_on_samples <= ls.sup_error_on_samples


def test_lawson_zero_iters_is_plain_ls():
    # with no reweighting the fit is the discrete least-squares solution,
    # checked against numpy's lstsq on the monomial basis
    g = discretize(ARC, 0.01)
    target = resolve_target({"kind": "builtin", "name": "conj"}, g)
    lw = lawson_refine(g, target, 4, 0)
    ls_coeffs = np.linalg.lstsq(np.vander(g.points, 5, increasing=True), target.samples, rcond=None)[0]
    assert np.max(np.abs(np.array(lw.polynomial.coeffs) - ls_coeffs)) <= 1e-10 * np.max(np.abs(ls_coeffs))
    assert lw.iterations == 1


# ---------------------------------------------------------------- escalation


def test_approximate_identity_immediate():
    fit = approximate(Segment(-0.5, 0.5 + 0.2j), {"kind": "builtin", "name": "identity"}, 1e-6, 10)
    assert fit.degree_used == 1
    assert fit.sup_error_on_samples < 1e-6


def test_approximate_conj_vertical_degree_one():
    fit = approximate(Segment(0.6, 0.6 + 0.2j), {"kind": "builtin", "name": "conj"}, 1e-6, 10)
    assert fit.degree_used <= 1
    assert fit.sup_error_on_samples < 1e-6


def test_approximate_arc_feasible_budget_regression():
    fit = approximate(ARC, {"kind": "builtin", "name": "conj"}, 0.2, 40)
    assert fit.degree_used == ARC_CONJ_BUDGET_02_DEGREE
    assert fit.sup_error_on_samples == pytest.approx(ARC_CONJ_BUDGET_02_SUP, rel=1e-6)
    assert fit.sup_error_on_samples < 0.2


def test_approximate_arc_tight_budget_not_met():
    # on the arc conj(z) = 0.75 + 0.1 / zeta with zeta = (z - 0.75) / 0.1, and
    # Bernstein-Walsh applied to zeta * Q(zeta) - 1 shows that no polynomial
    # of degree n gets closer than 0.1 * sin(3 pi / 8)**(n + 1) on the arc
    # (3.89e-3 at degree 40), so the 1e-3 budget cannot be met up to degree
    # 40; the best attempt rides along with the error.  The bound is for the
    # continuous sup on the arc; the sample sup can only be smaller, and it
    # clears the bound here by its margin (5.5e-3 against 3.89e-3).  The
    # upper check is what the centred frame delivers: the monomial basis in
    # z stalled near 7e-2.
    with pytest.raises(BudgetNotMet) as excinfo:
        approximate(ARC, {"kind": "builtin", "name": "conj"}, 1e-3, 40)
    best = excinfo.value.best
    floor = 0.1 * math.sin(3.0 * math.pi / 8.0) ** (best.degree_used + 1)
    assert best.sup_error_on_samples >= floor
    assert best.sup_error_on_samples > 1e-3
    assert best.sup_error_on_samples < 1e-2


def test_approximate_fits_in_the_set_frame():
    fit = approximate(ARC, {"kind": "builtin", "name": "conj"}, 0.2, 40)
    assert fit.polynomial.center == 0.75
    assert fit.polynomial.scale == pytest.approx(0.1)


def test_approximate_monotone_in_max_degree():
    def best_sup(cap):
        try:
            return approximate(ARC, {"kind": "builtin", "name": "abs"}, 1e-9, cap).sup_error_on_samples
        except BudgetNotMet as exc:
            return exc.best.sup_error_on_samples

    sups = [best_sup(cap) for cap in (2, 4, 8)]
    assert sups[1] <= sups[0] + 1e-15
    assert sups[2] <= sups[1] + 1e-15


def test_approximate_refits_when_derivative_bound_invalidates_grid():
    # |p'| = 20 makes L_P * h = 2e-2 on the budget-tied grid (h = 1e-3), above
    # the 1e-2 budget, so the fit is redone on the grid h = budget / (10 L_P)
    # (without the re-fit the radius stays 1e-3).  L_P is 20 up to rounding,
    # and a last-bit change of L_P can put h on either side of 5e-5: just
    # under it, ``discretize`` adds one sample and the radius is 1/20002
    fit = approximate(Segment(-0.5, 0.5), lambda z: 20 * z, 1e-2)
    assert fit.degree_used == 1
    assert 1 / 20002 <= fit.grid_covering_radius <= 5e-5


def test_approximate_relaxes_grid_down_to_fewest_samples():
    # the edge skeleton at depth 12 has 8192 vertical edges; at its fewest
    # samples (two per edge) it fits under the 20 000-sample grid cap
    K = fiber_edges(CantorProduct(fat_cantor(12), 0.0, 0.1, 0.4, 0.55))
    fit = approximate(K, {"kind": "builtin", "name": "identity"}, 1e-2)
    assert fit.degree_used == 1
    assert fit.sup_error_on_samples < 1e-2


def test_approximate_raises_when_fewest_samples_exceed_cap():
    # at depth 13 even two samples per edge are 32 768 > 20 000
    K = fiber_edges(CantorProduct(fat_cantor(13), 0.0, 0.1, 0.4, 0.55))
    with pytest.raises(BudgetExceeded):
        approximate(K, {"kind": "builtin", "name": "identity"}, 1e-2)


def test_approximate_rejects_bad_budget():
    with pytest.raises(InvalidSpec):
        approximate(ARC, {"kind": "builtin", "name": "conj"}, 0.0, 10)


def test_polynomial_targets_recovered_exactly():
    rng = np.random.default_rng(31415)
    for _ in range(200):
        d = int(rng.integers(0, 11))
        coeffs = rng.uniform(-1, 1, d + 1) + 1j * rng.uniform(-1, 1, d + 1)
        r = np.hypot(coeffs.real, coeffs.imag)
        coeffs[r > 1] /= r[r > 1]  # keep coefficients in the unit disk
        p = Polynomial(tuple(coeffs))
        g = segment_grid(max(4 * d, 4))
        target = TargetFunction(tuple(evaluate(p, g.points)))
        fit = lawson_refine(g, target, d, 0)
        assert fit.sup_error_on_samples <= 1e-10


def test_target_resolution_errors():
    g = segment_grid(5)
    with pytest.raises(InvalidSpec):
        resolve_target({"kind": "builtin", "name": "nope"}, g)
    with pytest.raises(InvalidSpec):
        resolve_target({"kind": "samples", "values": [[0, 0]]}, g)
    with pytest.raises(InvalidSpec):
        resolve_target(object(), g)
    with pytest.raises(InvalidSpec):
        TargetFunction((float("nan") + 0j,))
