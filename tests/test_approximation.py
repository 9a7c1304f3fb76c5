import cmath
import json
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from striplab import (
    Arc,
    CantorProduct,
    FitResult,
    PointSet,
    Polynomial,
    Segment,
    approximate,
    derivative_bound,
    discretize,
    evaluate,
    fat_cantor,
    fiber_edges,
    lawson_refine,
    resolve_target,
)
from striplab import approximation
from striplab.approximation import TargetFunction, _gram_fit, _weighted_basis, set_frame
from striplab.errors import BudgetExceeded, BudgetNotMet, InvalidSpec
from striplab.polynomial import _axis_coordinate

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
    with pytest.raises(InvalidSpec, match="degree 5 needs at least 6 samples"):
        lawson_refine(g, TargetFunction((0j, 0j)), 5, 0)


def test_fit_duplicate_points_rank_deficient():
    g = discretize(PointSet((0.5, 0.5, 0.5)), 0.1)
    with pytest.raises(InvalidSpec, match="orthogonalization collapsed at degree 1"):
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


BASIS_GRIDS = [
    (ARC, 5e-4),  # criterion 1's grid
    (Segment(-1.0, 1.0), 1e-3),  # a real basis
    (CantorProduct(fat_cantor(2), 0.0, 0.1, 0.4, 0.55), 0.01),
    (Segment(0.75, 0.75 + 1j), 1e-3),  # a real basis, zeta = i y
    (Segment(-1.0 - 1.0j, 1.0 + 1.0j), 1e-3),
]


def search_basis_points(K, h):
    # the points the degree search builds its basis on, and the weights
    g = discretize(K, h)
    c, rho = set_frame(K)
    zeta = (g.points - c) / rho
    y, _ = _axis_coordinate(zeta) or (zeta, 1)
    return y, np.full(len(g), 1.0 / len(g))


@pytest.mark.parametrize("K, h", BASIS_GRIDS)
def test_weighted_basis_leading_columns_are_the_lower_degree_build(K, h):
    # the degree search fits lower degrees in the leading columns of the
    # basis it holds; a search of full attempts, which builds at every
    # degree, must give the same fits bit for bit
    y, w = search_basis_points(K, h)
    Q, P = _weighted_basis(y, w, 60)
    for d in range(60):
        Qd, Pd = _weighted_basis(y, w, d)
        assert np.array_equal(Q[:, : d + 1], Qd)
        assert np.array_equal(P[: d + 1, : d + 1], Pd)


@pytest.mark.parametrize("K, h", BASIS_GRIDS)
def test_weighted_basis_grown_from_a_held_build_is_the_fresh_build(K, h):
    # the degree search grows the basis it holds through 1, 2, 4, ... 60;
    # every step must equal a fresh build at that degree bit for bit
    y, w = search_basis_points(K, h)
    held = _weighted_basis(y, w, 1)
    for d in (2, 4, 8, 16, 32, 60):
        held = _weighted_basis(y, w, d, held)
        fresh = _weighted_basis(y, w, d)
        assert held[0].dtype == y.dtype
        assert np.array_equal(held[0], fresh[0])
        assert np.array_equal(held[1], fresh[1])


def test_degree_search_orthogonalizes_each_column_once(monkeypatch):
    # |z| on [-1/2, 1/2] at 5e-3 climbs to degree 32, then bisects to 30:
    # the basis grows 1 -> 2 -> 4 -> ... -> 32, and no column is built twice
    builds = []
    build = approximation._weighted_basis

    def spy(z, w, degree, held=None):
        builds.append((len(z), 1 if held is None else held[0].shape[1], degree))
        return build(z, w, degree, held)

    monkeypatch.setattr(approximation, "_weighted_basis", spy)
    fit = approximate(Segment(-0.5, 0.5), {"kind": "builtin", "name": "abs"}, 5e-3)
    assert fit.degree_used == 30
    for n in {n for n, _, _ in builds}:
        ranges = [(first, last) for m, first, last in builds if m == n]
        # columns first..last are orthogonalized, each range starting where
        # the last one ended
        assert ranges[0][0] == 1
        assert all(b[0] == a[1] + 1 for a, b in zip(ranges, ranges[1:]))
    assert builds[-1][2] == 32


def lawson_weights(Q, f, steps):
    # the weights of `steps` Lawson reweightings, floored as lawson_refine does
    w = np.full(len(f), 1.0 / len(f))
    for _ in range(steps):
        w = w * np.abs(f - Q @ _gram_fit(Q, w, f))
        w = np.maximum(w / w.sum(), approximation._LAWSON_WEIGHT_FLOOR)
        w /= w.sum()
    return w


@pytest.mark.parametrize("weights", ["lawson", "random"])
def test_gram_fit_matches_the_fit_in_a_weighted_basis(weights):
    # degree 60 on the criterion-1 arc: the Gram solve in the uniform-weight
    # basis against the fit in a basis orthonormal for the weights
    # themselves, built one vector at a time, under ten Lawson steps'
    # weights for conj(z) and under weights spread over 14 decades
    # (cond(W^(1/2) Q) 4 and 670).  Found: values 1e-15 and 5e-14 of max|f|,
    # monomial coefficients 6e-14 and 2e-13 of the largest
    g = discretize(ARC, 1e-3)
    c, rho = set_frame(ARC)
    zeta = (g.points - c) / rho
    f = np.conj(g.points)
    n = len(g)
    Q, P = _weighted_basis(zeta, np.full(n, 1.0 / n), 60)
    if weights == "lawson":
        w = lawson_weights(Q, f, 10)
    else:
        w = 10.0 ** np.random.default_rng(2005).uniform(-14, 0, n)
        w /= w.sum()
    a = _gram_fit(Q, w, f)
    Q_ref, P_ref = mgs2_basis(zeta, w, 60)
    a_ref = Q_ref.conj().T @ (w * f)
    assert np.max(np.abs(Q @ a - Q_ref @ a_ref)) <= 1e-12 * np.max(np.abs(f))
    coeffs_ref = P_ref @ a_ref
    assert np.max(np.abs(P @ a - coeffs_ref)) <= 1e-12 * np.max(np.abs(coeffs_ref))
    residual = math.sqrt(np.sum(w * np.abs(f - Q @ a) ** 2))
    assert residual == pytest.approx(math.sqrt(np.sum(w * np.abs(f - Q_ref @ a_ref) ** 2)), rel=1e-12)


def test_gram_fit_weights_each_column_as_the_broadcast_does():
    # a real basis with the real and imaginary parts of a target as two
    # right-hand sides: the contiguous weight array makes the products of
    # the broadcast w[:, None], so the coefficients are the same floats
    x = discretize(Segment(-0.5, 0.5), 1e-3).points.real
    n = len(x)
    Q, _ = _weighted_basis(x, np.full(n, 1.0 / n), 30)
    f = (np.abs(x) + 1j * np.sin(8.0 * x)).view(float).reshape(n, 2)
    w = 10.0 ** np.random.default_rng(2021).uniform(-10, 0, n)
    w /= w.sum()

    def broadcast_fit(Q, w, f):
        G = Q.T @ (w[:, None] * Q)
        a = np.linalg.solve(G, Q.T @ (w[:, None] * f))
        return a + np.linalg.solve(G, Q.T @ (w[:, None] * (f - Q @ a)))

    for weights in (np.full(n, 1.0 / n), w):
        assert np.array_equal(_gram_fit(Q, weights, f), broadcast_fit(Q, weights, f))


def test_weighted_basis_rank_deficient_past_the_distinct_points():
    # three distinct points carry no fourth basis polynomial (lawson_refine
    # stops this case earlier with its sample-count check)
    with pytest.raises(InvalidSpec, match="orthogonalization collapsed at degree 3"):
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


def discrete_minimax(x, f, degree):
    """E*_d = min over real polynomials p of degree <= d of max_i |f_i - p(x_i)|,
    as a linear program in the Chebyshev coefficients and the level e:
    minimise e subject to -e <= f_i - p(x_i) <= e.  Returns the recomputed sup
    error of the optimal polynomial, which bounds E*_d from above."""
    from scipy.optimize import linprog

    V = np.polynomial.chebyshev.chebvander(x, degree)
    ones = np.ones((len(x), 1))
    res = linprog(
        np.r_[np.zeros(degree + 1), 1.0],
        A_ub=np.block([[V, -ones], [-V, -ones]]),
        b_ub=np.r_[f, -f],
        bounds=[(None, None)] * (degree + 1) + [(0, None)],
        method="highs",
    )
    assert res.status == 0
    return float(np.max(np.abs(f - V @ res.x[:-1])))


@pytest.mark.parametrize(
    "fn", [pytest.param(np.abs, id="abs"), pytest.param(lambda x: np.sin(8 * x), id="sin8x")]
)
@pytest.mark.parametrize("degree", [2, 4, 8])
def test_lawson_lower_bound_against_the_discrete_minimax(fn, degree):
    # for real samples on a real segment the best complex polynomial is no
    # better than its real part, so the real LP gives the minimax error E*_d
    g = segment_grid(201)
    x = g.points.real
    f = fn(x)
    target = TargetFunction(f)
    e_star = discrete_minimax(x, f, degree)
    # any weights summing to 1: the weighted LS residual is at most E*_d,
    # here of the Gram solve the fits make in the uniform-weight basis
    rng = np.random.default_rng(1961 + degree)
    Q, _ = _weighted_basis(g.points, np.full(len(x), 1.0 / len(x)), degree)
    for _ in range(10):
        w = 10.0 ** rng.uniform(-14, 0, len(x))
        w /= w.sum()
        a = _gram_fit(Q, w, f)
        assert math.sqrt(np.sum(w * np.abs(f - Q @ a) ** 2)) <= e_star
    # every polynomial's sup error is at least E*_d, Lawson's best included
    fit = lawson_refine(g, target, degree)
    assert fit.iterations == 11
    assert e_star <= fit.sup_error_on_samples
    # below E*_d no iterate can meet the budget, and the residual says so early
    budget = 0.9 * e_star
    stopped = lawson_refine(g, target, degree, budget=budget)
    assert stopped.iterations < 11
    assert stopped.sup_error_on_samples >= budget


def test_lawson_with_a_budget_stops_at_the_first_iterate_below_it():
    g = discretize(ARC, 0.005)
    target = resolve_target({"kind": "builtin", "name": "abs"}, g)
    full = lawson_refine(g, target, 8)
    # any budget above the plain fit's sup error is met by the first fit
    first = lawson_refine(g, target, 8, 0)
    met = lawson_refine(g, target, 8, budget=first.sup_error_on_samples * 1.01)
    assert met.iterations == 1
    assert met == first
    # a budget the full loop only just meets is met at the full loop's best
    met = lawson_refine(g, target, 8, budget=full.sup_error_on_samples * (1 + 1e-12))
    assert met.sup_error_on_samples == full.sup_error_on_samples


def _counting_fits(monkeypatch):
    # the number of _gram_fit calls so far, one per Lawson fit
    gram_fit = approximation._gram_fit
    count = [0]

    def counted(*args):
        count[0] += 1
        return gram_fit(*args)

    monkeypatch.setattr(approximation, "_gram_fit", counted)
    return count


@pytest.mark.parametrize("budget_scale", [1.5, 1.01, 0.9])
def test_a_continued_lawson_run_makes_only_the_fits_left(monkeypatch, budget_scale):
    # a budgeted run of k fits, met (1.5, 1.01) or refused by its residual
    # (0.9), continued without the budget: 11 - k more fits, and the fit of
    # the full loop, bit for bit
    g = discretize(ARC, 0.005)
    target = resolve_target({"kind": "builtin", "name": "abs"}, g)
    full = lawson_refine(g, target, 8)
    count = _counting_fits(monkeypatch)
    state = {}
    stopped = lawson_refine(g, target, 8, budget=full.sup_error_on_samples * budget_scale, _state=state)
    k = stopped.iterations
    assert count[0] == k < 11
    assert lawson_refine(g, target, 8, _state=state) == full
    assert count[0] == 11 == full.iterations
    # a run already at its end makes no fit more
    assert lawson_refine(g, target, 8, _state=state) == full
    assert count[0] == 11


def _attempts(monkeypatch):
    # (budget, fit) of each lawson_refine call the degree search makes
    refine = approximation.lawson_refine
    calls = []

    def recorded(*args, **kwargs):
        fit = refine(*args, **kwargs)
        calls.append((kwargs.get("budget"), fit))
        return fit

    monkeypatch.setattr(approximation, "lawson_refine", recorded)
    return calls


def test_the_chosen_degree_continues_its_attempt(monkeypatch):
    # sin 8z to 1e-2 on [-1/2, 1/2]: the last call, without a budget,
    # continues the met attempt of k fits with 11 - k fits, so the search
    # makes each attempt's fits once
    count = _counting_fits(monkeypatch)
    calls = _attempts(monkeypatch)
    fit = approximate(Segment(-0.5, 0.5), _sin8, 1e-2)
    attempts, (budget, final) = calls[:-1], calls[-1]
    assert budget is None and final is fit and fit.iterations == 11
    met = [a for b, a in attempts if a.degree_used == fit.degree_used]
    assert len(met) == 1 and met[0].iterations < 11
    assert count[0] == sum(a.iterations for _, a in attempts) + 11 - met[0].iterations


def test_a_search_that_fails_at_the_cap_continues_each_attempt(monkeypatch):
    # |z| to 1e-4 with degree cap 12: attempts at 1, 2, 4, 8 and 12 all
    # fail; each that stopped early is continued once, without a budget, to
    # the full loop's fit, and no fit is made twice
    count = _counting_fits(monkeypatch)
    calls = _attempts(monkeypatch)
    with pytest.raises(BudgetNotMet) as excinfo:
        approximate(Segment(-0.5, 0.5), {"kind": "builtin", "name": "abs"}, 1e-4, 12)
    attempts = [a for b, a in calls if b is not None]
    continued = [a for b, a in calls if b is None]
    assert [a.degree_used for a in attempts] == [1, 2, 4, 8, 12]
    stopped = [a for a in attempts if a.iterations < 11]
    assert stopped and [a.degree_used for a in continued] == [a.degree_used for a in stopped]
    assert all(a.iterations == 11 for a in continued)
    full = {a.degree_used: a for a in attempts + continued if a.iterations == 11}
    assert count[0] == sum(a.iterations for a in full.values())
    assert excinfo.value.best == min(full.values(), key=lambda a: a.sup_error_on_samples)


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


def _recorded_search(monkeypatch, sups, max_degree, budget=0.5):
    """Degrees `approximate` tries with the budget, in order, with
    lawson_refine stubbed to the sup error sups(d) and a zero polynomial (no
    derivative re-fit); returns (degrees, fit or BudgetNotMet, full) with
    full the fits of the calls made without a budget.  The stub takes the
    private keywords the search passes (its shared basis) and ignores them."""
    degrees, full = [], []

    def stub(grid, target, d, iters, center, scale, *, budget=None, **private):
        fit = FitResult(Polynomial((0j,), center, scale), sups(d), d, 1, grid.covering_radius)
        if budget is None:
            full.append(fit)
        else:
            degrees.append(d)
        return fit

    monkeypatch.setattr(approximation, "lawson_refine", stub)
    try:
        # a 101-sample grid, so that no cap below is cut by the sample count
        out = approximate(Segment(-1.0, 1.0), {"kind": "builtin", "name": "abs"}, budget, max_degree)
    except BudgetNotMet as exc:
        out = exc
    return degrees, out, full


def _from_full_call(fit, full):
    return any(fit is f for f in full)


@pytest.mark.parametrize(
    "cap, expected",
    [(0, [0]), (1, [1]), (5, [1, 2, 4, 5]), (8, [1, 2, 4, 8]), (60, [1, 2, 4, 8, 16, 32, 60])],
)
def test_degree_search_order_when_never_met(monkeypatch, cap, expected):
    degrees, out, full = _recorded_search(monkeypatch, lambda d: 1.0, cap)
    assert degrees == expected
    assert isinstance(out, BudgetNotMet)
    assert _from_full_call(out.best, full)


def test_degree_search_bisects_to_the_least_sufficient_degree(monkeypatch):
    degrees, fit, full = _recorded_search(monkeypatch, lambda d: 0.1 if d >= 3 else 1.0, 60)
    assert degrees == [1, 2, 4, 3]
    assert fit.degree_used == 3
    assert _from_full_call(fit, full)


def test_degree_search_best_failure_is_earliest_on_a_tie(monkeypatch):
    sups = {1: 0.9, 2: 0.8, 4: 0.8, 5: 0.85}
    degrees, out, full = _recorded_search(monkeypatch, sups.get, 5)
    assert degrees == [1, 2, 4, 5]
    assert out.best.degree_used == 2
    assert _from_full_call(out.best, full)


def _full_search(grid, target, budget, max_degree, center, scale):
    # reference degree search: the same doubling and bisection, with full
    # Lawson at every degree it tries
    cap = min(max_degree, len(grid) - 1)
    fits = {}

    def met(d):
        fits[d] = lawson_refine(grid, target, d, approximation._LAWSON_ITERS, center, scale)
        return fits[d].sup_error_on_samples < budget

    d, lo = 1, -1
    while lo < cap:
        d = min(d, cap)
        if met(d):
            break
        lo, d = d, 2 * d
    if lo == cap:
        return min(fits.values(), key=lambda fit: fit.sup_error_on_samples), False
    hi = d
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if met(mid):
            hi = mid
        else:
            lo = mid
    return fits[hi], True


@pytest.mark.parametrize(
    "K, spec, budget, max_degree",
    [
        (ARC, {"kind": "builtin", "name": "conj"}, 5e-3, 60),  # criterion 1's fit
        (Segment(-0.5, 0.5), {"kind": "builtin", "name": "abs"}, 2e-2, 60),
        (Segment(-0.5, 0.5), lambda z: np.sin(8 * z), 1e-2, 60),
        (Segment(-0.5, 0.5), {"kind": "builtin", "name": "abs"}, 1e-4, 12),  # BudgetNotMet
        # the fits of the approx benchmark's cos 6z and zeta problems
        (Segment(-1.0, 1.0), lambda z: np.cos(6.0 * z), 5e-4, 60),
        (Segment(0.75, 0.75 + 1j), {"kind": "zeta"}, 5e-4, 60),
        (Segment(0.6, 0.9), {"kind": "zeta"}, 1e-3, 60),
    ],
)
def test_degree_search_returns_the_fit_of_a_search_of_full_attempts(monkeypatch, K, spec, budget, max_degree):
    def search():
        try:
            return approximate(K, spec, budget, max_degree), True
        except BudgetNotMet as exc:
            return exc.best, False

    out = search()
    monkeypatch.setattr(approximation, "_escalate", _full_search)
    assert search() == out


# ---------------------------------------------------------------- sets on a line


def _wave(z):
    return np.exp(1j * z) * np.sin(4.0 * z)


LINE_SETS = [
    pytest.param(Segment(0.2 + 0.3j, 0.9 + 0.3j), 1, id="horizontal segment"),
    pytest.param(Segment(0.75, 0.75 + 1j), 1j, id="vertical segment"),
    pytest.param(PointSet(tuple(complex(x, -0.2) for x in np.linspace(-1.0, 2.0, 61))), 1, id="horizontal points"),
    pytest.param(PointSet(tuple(complex(0.6, y) for y in np.linspace(0.0, 3.0, 61))), 1j, id="vertical points"),
    pytest.param(CantorProduct(fat_cantor(2), 0.5, 0.5, 0.4, 0.55), 1, id="cantor row"),
]


@pytest.mark.parametrize("K, unit", LINE_SETS)
def test_a_set_on_a_line_is_fitted_on_a_real_basis(monkeypatch, K, unit):
    # the real basis of the line coordinate gives the complex basis's fits
    # up to rounding: the same degree and fits, sup errors to rel 1e-8
    c, rho = set_frame(K)
    g = discretize(K, 2e-3)
    y, u = _axis_coordinate((g.points - c) / rho)
    assert y.dtype == np.float64 and u == unit
    # sampled point by point: numpy's complex array products round apart
    # from its scalar ones, and on the vertical points the degree-24 fits,
    # at the rounding floor, read 2.3e-12 (real) against 5.3e-13 (complex)
    # from one array call where these samples give 1.9e-12 and 1.8e-12
    target = TargetFunction([complex(_wave(z)) for z in g.points])
    n = len(g)
    for d in (1, 6, 12, 24):
        fit = lawson_refine(g, target, d, center=c, scale=rho)
        complex_basis = (*_weighted_basis((g.points - c) / rho, np.full(n, 1.0 / n), d), 1)
        ref = lawson_refine(g, target, d, center=c, scale=rho, _basis=complex_basis)
        assert fit.iterations == ref.iterations
        assert fit.sup_error_on_samples == pytest.approx(ref.sup_error_on_samples, rel=1e-8)
    budget = 1e-8
    fit = approximate(K, _wave, budget, 40)
    assert fit.sup_error_on_samples < budget
    # the whole search on the complex basis
    monkeypatch.setattr(approximation, "_axis_coordinate", lambda zeta: None)
    ref = approximate(K, _wave, budget, 40)
    assert (fit.degree_used, fit.iterations) == (ref.degree_used, ref.iterations)
    assert fit.sup_error_on_samples == pytest.approx(ref.sup_error_on_samples, rel=1e-8)
    # on a 10x finer grid the fit keeps its between-samples statement
    audit = discretize(K, max(fit.grid_covering_radius / 10.0, 1e-5))
    audit_err = float(np.max(np.abs(evaluate(fit.polynomial, audit.points) - _wave(audit.points))))
    slack = derivative_bound(fit.polynomial, rho, c) * fit.grid_covering_radius
    assert audit_err <= fit.sup_error_on_samples + slack


@pytest.mark.parametrize(
    "K", [pytest.param(Segment(-0.5 - 0.5j, 0.5 + 0.5j), id="45 degrees"), pytest.param(ARC, id="arc")]
)
def test_a_set_off_the_axes_keeps_the_complex_basis(K):
    c, rho = set_frame(K)
    zeta = (discretize(K, 0.01).points - c) / rho
    assert _axis_coordinate(zeta) is None


def test_approximate_rejects_negative_max_degree():
    with pytest.raises(InvalidSpec, match="max_degree"):
        approximate(ARC, {"kind": "builtin", "name": "conj"}, 0.1, -1)


@pytest.mark.parametrize("max_degree", [math.nan, 2.5, "3"])
def test_approximate_rejects_a_max_degree_that_is_not_an_integer(max_degree):
    with pytest.raises(InvalidSpec, match="max_degree"):
        approximate(Segment(-0.5, 0.5), {"kind": "builtin", "name": "abs"}, 1e-2, max_degree)


@pytest.mark.parametrize(
    "arg, value",
    [
        ("degree", 2.5),
        ("degree", -1),
        ("max_iters", 2.5),
        ("max_iters", -1),
        ("center", complex(math.nan, 0.0)),
        ("center", math.inf),
        ("scale", 0.0),
        ("scale", -1.0),
        ("scale", math.nan),
        ("scale", math.inf),
        ("budget", 0.0),
        ("budget", -1.0),
        ("budget", math.nan),
        ("budget", math.inf),
    ],
)
def test_lawson_refine_rejects_bad_arguments(arg, value):
    g = segment_grid(20)
    target = resolve_target({"kind": "builtin", "name": "abs"}, g)
    with pytest.raises(InvalidSpec, match=arg):
        lawson_refine(g, target, **{"degree": 2, arg: value})


def test_fit_counts_accept_numpy_integers():
    g = segment_grid(20)
    target = resolve_target({"kind": "builtin", "name": "abs"}, g)
    fit = lawson_refine(g, target, np.int64(2), np.int64(3))
    assert fit == lawson_refine(g, target, 2, 3)
    fit = approximate(Segment(-0.5, 0.5), {"kind": "builtin", "name": "identity"}, 1e-6, np.int64(4))
    assert fit.degree_used == 1


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
    for budget in (0.0, math.inf):
        with pytest.raises(InvalidSpec):
            approximate(ARC, {"kind": "builtin", "name": "conj"}, budget, 10)


@pytest.mark.parametrize("K, name", [(ARC, "conj"), (Segment(0.75, 0.75 + 1j), "abs")])
def test_approximate_subnormal_budget_is_not_met(K, name):
    # at h = budget / 10 = 1e-321 the sample count overflows; the grid is
    # relaxed as past the cap, and the search carries its best attempt
    with pytest.raises(BudgetNotMet) as excinfo:
        approximate(K, {"kind": "builtin", "name": name}, 1e-320, 2)
    assert excinfo.value.best.sup_error_on_samples > 1e-320


def test_approximate_set_too_wide_to_sample_is_invalid_spec():
    # the length overflows at every spacing, so relaxing the grid cannot help
    with pytest.raises(InvalidSpec, match="overflows"):
        approximate(Segment(-1e308, 1e308), {"kind": "builtin", "name": "abs"}, 1e-2)


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


# ---------------------------------------------------------------- residuals


def _same_bits(a, b):
    return a.dtype == b.dtype and np.array_equal(a.view(np.int64), b.view(np.int64))


RESIDUAL_SETS = [
    pytest.param(Segment(0.2 + 0.3j, 0.9 + 0.3j), 1, id="horizontal segment"),
    pytest.param(Segment(0.75, 0.75 + 1j), 1j, id="vertical segment"),
    pytest.param(ARC, None, id="arc"),
]
RESIDUAL_TARGETS = [
    pytest.param({"kind": "builtin", "name": "abs"}, True, id="real target"),
    pytest.param(_wave, False, id="complex target"),
]


@pytest.mark.parametrize("spec, real_target", RESIDUAL_TARGETS)
@pytest.mark.parametrize("K, unit", RESIDUAL_SETS)
def test_every_iterates_residual_is_the_evaluate_residual(monkeypatch, K, unit, spec, real_target):
    # each Lawson iterate's |p(z_i) - f_i|, from the line recurrence on its
    # basis coefficients on an axis, equals np.abs(evaluate(p, z) - f) of
    # its Polynomial bit for bit, and every sup error returned is the max
    # of the returned polynomial's residual
    seen, parts = [], []
    residuals, horner = approximation._residuals, approximation._horner_real

    def spy_residuals(coeffs, u, s):
        r = residuals(coeffs, u, s)
        seen.append((coeffs, u, s, r))
        return r

    def spy_horner(coeffs, y):
        parts.append(len(coeffs))
        return horner(coeffs, y)

    monkeypatch.setattr(approximation, "_residuals", spy_residuals)
    monkeypatch.setattr(approximation, "_horner_real", spy_horner)

    def check_iterates():
        assert seen
        for coeffs, u, s, r in seen:
            p = approximation._frame_polynomial(coeffs, u, s.center, s.scale)
            assert _same_bits(r, np.abs(evaluate(p, s.z) - s.f))
        if unit is None:
            # off the axes the loop keeps evaluate and its complex loop
            assert not parts and all(np.iscomplexobj(c) for c, *_ in seen)
            return
        assert all(u == unit for _, u, *_ in seen)
        imag_zero = [not np.any(c[:, 1]) for c, *_ in seen]
        # a real target gives coefficients with exactly zero imaginary
        # parts, and only their real recurrence runs
        assert all(imag_zero) if real_target else not any(imag_zero)
        assert parts == [1 if real_target else 2] * len(seen)

    c, rho = set_frame(K)
    g = discretize(K, 0.01)
    target = resolve_target(spec, g)
    for d in (2, 7, 12):
        fit = lawson_refine(g, target, d, center=c, scale=rho)
        assert fit.iterations == len(seen) == 11
        check_iterates()
        err = np.abs(evaluate(fit.polynomial, g.points) - target.samples)
        assert fit.sup_error_on_samples == float(np.max(err))
        seen.clear()
        parts.clear()
    fit = approximate(K, spec, 0.1)
    check_iterates()
    s = seen[-1][2]  # the grid the returned fit was chosen on
    assert fit.sup_error_on_samples == float(np.max(np.abs(evaluate(fit.polynomial, s.z) - s.f)))


@pytest.mark.parametrize("K", [Segment(-0.5, 0.5), Segment(0.75, 0.75 + 1j)])
def test_real_coefficients_against_a_complex_target_keep_the_imaginary_part(K):
    # coefficients with imaginary parts exactly 0 skip their imaginary
    # recurrence only when the target is real too
    g = discretize(K, 0.01)
    c, rho = set_frame(K)
    rng = np.random.default_rng(36)
    coeffs = np.column_stack([rng.standard_normal(6), np.zeros(6)])
    for spec in (_wave, {"kind": "builtin", "name": "abs"}):
        s = approximation._grid_samples(g, resolve_target(spec, g), c, rho)
        p = approximation._frame_polynomial(coeffs, s.unit, c, rho)
        want = np.abs(evaluate(p, g.points) - s.f)
        assert _same_bits(approximation._residuals(coeffs, s.unit, s), want)


def test_a_residual_whose_recurrence_overflows_comes_from_evaluate(monkeypatch):
    # frame points up to 1e10 and coefficients 1e300: the real recurrence
    # overflows, and the residual is evaluate's, whose complex loop makes
    # NaN where the real one keeps inf
    g = segment_grid(21)
    target = TargetFunction(np.full(len(g), 1.0 + 0j))
    s = approximation._grid_samples(g, target, 0j, 1e-10)
    assert s.unit == 1 and s.real and np.max(np.abs(s.y)) > 9e9
    coeffs = np.array([[0.5, 0.0], [1e300, 0.0], [1e300, 0.0]])
    calls = []
    evaluate_ = approximation.evaluate

    def spy(*args):
        calls.append(args)
        return evaluate_(*args)

    monkeypatch.setattr(approximation, "evaluate", spy)
    with np.errstate(all="ignore"):
        r = approximation._residuals(coeffs, 1, s)
        p = approximation._frame_polynomial(coeffs, 1, 0j, 1e-10)
        want = np.abs(evaluate_(p, g.points) - target.samples)
    assert len(calls) == 1 and not np.isfinite(r).all()
    assert np.array_equal(r, want, equal_nan=True)
    # the finite values keep their bits
    finite = np.isfinite(want)
    assert finite.any() and _same_bits(r[finite], want[finite])


# ---------------------------------------------------------------- callable targets


def _sin8(z):
    return np.sin(8.0 * z)


def _per_point(spec, g):
    return np.array([complex(spec(z)) for z in g.points])


def test_a_numpy_callable_is_sampled_in_one_call():
    g = segment_grid(41)
    calls = []

    def sin8(z):
        calls.append(np.shape(z))
        return _sin8(z)

    target = resolve_target(sin8, g)
    assert calls == [g.points.shape]
    assert np.array_equal(target.samples, _sin8(g.points))


def _raises_on_arrays(z):
    if isinstance(z, np.ndarray):
        raise ValueError("one point at a time")
    return _sin8(z)


def _drops_the_last_point(z):
    return z[:-1] if isinstance(z, np.ndarray) else _sin8(z)


@pytest.mark.parametrize(
    "spec",
    [cmath.exp, lambda z: 2.5, _raises_on_arrays, _drops_the_last_point],
    ids=["cmath.exp", "scalar", "raises on arrays", "another shape"],
)
def test_a_callable_that_takes_no_array_is_sampled_point_by_point(spec):
    g = segment_grid(41)
    assert np.array_equal(resolve_target(spec, g).samples, _per_point(spec, g))


def test_a_one_point_grid_is_sampled_point_by_point():
    # numpy would hand a scalar-only callable a size-1 array as a scalar
    g = discretize(PointSet((0.75,)), 0.1)
    calls = []

    def exp(z):
        calls.append(type(z))
        return cmath.exp(z)

    assert resolve_target(exp, g).samples.tolist() == [cmath.exp(0.75)]
    assert calls == [np.complex128]


@pytest.mark.parametrize("unlock", [False, True])
def test_a_callable_that_writes_into_its_argument_leaves_the_grid(unlock):
    # the array call's argument is a read-only view: neither writing into it
    # nor setting it writeable reaches the grid, and the callable is then
    # sampled point by point
    g = segment_grid(41)
    before = g.points.copy()

    def doubling(z):
        if unlock and isinstance(z, np.ndarray):
            z.flags.writeable = True
        z *= 2.0
        return z

    target = resolve_target(doubling, g)
    assert np.array_equal(g.points, before) and not g.points.flags.writeable
    assert np.array_equal(target.samples, 2.0 * before)


# ---------------------------------------------------------------- one BLAS thread


def _blas_thread_calls():
    """(get, set) for numpy's OpenBLAS thread count, as the fits find them.
    Skips where numpy has no OpenBLAS; fails where numpy names OpenBLAS but
    no thread-count symbol is found, so a renamed symbol cannot switch the
    one-thread scope off unseen."""
    calls = approximation._openblas_thread_calls()
    if not calls:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert "openblas" not in str(blas.get("name")).lower(), f"no thread-count symbols in {blas}"
        pytest.skip(f"numpy's BLAS is {blas.get('name')}, not OpenBLAS")
    return calls


@pytest.fixture
def two_blas_threads():
    """get() of the BLAS thread count, which the test starts at 2; the
    count from before the test is put back after it."""
    get, set_ = _blas_thread_calls()
    before = get()
    set_(2)
    try:
        yield get
    finally:
        set_(before)


def _abs_reading(get, seen):
    # a callable target that records the BLAS thread count it runs under
    def target(z):
        seen.append(get())
        return abs(z)

    return target


def test_a_fit_runs_on_one_blas_thread_and_gives_the_count_back(monkeypatch, two_blas_threads):
    # approximate resolves the target, every degree attempt's lawson_refine
    # evaluates its iterates (on a segment, by the line recurrence on each
    # fit's coefficients), and approximate reads the fit's L_P once the last
    # attempt has returned: all on one thread.  lawson_refine called alone
    # runs on one thread too
    get = two_blas_threads
    seen = {"target": [], "_horner_real": [], "derivative_bound": []}

    def spy(name):
        fn = getattr(approximation, name)

        def wrapped(*args, **kwargs):
            seen[name].append(get())
            return fn(*args, **kwargs)

        monkeypatch.setattr(approximation, name, wrapped)

    spy("_horner_real")
    spy("derivative_bound")
    fit = approximate(Segment(-0.5, 0.5), _abs_reading(get, seen["target"]), 1e-2)
    assert fit.degree_used > 1 and all(seen.values())
    assert set().union(*seen.values()) == {1}
    assert get() == 2
    seen["_horner_real"].clear()
    lawson_refine(segment_grid(20), TargetFunction(np.ones(20)), 3)
    assert seen["_horner_real"] and set(seen["_horner_real"]) == {1}
    assert get() == 2


def test_a_fit_within_a_fit_keeps_one_blas_thread(two_blas_threads):
    # the inner approximate returns while the outer one is resolving its
    # target: the outer one's later samples still run on one thread
    get = two_blas_threads
    seen = []

    def target(z):
        if not seen:
            approximate(Segment(-0.5, 0.5), {"kind": "builtin", "name": "abs"}, 1e-1)
        seen.append(get())
        return abs(z)

    approximate(Segment(-0.5, 0.5), target, 1e-1)
    assert set(seen) == {1}
    assert get() == 2


def test_the_callers_blas_thread_count_comes_back_when_a_fit_raises(two_blas_threads):
    get = two_blas_threads
    seen = []
    with pytest.raises(BudgetNotMet):
        approximate(ARC, _abs_reading(get, seen), 1e-6, 2)
    assert set(seen) == {1}
    assert get() == 2
    g = segment_grid(5)
    with pytest.raises(InvalidSpec):
        lawson_refine(g, TargetFunction(np.ones(5)), 5)
    assert get() == 2


def test_fits_on_two_python_threads_at_once_share_one_blas_thread(two_blas_threads):
    # both fits are inside approximate before either goes on; the second one
    # reads the count again only once the first has returned, which a save
    # and restore per call would have set back to 2 by then
    get = two_blas_threads
    both_in = threading.Barrier(2, timeout=30)
    first_done = threading.Event()
    seen = {"first": [], "second": []}
    errors = []

    def target_of(name):
        def target(z):
            if not seen[name]:
                both_in.wait()
                if name == "second":
                    first_done.wait(timeout=30)
            seen[name].append(get())
            return abs(z)

        return target

    def run(name):
        try:
            approximate(Segment(-0.5, 0.5), target_of(name), 1e-1)
        except Exception as exc:  # read after the join
            errors.append(exc)
        finally:
            if name == "first":
                first_done.set()

    workers = [threading.Thread(target=run, args=(name,)) for name in seen]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert not errors
    assert first_done.is_set() and seen["first"] and seen["second"]
    assert set(seen["first"]) == set(seen["second"]) == {1}
    assert get() == 2


def _child_env(**overrides):
    # the environment of a child process that imports this striplab
    src = os.path.dirname(os.path.dirname(approximation.__file__))
    env = {k: v for k, v in os.environ.items() if k not in overrides}
    env.update({k: v for k, v in overrides.items() if v is not None})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_importing_striplab_looks_up_no_blas_library():
    code = (
        "import sys, striplab, striplab.cli; from striplab import approximation; "
        "sys.exit(approximation._one_blas_thread._calls is not None)"
    )
    assert subprocess.run([sys.executable, "-c", code], env=_child_env(), timeout=60).returncode == 0


@pytest.mark.parametrize(
    "set_spec, target, eps",
    [
        ({"variant": "arc", "center": [0.75, 0.0], "radius": 0.1,
          "angle_start": 0.0, "angle_end": 1.5 * math.pi}, "conj", 1e-2),
        ({"variant": "segment", "a": [-0.5, 0.0], "b": [0.5, 0.0]}, "abs", 9e-3),
    ],
    ids=["criterion-1 arc", "axis segment"],
)
def test_fit_records_do_not_depend_on_the_callers_blas_thread_count(tmp_path, set_spec, target, eps):
    # fits that ran on the caller's OpenBLAS thread count had these two sup
    # errors move by rel 4.3e-10 and 2.0e-8 between one thread and two
    _blas_thread_calls()
    set_path = tmp_path / "set.json"
    set_path.write_text(json.dumps(set_spec), encoding="utf-8")
    records = []
    for threads in ("1", "2", None):
        out = tmp_path / f"threads-{threads}.json"
        done = subprocess.run(
            [sys.executable, "-c", "from striplab.cli import entry; entry()", "approx",
             "--set", str(set_path), "--target", target, "--eps", str(eps), "--out", str(out)],
            env=_child_env(OPENBLAS_NUM_THREADS=threads), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        record = json.loads(out.read_text(encoding="utf-8"))
        del record["manifest"]["wall_time_s"]
        records.append(json.dumps(record))
    assert records[1] == records[0]
    assert records[2] == records[0]
