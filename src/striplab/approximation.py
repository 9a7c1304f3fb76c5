"""Sup-norm polynomial fitting on a sample grid.

Least squares runs in a basis orthonormal for the weighted discrete sample
inner product, never in raw monomial normal equations.  The basis is
Vandermonde with Arnoldi (Brubeck, Nakatsukasa & Trefethen, SIAM Review 63,
2021), each degree one classical Gram-Schmidt step run twice: a few BLAS
matrix-vector products on a column-major block of the basis.  Iteratively
reweighted (Lawson) refinement then pushes the residual toward
equioscillation.  ``approximate`` fits in the centred, scaled variable
(z - c) / rho of the set's frame, in which the set lies in the unit disk;
the sample grid stays in world units.  The returned polynomial is always
coefficient form in its frame variable after basis back-substitution, and
its reported sup error is recomputed from those coefficients, so
conversion loss is measured, never hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry, targets
from .errors import BudgetExceeded, BudgetNotMet, InvalidSpec
from .geometry import CompactSet, SampleGrid
from .polynomial import Polynomial, derivative_bound, evaluate
from .targets import TargetFunction

_LAWSON_WEIGHT_FLOOR = 1e-14
_LAWSON_ITERS = 10
# most samples ``approximate`` puts on a set
_GRID_CAP = 20_000


@dataclass(frozen=True)
class FitResult:
    polynomial: Polynomial
    sup_error_on_samples: float
    degree_used: int
    iterations: int
    # covering radius h of the grid the sup error was measured on; together
    # with a derivative bound L_P it states the between-samples slack L_P * h
    grid_covering_radius: float = float("nan")


def _weighted_basis(z: np.ndarray, w: np.ndarray, degree: int):
    """Orthonormal polynomial basis for the inner product sum_i w_i conj(u_i) v_i.

    Returns the basis values Q (n x (degree+1)) and the matrix P whose column
    k holds the ascending monomial coefficients of basis polynomial k.

    Column k starts as z * Q[:, k-1] and is orthogonalized against all
    earlier columns by classical Gram-Schmidt: two matrix-vector products
    per pass.  One pass loses orthogonality in proportion to the condition
    of the weighted Krylov columns (1e-12 to 2e-11 in Q^H W Q at degree 60
    on the criterion-1 arc under Lawson-like weights); a second pass brings
    it back to rounding level, below 1e-15 there ("twice is enough": Giraud,
    Langou & Rozlozník, Comput. Math. Appl. 50, 2005).  Q is column-major,
    so each leading block Q[:, :k] is one contiguous BLAS operand.
    """
    n = len(z)
    Q = np.zeros((n, degree + 1), dtype=complex, order="F")
    P = np.zeros((degree + 1, degree + 1), dtype=complex)
    norm0 = math.sqrt(float(np.sum(w)))
    Q[:, 0] = 1.0 / norm0
    P[0, 0] = 1.0 / norm0
    for k in range(1, degree + 1):
        q = z * Q[:, k - 1]
        pk = np.zeros(degree + 1, dtype=complex)
        pk[1:] = P[:-1, k - 1]
        Qk, Pk = Q[:, :k], P[:, :k]
        for _ in range(2):
            h = np.conj(np.conj(w * q) @ Qk)
            q -= Qk @ h
            pk -= Pk @ h
        hn = math.sqrt(float(np.sum(w * (q.real**2 + q.imag**2))))
        if hn < 1e-14:
            raise InvalidSpec(
                f"orthogonalization collapsed at degree {k}; "
                "the grid has too few distinct points"
            )
        Q[:, k] = q / hn
        P[:, k] = pk / hn
    return Q, P


def set_frame(K: CompactSet) -> tuple[complex, float]:
    """The frame (c, rho) that ``approximate`` fits in: c is the centre of
    the set's bounding box and rho = max |z - c| over the set (1 for a
    single point), so |(z - c) / rho| <= 1 on the set."""
    x_min, x_max, y_min, y_max = geometry.bounding_box(K)
    center = complex((x_min + x_max) / 2.0, (y_min + y_max) / 2.0)
    rho = geometry.bounding_radius(K, center)
    return center, (rho if rho > 0 else 1.0)


def _validate_fit_args(grid: SampleGrid, target: TargetFunction, degree: int):
    if degree < 0:
        raise InvalidSpec("degree must be >= 0")
    if len(target.samples) != len(grid):
        raise InvalidSpec("target and grid lengths differ")
    if len(grid) < degree + 1:
        raise InvalidSpec(
            f"degree {degree} needs at least {degree + 1} samples, grid has {len(grid)}"
        )


def lawson_refine(
    grid: SampleGrid,
    target: TargetFunction,
    degree: int,
    max_iters: int = _LAWSON_ITERS,
    center: complex = 0j,
    scale: float = 1.0,
) -> FitResult:
    """Iteratively reweighted least squares toward the sup-norm objective,
    in the frame variable (z - center) / scale.

    Weights update as w_i <- w_i * |residual_i| (then normalized, floored at
    1e-14 so no point is dropped).  The best iterate by recomputed sup error
    is returned, so the result is never worse than plain least squares;
    max_iters = 0 returns the plain fit verbatim.
    """
    _validate_fit_args(grid, target, degree)
    n = len(grid)
    z = grid.points
    zeta = (z - center) / scale
    f = target.samples
    w = np.full(n, 1.0 / n)

    def fit(w):
        # the weighted least-squares polynomial and |residual| at the
        # samples, recomputed from its coefficients
        Q, P = _weighted_basis(zeta, w, degree)
        a = np.conj(np.conj(w * f) @ Q)
        poly = Polynomial(tuple(P @ a), center, scale)
        return poly, np.abs(evaluate(poly, z) - f)

    best_poly, r = fit(w)
    best_sup = float(np.max(r))
    iterations = 1
    f_scale = max(1.0, float(np.max(np.abs(f))))
    for _ in range(max_iters):
        if best_sup <= 1e-15 * f_scale:
            break
        w = w * r
        total = float(np.sum(w))
        if total <= 0.0:
            break
        w = np.maximum(w / total, _LAWSON_WEIGHT_FLOOR)
        w = w / float(np.sum(w))
        poly, r = fit(w)
        sup = float(np.max(r))
        iterations += 1
        if sup < best_sup:
            best_poly, best_sup = poly, sup
    return FitResult(best_poly, best_sup, degree, iterations, grid.covering_radius)


def approximate(
    K: CompactSet,
    target_spec,
    budget: float,
    max_degree: int = 60,
) -> FitResult:
    """Find the least degree whose refined fit beats the budget on a grid
    tied to it (covering radius min(0.01, budget/10), re-fit once on a denser
    grid if the fitted polynomial's derivative bound invalidates that choice).
    Fits run in the frame of ``set_frame(K)``; the grid and its covering
    radius stay in world units.
    The budget-tied density is relaxed (h grows 8x at a time) while it would
    exceed 20 000 samples, so minuscule budgets fail with BudgetNotMet
    instead of an unbuildable grid.  Relaxing stops once h exceeds 2 * rho,
    where every piece of the set is at its fewest samples; a set that still
    needs more raises BudgetExceeded.

    Degree escalation doubles (1, 2, 4, ...) up to the cap, then bisects for
    the least sufficient degree.  Raises BudgetNotMet carrying the best
    attempt if the cap is reached.
    """
    if not 0 < budget < math.inf:
        raise InvalidSpec("budget must be positive and finite")
    if max_degree < 0:
        raise InvalidSpec("max_degree must be >= 0")

    center, scale = set_frame(K)
    h0 = min(0.01, budget / 10.0)
    while True:
        try:
            grid = geometry.discretize(K, h0, cap=_GRID_CAP)
            break
        except BudgetExceeded:
            if h0 > 2.0 * scale:
                raise
            h0 *= 8.0
    target = targets.resolve_target(target_spec, grid)
    fit, met = _escalate(grid, target, budget, max_degree, center, scale)

    # one re-fit if the fitted polynomial's derivative bound invalidates the
    # grid choice; skipped when no feasible density could restore the slack
    # (the certificate then reports the oversized L_P * h honestly)
    lp = derivative_bound(fit.polynomial, scale, center)
    if grid.covering_radius * lp > budget:
        h1 = budget / (10.0 * lp)
        if h0 / 64.0 <= h1 < grid.covering_radius:
            try:
                dense = geometry.discretize(K, h1, cap=_GRID_CAP)
            except BudgetExceeded:
                dense = None
            if dense is not None:
                target = targets.resolve_target(target_spec, dense)
                fit, met = _escalate(dense, target, budget, max_degree, center, scale)

    if not met:
        raise BudgetNotMet(fit, budget)
    return fit


def _escalate(grid, target, budget, max_degree, center, scale) -> tuple[FitResult, bool]:
    """Search for the least degree whose fit beats the budget: 1, 2, 4, ...
    below the cap, then the cap, then bisection.  Returns (fit, True) for
    that degree, or (best, False) with best the first attempt of least sup
    error when even the cap fails."""
    cap = min(max_degree, len(grid) - 1)
    fits: dict[int, FitResult] = {}

    def met(d):
        fits[d] = lawson_refine(grid, target, d, _LAWSON_ITERS, center, scale)
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
