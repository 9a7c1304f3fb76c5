"""Sup-norm polynomial fitting on a sample grid.

Least squares runs in a basis orthonormal for the discrete sample inner
product, never in raw monomial normal equations.  The basis is Vandermonde
with Arnoldi (Brubeck, Nakatsukasa & Trefethen, SIAM Review 63, 2021), each
degree one classical Gram-Schmidt step run twice, built once per grid with
uniform weights and grown column by column as the degree search climbs: the
polynomial space does not change when Lawson's weights do.  Each
iteratively reweighted (Lawson) fit then solves its small Gram system
G = Q^H W Q in that basis, one BLAS-3 product and two (degree+1)-size
solves, with one corrected semi-normal step (Bjorck, Linear Algebra Appl.
88/89, 1987).  ``approximate`` fits in the centred, scaled variable
(z - c) / rho of the set's frame, whose disk |z - c| <= rho holds the set
and is where a ``FitResult`` states its between-samples slack; the sample
grid stays in world units.  When the frame points lie on the
real or the imaginary axis (a horizontal or vertical segment, a collinear
point set, one row of a Cantor product), they are u * y with y real and
u = 1 or i, by the one axis rule that ``polynomial.evaluate`` follows too
(``polynomial._axis_coordinate``).  The basis is then built on y and every
fit runs in real arithmetic, the target's real and imaginary parts as two
right-hand sides.  So do each iterate's residuals |p(z_i) - f_i|: the real
recurrence in y that ``evaluate`` runs on an axis
(``polynomial._horner_real``) runs on the fit's own coefficients of y**k,
P a, on their real parts alone when they and the target are real, and
gives the floats of np.abs(evaluate(p, z) - f).  Every other set keeps the
complex basis and calls ``evaluate``, as does a recurrence that overflows.
A ``Polynomial`` is built only for the fit returned, in coefficient form in
its frame variable after basis back-substitution; its reported sup error
is recomputed from those coefficients by ``evaluate``'s recurrence, so
conversion loss is measured, never hidden.  The grid's frame points, their
axis coordinate and the target's parts are formed once per grid
(``_grid_samples``).  The degree search runs each attempt only until it
knows whether the budget is met, and the chosen degree's Lawson loop then
continues from where its attempt stopped, never starting over.
``approximate`` and ``lawson_refine`` run numpy's OpenBLAS on one thread
for the length of the call and then give the caller back its own thread
count (``_one_blas_thread``), so a fit costs one core and returns the same
bits whatever count the caller runs.
"""

from __future__ import annotations

import cmath
import contextlib
import ctypes
import math
import operator
import os
import sys
import threading
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import geometry, targets
from .errors import BudgetExceeded, BudgetNotMet, InvalidSpec
from .geometry import CompactSet, SampleGrid
from .polynomial import (
    Polynomial,
    _axis_coordinate,
    _horner_real,
    _turn,
    derivative_bound,
    evaluate,
)
from .targets import TargetFunction

_LAWSON_WEIGHT_FLOOR = 1e-14
_LAWSON_ITERS = 10
# relative slack on the budget before a weighted residual settles "no": it
# covers the rounding between that residual and the least sup error on the
# samples, that is the weights' sum missing 1, the Gram solve missing the
# least-squares coefficients (the residual's excess is second order in that
# miss, see _gram_fit) and the rounding of the sup errors, which are
# recomputed from each fit's coefficients by evaluate's recurrence
# (_residuals), all far below 1e-6
_LOWER_BOUND_MARGIN = 1e-6
# most samples ``approximate`` puts on a set
_GRID_CAP = 20_000

# (get, set) thread-count symbol pairs of OpenBLAS builds, in the order they
# are looked for: numpy's wheels bundle the 64-bit-integer scipy-openblas
# build, scipy's the 32-bit one, and a system OpenBLAS has the plain names
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _openblas_paths() -> list[str]:
    """Paths of the OpenBLAS libraries that may be loaded in this process:
    on Linux every one mapped into it, elsewhere numpy's bundled copies."""
    if sys.platform.startswith("linux"):
        try:
            with open("/proc/self/maps", encoding="utf-8") as fh:
                rows = [line.split(maxsplit=5) for line in fh]
        except OSError:
            return []
        paths = [row[5].rstrip("\n") for row in rows if len(row) == 6]
    else:
        root = os.path.dirname(np.__file__)
        dirs = [os.path.join(os.path.dirname(root), "numpy.libs"), os.path.join(root, ".dylibs")]
        paths = [os.path.join(d, name) for d in dirs if os.path.isdir(d) for name in sorted(os.listdir(d))]
    # the whole path, for a system BLAS such as .../openblas-pthread/libblas.so.3
    return [p for p in dict.fromkeys(paths) if "openblas" in p.lower()]


def _openblas_thread_calls() -> tuple:
    """(get, set) for the thread count of the OpenBLAS that numpy has
    loaded, or () when none is found (numpy on Accelerate or MKL).  Each
    library is opened with RTLD_NOLOAD, so one that is not loaded already
    stays unloaded and no second copy is ever made."""
    noload = getattr(os, "RTLD_NOLOAD", None)
    if noload is None:
        return ()
    libs = []
    for path in _openblas_paths():
        try:
            libs.append(ctypes.CDLL(path, mode=noload))
        except OSError:
            continue
    for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
        for lib in libs:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return ()


class _OneBlasThread(contextlib.ContextDecorator):
    """Runs what it wraps with OpenBLAS on one thread.

    A fit's products are small (20 000 x 61 at most under the default degree
    cap): a second OpenBLAS thread saves them no wall time, doubles their CPU
    time, slows them several times over when another process holds a core,
    and moves their last bits (a fit's sup error by up to rel 1.7e-8).  The
    thread count is process-wide, so one lock and one depth count cover
    every Python thread: the outermost entry saves the caller's count and
    sets 1, the last exit restores it, also when the call raises.  The
    library is looked up on the first entry, not at import; where none is
    found the context does nothing.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = 0
        self._calls = None  # (get, set) once looked up, () if none was found

    def __enter__(self):
        with self._lock:
            if self._calls is None:
                self._calls = _openblas_thread_calls()
            if self._calls and self._depth == 0:
                get, set_ = self._calls
                self._saved = get()
                set_(1)
            self._depth += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._depth -= 1
            if self._calls and self._depth == 0:
                self._calls[1](self._saved)


_one_blas_thread = _OneBlasThread()


@dataclass(frozen=True)
class FitResult:
    """A fit: its sup error on a grid of covering radius h, and the slack
    L_P * h between samples, L_P a bound for |p'| on the frame disk
    |z - center| <= scale, which ``set_frame`` makes hold the set."""

    polynomial: Polynomial
    sup_error_on_samples: float
    degree_used: int
    iterations: int
    grid_covering_radius: float = float("nan")

    @property
    def derivative_bound_LP(self) -> float:
        return derivative_bound(self.polynomial, self.polynomial.scale, self.polynomial.center)

    @property
    def between_samples_slack(self) -> float:
        return self.grid_covering_radius * self.derivative_bound_LP

    def to_spec(self) -> dict:
        spec = {field.name: getattr(self, field.name) for field in fields(self)}
        spec["polynomial"] = self.polynomial.to_spec()  # keeps its first place
        spec["derivative_bound_LP"] = self.derivative_bound_LP
        spec["between_samples_slack"] = self.between_samples_slack
        return spec


def _weighted_basis(z: np.ndarray, w: np.ndarray, degree: int, held=None):
    """Orthonormal polynomial basis for the inner product sum_i w_i conj(u_i) v_i.

    Returns the basis values Q (n x (degree+1)) and the matrix P whose column
    k holds the ascending monomial coefficients of basis polynomial k, both
    of z's dtype: real points give a real basis (``_axis_coordinate``).

    Column k starts as z * Q[:, k-1] and is orthogonalized against all
    earlier columns by classical Gram-Schmidt: two matrix-vector products
    per pass.  One pass loses orthogonality in proportion to the condition
    of the weighted Krylov columns (1e-12 to 2e-11 in Q^H W Q at degree 60
    on the criterion-1 arc under Lawson-like weights); a second pass brings
    it back to rounding level, below 1e-15 there ("twice is enough": Giraud,
    Langou & Rozlozník, Comput. Math. Appl. 50, 2005).  Q is column-major,
    so each leading block Q[:, :k] is one contiguous BLAS operand.

    Column k depends only on the columns before it, so the leading columns
    of a build at one degree equal a build at any lower degree, bit for bit
    in the tests.  ``held``, a build (Q, P) of the same points and weights
    at a lower degree, is continued: its columns are copied and only the
    columns past them are orthogonalized.  The fits build the basis once per
    grid with uniform weights, grow it as the degree search climbs, and
    solve in it (``_gram_fit``).
    """
    n = len(z)
    real = not np.iscomplexobj(z)
    Q = np.zeros((n, degree + 1), dtype=z.dtype, order="F")
    P = np.zeros((degree + 1, degree + 1), dtype=z.dtype)
    if held is None:
        norm0 = math.sqrt(float(np.sum(w)))
        Q[:, 0] = 1.0 / norm0
        P[0, 0] = 1.0 / norm0
        start = 1
    else:
        start = held[0].shape[1]
        Q[:, :start] = held[0]
        P[:start, :start] = held[1]
    for k in range(start, degree + 1):
        q = z * Q[:, k - 1]
        pk = np.zeros(degree + 1, dtype=z.dtype)
        pk[1:] = P[:-1, k - 1]
        Qk, Pk = Q[:, :k], P[:, :k]
        for _ in range(2):
            # on real points conj only copies, and q.imag is zeros
            h = (w * q) @ Qk if real else np.conj(np.conj(w * q) @ Qk)
            q -= Qk @ h
            pk -= Pk @ h
        hn = math.sqrt(float(np.sum(w * (q**2 if real else q.real**2 + q.imag**2))))
        if hn < 1e-14:
            raise InvalidSpec(
                f"orthogonalization collapsed at degree {k}; "
                "the grid has too few distinct points"
            )
        Q[:, k] = q / hn
        P[:, k] = pk / hn
    return Q, P


def _gram_fit(Q: np.ndarray, w: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Coefficients a that minimize sum_i w_i |f_i - (Q a)_i|^2, for a basis
    Q orthogonal for uniform weights (Q^H Q = n I, from ``_weighted_basis``
    with weights 1/n) and weights w summing to 1.

    f is one column of n samples, or for a real Q an n x m real array whose
    m columns are fitted at once; a complex target on a real basis comes as
    its n x 2 float view, (Re f, Im f), and a as the matching (d+1) x 2
    array, so no complex copy of Q is made and every product is real.

    Solves the Gram system G a = Q^H W f with G = Q^H W Q, then takes one
    corrected step a += G^-1 Q^H W (f - Q a) with the residual recomputed
    from the data, as in the corrected semi-normal equations (Bjorck, Linear
    Algebra Appl. 88/89, 1987).  Since Q^H Q = n I, cond(G) <= max w / min w;
    over every Lawson weight vector of the five benchmark fits and the
    criterion-1 arc cond(W^(1/2) Q) was at most 10.2, while max w / min w
    reached 2.4e13.  With uniform weights G is I up to rounding.
    """
    QH = Q.conj().T
    # the weights of every column as a contiguous array of f's shape: the
    # broadcast w[:, None] gives the same products in inner loops of m
    # elements, one row at a time
    wf = w if f.ndim == 1 else np.repeat(w, f.shape[1]).reshape(f.shape)
    G = QH @ (w[:, None] * Q)
    a = np.linalg.solve(G, QH @ (wf * f))
    return a + np.linalg.solve(G, QH @ (wf * (f - Q @ a)))


def set_frame(K: CompactSet) -> tuple[complex, float]:
    """The frame (c, rho) that ``approximate`` fits in: c is the centre of
    the set's bounding box and rho = max |z - c| over the set (1 for a
    single point), so |(z - c) / rho| <= 1 on the set."""
    x_min, x_max, y_min, y_max = geometry.bounding_box(K)
    center = complex((x_min + x_max) / 2.0, (y_min + y_max) / 2.0)
    rho = geometry.bounding_radius(K, center)
    return center, (rho if rho > 0 else 1.0)


class _GridSamples(NamedTuple):
    """A grid and its target as every Lawson fit on them reads them, made
    once per grid (``_grid_samples``)."""

    z: np.ndarray  # the grid points
    f: np.ndarray  # the target samples
    center: complex
    scale: float
    # the points the basis is built on: the frame points w = (z - c) / rho,
    # or on an axis their real coordinate y, w = unit * y
    y: np.ndarray
    unit: complex
    re: np.ndarray  # Re f and Im f, contiguous
    im: np.ndarray
    real: bool  # every Im f is exactly 0
    f_scale: float  # max(1, max |f|), the scale of "exact" in the loop's stop


def _grid_samples(grid: SampleGrid, target: TargetFunction, center, scale) -> _GridSamples:
    """The grid and target in the frame (center, scale).  The frame points
    are formed as ``evaluate`` forms them for a Polynomial in this frame, so
    the axis test (``_axis_coordinate``) decides alike in both."""
    center, scale = complex(center), float(scale)
    z, f = grid.points, target.samples
    w_frame = (z - center) / scale
    y, unit = _axis_coordinate(w_frame) or (w_frame, 1)
    re, im = np.ascontiguousarray(f.real), np.ascontiguousarray(f.imag)
    f_scale = max(1.0, float(np.max(np.abs(f))))
    return _GridSamples(z, f, center, scale, y, unit, re, im, not np.any(im), f_scale)


def _frame_polynomial(coeffs: np.ndarray, unit: complex, center, scale) -> Polynomial:
    """The Polynomial of a fit's coefficients in its basis variable: a
    complex vector in w, or on a real basis the (degree+1) x 2 array of the
    real and imaginary parts of the coefficients of y**k, turned by (-i)**k
    when w = i * y (``_turn``).  Raises InvalidSpec if one is not finite."""
    if coeffs.ndim == 2:
        coeffs = coeffs.view(complex)[:, 0]
    if unit == 1j:
        coeffs = _turn(coeffs, -1)
    return Polynomial(tuple(coeffs), center, scale)


def _residuals(coeffs: np.ndarray, unit: complex, s: _GridSamples) -> np.ndarray:
    """|p(z_i) - f_i| for the fit p of these basis coefficients
    (``_frame_polynomial``), the floats of np.abs(evaluate(p, z) - f).

    On a real basis ``evaluate`` runs one real recurrence in y
    (``_horner_real``) on the coefficients of p turned back by i**k, which
    gives these coefficients again: the turns multiply by 0 and +-1, and
    only a zero's sign can change, as it can by the trailing zeros
    ``Polynomial`` trims.  So the recurrence runs here on the coefficients
    as they are, and its moduli are evaluate's.  When every coefficient
    and every sample is real it runs on the real parts alone: the
    residual's imaginary part is then a zero, and the modulus of x + 0i is
    |x| exactly.  A value that is not finite, and every complex basis, go
    through ``evaluate`` itself."""
    if coeffs.ndim == 2:
        real = s.real and not np.any(coeffs[:, 1])
        values = _horner_real(coeffs.T[: 1 if real else 2].tolist(), s.y)
        if all(np.isfinite(v).all() for v in values):
            values[0] -= s.re
            if real:
                return np.abs(values[0], out=values[0])
            values[1] -= s.im
            diff = np.empty(len(s.y), dtype=complex)
            diff.real, diff.imag = values
            return np.abs(diff)
    return np.abs(evaluate(_frame_polynomial(coeffs, unit, s.center, s.scale), s.z) - s.f)


def _count(name: str, value) -> int:
    """value as an integer >= 0 (numpy integers pass), else InvalidSpec."""
    try:
        count = operator.index(value)
    except TypeError:
        raise InvalidSpec(f"{name} must be an integer, got {value!r}") from None
    if count < 0:
        raise InvalidSpec(f"{name} must be >= 0")
    return count


def _validate_fit_args(
    grid: SampleGrid, target: TargetFunction, degree, max_iters, center, scale, budget
) -> tuple[int, int]:
    """The checked degree and max_iters, as ints."""
    degree = _count("degree", degree)
    max_iters = _count("max_iters", max_iters)
    if not cmath.isfinite(center):
        raise InvalidSpec("center must be finite")
    if not 0 < scale < math.inf:
        raise InvalidSpec("scale must be positive and finite")
    if budget is not None and not 0 < budget < math.inf:
        raise InvalidSpec("budget must be None or positive and finite")
    if len(target.samples) != len(grid):
        raise InvalidSpec("target and grid lengths differ")
    if len(grid) < degree + 1:
        raise InvalidSpec(
            f"degree {degree} needs at least {degree + 1} samples, grid has {len(grid)}"
        )
    return degree, max_iters


@_one_blas_thread
def lawson_refine(
    grid: SampleGrid,
    target: TargetFunction,
    degree: int,
    max_iters: int = _LAWSON_ITERS,
    center: complex = 0j,
    scale: float = 1.0,
    *,
    budget: float | None = None,
    _basis: tuple | None = None,
    _state: dict | None = None,
) -> FitResult:
    """Iteratively reweighted least squares toward the sup-norm objective,
    in the frame variable (z - center) / scale.

    Weights update as w_i <- w_i * |residual_i| (then normalized, floored at
    1e-14 so no point is dropped).  The best iterate by recomputed sup error
    is returned, so the result is never worse than plain least squares;
    max_iters = 0 returns the plain fit verbatim.  ``iterations`` counts the
    weighted fits made, the plain one included.

    With a budget the loop only answers whether some iterate's sup error
    beats it, and stops at the first fit that settles that: yes once an
    iterate's sup error is below the budget, no once a fit's weighted
    residual (sum_i w_i |f_i - p_w(z_i)|^2)^(1/2), with weights summing to
    1, exceeds it.  That residual is at most the least sup error any
    polynomial of this degree reaches on the samples (Lawson's lower
    bound), so no iterate of the full loop could beat the budget either.
    The result is then the best iterate so far, and ``iterations`` counts
    the fits made until the answer was known; the full loop, run without a
    budget, starts with the same fits.

    Every fit solves in one basis orthogonal for uniform weights
    (``_gram_fit``), built on the frame points w, or on y when they lie on
    an axis, w = u * y (``_axis_coordinate``): then in real arithmetic.
    Each iterate's residuals come from its coefficients in the basis
    variable (``_residuals``), on an axis by ``evaluate``'s real recurrence
    in y, elsewhere by ``evaluate``; they are the floats of
    np.abs(evaluate(p, z) - f) for the iterate's polynomial p.  Only the
    iterate returned becomes a ``Polynomial``, its coefficients of y**k
    turned by (-i)**k when u = i (``_frame_polynomial``); every fit's
    coefficients are checked finite, so InvalidSpec comes at the fit that
    makes one that is not.  ``_basis`` is private: the degree search passes
    (Q, P, u, samples), the ``_weighted_basis`` of those points with
    weights 1/n, of at least this degree, u, and the grid's
    ``_grid_samples``, so its attempts share one build, use its leading
    columns and form the samples once; with (Q, P, u) the samples are
    formed here.  ``_state`` is private too: a dict that the call leaves
    holding its loop's state (weights, residuals, weighted residual, the
    best iterate's coefficients, its sup error and the fit count).  When it
    already holds one, the call
    continues that loop instead of starting over: the degree search
    (``_escalate``) continues a budgeted attempt's state without a budget,
    to the full loop, whose first fits those are.
    """
    degree, max_iters = _validate_fit_args(grid, target, degree, max_iters, center, scale, budget)
    n = len(grid)
    w = np.full(n, 1.0 / n)
    if _basis is None:
        samples = _grid_samples(grid, target, center, scale)
        _basis = (*_weighted_basis(samples.y, w, degree), samples.unit, samples)
    elif len(_basis) == 3:
        _basis = (*_basis, _grid_samples(grid, target, center, scale))
    Q, P, unit, samples = _basis
    Q, P = Q[:, : degree + 1], P[: degree + 1, : degree + 1]
    # on a real basis the target's real and imaginary parts are two real
    # right-hand sides, read through a float view of the samples
    rhs = samples.f if np.iscomplexobj(Q) else samples.f.view(float).reshape(n, 2)

    def fit(w):
        # the weighted least-squares coefficients in the basis variable,
        # |residual| at the samples recomputed from them, and (with a
        # budget) the weighted residual of their basis values, which no
        # coefficient rounding enters
        a = _gram_fit(Q, w, rhs)
        coeffs = P @ a
        if not np.isfinite(coeffs).all():
            raise InvalidSpec("polynomial coefficients must be finite")
        # (the transpose lines the columns of a real basis's residual up with w)
        lower = 0.0 if budget is None else math.sqrt(float(np.sum(w * np.abs(rhs - Q @ a).T ** 2)))
        return coeffs, _residuals(coeffs, unit, samples), lower

    def settled(best_sup, lower):
        return budget is not None and (
            best_sup < budget or lower > budget * (1.0 + _LOWER_BOUND_MARGIN)
        )

    if _state:
        w, r, lower = _state["w"], _state["r"], _state["lower"]
        best, best_sup, iterations = _state["best"], _state["best_sup"], _state["iterations"]
    else:
        best, r, lower = fit(w)
        best_sup = float(np.max(r))
        iterations = 1
    # the plain fit, then at most max_iters reweighted ones
    while iterations <= max_iters and not (
        best_sup <= 1e-15 * samples.f_scale or settled(best_sup, lower)
    ):
        w = w * r
        w = np.maximum(w / float(np.sum(w)), _LAWSON_WEIGHT_FLOOR)
        w = w / float(np.sum(w))
        coeffs, r, lower = fit(w)
        sup = float(np.max(r))
        iterations += 1
        if sup < best_sup:
            best, best_sup = coeffs, sup
    if _state is not None:
        _state.update(w=w, r=r, lower=lower, best=best, best_sup=best_sup, iterations=iterations)
    poly = _frame_polynomial(best, unit, center, scale)
    return FitResult(poly, best_sup, degree, iterations, grid.covering_radius)


@_one_blas_thread
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
    attempt if the cap is reached.  Each attempt stops as soon as it knows
    whether it meets the budget (``lawson_refine`` with ``budget``); the fit
    returned, or carried by BudgetNotMet, continues its attempt's loop
    without one, from where the attempt stopped, so it is the full loop's
    fit and its ``iterations`` counts the full loop's fits.
    """
    if not 0 < budget < math.inf:
        raise InvalidSpec("budget must be positive and finite")
    max_degree = _count("max_degree", max_degree)

    center, scale = set_frame(K)
    # positive even where budget / 10 underflows to 0
    h0 = max(min(0.01, budget / 10.0), math.ulp(0.0))
    while True:
        try:
            grid = geometry.discretize(K, h0, cap=_GRID_CAP)
            break
        except (BudgetExceeded, InvalidSpec):
            # set_frame has accepted K, so at a positive spacing discretize
            # raises InvalidSpec only when the sample count overflows, which
            # is past the cap too; a set too wide for any finite spacing
            # keeps that error once the spacing itself would overflow
            if h0 > 2.0 * scale or not math.isfinite(8.0 * h0):
                raise
            h0 *= 8.0
    target = targets.resolve_target(target_spec, grid)
    fit, met = _escalate(grid, target, budget, max_degree, center, scale)

    # one re-fit if the fitted polynomial's derivative bound invalidates the
    # grid choice; skipped when no feasible density could restore the slack
    # (the certificate then reports the oversized L_P * h honestly)
    lp = fit.derivative_bound_LP
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
    error when even the cap fails.

    Each attempt runs Lawson with the budget, so it stops as soon as its
    yes/no is known; the attempts returned are then continued to the full
    loop from the state where they stopped (``lawson_refine``'s ``_state``),
    so they are the fits a search of full attempts returns, made without
    repeating any fit.  A state is kept only while the search may still
    continue it: every attempt's until a degree is met, then the least met
    degree's alone.

    All attempts share one uniform-weight basis of the grid, on its frame
    points or their axis coordinate (``_axis_coordinate``), and the grid's
    samples (``_grid_samples``), formed once: an attempt at a degree above
    the one held grows the basis to that degree, every other one uses its
    leading columns, which equal a build at the lower degree."""
    cap = min(max_degree, len(grid) - 1)
    fits: dict[int, FitResult] = {}
    states: dict[int, dict] = {}
    samples = _grid_samples(grid, target, center, scale)
    w = np.full(len(grid), 1.0 / len(grid))
    basis = None

    def attempt(d, budget=None):
        # without a budget, the full Lawson loop, continued from the
        # budgeted attempt at d
        nonlocal basis
        if basis is None or basis[0].shape[1] <= d:
            basis = _weighted_basis(samples.y, w, d, basis)
        return lawson_refine(
            grid, target, d, _LAWSON_ITERS, center, scale,
            budget=budget, _basis=(*basis, samples.unit, samples), _state=states.setdefault(d, {}),
        )

    def met(d):
        fits[d] = attempt(d, budget)
        return fits[d].sup_error_on_samples < budget

    d, lo = 1, -1
    while lo < cap:
        d = min(d, cap)
        if met(d):
            break
        lo, d = d, 2 * d
    if lo == cap:
        # an attempt that made all its fits is already the full one
        attempts = [fit if fit.iterations > _LAWSON_ITERS else attempt(d) for d, fit in fits.items()]
        return min(attempts, key=lambda fit: fit.sup_error_on_samples), False
    hi = d
    for failed in [k for k in states if k != hi]:
        del states[failed]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if met(mid):
            del states[hi]
            hi = mid
        else:
            del states[mid]
            lo = mid
    return attempt(hi), True
