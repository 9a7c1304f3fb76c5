"""Riemann zeta in and near the critical strip via Euler-Maclaurin summation.

For s != 1 with Re(s) > -1 and N = max(min_terms, ceil(terms_per_unit_t * |Im s|)):

    zeta(s) ~ sum_{n=1}^{N-1} n^-s  +  N^(1-s)/(s-1)  +  N^-s / 2
              + sum_{k=1}^{K} B_{2k}/(2k)! * s(s+1)...(s+2k-2) * N^(-s-2k+1)

The reported error estimate is twice the magnitude of the first omitted
correction term; N is doubled (at most twice) when that estimate exceeds
1e-6.  Everything is double precision except the phases of
n^-s = n^(-Re s) * exp(-i Im s ln n), whose arguments are reduced mod 2*pi
in extended precision: the estimate makes precision loss visible instead of
hiding it behind arbitrary-precision arithmetic.  A phase table of at least
_PRODUCT_CUT entries reduces only the arguments at the primes; n^(-i tau) is
completely multiplicative, so each composite entry is the product of two
earlier ones, and the table keeps the wide table's accuracy (both sit at the
floor tau times the rounding of the extended-precision logs).  At most
_MAX_TERMS terms are summed for any point.

For shifted points z_j + it the factors n^(-z_j) do not depend on t.  A
scan keeps them as rows (DirichletRows), built once for its horizon, and
each t adds one phase table exp(-i t ln n) that all points share.  Without
rows, or past their width, the points of equal Im share one phase table
exp(-i (Im z_j + t) ln n), the sum taken in extended precision.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import InvalidSpec, PrecisionExhausted

_ERR_THRESHOLD = 1e-6
_MAX_IM = 1e8


@dataclass(frozen=True)
class ZetaParams:
    terms_per_unit_t: float = 2.0
    min_terms: int = 20
    bernoulli_terms: int = 12

    def __post_init__(self):
        if self.min_terms < 2:
            raise ValueError("min_terms must be >= 2")
        if not 1 <= self.bernoulli_terms <= 30:
            raise ValueError("bernoulli_terms must be in 1..30")
        if not self.terms_per_unit_t > 0:
            raise ValueError("terms_per_unit_t must be positive")

    def quadrupled(self) -> "ZetaParams":
        """Oracle setting: 4x the term count and more correction terms."""
        return ZetaParams(
            terms_per_unit_t=4.0 * self.terms_per_unit_t,
            min_terms=4 * self.min_terms,
            bernoulli_terms=min(30, 2 * self.bernoulli_terms),
        )


DEFAULT_PARAMS = ZetaParams()


@dataclass(frozen=True)
class ZetaValue:
    value: complex
    error_estimate: float


@lru_cache(maxsize=None)
def _bernoulli_fractions(count: int) -> tuple[Fraction, ...]:
    # B_0 .. B_count via sum_{j=0}^{m} C(m+1, j) B_j = 0
    B = [Fraction(1)]
    for m in range(1, count + 1):
        s = Fraction(0)
        for j in range(m):
            s += math.comb(m + 1, j) * B[j]
        B.append(-s / (m + 1))
    return tuple(B)


def bernoulli_table(n: int) -> list[float]:
    """B_2, B_4, ..., B_{2n} as floats (exact rational recurrence underneath)."""
    if not 0 <= n <= 31:
        raise ValueError("bernoulli_table supports n in 0..31")
    B = _bernoulli_fractions(2 * n)
    return [float(B[2 * k]) for k in range(1, n + 1)]


@lru_cache(maxsize=None)
def _em_coefficients(kb: int) -> tuple[float, ...]:
    # q_k = B_{2k} / (2k)! for k = 1..kb+1 (the +1 feeds the error estimate)
    B = _bernoulli_fractions(2 * (kb + 1))
    return tuple(float(B[2 * k] / math.factorial(2 * k)) for k in range(1, kb + 2))


# phase arguments t * ln(n) reach ~1e5 rad at desk scale, where plain double
# loses ~1e-11; extended-precision logs plus modular reduction keep the
# oscillatory factors accurate when the platform provides a wider longdouble
_WIDE = np.finfo(np.longdouble).eps < 1e-18
_PHASE_DTYPE = np.longdouble if _WIDE else np.float64
_TWO_PI_WIDE = 2.0 * np.pi if not _WIDE else 2 * np.arccos(np.longdouble(-1.0))

# the most table entries (points x terms) that a scan keeps as DirichletRows,
# 64 MB of complex values; a larger scan evaluates every t without rows, as
# fast as before the rows existed
_SCAN_ENTRIES = 1 << 22

# the most terms any evaluation may ask for: the log cache alone holds 16
# bytes per term, and |Im s| near the 1e8 guard would ask for 2e8 terms
_MAX_TERMS = 1 << 26

# tables of at least this many entries take the wide phase only at the primes
# and fill the composites by products (_product_phases); below it one wide
# pass over every n is faster
_PRODUCT_CUT = 2048

_ln_cache = np.log(np.arange(1.0, 64.0, dtype=_PHASE_DTYPE))
_plan_cache = None


def _ln_table(count: int) -> np.ndarray:
    global _ln_cache
    if count > _MAX_TERMS:
        raise InvalidSpec(f"{count} terms exceed the term cap {_MAX_TERMS} (2^26)")
    if count > len(_ln_cache):
        _ln_cache = np.log(np.arange(1.0, count + 1.0, dtype=_PHASE_DTYPE))
    return _ln_cache[:count]


@dataclass(frozen=True)
class _FactorPlan:
    """How to fill exp(-i tau ln n) for n = 1..len(order) in the buffer
    order [1, primes ascending, composites ascending]: primes holds n - 1 of
    each prime; factors and cofactors hold the buffer positions of p and
    m = n / p for each composite n, p its smallest prime factor; order[n - 1]
    is the buffer position of n.  All indices are int32."""

    primes: np.ndarray
    factors: np.ndarray
    cofactors: np.ndarray
    order: np.ndarray


def _factor_plan() -> _FactorPlan:
    """The plan over n = 1..len(_ln_cache), built once per size of the log
    cache; a call cuts it to its own count by prefix."""
    global _plan_cache
    size = len(_ln_cache)
    if _plan_cache is None or len(_plan_cache.order) != size:
        spf = np.zeros(size + 1, dtype=np.int32)
        for p in range(2, math.isqrt(size) + 1):
            if not spf[p]:
                multiples = spf[p * p :: p]
                multiples[multiples == 0] = p
        spf[:2] = 1
        primes = np.flatnonzero(spf == 0).astype(np.int32)
        composites = np.flatnonzero(spf[2:]).astype(np.int32) + 2
        order = np.empty(size, dtype=np.int32)
        order[0] = 0
        order[primes - 1] = np.arange(1, len(primes) + 1, dtype=np.int32)
        order[composites - 1] = np.arange(len(primes) + 1, size, dtype=np.int32)
        factors = spf[composites]
        _plan_cache = _FactorPlan(
            primes=primes - 1,
            factors=order[factors - 1],
            cofactors=order[composites // factors - 1],
            order=order,
        )
    return _plan_cache


def _wide_phases(tau, ln_values: np.ndarray) -> np.ndarray:
    """exp(-i * tau * ln) with the argument reduced mod 2*pi in wide precision."""
    theta = np.asarray(tau, dtype=_PHASE_DTYPE) * ln_values
    np.mod(theta, _TWO_PI_WIDE, out=theta)
    theta = theta.astype(np.float64)
    phase = theta * -1j
    return np.exp(phase, out=phase)


def _product_phases(tau, count: int) -> np.ndarray:
    """exp(-i * tau * ln n) for n = 1..count from wide phases at the primes:
    n^(-i tau) is completely multiplicative, so each composite n = p * m is
    phase[p] * phase[m].  Both factors lie below 2^k for n in [2^k, 2^(k+1)),
    so one vectorised pass per doubling block fills the table."""
    plan = _factor_plan()
    primes = plan.primes[: np.searchsorted(plan.primes, count)]
    start = len(plan.primes) + 1
    # the blocks end before n = 8, 16, ..., the last before count + 1; the
    # composites below x are the x - 2 numbers 2..x-1 less the primes among them
    ends = np.minimum(1 << np.arange(3, count.bit_length() + 1), count + 1)
    ends = ends - 2 - np.searchsorted(plan.primes, ends - 1)
    buf = np.empty(start + ends[-1], dtype=complex)
    buf[0] = 1.0
    buf[1 : len(primes) + 1] = _wide_phases(tau, _ln_cache[primes])
    lo = 0
    for hi in ends:
        np.multiply(
            buf.take(plan.factors[lo:hi]), buf.take(plan.cofactors[lo:hi]), out=buf[start + lo : start + hi]
        )
        lo = hi
    return buf.take(plan.order[:count])


def _unit_phases(tau, count: int) -> np.ndarray:
    """exp(-i * tau * ln n) for n = 1..count.  Below _PRODUCT_CUT every
    argument is reduced mod 2*pi in wide precision; from it on only the
    primes are, and the composites are products of earlier entries."""
    ln = _ln_table(count)
    if count < _PRODUCT_CUT:
        return _wide_phases(tau, ln)
    return _product_phases(tau, count)


def _choose_n(tau: float, params: ZetaParams) -> int:
    return max(params.min_terms, int(math.ceil(params.terms_per_unit_t * abs(tau))))


def _shared_phase_terms(points: np.ndarray, t: float, counts, indices):
    """(i, n^-(z_i + it) for n = 1..counts[i]) for the indices: the points of
    equal Im share one phase table exp(-i (Im z + t) ln n), the sum Im z + t
    taken in wide precision, times each point's n^(-Re z)."""
    groups: dict[float, list[int]] = {}
    for i in indices:
        groups.setdefault(points[i].imag, []).append(i)
    for im, group in groups.items():
        count = max(counts[i] for i in group)
        phase = _unit_phases(_PHASE_DTYPE(im) + _PHASE_DTYPE(t), count)
        ln = _ln_table(count).astype(np.float64)
        for i in group:
            amp = ln[: counts[i]] * -points[i].real
            yield i, phase[: counts[i]] * np.exp(amp, out=amp)


@dataclass(frozen=True, eq=False)
class DirichletRows:
    """n^(-z_j) for fixed points z_j and n = 1..width, one row per point:
    table[j, n-1] = n^(-Re z_j) * exp(-i Im z_j ln n), the phase taken in wide
    precision.  The table does not depend on a shift t, so zeta(z_j + it)
    needs one phase table exp(-i t ln n) shared by all points."""

    points: np.ndarray
    table: np.ndarray


def shift_rows(points, t_max: float, params: ZetaParams = DEFAULT_PARAMS) -> DirichletRows | None:
    """Rows for the points that serve every shift |t| <= t_max, or None when
    the table would exceed _SCAN_ENTRIES (callers then pass no rows)."""
    points = np.asarray(points, dtype=complex)
    tau = min(abs(t_max) + float(np.max(np.abs(points.imag), initial=0.0)), _MAX_IM)
    count = _choose_n(tau, params)
    if len(points) * count > _SCAN_ENTRIES:
        return None
    # filled one point at a time, so that the table is the only points x
    # terms array
    table = np.empty((len(points), count), dtype=complex)
    for j, terms in _shared_phase_terms(points, 0.0, [count] * len(points), range(len(points))):
        table[j] = terms
    return DirichletRows(points, table)


def _em_eval(s: complex, N: int, kb: int, terms: np.ndarray) -> tuple[complex, float]:
    # terms[n-1] = n^(-s) for n = 1..N: the first N-1 form the partial sum,
    # the last is N^(-s)
    partial = complex(np.sum(terms[:-1]))
    q = _em_coefficients(kb)
    n_neg_s = complex(terms[-1])
    value = partial + N * n_neg_s / (s - 1.0) + n_neg_s / 2.0
    rising = s
    npow = n_neg_s / N
    inv_n2 = 1.0 / (N * N)
    for k in range(kb):
        value += q[k] * rising * npow
        rising = rising * (s + 2 * k + 1) * (s + 2 * k + 2)
        npow = npow * inv_n2
    err = 2.0 * abs(q[kb] * rising * npow)
    return value, err


def _check_range(s: complex) -> complex:
    s = complex(s)
    if not cmath.isfinite(s):
        raise InvalidSpec(f"s = {s} is not finite")
    if abs(s - 1.0) < 1e-12:
        raise InvalidSpec(f"s = {s} is too close to the pole at 1")
    if s.real <= -1.0:
        raise InvalidSpec(f"Re(s) = {s.real} outside the supported range Re > -1")
    if abs(s.imag) > _MAX_IM:
        raise InvalidSpec(f"|Im(s)| = {abs(s.imag)} exceeds the precision guard {_MAX_IM:g}")
    return s


def _terms(points: np.ndarray, t: float, rows: DirichletRows | None, counts: list[int], pending):
    """(i, n^-(z_i + it) for n = 1..counts[i]) for the pending indices.  Where
    `rows` are wide enough, a row times one phase table at t that all those
    points share; elsewhere _shared_phase_terms, as shift_rows fills the
    rows at t = 0."""
    width = 0 if rows is None else rows.table.shape[1]
    from_rows = [i for i in pending if counts[i] <= width]
    if from_rows:
        # t = 0 needs no phase table: the rows carry all of Im s
        phase = _unit_phases(t, max(counts[i] for i in from_rows)) if t else None
        for i in from_rows:
            row = rows.table[i, : counts[i]]
            yield i, row if phase is None else row * phase[: counts[i]]
    yield from _shared_phase_terms(points, t, counts, [i for i in pending if counts[i] > width])


def _evaluate(points: np.ndarray, t: float, params: ZetaParams, rows: DirichletRows | None = None):
    """(values, error estimates) of zeta at z_j + it for the points z_j.  N
    is doubled, at most twice, only for the points whose estimate stays above
    threshold.  A point that still fails raises PrecisionExhausted carrying
    its index."""
    shifted = [_check_range(s) for s in (points + 1j * t).tolist()]
    counts = [_choose_n(s.imag, params) for s in shifted]
    values = np.empty(len(shifted), dtype=complex)
    errors = np.empty(len(shifted))
    pending = range(len(shifted))
    for _ in range(3):
        for i, terms in _terms(points, t, rows, counts, pending):
            values[i], errors[i] = _em_eval(shifted[i], counts[i], params.bernoulli_terms, terms)
        pending = [i for i in pending if not errors[i] <= _ERR_THRESHOLD or not np.isfinite(values[i])]
        if not pending:
            return values, errors
        for i in pending:
            counts[i] *= 2
    i = pending[0]
    raise PrecisionExhausted(
        f"error estimate {errors[i]:g} above {_ERR_THRESHOLD:g} at s = {shifted[i]} "
        "after doubling N twice",
        index=i,
    )


def zeta_em(s: complex, params: ZetaParams = DEFAULT_PARAMS) -> ZetaValue:
    """zeta(s) with an a-posteriori truncation-error estimate."""
    values, errors = _evaluate(np.array([s], dtype=complex), 0.0, params)
    return ZetaValue(complex(values[0]), float(errors[0]))


def zeta_shifted_grid(
    grid, t: float, params: ZetaParams = DEFAULT_PARAMS, rows: DirichletRows | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(values, error estimates) of zeta(z_i + i t) for all grid points, as
    arrays.  `rows`, when given, are the shift_rows of grid.points that a
    scan reuses for every t.  Both ways take the value at the exact point
    Re z_i + i(Im z_i + t), not at Im z_i + t rounded to a double, and may
    differ from each other and from a one-point zeta_em(z_i + i t) in the
    last bits."""
    if rows is not None and not np.array_equal(rows.points, grid.points):
        raise InvalidSpec("rows were built for other points than the grid's")
    return _evaluate(grid.points, t, params, rows)
