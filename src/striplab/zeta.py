"""Riemann zeta in and near the critical strip via Euler-Maclaurin summation.

For s != 1 with Re(s) > -1 and N = max(min_terms, ceil(terms_per_unit_t * |Im s|)):

    zeta(s) ~ sum_{n=1}^{N-1} n^-s  +  N^(1-s)/(s-1)  +  N^-s / 2
              + sum_{k=1}^{K} B_{2k}/(2k)! * s(s+1)...(s+2k-2) * N^(-s-2k+1)

The reported error estimate is twice the magnitude of the first omitted
correction term; N is doubled (at most twice) when that estimate exceeds
1e-6.  Everything is plain double precision: the estimate makes precision
loss visible instead of hiding it behind arbitrary-precision arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import PoleAtOne, PrecisionExhausted

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

_ln_cache = np.log(np.arange(1.0, 64.0, dtype=_PHASE_DTYPE))


def _ln_table(count: int) -> np.ndarray:
    global _ln_cache
    if count > len(_ln_cache):
        _ln_cache = np.log(np.arange(1.0, 2 * count + 1.0, dtype=_PHASE_DTYPE))
    return _ln_cache[:count]


def _unit_phases(tau: float, ln_values: np.ndarray) -> np.ndarray:
    """exp(-i * tau * ln) with the argument reduced mod 2*pi in wide precision."""
    theta = np.mod(_PHASE_DTYPE(tau) * ln_values, _TWO_PI_WIDE).astype(np.float64)
    return np.exp(-1j * theta)


def _choose_n(tau: float, params: ZetaParams) -> int:
    return max(params.min_terms, int(math.ceil(params.terms_per_unit_t * abs(tau))))


def _em_eval(s: complex, N: int, kb: int, phase: np.ndarray) -> tuple[complex, float]:
    # phase is exp(-i Im(s) ln n) for n = 1..N-1, shared by points of equal Im(s)
    ln = _ln_table(N - 1)
    amp = np.exp(-s.real * np.asarray(ln, dtype=np.float64))
    partial = complex(np.sum(amp * phase))
    q = _em_coefficients(kb)
    ln_n_wide = np.log(_PHASE_DTYPE(N))
    n_phase = complex(_unit_phases(s.imag, ln_n_wide.reshape(1))[0])
    n_neg_s = float(N) ** (-s.real) * n_phase  # N^(-s)
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
    if abs(s - 1.0) < 1e-12:
        raise PoleAtOne(f"s = {s} is too close to the pole at 1")
    if s.real <= -1.0:
        raise ValueError(f"Re(s) = {s.real} outside the supported range Re > -1")
    if abs(s.imag) > _MAX_IM:
        raise ValueError(f"|Im(s)| = {abs(s.imag)} exceeds the precision guard {_MAX_IM:g}")
    return s


def _evaluate(points, params: ZetaParams) -> tuple[np.ndarray, np.ndarray]:
    """(values, error estimates) of zeta at the points.  Points sharing Im(s)
    share N and the phase table; N is doubled, at most twice, only for the
    points whose estimate stays above threshold.  A point that still fails
    raises PrecisionExhausted carrying its index."""
    shifted = [_check_range(s) for s in points]
    values = np.empty(len(shifted), dtype=complex)
    errors = np.empty(len(shifted))
    groups: dict[float, list[int]] = {}
    for i, s in enumerate(shifted):
        groups.setdefault(s.imag, []).append(i)
    for tau, pending in groups.items():
        N = _choose_n(tau, params)
        for _ in range(3):
            phase = _unit_phases(tau, _ln_table(N - 1))
            for i in pending:
                values[i], errors[i] = _em_eval(shifted[i], N, params.bernoulli_terms, phase)
            pending = [i for i in pending if not errors[i] <= _ERR_THRESHOLD or not np.isfinite(values[i])]
            if not pending:
                break
            N *= 2
        if pending:
            i = pending[0]
            raise PrecisionExhausted(
                f"error estimate {errors[i]:g} above {_ERR_THRESHOLD:g} at s = {shifted[i]} "
                "after doubling N twice",
                index=i,
            )
    return values, errors


def zeta_em(s: complex, params: ZetaParams = DEFAULT_PARAMS) -> ZetaValue:
    """zeta(s) with an a-posteriori truncation-error estimate."""
    values, errors = _evaluate([s], params)
    return ZetaValue(complex(values[0]), float(errors[0]))


def zeta_shifted_grid(grid, t: float, params: ZetaParams = DEFAULT_PARAMS) -> tuple[np.ndarray, np.ndarray]:
    """(values, error estimates) of zeta(z_i + i t) for all grid points, as
    arrays.  Horizontal grids share one phase table per row, and every value
    is identical to a one-point zeta_em call."""
    return _evaluate(grid.points + 1j * t, params)
