"""Riemann zeta in and near the critical strip via Euler-Maclaurin summation.

For s != 1 with Re(s) > -1 and N = max(min_terms, ceil(terms_per_unit_t * |Im s|)):

    zeta(s) ~ sum_{n=1}^{N-1} n^-s  +  N^(1-s)/(s-1)  +  N^-s / 2
              + sum_{k=1}^{K} B_{2k}/(2k)! * s(s+1)...(s+2k-2) * N^(-s-2k+1)

The reported error estimate is twice the magnitude of the first omitted
correction term; N is doubled (at most twice) when that estimate exceeds
1e-6.  Everything is double precision except the phases of
n^-s = n^(-Re s) * exp(-i Im s ln n): at the primes their arguments are
reduced mod 2*pi in extended precision, and since n^(-i tau) is completely
multiplicative each composite entry is the product of two earlier ones.  The
estimate makes precision loss visible instead of hiding it behind
arbitrary-precision arithmetic.  At most _MAX_TERMS terms are summed for any
point.

One call evaluates a block of (point, shift) pairs z_j + i t_b and returns
P x B values and estimates.  The phases exp(-i tau ln n) of a block form one
2-D table, one row per distinct tau, and the product passes along n fill all
rows at once.  For shifted points the factors n^(-z_j) do not depend on t: a
scan keeps them as rows (DirichletRows), built once for its horizon, and
tau = t_b.  Without rows, or past their width, tau = Im z_j + t_b, the sum
taken in extended precision, times each point's n^(-Re z_j).  Each pair's
partial sum is one contiguous reduction over its own N - 1 terms, and the
tail and its estimate are vectorised over the pairs, so a value depends
only on (z, t, params), never on the block it was evaluated in.  A table
holds at most _BLOCK_ENTRIES entries (2^13, 128 kB of complex values); a
larger block is cut into tables of that size, and a pair with more terms
has a table of its own.
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
        if not 0 < self.terms_per_unit_t < math.inf:
            raise ValueError("terms_per_unit_t must be positive and finite")

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
# 64 MB of complex values; a larger scan evaluates every t without rows
_SCAN_ENTRIES = 1 << 22

# the most terms any evaluation may ask for: the log cache alone holds 16
# bytes per term, and |Im s| near the 1e8 guard would ask for 2e8 terms
_MAX_TERMS = 1 << 26

# the most entries of one phase table or one array of terms (128 kB of
# complex values); a pair with more terms has a table of its own.  On the
# scan500 benchmark job (2 cores, x86-64; 39.4 MB peak RSS with one
# evaluation per t) 2^12 took 0.25 s at 40.3 MB peak, 2^13 0.20 s at 40.4 MB
# and 2^14 0.19 s at 41.2 MB, near the benchmark's 5% bound
_BLOCK_ENTRIES = 1 << 13

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


def _phase_table(taus, count: int) -> np.ndarray:
    """exp(-i * tau_b * ln n) for n = 1..count, one row per tau_b, from wide
    phases at the primes: n^(-i tau) is completely multiplicative, so each
    composite n = p * m is phase[p] * phase[m].  Both factors lie below 2^k
    for n in [2^k, 2^(k+1)), so one vectorised pass per doubling block fills
    the composites of every tau at once."""
    ln = _ln_table(count)
    plan = _factor_plan()
    primes = plan.primes[: np.searchsorted(plan.primes, count)]
    # the blocks end before n = 8, 16, ..., the last before count + 1; the
    # composites below x are the x - 2 numbers 2..x-1 less the primes among them
    ends = np.minimum(1 << np.arange(3, max(count.bit_length(), 3) + 1), count + 1)
    ends = ends - 2 - np.searchsorted(plan.primes, ends - 1)
    # the buffer holds 1, the primes, then the composites: the plan's
    # composites sit past all its primes, so the rows of the primes past
    # count are left unwritten, or, when there are more of them than count,
    # the composites move down to close the gap
    cofactors, order = plan.cofactors[: ends[-1]], plan.order[:count]
    start = len(plan.primes) + 1
    gap = len(plan.primes) - len(primes)
    if gap > count:
        cofactors = np.where(cofactors >= start, cofactors - gap, cofactors)
        order = np.where(order >= start, order - gap, order)
        start -= gap
    width = len(taus)
    buf = np.empty((start + ends[-1], width), dtype=complex)
    buf[0] = 1.0
    buf[1 : len(primes) + 1] = _wide_phases(np.asarray(taus, dtype=_PHASE_DTYPE), ln[primes][:, None])
    lo = 0
    for hi in ends.tolist():
        # a smallest prime factor is a prime, at the same position either way
        np.multiply(
            buf.take(plan.factors[lo:hi], axis=0),
            buf.take(cofactors[lo:hi], axis=0),
            out=buf[start + lo : start + hi],
        )
        lo = hi
    return np.ascontiguousarray(buf.take(order, axis=0).T)


def _choose_n(tau, params: ZetaParams) -> np.ndarray:
    # clipped past the term cap, so that the cast cannot overflow; _ln_table
    # rejects such a count
    n = np.minimum(np.ceil(params.terms_per_unit_t * np.abs(tau)), _MAX_TERMS + 1)
    return np.maximum(params.min_terms, n).astype(np.int64)


def _blocks(counts: list[int]) -> list[tuple[int, int]]:
    """Consecutive runs [lo, hi) of counts, each at least one long and
    otherwise no longer than keeps (hi - lo) * max(counts[lo:hi]) within
    _BLOCK_ENTRIES."""
    bounds = [0]
    peak = 0
    for i, count in enumerate(counts):
        peak = max(peak, count)
        if i > bounds[-1] and (i + 1 - bounds[-1]) * peak > _BLOCK_ENTRIES:
            bounds.append(i)
            peak = count
    bounds.append(len(counts))
    return list(zip(bounds[:-1], bounds[1:]))


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(index of each key's run of equal neighbours, where each run starts)."""
    first = np.concatenate(([True], keys[1:] != keys[:-1]))
    return first.cumsum() - 1, first


def _partial_sums(factor_rows, f_idx: np.ndarray, row: np.ndarray, taus: np.ndarray, counts: np.ndarray):
    """(sum_{n<N} a_n, a_N) for every pair k, where
    a_n = factor_rows(f_idx[k])[n - 1] * exp(-i * taus[row[k]] * ln n) and
    N = counts[k]; the pairs come ordered so that row never decreases.
    factor_rows(index, width) returns the factor rows at an index array or a
    slice, cut to width.

    _blocks cuts the taus into phase tables, and the pairs of each table
    again so that their terms fit _BLOCK_ENTRIES.  Each pair's partial sum
    is one reduction over its own contiguous N - 1 terms, so its value does
    not depend on the other pairs."""
    starts = np.searchsorted(row, np.arange(len(taus) + 1))
    need = np.maximum.reduceat(counts, starts[:-1])
    partial = np.empty(len(counts), dtype=complex)
    last = np.empty(len(counts), dtype=complex)
    counts = counts.tolist()
    for lo, hi in _blocks(need.tolist()):
        phase = _phase_table(taus[lo:hi], int(need[lo:hi].max()))
        first = int(starts[lo])
        for a, b in _blocks(counts[first : starts[hi]]):
            a, b = a + first, b + first
            if b - a == 1:
                # one pair: its rows as views, not as the copies an index
                # array makes (on line_scan, where every cut is one pair, a
                # job takes about 10% less); the same reduction either way
                f, m = int(f_idx[a]), counts[a]
                terms = factor_rows(slice(f, f + 1), m)[0] * phase[int(row[a]) - lo, :m]
                partial[a] = terms[: m - 1].sum()
                last[a] = terms[m - 1]
                continue
            n = counts[a:b]
            longest = max(n)
            terms = phase[row[a:b] - lo, :longest]
            np.multiply(factor_rows(f_idx[a:b], longest), terms, out=terms)
            # runs of equal N reduce together, row by row
            c = 0
            for d in range(1, b - a + 1):
                if d == b - a or n[d] != n[c]:
                    m = n[c]
                    partial[a + c : a + d] = terms[c:d, : m - 1].sum(axis=1)
                    last[a + c : a + d] = terms[c:d, m - 1]
                    c = d
    return partial, last


@dataclass(frozen=True, eq=False)
class DirichletRows:
    """n^(-z_j) for fixed points z_j and n = 1..width, one row per point:
    table[j, n-1] = n^(-Re z_j) * exp(-i Im z_j ln n), the phase taken in wide
    precision.  The table does not depend on a shift t, so zeta(z_j + it)
    needs one phase row exp(-i t ln n) shared by all points."""

    points: np.ndarray
    table: np.ndarray


def shift_rows(points, t_max: float, params: ZetaParams = DEFAULT_PARAMS) -> DirichletRows | None:
    """Rows for the points that serve every shift |t| <= t_max, or None when
    the table would exceed _SCAN_ENTRIES (callers then pass no rows)."""
    points = np.asarray(points, dtype=complex)
    tau = min(abs(t_max) + float(np.max(np.abs(points.imag), initial=0.0)), _MAX_IM)
    count = int(_choose_n(tau, params))
    if len(points) * count > _SCAN_ENTRIES:
        return None
    ln = _ln_table(count).astype(np.float64)
    # the points of equal Im share a phase row; the table is filled one
    # point at a time, so that it is the only points x terms array
    taus, inverse = np.unique(points.imag.astype(_PHASE_DTYPE), return_inverse=True)
    table = np.empty((len(points), count), dtype=complex)
    for lo, hi in _blocks([count] * len(taus)):
        phase = _phase_table(taus[lo:hi], count)
        for j in np.flatnonzero((inverse >= lo) & (inverse < hi)):
            amp = ln * -points[j].real
            np.multiply(np.exp(amp, out=amp), phase[inverse[j] - lo], out=table[j])
    return DirichletRows(points, table)


@lru_cache(maxsize=None)
def _em_tail_constants(kb: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # q_1..q_{kb+1}, and the offsets 2k + 1 and 2k + 2 of the factors that
    # step the rising product s(s+1)...(s+2k-2) from term k + 1 to k + 2
    k = np.arange(kb)
    constants = np.array(_em_coefficients(kb)), 2.0 * k + 1.0, 2.0 * k + 2.0
    for array in constants:
        array.flags.writeable = False
    return constants


def _em_tail(s: np.ndarray, N: np.ndarray, partial: np.ndarray, last: np.ndarray, kb: int):
    """(values, error estimates) of zeta at the points s from the partial
    sums over n < N and the terms last = N^(-s), vectorised over the points:
    the correction terms q_k s(s+1)...(s+2k-2) N^(-s-2k+1), k = 1..kb+1, are
    one row per point, built by a running product along the row, and the
    first kb are summed row by row; the rows of at most _BLOCK_ENTRIES
    entries are built at a time.  A value or estimate that overflows comes
    out non-finite and fails the threshold."""
    q, odd, even = _em_tail_constants(kb)
    N = N.astype(np.float64)
    values = np.empty(len(s), dtype=complex)
    errors = np.empty(len(s))
    step = max(1, _BLOCK_ENTRIES // (kb + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(s), step):
            cut = slice(lo, lo + step)
            z, n, w = s[cut], N[cut], last[cut]
            # s N^(-s-1), then the factors (s + 2k + 1)(s + 2k + 2) N^-2
            steps = np.empty((len(z), kb + 1), dtype=complex)
            steps[:, 0] = z * (w / n)
            steps[:, 1:] = (z[:, None] + odd) * (z[:, None] + even) * (1.0 / (n * n))[:, None]
            terms = q * np.cumprod(steps, axis=1)
            values[cut] = partial[cut] + n * w / (z - 1.0) + w / 2.0 + terms[:, :kb].sum(axis=1)
            errors[cut] = 2.0 * np.abs(terms[:, kb])
    return values, errors


def _check_range(shifted: np.ndarray) -> None:
    """Raise InvalidSpec for the first point outside the supported range."""
    inside = np.isfinite(shifted)
    inside &= np.abs(shifted - 1.0) >= 1e-12
    inside &= shifted.real > -1.0
    inside &= np.abs(shifted.imag) <= _MAX_IM
    if inside.all():
        return
    s = complex(shifted[np.argmin(inside)])
    if not cmath.isfinite(s):
        raise InvalidSpec(f"s = {s} is not finite")
    if abs(s - 1.0) < 1e-12:
        raise InvalidSpec(f"s = {s} is too close to the pole at 1")
    if s.real <= -1.0:
        raise InvalidSpec(f"Re(s) = {s.real} outside the supported range Re > -1")
    raise InvalidSpec(f"|Im(s)| = {abs(s.imag)} exceeds the precision guard {_MAX_IM:g}")


def _sums(points: np.ndarray, ts: np.ndarray, pairs: np.ndarray, counts: np.ndarray, rows):
    """_partial_sums for the flat pair indices b * len(points) + j: from the
    rows times a phase row at tau = t_b where the rows are wide enough, else
    from n^(-Re z_j) times a phase row at tau = Im z_j + t_b, the sum taken
    in wide precision.  Pairs of equal tau share a phase row."""
    b, j = np.divmod(pairs, len(points))
    from_rows = counts <= (0 if rows is None else rows.table.shape[1])
    partial = np.empty(len(pairs), dtype=complex)
    last = np.empty(len(pairs), dtype=complex)

    def amplitudes(sel, w):
        return np.exp(np.multiply.outer(-points.real[sel], _ln_table(w).astype(np.float64)))

    for k, factor_rows in (
        (np.flatnonzero(from_rows), lambda sel, w: rows.table[sel, :w]),
        (np.flatnonzero(~from_rows), amplitudes),
    ):
        if not len(k):
            continue
        # the term cap is checked before any table is built
        _ln_table(int(counts[k].max()))
        taus = ts[b[k]].astype(_PHASE_DTYPE)
        if factor_rows is amplitudes:
            taus += points.imag[j[k]].astype(_PHASE_DTYPE)
        order = np.argsort(taus, kind="stable")
        k, taus = k[order], taus[order]
        row, first = _runs(taus)
        partial[k], last[k] = _partial_sums(factor_rows, j[k], row, taus[first], counts[k])
    return partial, last


def _evaluate(points, ts, params: ZetaParams, rows: DirichletRows | None = None):
    """(values, error estimates, exhausted), each len(points) x len(ts), of
    zeta at z_j + i t_b.  N is doubled, at most twice, only for the pairs
    whose estimate is above threshold or whose value is not finite; a pair
    that still is keeps its last value and estimate and is marked
    exhausted, and the caller decides."""
    points = np.asarray(points, dtype=complex)
    ts = np.asarray(ts, dtype=np.float64)
    # pairs run shift by shift
    shape = (len(ts), len(points))
    shifted = np.empty(shape, dtype=complex)
    shifted.real = points.real
    shifted.imag = points.imag + ts[:, None]
    shifted = shifted.reshape(-1)
    _check_range(shifted)
    counts = _choose_n(shifted.imag, params)
    values = np.empty(len(shifted), dtype=complex)
    errors = np.empty(len(shifted))
    pending = np.arange(len(shifted))
    for attempt in range(3):
        if attempt:
            counts[pending] *= 2
        n = counts[pending]
        partial, last = _sums(points, ts, pending, n, rows)
        v, e = _em_tail(shifted[pending], n, partial, last, params.bernoulli_terms)
        values[pending], errors[pending] = v, e
        pending = pending[~((e <= _ERR_THRESHOLD) & np.isfinite(v))]
        if not len(pending):
            break
    exhausted = np.zeros(len(shifted), dtype=bool)
    exhausted[pending] = True
    return values.reshape(shape).T, errors.reshape(shape).T, exhausted.reshape(shape).T


def _evaluate_at(points: np.ndarray, t: float, params: ZetaParams, rows: DirichletRows | None = None):
    """_evaluate at one shift; a point that exhausts precision raises
    PrecisionExhausted carrying its index."""
    values, errors, exhausted = _evaluate(points, [t], params, rows)
    if exhausted.any():
        i = int(np.argmax(exhausted[:, 0]))
        s = complex(points[i].real, points[i].imag + t)
        raise PrecisionExhausted(
            f"error estimate {errors[i, 0]:g} above {_ERR_THRESHOLD:g} at s = {s} "
            "after doubling N twice",
            index=i,
        )
    return values[:, 0], errors[:, 0]


def zeta_em(s: complex, params: ZetaParams = DEFAULT_PARAMS) -> ZetaValue:
    """zeta(s) with an a-posteriori truncation-error estimate."""
    values, errors = _evaluate_at(np.array([s], dtype=complex), 0.0, params)
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
    return _evaluate_at(grid.points, t, params, rows)
