"""Riemann zeta in and near the critical strip via Euler-Maclaurin summation.

For s != 1 with Re(s) > -1 and N = max(min_terms, ceil(terms_per_unit_t * |Im s|)):

    zeta(s) ~ sum_{n=1}^{N-1} n^-s  +  N^(1-s)/(s-1)  +  N^-s / 2
              + sum_{k=1}^{K} B_{2k}/(2k)! * s(s+1)...(s+2k-2) * N^(-s-2k+1)

The reported error estimate is twice the magnitude of the first omitted
correction term; N is doubled (at most twice) when that estimate exceeds
1e-6.  Everything is double precision, on every platform.  The phases of
n^-s = n^(-Re s) * exp(-i Im s ln n) are taken at the primes from
double-double logs (Dekker 1971) with the argument reduced mod 2*pi in the
manner of Cody and Waite (1980), to within 2.3e-16 rad; since n^(-i tau) is
completely multiplicative each composite entry is the product of two
earlier ones.  The estimate makes precision loss visible instead of hiding
it behind arbitrary-precision arithmetic.  At most _MAX_TERMS terms are
summed for any point.

One call evaluates a block of (point, shift) pairs z_j + i t_b and returns
P x B values and estimates.  A term is n^(-z_j) * exp(-i t_b ln n).  The
Dirichlet rows n^(-z_j) do not depend on t: a scan keeps them for its
horizon (shift_rows) for as many of its first points as fit, and a call
builds every row it was not given, or was given too narrow.  The
phases exp(-i t_b ln n) form one 2-D table, one row per shift, and the
product passes along n fill all rows at once.  Each pair's partial sum is
one contiguous reduction over its own N - 1 terms, and the tail and its
estimate are vectorised over the pairs, so a value depends only on
(z, t, params), never on the block or on where its rows came from.  A table
holds at most _BLOCK_ENTRIES entries (2^13, 128 kB of complex values); a
larger block is cut into tables of that size, and a pair with more terms
has a table of its own.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import InvalidSpec, PrecisionExhausted

_ERR_THRESHOLD = 1e-6
_MAX_IM = 1e8

# the most terms any evaluation may ask for: the log cache alone holds 8
# bytes per term, and |Im s| near the 1e8 guard would ask for 2e8 terms
_MAX_TERMS = 1 << 26


@dataclass(frozen=True)
class ZetaParams:
    terms_per_unit_t: float = 2.0
    min_terms: int = 20
    bernoulli_terms: int = 12

    def __post_init__(self):
        # N = min_terms stays within the term cap, and the Bernoulli
        # recurrence takes an integer count
        for name, lo, hi in (("min_terms", 2, _MAX_TERMS), ("bernoulli_terms", 1, 30)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or not lo <= value <= hi:
                raise InvalidSpec(f"{name} must be an integer in {lo}..{hi}")
        if not 0 < self.terms_per_unit_t < math.inf:
            raise InvalidSpec("terms_per_unit_t must be positive and finite")

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
        raise InvalidSpec("bernoulli_table supports n in 0..31")
    B = _bernoulli_fractions(2 * n)
    return [float(B[2 * k]) for k in range(1, n + 1)]


@lru_cache(maxsize=None)
def _em_coefficients(kb: int) -> tuple[float, ...]:
    # q_k = B_{2k} / (2k)! for k = 1..kb+1 (the +1 feeds the error estimate)
    B = _bernoulli_fractions(2 * (kb + 1))
    return tuple(float(B[2 * k] / math.factorial(2 * k)) for k in range(1, kb + 2))


# the most table entries (points x terms) of the Dirichlet rows a scan keeps,
# 64 MB of complex values: rows for as many of its first points as fit, and
# each call builds rows for the rest
_SCAN_ENTRIES = 1 << 22

# the most entries of one phase table or one array of terms (128 kB of
# complex values); a pair with more terms has a table of its own.  On the
# scan500 benchmark job (2 cores, x86-64; 39.4 MB peak RSS with one
# evaluation per t) 2^12 took 0.25 s at 40.3 MB peak, 2^13 0.20 s at 40.4 MB
# and 2^14 0.19 s at 41.2 MB, near the benchmark's 5% bound
_BLOCK_ENTRIES = 1 << 13

_ln_cache = np.log(np.arange(1.0, 64.0))
_plan_cache = None


def _ln_table(count: int) -> np.ndarray:
    global _ln_cache
    if count > _MAX_TERMS:
        raise InvalidSpec(f"{count} terms exceed the term cap {_MAX_TERMS} (2^26)")
    if count > len(_ln_cache):
        _ln_cache = np.log(np.arange(1.0, count + 1.0))
    return _ln_cache[:count]


# Double-double arithmetic (Dekker 1971) for the logs of the primes and the
# reduction of their phases: a value is a pair (hi, lo) with hi + lo exact
# and |lo| <= ulp(hi) / 2.  numpy has no fused multiply-add, so an exact
# product splits each factor into two halves of 26 bits (Veltkamp).


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _split(a):
    """(hi, lo) with hi + lo = a, each of at most 26 significant bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _two_prod(a, b):
    """(p, e) with p = fl(a * b) and p + e = a * b exactly."""
    p = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _dd_mul(a, b):
    p, e = _two_prod(a[0], b[0])
    return _two_sum(p, e + (a[0] * b[1] + a[1] * b[0]))


def _dd_add(a, b):
    s, e = _two_sum(a[0], b[0])
    return _two_sum(s, e + (a[1] + b[1]))


def _dd_fraction(x: Fraction) -> tuple[float, float]:
    hi = float(x)
    return hi, float(x - Fraction(hi))


_LN2 = (float.fromhex("0x1.62e42fefa39efp-1"), float.fromhex("0x1.abc9e3b39803fp-56"))
# 1 / (2j + 1) for j = 0..19: atanh(u) / u = sum_j u^(2j) / (2j + 1), and past
# j = 19 the terms fall below 2^-104 for |u| <= (sqrt 2 - 1) / (sqrt 2 + 1)
_ATANH_SERIES = tuple(_dd_fraction(Fraction(1, 2 * j + 1)) for j in range(20))


def _dd_log(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ln n as double-doubles (hi, lo) for integers 2 <= n < 2^52, to about
    2^-100 relative: n = 2^k m with m in [sqrt 1/2, sqrt 2), and ln n =
    k ln 2 + 2 atanh(u) with u = (n - 2^k) / (n + 2^k), whose numerator and
    denominator are exact integers."""
    n = n.astype(np.float64)
    f, k = np.frexp(n)
    k -= f < math.sqrt(0.5)
    power = np.ldexp(1.0, k)
    num, den = n - power, n + power
    # the remainder num - q den of a rounded quotient q is exact
    q = num / den
    p, e = _two_prod(q, den)
    u = (q, ((num - p) - e) / den)
    v = _dd_mul(u, u)
    s = _ATANH_SERIES[-1]
    for c in _ATANH_SERIES[-2::-1]:
        s = _dd_add(_dd_mul(s, v), c)
    atanh = _dd_mul(u, s)
    return _dd_add(_dd_mul((k.astype(np.float64), 0.0), _LN2), (2.0 * atanh[0], 2.0 * atanh[1]))


# 2 pi = C1 + C2 + C3 to 3.4e-31 (Cody and Waite 1980): C1 and C2 hold at
# most 24 significant bits, so k C1 and k C2 are exact for |k| < 2^29
_TWO_PI_PARTS = (
    float.fromhex("0x1.921fb6p+2"),
    float.fromhex("-0x1.777a5cp-23"),
    float.fromhex("-0x1.ee59d9cceba4p-48"),
)


def _prime_phases(taus: np.ndarray, ln_hi: np.ndarray, ln_lo: np.ndarray) -> np.ndarray:
    """exp(-i tau ln p), one row per prime, one column per tau, from the
    double-double logs (ln_hi, ln_lo) of the primes: tau ln_hi is split
    exactly into P + e, k = rint(P / 2 pi), and the argument reduced to
    r = ((P - k C1) - k C2) + ((e + tau ln_lo) - k C3), whose first two
    differences are exact."""
    P, e = _two_prod(taus, ln_hi[:, None])
    k = np.rint(P * (1.0 / (2.0 * math.pi)))
    c1, c2, c3 = _TWO_PI_PARTS
    r = ((P - k * c1) - k * c2) + ((e + taus * ln_lo[:, None]) - k * c3)
    phase = r * -1j
    return np.exp(phase, out=phase)


@dataclass(frozen=True)
class _FactorPlan:
    """How to fill exp(-i tau ln n) for n = 1..len(order) in the buffer
    order [1, primes ascending, composites ascending]: primes holds n - 1 of
    each prime; factors and cofactors hold the buffer positions of p and
    m = n / p for each composite n, p its smallest prime factor; order[n - 1]
    is the buffer position of n.  All indices are int32.  ln_hi and ln_lo
    hold ln p of each prime as a double-double."""

    primes: np.ndarray
    factors: np.ndarray
    cofactors: np.ndarray
    order: np.ndarray
    ln_hi: np.ndarray
    ln_lo: np.ndarray


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
        ln_hi, ln_lo = _dd_log(primes)
        _plan_cache = _FactorPlan(
            primes=primes - 1,
            factors=order[factors - 1],
            cofactors=order[composites // factors - 1],
            order=order,
            ln_hi=ln_hi,
            ln_lo=ln_lo,
        )
    return _plan_cache


def _phase_table(taus, count: int) -> np.ndarray:
    """exp(-i * tau_b * ln n) for n = 1..count, one row per tau_b, from
    _prime_phases at the primes: n^(-i tau) is completely multiplicative, so
    each composite n = p * m is phase[p] * phase[m].  Both factors lie below
    2^k for n in [2^k, 2^(k+1)), so one vectorised pass per doubling block
    fills the composites of every tau at once.

    Error bound at a prime p, for |tau ln p| < 2^29 * 2 pi (3.3e9; the 1e8
    guard and the term cap give at most 1.8e9): the reduced argument r lies
    within 2.3e-16 rad of tau ln p mod 2 pi, half an ulp of |r| < 4 for its
    one rounding plus under 1e-20 from the logs, the split of 2 pi and the
    small terms.  With sin and cos rounded within an ulp, the phase is then
    within 4e-16 of exp(-i tau ln p) (3.1e-16 measured against mpmath up to
    tau = 1e8).  A composite adds one such error per prime factor and one
    rounding per product."""
    _ln_table(count)
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
    buf[1 : len(primes) + 1] = _prime_phases(
        np.asarray(taus, dtype=np.float64), plan.ln_hi[: len(primes)], plan.ln_lo[: len(primes)]
    )
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


def _blocks(count: int, longest: int) -> list[tuple[int, int]]:
    """Consecutive runs [lo, hi) of count items, max(1, _BLOCK_ENTRIES //
    longest) long but the last: a run of items of at most longest entries
    each holds at most _BLOCK_ENTRIES entries, or is one item."""
    step = max(1, _BLOCK_ENTRIES // longest)
    return [(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _partial_sums(table, f_idx: np.ndarray, shift: np.ndarray, ts: np.ndarray, counts: np.ndarray):
    """(sum_{n<N} a_n, a_N) for every pair k, where
    a_n = table[f_idx[k], n - 1] * exp(-i * ts[shift[k]] * ln n) and
    N = counts[k]; the pairs come ordered so that shift never decreases.

    The pairs of a shift share a phase row.  _blocks cuts the rows into
    phase tables by the call's longest pair, each table as wide as its own
    longest pair, and the pairs of each table again by that width, so that
    no table and no array of terms holds more than _BLOCK_ENTRIES entries;
    a table of t = 0 alone is all ones and is not built.  Each pair's
    partial sum is one reduction over its own contiguous N - 1 terms, so its
    value does not depend on the other pairs."""
    head = np.concatenate(([True], shift[1:] != shift[:-1]))
    row = head.cumsum() - 1
    taus = ts[shift[head]]
    starts = np.append(np.flatnonzero(head), len(counts)).tolist()
    partial = np.empty(len(counts), dtype=complex)
    last = np.empty(len(counts), dtype=complex)
    counts = counts.tolist()
    for lo, hi in _blocks(len(taus), max(counts)):
        first, end = starts[lo], starts[hi]
        width = max(counts[first:end])
        phase = _phase_table(taus[lo:hi], width) if taus[lo:hi].any() else None
        for a, b in _blocks(end - first, width):
            a, b = a + first, b + first
            if b - a == 1:
                # one pair: its row as a view, not as the copy an index
                # array makes (on line_scan, where every cut is one pair, a
                # job takes about 10% less); the same reduction either way
                f, m = int(f_idx[a]), counts[a]
                terms = table[f, :m] if phase is None else table[f, :m] * phase[int(row[a]) - lo, :m]
                partial[a] = terms[: m - 1].sum()
                last[a] = terms[m - 1]
                continue
            n = counts[a:b]
            longest = max(n)
            terms = table[f_idx[a:b], :longest]
            if phase is not None:
                np.multiply(terms, phase[row[a:b] - lo, :longest], out=terms)
            # runs of equal N reduce together, row by row
            c = 0
            for d in range(1, b - a + 1):
                if d == b - a or n[d] != n[c]:
                    m = n[c]
                    partial[a + c : a + d] = terms[c:d, : m - 1].sum(axis=1)
                    last[a + c : a + d] = terms[c:d, m - 1]
                    c = d
    return partial, last


def _dirichlet_table(points: np.ndarray, width: int) -> np.ndarray:
    """n^(-z_j) = n^(-Re z_j) * exp(-i Im z_j ln n) for n = 1..width, one row
    per point.  The points that share Im share a phase row: the distinct Im
    go into phase tables of at most _BLOCK_ENTRIES entries, or of one row
    when a row is wider, and the rows of each table's points are filled in
    chunks of that size.  A phase row does not depend on the other rows of
    its table, so neither does a point's row."""
    ln = _ln_table(width)
    table = np.empty((len(points), width), dtype=complex)
    # the points sorted by Im, where each distinct Im starts, and the index
    # of each sorted point's Im among them (np.unique and a stable argsort
    # of its inverse raised the line_scan benchmark's peak RSS from 41.3 to
    # 41.8 MB on a 2-core x86-64 host: the stable sort's numpy code pages,
    # which nothing else there touches)
    order = np.argsort(points.imag)
    im = points.imag[order]
    head = np.ones(len(im), dtype=bool)
    head[1:] = im[1:] != im[:-1]
    starts = np.append(np.flatnonzero(head), len(im)).tolist()
    row = head.cumsum() - 1
    taus = im[head]
    for lo, hi in _blocks(len(taus), width):
        phase = _phase_table(taus[lo:hi], width)
        first = starts[lo]
        for a, b in _blocks(starts[hi] - first, width):
            a, b = a + first, b + first
            sel = order[a:b]
            amp = np.multiply.outer(-points.real[sel], ln)
            np.exp(amp, out=amp)
            if b - a == 1:
                # one row, as every row wider than a table is: its product
                # goes in place, not through the copies an index array makes
                np.multiply(amp[0], phase[row[a] - lo], out=table[sel[0]])
            else:
                table[sel] = amp * phase[row[a:b] - lo]
    return table


def shift_rows(points, t_max: float, params: ZetaParams = DEFAULT_PARAMS) -> np.ndarray:
    """The _dirichlet_table, wide enough for every shift |t| <= t_max, of as
    many of the first points as fit _SCAN_ENTRIES entries: all of them
    inside the cut, none when one row is already wider."""
    points = np.asarray(points, dtype=complex)
    tau = min(abs(t_max) + float(np.max(np.abs(points.imag), initial=0.0)), _MAX_IM)
    count = int(_choose_n(tau, params))
    return _dirichlet_table(points[: _SCAN_ENTRIES // count], count)


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
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in _blocks(len(s), kb + 1):
            cut = slice(lo, hi)
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
    """_partial_sums for the flat pair indices b * len(points) + j: the row
    of z_j from rows, the shift_rows of the first points, where they hold
    one wide enough, else built for groups of as many points as the call has
    shifts (at least one _BLOCK_ENTRIES table, at most _SCAN_ENTRIES
    entries), times the phase row of t_b."""
    b, j = np.divmod(pairs, len(points))
    partial = np.empty(len(pairs), dtype=complex)
    last = np.empty(len(pairs), dtype=complex)
    # the term cap is checked before any table is built
    longest = int(counts.max())
    _ln_table(longest)
    # the pairs run shift by shift, as _partial_sums takes them
    if rows is None:
        rows = np.empty((0, 0), dtype=complex)
    cached = (j < len(rows)) & (counts <= rows.shape[1])
    if cached.any():
        k = np.flatnonzero(cached)
        partial[k], last[k] = _partial_sums(rows, j[k], b[k], ts, counts[k])
    k = np.flatnonzero(~cached)
    ids = np.flatnonzero(np.bincount(j[k], minlength=len(points)))
    size = max(1, min(max(len(ts), _BLOCK_ENTRIES // longest), _SCAN_ENTRIES // longest))
    # the pairs of each group of points by one stable sort, so that they
    # keep their order shift by shift (np.unique in place of the bincount
    # raised the approx benchmark's peak RSS from 62.0 to 64.5 MB on a
    # 2-core x86-64 host)
    by_group = np.searchsorted(ids, j[k]) // size
    k = k[np.argsort(by_group, kind="stable")]
    for lo, sel in zip(range(0, len(ids), size), np.split(k, np.cumsum(np.bincount(by_group))[:-1])):
        group = ids[lo : lo + size]
        # the group's rows are freed before the next group's are built
        f_idx = np.searchsorted(group, j[sel])
        partial[sel], last[sel] = _partial_sums(
            _dirichlet_table(points[group], int(counts[sel].max())), f_idx, b[sel], ts, counts[sel]
        )
    return partial, last


def _evaluate(points, ts, params: ZetaParams, rows: np.ndarray | None = None):
    """(values, error estimates, exhausted), each len(points) x len(ts), of
    zeta at z_j + i t_b; rows, when given, are the points' shift_rows.  N
    is doubled, at most twice, only for the pairs whose estimate is above
    threshold or whose value is not finite; a pair that still is keeps its
    last value and estimate and is marked exhausted, and the caller
    decides."""
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


def _evaluate_at(points: np.ndarray, t: float, params: ZetaParams):
    """_evaluate at one shift; a point that exhausts precision raises
    PrecisionExhausted carrying its index."""
    values, errors, exhausted = _evaluate(points, [t], params)
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
    grid, t: float, params: ZetaParams = DEFAULT_PARAMS
) -> tuple[np.ndarray, np.ndarray]:
    """(values, error estimates) of zeta(z_i + i t) for all grid points, as
    arrays.  A value is taken at the exact point Re z_i + i(Im z_i + t), not
    at Im z_i + t rounded to a double as a one-point zeta_em(z_i + i t)
    takes it."""
    return _evaluate_at(grid.points, t, params)
