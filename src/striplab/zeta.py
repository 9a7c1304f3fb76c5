"""Riemann zeta in and near the critical strip via Euler-Maclaurin summation.

For s != 1 with Re(s) > -1 and N = max(min_terms, ceil(terms_per_unit_t * |Im s|)):

    zeta(s) ~ sum_{n=1}^{N-1} n^-s  +  N^(1-s)/(s-1)  +  N^-s / 2
              + sum_{k=1}^{K} B_{2k}/(2k)! * s(s+1)...(s+2k-2) * N^(-s-2k+1)

The reported error estimate is Edwards' bound on the remainder (Riemann's
Zeta Function, 1974, sec. 6.4): the magnitude of the first omitted
correction term times |s + 2K + 1| / (Re s + 2K + 1), which bounds the
truncation error for Re s > -(2K + 1).  It depends only on s, N and K, so
each point is summed once, at the first of N, 2N and 4N where it is at most
1e-6, else at 4N.  It leaves rounding out.  The default N = |Im s| / 2
(half a term per unit t) with K = 24 leaves truncation far below rounding:
the first omitted term, |B_50| / 50! * |s(s+1)...(s+48)| * N^(-Re s - 49),
is about 2.5e-40 (|s| / N)^49 N^(-Re s), so about 1.4e-25 N^(-Re s) at N =
|t| / 2, and the bound reads at most 2.9e-22 in the strip 1/2 <= Re s <= 1
(near t = 40, where N = |t| / 2 takes over from N = 20) and 4.0e-24 at t =
1e6.  Everything is double precision, on every platform.  The phases of
n^-s = n^(-Re s) * exp(-i Im s ln n) are taken at the primes from
double-double logs (Dekker 1971) with the argument reduced mod 2*pi in the
manner of Cody and Waite (1980), to within 2.3e-16 rad; since n^-s is
completely multiplicative each composite entry is the product of two
earlier ones.  The estimate makes precision loss visible instead of hiding
it behind arbitrary-precision arithmetic.  At most _MAX_TERMS terms are
summed for any point.

Only the n coprime to 6 (1, 5, 7, 11, 13, ...), a third of them, have
terms of their own.  Every n < N is d m with d = 2^a 3^b and m coprime to
6, so sum_{n<N} n^-s = sum_d d^-s S(floor((N - 1) / d)), S(L) the sum of
the m^-s with m <= L, and N^-s = d_N^-s m_N^-s; d^-s is a product of the
Euler factors 2^-s and 3^-s, which lead every row, so that their phases
come from the same reduction and their terms from the same products.

One call evaluates a block of (point, shift) pairs z_j + i t_b and returns
P x B values and estimates.  A term is n^(-z_j) * exp(-i t_b ln n), for n
= 2, 3 and the n coprime to 6.  The Dirichlet rows n^(-z_j) do not depend
on t: a scan keeps them for its horizon (shift_rows) for as many of its
first points as fit, and a call builds every row it was not given, or was
given too narrow.  The phases exp(-i t_b ln n) form one 2-D table, one row
per shift, and the product passes along n fill all rows at once.  The
partial sums take two passes: the first writes each pair's sums over the
segments between its cutoffs floor((N - 1) / d), pairwise reductions over
its own terms, table by table; the second weights them by running sums of
the pair's d^-s and reduces them once more, vectorised over the call's
pairs like the cutoffs, tail and estimate, so a value depends only on (z,
t, params), never on the block or on where its rows came from.  A table
holds at most _BLOCK_ENTRIES entries (2^13, 128 kB of complex values, the
n up to about 24 500), and a pair with more terms has a table of its own;
a call of more than _WEIGHT_ENTRIES cutoffs is split into runs of pairs.
"""

from __future__ import annotations

import bisect
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

# the most terms any evaluation may ask for: the factor plan holds 8 bytes
# of log and 4 of buffer position per term coprime to 6, and |Im s| near the
# 1e8 guard would ask for 1e8 terms at one term per unit t, about 400 MB of
# those alone.  The default half a term per unit t asks for at most 5e7
# there, so only explicit parameters (or the 4N of _decide_n) reach the cap
_MAX_TERMS = 1 << 26


@dataclass(frozen=True)
class ZetaParams:
    # N = |Im s| / 2 with 24 corrections puts the remainder far below
    # rounding (module docstring): against 30-digit mpmath at Re s in {0.55,
    # 0.75, 0.95}, 14.1 <= t <= 1e6, values are within 5.0e-16 of max(1,
    # |zeta|) where N = |Im s| with 12 corrections, at twice the terms, read
    # 5.8e-16
    terms_per_unit_t: float = 0.5
    min_terms: int = 20
    bernoulli_terms: int = 24

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
# each call builds rows for the rest.  A row holds the terms at 2, 3 and the
# n coprime to 6, a third of its N
_SCAN_ENTRIES = 1 << 22

# the most entries of one phase table or one array of terms (128 kB of
# complex values, the n coprime to 6 up to about 24 500); a pair with more
# terms has a table of its own.  On the scan500 benchmark job (2 cores,
# x86-64; median scaled job time over 10 interleaved 5 s runs, unscaled in
# brackets), 2^12 took 0.077 s (0.071) at 39.2 MB peak RSS, 2^13 0.068 s
# (0.060) at 39.3 MB and 2^14 0.077 s (0.071) at 40.1 MB; scaled, 2^13 was
# the fastest in every one of the 10 rounds
_BLOCK_ENTRIES = 1 << 13

# the most cutoffs (pairs times the d <= N of the longest, plus 2) of one
# weighting pass, 16 bytes each in its sums and its weights.  On the scan500
# benchmark job (2 cores, x86-64; median scaled job time over 6 alternating
# 6 s runs) 2^14 took 0.070 s at 39.5 MB peak RSS, 2^15 0.070 s at 39.9 MB
# and 2^16 0.069 s at 39.9 MB; 49 points at 600 shifts near t = 4e4 peaked
# at 6.4, 7.2 and 8.7 MB traced, and at 122 MB in one pass
_WEIGHT_ENTRIES = 1 << 16


def _row_ns(width: int) -> np.ndarray:
    """The n of the first width entries of a row: 2 and 3, whose terms are
    the Euler factors, then the integers coprime to 6, 1, 5, 7, 11, 13, ..."""
    i = np.arange(width - 2)
    return np.concatenate(([2, 3], 3 * i + 1 + (i & 1)))


def _coprime_count(n):
    """How many m <= n are coprime to 6; such an m is entry
    _coprime_count(m) + 1 of a row."""
    return (n + 5) // 6 + (n + 1) // 6


def _row_width(count):
    """The entries of a row that holds every n <= count coprime to 6."""
    return _coprime_count(count) + 2


_plan_cache = None

# the 3-smooth d = 2^a 3^b up to the term cap, ascending, and their a and b
_SMOOTH, _SMOOTH_2, _SMOOTH_3 = np.array(
    sorted((2**a * 3**b, a, b) for a in range(27) for b in range(17) if 2**a * 3**b <= _MAX_TERMS)
).T


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
    phase = np.empty(r.shape, dtype=complex)
    np.cos(r, out=phase.real)
    np.sin(np.negative(r, out=r), out=phase.imag)
    return phase


# _phase_table fills the composites in passes over n in [5^k, 5^(k+1)): the
# passes end before n = 125, 625, ..., 5^12 (25 is the first composite)
_PASS_BOUNDS = tuple(5**k for k in range(3, 13))


@dataclass(frozen=True)
class _FactorPlan:
    """ln n of the n of the first len(order) entries of a row (_row_ns), for
    the amplitudes n^(-Re z) of the Dirichlet rows, and how to fill exp(-i
    tau ln n) for them in the buffer order [1, primes ascending, composites
    ascending]: primes holds the entry of each prime, 2 and 3 first; factors
    and cofactors hold the buffer positions of p and m = n / p for each
    composite n, p its smallest prime factor; order[i] is the buffer
    position of entry i.  All indices are int32.  ln_hi and ln_lo hold ln p
    of each prime as a double-double.  pass_ends[k] is the number of
    composites below n = _PASS_BOUNDS[k], for each bound up to the plan's
    largest n: the end of a composite pass of every table that reaches the
    bound, as Python ints."""

    ln: np.ndarray
    primes: np.ndarray
    factors: np.ndarray
    cofactors: np.ndarray
    order: np.ndarray
    ln_hi: np.ndarray
    ln_lo: np.ndarray
    pass_ends: tuple[int, ...]


def _factor_plan(count: int) -> _FactorPlan:
    """The plan over a row that holds every n <= count coprime to 6, or over
    a wider one: it is built lazily, grown to the widest row any call has
    asked for and never rebuilt for a narrower one, and a call cuts it to
    its own count by prefix.  A count past the term cap raises InvalidSpec
    before anything is built."""
    global _plan_cache
    if count > _MAX_TERMS:
        raise InvalidSpec(f"{count} terms exceed the term cap {_MAX_TERMS} (2^26)")
    size = _row_width(count)
    if _plan_cache is None or len(_plan_cache.order) < size:
        ns = _row_ns(size)
        # the largest n, but 3 in a row of 2, 3 and 1 alone
        spf = np.zeros(max(3, int(ns[-1])) + 1, dtype=np.int32)
        # the primes from 5 up to the square root of the largest n
        for p in ns[3 : _coprime_count(math.isqrt(len(spf) - 1)) + 2].tolist():
            if not spf[p]:
                multiples = spf[p * p :: p]
                multiples[multiples == 0] = p
        # 0 for a prime, else the smallest prime factor; n = 1, entry 2,
        # heads the buffer as neither
        kind = spf[ns]
        kind[2] = -1
        primes = np.flatnonzero(kind == 0).astype(np.int32)
        composites = np.flatnonzero(kind > 0).astype(np.int32)
        order = np.empty(size, dtype=np.int32)
        order[2] = 0
        order[primes] = np.arange(1, len(primes) + 1, dtype=np.int32)
        order[composites] = np.arange(len(primes) + 1, size, dtype=np.int32)
        n = ns[composites]
        factors = kind[composites]
        ln_hi, ln_lo = _dd_log(ns[primes])
        # the composites below a bound are those at the entries before it
        below = [_row_width(x - 1) for x in _PASS_BOUNDS if x <= ns[-1]]
        _plan_cache = _FactorPlan(
            ln=np.log(ns),
            primes=primes,
            factors=order[_coprime_count(factors) + 1],
            cofactors=order[_coprime_count(n // factors) + 1],
            order=order,
            ln_hi=ln_hi,
            ln_lo=ln_lo,
            pass_ends=tuple(np.searchsorted(composites, below).tolist()),
        )
    return _plan_cache


def _phase_table(taus, count: int) -> np.ndarray:
    """exp(-i * tau_b * ln n) for the n of a row that holds every n <= count
    coprime to 6, 2 and 3 first, one row per tau_b, from _prime_phases at
    the primes: n^(-i tau) is completely
    multiplicative, so each composite n = p * m is phase[p] * phase[m], and
    p and m are coprime to 6 as n is.  Both factors lie below 5^k for n in
    [5^k, 5^(k+1)), since p <= sqrt n and m <= n / 5, so one vectorised pass
    per such block fills the composites of every tau at once.  The passes
    end at the plan's pass_ends up to count and at the table's own last
    composite; with the number of primes below the table's width, one
    search over the plan's primes, that layout is Python ints, so a table's
    set-up costs the same at every count and calls no numpy function.

    Error bound at a prime p, for |tau ln p| < 2^29 * 2 pi (3.3e9; the 1e8
    guard and the term cap give at most 1.8e9): the reduced argument r lies
    within 2.3e-16 rad of tau ln p mod 2 pi, half an ulp of |r| < 4 for its
    one rounding plus under 1e-20 from the logs, the split of 2 pi and the
    small terms.  With sin and cos rounded within an ulp, the phase is then
    within 4e-16 of exp(-i tau ln p) (3.1e-16 measured against mpmath up to
    tau = 1e8).  A composite adds one such error per prime factor and one
    rounding per product.  The phases of 2 and 3 in the Euler factors come
    from the same reduction, and d^(-s) = (2^-s)^a (3^-s)^b for d = 2^a 3^b,
    a running product, carries a + b such errors and a + b - 1 roundings
    (a + b <= 26 under the term cap); it weighs the terms m^-s with m <=
    (N - 1) / d, through running sums of the d^-s of depth at most log2 of
    their number (_running_sums)."""
    width = _row_width(count)
    plan = _factor_plan(count)
    # bisect over the int32 entries: np.searchsorted with a Python int casts
    # the whole array first (57 us per table under a plan of 149 000 primes)
    primes = bisect.bisect_left(plan.primes, width)
    # the plan's passes up to count, then one that ends at the table's last
    # composite: its entries less 1 and the primes among them
    ends = plan.pass_ends[: bisect.bisect_right(_PASS_BOUNDS, count)] + (width - 1 - primes,)
    # the buffer holds 1, the primes, then the composites: the plan's
    # composites sit past all its primes, so the rows of the primes past
    # count are left unwritten, or, when there are more of them than
    # entries, the composites move down to close the gap
    cofactors, order = plan.cofactors[: ends[-1]], plan.order[:width]
    start = len(plan.primes) + 1
    gap = len(plan.primes) - primes
    if gap > width:
        cofactors = np.where(cofactors >= start, cofactors - gap, cofactors)
        order = np.where(order >= start, order - gap, order)
        start -= gap
    buf = np.empty((start + ends[-1], len(taus)), dtype=complex)
    buf[0] = 1.0
    buf[1 : primes + 1] = _prime_phases(
        np.asarray(taus, dtype=np.float64), plan.ln_hi[:primes], plan.ln_lo[:primes]
    )
    lo = 0
    for hi in ends:
        # a smallest prime factor is a prime, at the same position either way
        np.multiply(
            buf.take(plan.factors[lo:hi], axis=0),
            buf.take(cofactors[lo:hi], axis=0),
            out=buf[start + lo : start + hi],
        )
        lo = hi
    return np.ascontiguousarray(buf.take(order, axis=0).T)


def _choose_n(tau, params: ZetaParams) -> np.ndarray:
    # clipped past the term cap, so that no cast or 4 N overflows; _factor_plan rejects it
    n = np.minimum(np.ceil(params.terms_per_unit_t * np.abs(tau)), _MAX_TERMS + 1)
    return np.maximum(params.min_terms, n).astype(np.int64)


def _blocks(count: int, longest: int) -> list[tuple[int, int]]:
    """Consecutive runs [lo, hi) of count items, max(1, _BLOCK_ENTRIES //
    longest) long but the last: a run of items of at most longest entries
    each holds at most _BLOCK_ENTRIES entries, or is one item."""
    step = max(1, _BLOCK_ENTRIES // longest)
    return [(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _powers(u: np.ndarray, k: int) -> np.ndarray:
    """u^0, u^1, ..., u^k, one row per power, by running products."""
    powers = np.empty((k + 1, len(u)), dtype=complex)
    powers[0] = 1.0
    for a in range(k):
        np.multiply(powers[a], u, out=powers[a + 1])
    return powers


def _running_sums(x: np.ndarray) -> np.ndarray:
    """The running sums of x along its first axis, each a tree of additions
    of depth at most log2(len(x)) (Hillis and Steele 1986), where a
    sequential np.cumsum adds len(x) roundings at the scale of the total:
    with 1 = 1^-s first among the d^-s, that put partial sums at Re s = 3
    up to 6.4 u sum n^-Re s off (u = 2^-53).  x is overwritten."""
    y = np.empty_like(x)
    k = 1
    while k < len(x):
        y[:k] = x[:k]
        np.add(x[k:], x[:-k], out=y[k:])
        x, y = y, x
        k *= 2
    return x


def _cutoffs(counts: np.ndarray, smooth: int):
    """(bounds, nonempty, own, place) for N = counts over the first smooth
    3-smooth d, one row per N, in the entries of a row: bounds[0] = 0 starts
    the Euler factors, and segment i, [bounds[i + 1], bounds[i + 2]), ends
    at the cutoff _row_width(floor((N - 1) / d)) of d number smooth - 1 - i;
    nonempty marks the segments that hold an entry (one past N - 1 holds
    none, nor does one between two cutoffs with no m coprime to 6 between
    them); N = d_N m_N with m_N at entry own and d_N number place."""
    bounds = np.zeros((len(counts), smooth + 2), dtype=np.int64)
    bounds[:, 1] = 2
    bounds[:, 2:] = _row_width((counts - 1)[:, None] // _SMOOTH[:smooth])[:, ::-1]
    # d_N is the largest of the d that divide N
    place = smooth - 1 - np.argmax(counts[:, None] % _SMOOTH[smooth - 1 :: -1] == 0, axis=1)
    own = _coprime_count(counts // _SMOOTH[place]) + 1
    return bounds, bounds[:, 2:] > bounds[:, 1:-1], own, place


def _partial_sums(table, f_idx: np.ndarray, shift: np.ndarray, ts: np.ndarray, counts: np.ndarray):
    """(sum_{n<N} n^(-s), N^(-s)) for every pair k, s = z + i ts[shift[k]],
    from the terms a_n = table[f_idx[k], e] * exp(-i * ts[shift[k]] * ln n)
    of the n of a row (_row_ns; n entry e): the Euler factors 2^-s and 3^-s,
    then the n coprime to 6; N = counts[k], and the pairs come ordered so
    that shift never decreases.

    Every n is d m with d = 2^a 3^b and m coprime to 6, and n^-s is
    completely multiplicative, so the partial sum is sum_d d^-s S(floor((N -
    1) / d)) over the d <= N - 1, S(L) the sum of the a_m with m <= L, and
    N^-s = d_N^-s a_{m_N} with d_N the 3-smooth part of N.  The entries
    between two of a pair's sorted cutoffs (its _cutoffs segments) lie below
    the cutoffs of the d up to some d', so the partial sum is the sum over
    its segments of their pairwise reduction times the sum of d^-s over d <=
    d', one pairwise reduction again; d^-s is a running product of 2^-s and
    3^-s.

    A call of more than _WEIGHT_ENTRIES cutoffs is split into runs of
    consecutive pairs, one call each.  A call's first pass writes every
    pair's segment sums (one np.add.reduceat over the pairs of an array of
    terms), its own term a_{m_N} and its Euler factors, by phase tables that
    _blocks cuts by the call's longest pair, each as wide as its own longest
    pair, and by blocks of each table's pairs cut again by that width, so
    that no table and no array of terms holds more than _BLOCK_ENTRIES
    entries; a table of t = 0 alone is all ones and is not built.  Its
    second pass weights the segment sums of all the pairs at once.  Each
    reduction covers one pair's own terms or segments, and a running sum or
    product only its own earlier ones, so its value does not depend on the
    other pairs."""
    # the d <= N of the call's longest pair
    smooth = int(np.searchsorted(_SMOOTH, counts.max(), side="right"))
    step = _WEIGHT_ENTRIES // (smooth + 2)
    if len(counts) > step:
        runs = [slice(a, a + step) for a in range(0, len(counts), step)]
        parts = [_partial_sums(table, f_idx[r], shift[r], ts, counts[r]) for r in runs]
        return tuple(map(np.concatenate, zip(*parts)))
    head = np.concatenate(([True], shift[1:] != shift[:-1]))
    row = head.cumsum() - 1
    taus = ts[shift[head]]
    starts = np.append(np.flatnonzero(head), len(counts)).tolist()
    widths = _row_width(counts).tolist()
    # each shift's longest pair and whether it is nonzero: a table takes the
    # longest of its shifts' and is all ones when none is
    tops = np.maximum.reduceat(counts, starts[:-1]).tolist()
    moving = (taus != 0).tolist()
    # the bookkeeping of each run of equal N, and each pair's run
    fresh = np.concatenate(([True], counts[1:] != counts[:-1]))
    bounds, nonempty, own, place = _cutoffs(counts[fresh], smooth)
    of = fresh.cumsum() - 1
    # the sum of each pair's segments, one row per pair, one column per d:
    # the segment that ends at the cutoff of d
    sums = np.zeros((len(counts), smooth), dtype=complex)
    at_own = np.empty(len(counts), dtype=complex)
    euler = np.empty((len(counts), 2), dtype=complex)
    for lo, hi in _blocks(len(taus), max(widths)):
        top = max(tops[lo:hi])
        phase = _phase_table(taus[lo:hi], top) if any(moving[lo:hi]) else None
        for a, b in _blocks(starts[hi] - starts[lo], max(_row_width(top), smooth + 2)):
            a, b = a + starts[lo], b + starts[lo]
            m = max(widths[a:b])
            if b - a == 1:
                # one pair: its row as a view, not as the copy an index array
                # makes (on line_scan, where every cut is one pair, a job
                # took about 23% less: median scaled 0.034 against 0.044 s
                # over 14 interleaved 5 s runs, less in all 14), and its
                # segments end at its last cutoff; the same reductions
                # either way
                f, n = int(f_idx[a]), of[a]
                terms = table[f, :m] if phase is None else table[f, :m] * phase[int(row[a]) - lo, :m]
                used = nonempty[n]
                sums[a, ::-1][used] = np.add.reduceat(terms[: bounds[n, -1]], bounds[n, 1:-1][used])
                at_own[a] = terms[own[n]]
                euler[a] = terms[:2]
                continue
            terms = table[f_idx[a:b], :m]
            if phase is not None:
                np.multiply(terms, phase[row[a:b] - lo, :m], out=terms)
            # each row's Euler factors and segments, then one from its last
            # cutoff to the row's end that closes them; the sums of the
            # first and the last are not used
            n = of[a:b]
            edges = bounds[n] + m * np.arange(b - a)[:, None]
            used = np.concatenate((np.ones((b - a, 1), dtype=bool), nonempty[n], bounds[n, -1:] < m), axis=1)
            block = np.zeros(used.shape, dtype=complex)
            block[used] = np.add.reduceat(terms.reshape(-1), edges[used])
            sums[a:b] = block[:, -2:0:-1]
            at_own[a:b] = terms[np.arange(b - a), own[n]]
            euler[a:b] = terms[:, :2]
    # numpy's complex products are not commutative to the bit; an operator
    # may swap its operands to reuse a large temporary, and an in-place
    # product of one element rounds apart, so the products below name their
    # order and write to new arrays or to arrays of more than one element.
    # d^-s, one row per d, one column per pair
    twos, threes = _SMOOTH_2[:smooth], _SMOOTH_3[:smooth]
    weights = _powers(euler[:, 0], twos.max())[twos]
    np.multiply(weights, _powers(euler[:, 1], threes.max())[threes], out=weights)
    last = np.multiply(weights[place[of], np.arange(len(counts))], at_own)
    # the segment at d lies below the cutoffs of every d' <= d: its weight is
    # the running sum of d'^-s, and each pair's partial sum is one pairwise
    # reduction over its own segments
    np.multiply(sums, _running_sums(weights).T, out=sums)
    inside = nonempty[:, ::-1][of]
    held = nonempty.sum(axis=1)[of]
    return np.add.reduceat(sums[inside], np.cumsum(held) - held), last


def _dirichlet_table(points: np.ndarray, count: int) -> np.ndarray:
    """n^(-z_j) = n^(-Re z_j) * exp(-i Im z_j ln n) for the n of a row that
    holds every n <= count coprime to 6, one row per point.  A row is its
    point's amplitudes times the phase row at its own Im, so it does not
    depend on the other points.  The rows are filled in runs of consecutive
    points of at most _BLOCK_ENTRIES entries, or of one row when a row is
    wider."""
    width = _row_width(count)
    ln = _factor_plan(count).ln[:width]
    table = np.empty((len(points), width), dtype=complex)
    for a, b in _blocks(len(points), width):
        amp = np.multiply.outer(-points.real[a:b], ln)
        np.exp(amp, out=amp)
        table[a:b] = amp * _phase_table(points.imag[a:b], count)
    return table


def shift_rows(points, t_max: float, params: ZetaParams = DEFAULT_PARAMS) -> np.ndarray:
    """The _dirichlet_table of as many of the first points as fit
    _SCAN_ENTRIES entries (all of them inside the cut, none when one row is
    already wider), as wide as the largest N that _decide_n gives at the
    horizon, |Im s| = t_max + max |Im z| at the points' real parts: N0
    there, or 2 N0 or 4 N0 when its estimate asks for them and passes
    there, but at most the term cap.  A pair whose estimate fails even at
    4 N0 is exhausted, and a scan stops at the first, so no row is widened
    for it.  Shifts that reach past the precision guard raise its
    InvalidSpec."""
    points = np.asarray(points, dtype=complex)
    tau = abs(t_max) + float(np.max(np.abs(points.imag), initial=0.0))
    if tau > _MAX_IM:
        raise InvalidSpec(f"|Im(s)| = {tau} exceeds the precision guard {_MAX_IM:g}")
    n0 = int(_choose_n(tau, params))
    # every point's real part, repeats too: np.unique here raised line_scan's
    # peak RSS by 1.1 MB, the code its first call loads
    shifted = points.real + 1j * tau
    counts = _decide_n(shifted, params)
    k = np.flatnonzero(counts > 2 * n0)
    counts[k[_edwards_estimate(shifted[k], counts[k], params) > _ERR_THRESHOLD]] = n0
    count = max(n0, min(int(counts.max(initial=n0)), _MAX_TERMS))
    return _dirichlet_table(points[: _SCAN_ENTRIES // _row_width(count)], count)


def _em_tail(s: np.ndarray, N: np.ndarray, partial: np.ndarray, last: np.ndarray, kb: int):
    """(values, error estimates) of zeta at the points s from the partial
    sums over n < N and the terms last = N^(-s), vectorised over the points:
    the correction terms q_k s(s+1)...(s+2k-2) N^(-s-2k+1), k = 1..kb+1, are
    one row per point, built by a running product along the row, and the
    first kb are summed row by row; the rows of at most _BLOCK_ENTRIES
    entries are built at a time.  The estimate is Edwards' bound, |term kb +
    1| |s + 2 kb + 1| / (Re s + 2 kb + 1).  A value or estimate that
    overflows comes out non-finite and fails the threshold."""
    # q_1..q_{kb+1}, and the offsets 2k + 1 and 2k + 2 of the factors that
    # step the rising product s(s+1)...(s+2k-2) from term k + 1 to k + 2
    k = np.arange(kb)
    q, odd, even = np.array(_em_coefficients(kb)), 2.0 * k + 1.0, 2.0 * k + 2.0
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
            errors[cut] = np.abs(terms[:, kb]) * np.abs(z + (2 * kb + 1)) / (z.real + (2 * kb + 1))
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


def _sums(points: np.ndarray, ts: np.ndarray, counts: np.ndarray, rows):
    """_partial_sums for each pair b * len(points) + j at N = counts[pair]:
    the row of z_j from rows, the shift_rows of the first points, where they
    hold one wide enough, else built for groups of as many points as the call
    has shifts (at least one _BLOCK_ENTRIES table, at most _SCAN_ENTRIES
    entries), times the phase row of t_b."""
    b, j = np.divmod(np.arange(len(counts)), len(points))
    partial, last = np.empty((2, len(counts)), dtype=complex)
    # the term cap is checked, and the plan grown to the longest pair (or N = 2), before any table is built
    longest = int(counts.max(initial=2))
    _factor_plan(longest)
    width = _row_width(longest)
    # the pairs run shift by shift, as _partial_sums takes them
    rows = np.empty((0, 0), dtype=complex) if rows is None else rows
    cached = (j < len(rows)) & (_row_width(counts) <= rows.shape[1])
    if cached.any():
        k = np.flatnonzero(cached)
        partial[k], last[k] = _partial_sums(rows, j[k], b[k], ts, counts[k])
    k = np.flatnonzero(~cached)
    ids = np.flatnonzero(np.bincount(j[k], minlength=len(points)))
    size = max(1, min(max(len(ts), _BLOCK_ENTRIES // width), _SCAN_ENTRIES // width))
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


def _edwards_estimate(s: np.ndarray, counts: np.ndarray, params: ZetaParams, screen: bool = False):
    """Edwards' estimate |q_{K+1}| prod_{j=0}^{2K+1} |s + j| / (Re s + 2K + 1)
    / N^(Re s + 2K + 1) at the float N = counts, the exp of a sum of logs (inf
    on overflow, 0 at s = 0, nan where Re s <= -(2K + 1), outside the
    supported range); screen bounds each |s + j| by |s| + 2K + 1."""
    top = 2 * params.bernoulli_terms + 1
    rate = s.real + top
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        logs = ((top + 1) * np.log(np.abs(s) + top) if screen
                else np.log(np.abs(s[:, None] + np.arange(top + 1.0))).sum(axis=1))
        logs += math.log(abs(_em_coefficients(params.bernoulli_terms)[-1])) - np.log(rate)
        return np.exp(logs - rate * np.log(counts.astype(np.float64)))


def _decide_n(shifted: np.ndarray, params: ZetaParams) -> np.ndarray:
    """Each pair's N: the first of N0, 2 N0 and 4 N0 (_choose_n) whose
    _edwards_estimate, falling in N, is at most _ERR_THRESHOLD, else 4 N0.
    The screen, above it by far more than rounding, settles most at N0."""
    counts = _choose_n(shifted.imag, params)
    k = np.flatnonzero(_edwards_estimate(shifted, counts, params, screen=True) > _ERR_THRESHOLD)
    if len(k):
        counts[k] <<= sum(_edwards_estimate(shifted[k], counts[k] << m, params) > _ERR_THRESHOLD for m in (0, 1))
    return counts


def _evaluate(points, ts, params: ZetaParams, rows: np.ndarray | None = None):
    """(values, error estimates, exhausted), each len(points) x len(ts), of
    zeta at z_j + i t_b, each summed once at the N of _decide_n; rows, when
    given, are the points' shift_rows.  The caller decides on a pair whose
    estimate is above threshold or value not finite, marked exhausted."""
    points = np.asarray(points, dtype=complex)
    ts = np.asarray(ts, dtype=np.float64)
    # pairs run shift by shift
    shape = (len(ts), len(points))
    shifted = np.empty(shape, dtype=complex)
    shifted.real, shifted.imag = points.real, points.imag + ts[:, None]
    shifted = shifted.reshape(-1)
    _check_range(shifted)
    counts = _decide_n(shifted, params)
    values, errors = _em_tail(shifted, counts, *_sums(points, ts, counts, rows), params.bernoulli_terms)
    exhausted = ~((errors <= _ERR_THRESHOLD) & np.isfinite(values))
    return values.reshape(shape).T, errors.reshape(shape).T, exhausted.reshape(shape).T


def _evaluate_at(points: np.ndarray, t: float, params: ZetaParams):
    """_evaluate at one shift; a point that exhausts precision raises
    PrecisionExhausted carrying its index."""
    values, errors, exhausted = _evaluate(points, [t], params)
    if exhausted.any():
        i = int(np.argmax(exhausted[:, 0]))
        s = complex(points[i].real, points[i].imag + t)
        msg = f"error estimate {errors[i, 0]:g} above {_ERR_THRESHOLD:g} at s = {s} after doubling N twice"
        raise PrecisionExhausted(msg, index=i)
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
