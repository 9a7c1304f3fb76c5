"""Complex polynomial arithmetic, roots as companion-matrix eigenvalues, and
the two certified bounds used by the nonvanishing repair."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import InvalidSpec, NoConvergence

_ROOT_TOL = 1e-12


@dataclass(frozen=True)
class Polynomial:
    """sum_k coeffs[k] * ((z - center) / scale)**k: ascending powers of the
    frame variable, finite, trailing zeros trimmed.

    The default frame (center 0, scale 1) is plain coefficient form in z.
    A frame fitted to a set keeps the variable of order one on it, which is
    what makes high-degree fits representable in double precision.
    """

    coeffs: tuple[complex, ...]
    center: complex = 0j
    scale: float = 1.0

    def __post_init__(self):
        cs = [complex(c) for c in self.coeffs]
        if not cs:
            cs = [0j]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "center", complex(self.center))
        object.__setattr__(self, "scale", float(self.scale))
        if not all(cmath.isfinite(c) for c in cs):
            raise InvalidSpec("polynomial coefficients must be finite")
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise InvalidSpec("polynomial frame scale must be positive and finite")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> complex:
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return self.coeffs == (0j,)

    def to_spec(self) -> dict:
        spec = {"coeffs": [[c.real, c.imag] for c in self.coeffs]}
        if self.center != 0 or self.scale != 1.0:
            spec["center"] = [self.center.real, self.center.imag]
            spec["scale"] = self.scale
        return spec


@dataclass(frozen=True)
class FactoredPolynomial:
    """leading * prod_k ((z - roots[k]) / scale); the numerically stable view.

    The roots are finite and in z.  The scale is that of the frame the
    polynomial was fitted in (1 for plain coefficient form), so leading is
    the frame's leading coefficient: the z-leading coefficient
    leading / scale**m overflows or underflows for large or thin sets at
    high degree.
    """

    leading: complex
    roots: tuple[complex, ...]
    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "leading", complex(self.leading))
        object.__setattr__(self, "roots", tuple(complex(r) for r in self.roots))
        object.__setattr__(self, "scale", float(self.scale))
        if not (self.leading != 0 and cmath.isfinite(self.leading)):
            raise InvalidSpec("factored polynomial needs a finite nonzero leading coefficient")
        if not all(cmath.isfinite(r) for r in self.roots):
            raise InvalidSpec("factored polynomial roots must be finite")
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise InvalidSpec("factored polynomial scale must be positive and finite")

    def to_spec(self) -> dict:
        spec = {
            "leading": [self.leading.real, self.leading.imag],
            "roots": [[r.real, r.imag] for r in self.roots],
        }
        if self.scale != 1.0:
            spec["scale"] = self.scale
        return spec


def evaluate(p: Polynomial, z):
    """Horner evaluation in the frame variable.

    z may be an ndarray or a scalar; a scalar runs through the array code as
    a one-element array and comes back as a complex, so both give the same
    floats.  Each complex product is rounded as two real products and their
    sum, as Python's complex arithmetic rounds it (degree one gives exactly
    c1 * z + c0): numpy's complex loops fuse multiply-adds on FMA hardware,
    and their last bits would depend on the loops picked for the host.

    When every frame point w lies on an axis, w = u * y with y real
    (``_axis_coordinate``), one real recurrence in y (``_horner_real``)
    runs without the products by the zero part of w: on the coefficients
    when u = 1, and on the coefficients turned by i**k (``_turn``) when
    u = 1j.
    Those products are exact zeros and the turns are exact, so the values
    equal the complex loop's (a zero may come out with the other sign, so
    moduli are the same floats); a result that is not finite, where a
    product by zero would have made NaN instead, is recomputed by the
    complex loop.
    """
    if not isinstance(z, np.ndarray):
        return complex(evaluate(p, np.array([z], dtype=complex))[0])
    w = (z - p.center) / p.scale
    axis = _axis_coordinate(w)
    re = im = None
    if axis is not None:
        y, unit = axis
        cs = p.coeffs if unit == 1 else _turn(p.coeffs, 1).tolist()
        re, im = _horner_real(([c.real for c in cs], [c.imag for c in cs]), y)
    if re is None or not (np.isfinite(re).all() and np.isfinite(im).all()):
        re, im = _horner(p.coeffs, w.real.copy(), w.imag.copy())
    acc = np.empty(w.shape, dtype=complex)
    acc.real, acc.imag = re, im
    return acc


def _axis_coordinate(w: np.ndarray) -> tuple[np.ndarray, complex] | None:
    """(y, u) with w = u * y, y a contiguous real array: u = 1 when every
    Im w is exactly 0, u = 1j when every Re w is; None for points on
    neither axis.  Points on a line in another direction would need
    rotating, which rounds them."""
    if not np.any(w.imag):
        return np.ascontiguousarray(w.real), 1
    if not np.any(w.real):
        return np.ascontiguousarray(w.imag), 1j
    return None


# i**k by k mod 4: Python's 1j**k goes through exp and log from k = 101 on
# (1j**101 is 4.4e-15 + 1j)
_I_POWERS = np.array([1, 1j, -1, -1j])


def _turn(coeffs, sign: int) -> np.ndarray:
    """coeffs[k] * (sign * i)**k for sign +-1, as one array product: the
    coefficients of p(sign * i * y) in y.  Products by 0 and +-1 round
    nothing."""
    return np.asarray(coeffs) * _I_POWERS[sign * np.arange(len(coeffs)) % 4]


def _horner(coeffs, wr: np.ndarray, wi: np.ndarray):
    """(Re p(w), Im p(w)) for w = wr + i wi, each complex product rounded as
    two real products and their sum."""
    re = np.zeros(wr.shape)
    im = np.zeros(wr.shape)
    for c in reversed(coeffs):
        t = im * wi
        im *= wr
        im += re * wi
        im += c.imag
        re *= wr
        re -= t
        re += c.real
    return re, im


def _horner_real(parts, y: np.ndarray) -> list[np.ndarray]:
    """The steps of ``_horner`` with the products by wi = 0 left out, for
    real y: one recurrence per sequence of real coefficients in parts,
    ascending powers.  ``evaluate`` passes (Re c, Im c) and gets
    (Re p(y), Im p(y)); a Lawson fit with real coefficients passes Re c
    alone.  Each value is its own contiguous array, not a column of one
    n x 2 array, whose inner loops would be two elements long."""
    values = []
    for part in parts:
        acc = np.zeros(y.shape)
        for c in reversed(part):
            acc *= y
            acc += c
        values.append(acc)
    return values


def evaluate_factored(fp: FactoredPolynomial, z):
    """Product-form evaluation; stable regardless of coefficient conditioning.
    Scalars go through the array code, as in ``evaluate``."""
    if not isinstance(z, np.ndarray):
        return complex(evaluate_factored(fp, np.array([z], dtype=complex))[0])
    acc = np.full_like(z, fp.leading, dtype=complex)
    for r in fp.roots:
        acc = acc * ((z - r) / fp.scale)
    return acc


def from_roots(leading: complex, roots) -> Polynomial:
    """Expand leading * prod (z - r) by sequential multiplication.

    The expansion's round-off is not negligible at high degree: for 60 roots
    on |z| = 1.3 the roots of the expanded polynomial lie up to 3.2e-3 from
    the given ones, and for random rings of 60 roots up to 2.8e-3 at radius
    0.5 and 9.4e-2 at radius 5.  For one random ring of 60 roots at radius
    1e4 even the exact roots of the expansion (mpmath, 80 digits) lie up to
    4% of the radius away.  ``roots`` finds each root of the expansion at
    backward error <= 1e-12 but cannot undo the expansion's error.  Keep a
    FactoredPolynomial where the roots matter.
    """
    leading = complex(leading)
    if leading == 0:
        raise InvalidSpec("leading coefficient must be nonzero")
    cs = np.array([leading], dtype=complex)
    for r in roots:
        shifted = np.concatenate([[0j], cs])
        cs = shifted - complex(r) * np.concatenate([cs, [0j]])
    return Polynomial(tuple(cs))


def roots(p: Polynomial) -> tuple[complex, ...]:
    """All roots, in z, as the eigenvalues of a companion matrix.

    The solve runs on the coefficients c_k in the frame variable w, after
    the substitution w = s * u with s = |c_low / c_m|**(1/(m - low)), c_low
    the lowest nonzero coefficient: s is the geometric mean of the nonzero
    root moduli, so the monic polynomial in u has roots of order one and
    the eigenvalues are backward stable (Edelman & Murakami, Math. Comp. 64,
    1995); where c_k / c_m or s**(k - m) would overflow, the powers of two
    are split off and applied by ldexp (_split_scaling).  One Newton step
    then refines each root, kept only where it lowers |p|.  A root is
    accepted when |p(w)| <= 1e-12 * sum_k |c_k| |w|**k, a backward-error
    test that holds its meaning at every root scale; it is evaluated on the
    scaled coefficients, where both sides carry the same factor and stay
    representable.  Raises NoConvergence when LAPACK fails, a root misses
    the test, or a root lies past the float range.  The roots are mapped
    back by z = center + scale * w.
    """
    m = p.degree
    if m == 0:
        raise InvalidSpec("constant polynomials have no roots to extract")
    # the coefficients over the power of two that brings |c_m| into
    # [1/2, 1): exact for normal coefficients, and it keeps the divisions
    # below from overflowing on subnormal ones
    e = math.frexp(abs(p.leading))[1]
    powers = np.arange(m + 1) - m
    try:
        with np.errstate(over="raise"):
            coeffs = np.ldexp(np.array(p.coeffs, dtype=complex).view(float), -e).view(complex)
            low = int(np.flatnonzero(coeffs)[0])
            # p = c_m w**m (low = m) has only the root 0 and any s serves; this gives 1
            s = abs(coeffs[low] / coeffs[m]) ** (1.0 / max(m - low, 1))
            s_powers = s**powers
        # abs reads inf, unflagged, where a finite c_low / c_m has a modulus
        # past the float range
        if s == math.inf:
            raise FloatingPointError
    except FloatingPointError:
        # a scaling overflows where the root moduli are far from 1: c_k / c_m
        # itself (1e300 + 1e-10 w**2, roots +-1e155i) or s**(k - m)
        # (1e-310 + w**2, s = 1e-155); s may then be far from a root
        desc, s = _split_scaling(p.coeffs, powers)
        u = _scaled_roots(desc)
        with np.errstate(over="ignore"):
            w = s * u
        if not np.isfinite(w).all():
            raise NoConvergence("a root lies past the float range")
    else:
        w = s * _scaled_roots((coeffs / coeffs[m] * s_powers)[::-1])
    return tuple(p.center + p.scale * w)


def _scaled_roots(desc: np.ndarray) -> np.ndarray:
    """The roots u of the scaled polynomial desc, highest power first: the
    companion eigenvalues, each refined by one Newton step kept where it
    lowers |p|, and accepted by the backward-error test of roots."""
    m = len(desc) - 1
    try:
        u = _companion_roots(desc)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"companion eigenvalues failed: {exc}") from exc
    pv = _polyval(desc, u)
    with np.errstate(all="ignore"):
        step = u - pv / _polyval(desc[:-1] * np.arange(m, 0, -1), u)
        step_pv = _polyval(desc, step)
    better = np.abs(step_pv) < np.abs(pv)
    u = np.where(better, step, u)
    pv = np.where(better, step_pv, pv)
    if not np.all(np.abs(pv) <= _ROOT_TOL * _polyval(np.abs(desc), np.abs(u))):
        raise NoConvergence("a root misses the backward-error test |p| <= 1e-12 * sum_k |c_k| |w|**k")
    return u


def _split_scaling(coeffs, powers: np.ndarray) -> tuple[np.ndarray, float]:
    """(c_k / c_m * s**(k - m), highest power first, and s) without forming
    c_k / c_m or s**(k - m), either of which may overflow a float: each
    nonzero c_k is f_k * 2**E_k, E_k the exponent of its larger part, so
    c_k / c_m = (f_k / f_m) * 2**(E_k - E_m), and s is the power of two
    nearest the geometric mean of the nonzero root moduli, taken from those
    parts, and at most 2**1023: a mean in [2**1023.5, 2**1024) is still in
    the float range.  The powers of two go on exactly by ldexp, so nothing
    overflows where the roots lie in the float range.  Raises NoConvergence
    when a coefficient in u = w / s is past it: then some root is that far
    from s.  A root past it with every coefficient finite is refused by
    roots once it maps w = s * u back."""
    c = np.array(coeffs, dtype=complex)
    m = len(c) - 1
    E = np.frexp(np.maximum(np.abs(c.real), np.abs(c.imag)))[1]
    ratio = np.ldexp(c.view(float), np.repeat(-E, 2)).view(complex)
    ratio /= ratio[m]
    shift = E - E[m]
    low = int(np.flatnonzero(c)[0])
    e_s = min(round((math.log2(abs(ratio[low])) + int(shift[low])) / max(m - low, 1)), 1023)
    with np.errstate(over="ignore"):
        desc = np.ldexp(ratio.view(float), np.repeat(shift + e_s * powers, 2)).view(complex)[::-1]
    if not np.isfinite(desc).all():
        raise NoConvergence(f"the roots spread past the float range about their geometric mean near 2**{e_s}")
    return desc, math.ldexp(1.0, e_s)


def _companion_roots(desc: np.ndarray) -> np.ndarray:
    """np.roots(desc) for a complex coefficient array, highest power first,
    without its argument handling: the eigenvalues of the companion matrix
    of desc with its leading and trailing zeros stripped, then one root 0
    per trailing zero.  The matrix, and so every eigenvalue, is np.roots'
    own; as there, a polynomial whose only root is 0 gets float zeros."""
    nonzero = np.flatnonzero(desc)
    trailing = len(desc) - 1 - nonzero[-1]
    p = desc[nonzero[0] : nonzero[-1] + 1]
    n = len(p) - 1
    if n > 0:
        A = np.zeros((n, n), dtype=p.dtype)
        A.flat[n :: n + 1] = 1
        A[0, :] = -p[1:] / p[0]
        u = np.linalg.eigvals(A)
    else:
        u = np.array([])
    return np.concatenate((u, np.zeros(trailing, u.dtype))) if trailing else u


def _polyval(desc: np.ndarray, x: np.ndarray) -> np.ndarray:
    """np.polyval(desc, x) for an array x: its recurrence y = y * x + c from
    y = 0, the same array operations on the same operands, without its
    argument handling."""
    y = np.zeros_like(x)
    for c in desc:
        y = y * x + c
    return y


def perturbation_bound(
    leading: complex,
    roots_old,
    roots_new,
    R: float,
    center: complex = 0j,
    scale: float = 1.0,
) -> float:
    """Rigorous bound for sup over |z - center| <= R of the difference between
    the polynomials leading * prod_k ((z - r_k) / scale) with the old and the
    new root sets (paired by index).

    Telescoping the product difference gives, with s = scale,
        |leading| * sum_k |old_k - new_k| / s * prod_{j != k} (R + max(|old_j - c|, |new_j - c|)) / s.
    """
    old = [complex(r) for r in roots_old]
    new = [complex(r) for r in roots_new]
    if len(old) != len(new):
        raise InvalidSpec(f"root lists differ in length: {len(old)} vs {len(new)}")
    if R < 0:
        raise InvalidSpec("R must be nonnegative")
    m = len(old)
    if m == 0:
        return 0.0
    center, R, scale = complex(center), float(R), float(scale)
    # Python floats, and each telescoped product taken left to right
    factors = [(R + max(abs(a - center), abs(b - center))) / scale for a, b in zip(old, new)]
    total = 0.0
    for k in range(m):
        move = abs(old[k] - new[k]) / scale
        if move == 0.0:
            continue
        total += move * math.prod(factors[:k] + factors[k + 1 :])
    return abs(complex(leading)) * total


def min_modulus_certificate(fp: FactoredPolynomial, K: geometry.CompactSet) -> float:
    """Lower bound L with |p(z)| >= L on the set: |leading| times the product
    of root-to-set distances over the scale.  L = 0 signals a root lying on
    the set."""
    L = abs(fp.leading)
    for r in fp.roots:
        L *= geometry.distance(K, r) / fp.scale
    return L


def derivative_bound(p: Polynomial, R: float, center: complex = 0j) -> float:
    """A bound for |p'| on |z - center| <= R, used to state how much the
    polynomial part can move between grid samples.

    There |(z - p.center) / p.scale| <= r = (R + |center - p.center|) / p.scale,
    so |p'| <= sum_k k * |c_k| * r**(k-1) / p.scale.
    """
    ks = np.arange(1, p.degree + 1, dtype=float)
    if len(ks) == 0:
        return 0.0
    cs = np.abs(np.array(p.coeffs[1:], dtype=complex))
    r = (R + abs(complex(center) - p.center)) / p.scale
    return float(np.sum(ks * cs * r ** (ks - 1.0))) / p.scale
