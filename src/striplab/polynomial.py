"""Complex polynomial arithmetic, simultaneous root finding, and the two
certified bounds used by the nonvanishing repair."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import DegreeZero, LengthMismatch, NoConvergence

_ROOT_TOL = 1e-12
_MAX_SWEEPS = 1000


@dataclass(frozen=True)
class Polynomial:
    """sum_k coeffs[k] * ((z - center) / scale)**k: ascending powers of the
    frame variable, trailing zeros trimmed.

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
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError("polynomial frame scale must be positive and finite")

    @property
    def identity_frame(self) -> bool:
        return self.center == 0 and self.scale == 1.0

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
        if not self.identity_frame:
            spec["center"] = [self.center.real, self.center.imag]
            spec["scale"] = self.scale
        return spec

    @staticmethod
    def from_spec(spec: dict) -> "Polynomial":
        center = spec.get("center", (0.0, 0.0))
        return Polynomial(
            tuple(complex(re, im) for re, im in spec["coeffs"]),
            complex(center[0], center[1]),
            float(spec.get("scale", 1.0)),
        )


@dataclass(frozen=True)
class FactoredPolynomial:
    """leading * prod_k ((z - roots[k]) / scale); the numerically stable view.

    The roots are in z.  The scale is that of the frame the polynomial was
    fitted in (1 for plain coefficient form), so leading is the frame's
    leading coefficient: the z-leading coefficient leading / scale**m
    overflows or underflows for large or thin sets at high degree.
    """

    leading: complex
    roots: tuple[complex, ...]
    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "leading", complex(self.leading))
        object.__setattr__(self, "roots", tuple(complex(r) for r in self.roots))
        object.__setattr__(self, "scale", float(self.scale))
        if not (self.leading != 0 and cmath.isfinite(self.leading)):
            raise ValueError("factored polynomial needs a finite nonzero leading coefficient")
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError("factored polynomial scale must be positive and finite")

    @property
    def degree(self) -> int:
        return len(self.roots)

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
    """
    if not isinstance(z, np.ndarray):
        return complex(evaluate(p, np.array([z], dtype=complex))[0])
    w = (z - p.center) / p.scale
    wr, wi = w.real.copy(), w.imag.copy()
    re = np.zeros(w.shape)
    im = np.zeros(w.shape)
    for c in reversed(p.coeffs):
        t = im * wi
        im *= wr
        im += re * wi
        im += c.imag
        re *= wr
        re -= t
        re += c.real
    acc = np.empty(w.shape, dtype=complex)
    acc.real, acc.imag = re, im
    return acc


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
    0.5 and 9.4e-2 at radius 5, although ``roots`` finds each at backward
    error <= 1e-12.  Keep a FactoredPolynomial where the roots matter.
    """
    leading = complex(leading)
    if leading == 0:
        raise ValueError("leading coefficient must be nonzero")
    cs = np.array([leading], dtype=complex)
    for r in roots:
        shifted = np.concatenate([[0j], cs])
        cs = shifted - complex(r) * np.concatenate([cs, [0j]])
    return Polynomial(tuple(cs))


def _horner_pair(coeffs: np.ndarray, z: np.ndarray):
    p = np.zeros_like(z)
    dp = np.zeros_like(z)
    for c in coeffs[::-1]:
        dp = dp * z + p
        p = p * z + c
    return p, dp


def roots(p: Polynomial) -> tuple[complex, ...]:
    """All roots, in z, via simultaneous (Aberth-Ehrlich) iteration.

    The iteration runs on the coefficients in the frame variable; its roots
    are mapped back by z = center + scale * root.  Deterministic start: a
    ring at the Fujiwara bound 2 * max_k |c_{m-k} / c_m|**(1/k), which holds
    every root (radius 1 for c_m z**m), angles offset by 0.4 rad to break
    symmetry.  A root is accepted when |p(root)| <= 1e-12 * sum_k |c_k| |root|**k
    in the frame variable, a backward-error test that holds its meaning at
    every root scale; sweeps continue until corrections stagnate so
    clustered roots reach their attainable accuracy.  Raises NoConvergence
    when the test still fails after 1000 sweeps.
    """
    return tuple(p.center + p.scale * np.array(_frame_roots(p)))


def _frame_roots(p: Polynomial) -> tuple[complex, ...]:
    m = p.degree
    if m == 0:
        raise DegreeZero("constant polynomials have no roots to extract")
    coeffs = np.array(p.coeffs, dtype=complex)
    if m == 1:
        return (-coeffs[0] / coeffs[1],)

    # the Fujiwara bound scales with the roots, so |z|**m on the start ring
    # stays representable at degree 60
    ratios = np.abs(coeffs[-2::-1] / coeffs[-1]) ** (1.0 / np.arange(1, m + 1))
    radius = 2.0 * float(np.max(ratios)) or 1.0  # 0 only for p = c_m z**m
    z = radius * np.exp(1j * (2.0 * np.pi * np.arange(m) / m + 0.4))
    abs_desc = np.abs(coeffs[::-1])

    def resid_ok(pv, z):
        return bool(np.all(np.abs(pv) <= _ROOT_TOL * np.polyval(abs_desc, np.abs(z))))

    best_rel = math.inf
    stall = 0
    for sweep in range(1, _MAX_SWEEPS + 1):
        pv, dpv = _horner_pair(coeffs, z)
        converging = resid_ok(pv, z)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = pv / dpv
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, np.inf)
            delta = newton / (1.0 - newton * np.sum(1.0 / diff, axis=1))
        bad = ~np.isfinite(delta)
        if np.any(bad):
            kick = 0.1 * (1.0 + np.abs(z[bad])) * np.exp(1j * sweep)
            delta[bad] = np.where(np.isfinite(newton[bad]), newton[bad], kick)
        z = z - delta
        rel = float(np.max(np.abs(delta) / (1.0 + np.abs(z))))
        if converging:
            if rel <= 4e-16:
                return tuple(z)
            if rel < 0.5 * best_rel:
                best_rel = rel
                stall = 0
            else:
                stall += 1
                if stall >= 6:
                    return tuple(z)
        else:
            stall = 0
            best_rel = math.inf
    pv, _ = _horner_pair(coeffs, z)
    if resid_ok(pv, z):
        return tuple(z)
    raise NoConvergence(_MAX_SWEEPS)


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
        raise LengthMismatch(f"root lists differ in length: {len(old)} vs {len(new)}")
    if R < 0:
        raise ValueError("R must be nonnegative")
    m = len(old)
    if m == 0:
        return 0.0
    center = complex(center)
    factors = np.array([R + max(abs(a - center), abs(b - center)) for a, b in zip(old, new)]) / scale
    total = 0.0
    for k in range(m):
        move = abs(old[k] - new[k]) / scale
        if move == 0.0:
            continue
        others = np.concatenate([factors[:k], factors[k + 1 :]])
        total += move * float(np.prod(others))
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
