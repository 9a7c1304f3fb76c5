"""Shared randomized-case machinery for the repair and acceptance suites,
the doubling rule that zeta's decided N is checked against, and the numpy
paths that roots and perturbation_bound must match bit for bit."""

import math

import numpy as np

from striplab import (
    Arc,
    PointSet,
    Segment,
    bounding_radius,
    distance,
    evaluate_factored,
    from_roots,
)
from striplab import polynomial
from striplab import zeta as zeta_mod
from striplab.errors import NoConvergence

EPS = np.finfo(float).eps


def shifted_pairs(points, ts):
    """The points z_j + i t_b of zeta._evaluate's pairs, shift by shift, as
    it builds them: Re z_j, and Im z_j + t_b rounded once."""
    points, ts = np.asarray(points, dtype=complex), np.asarray(ts, dtype=np.float64)
    shifted = np.empty((len(ts), len(points)), dtype=complex)
    shifted.real, shifted.imag = points.real, points.imag + ts[:, None]
    return shifted.reshape(-1)


def doubling_reference(points, ts, params, rows=None):
    """(values, estimates, exhausted), each len(points) x len(ts), by the
    doubling rule: each pair summed at N0, then at 2 N0 and 4 N0 while its
    estimate is above threshold or its value is not finite, keeping the
    first N that passes, else 4 N0, and marked exhausted if none passes.
    Each N is summed for every pair through _sums and _em_tail: a pair's
    value does not depend on the other pairs of a call."""
    shifted = shifted_pairs(points, ts)
    n0 = zeta_mod._choose_n(shifted.imag, params)
    values, errors = np.empty(len(shifted), dtype=complex), np.empty(len(shifted))
    exhausted = np.ones(len(shifted), dtype=bool)
    for m in (1, 2, 4):
        partial, last = zeta_mod._sums(points, ts, m * n0, rows)
        v, e = zeta_mod._em_tail(shifted, m * n0, partial, last, params.bernoulli_terms)
        values[exhausted], errors[exhausted] = v[exhausted], e[exhausted]
        exhausted &= ~((e <= zeta_mod._ERR_THRESHOLD) & np.isfinite(v))
    shape = (len(ts), len(points))
    return values.reshape(shape).T, errors.reshape(shape).T, exhausted.reshape(shape).T


def reference_roots(p):
    """polynomial.roots through np.roots, np.polyval and np.polyder: the
    same scaling, Newton step and backward-error test, with numpy's own
    companion solve and Horner loops."""
    m = p.degree
    e = math.frexp(abs(p.leading))[1]
    coeffs = np.ldexp(np.array(p.coeffs, dtype=complex).view(float), -e).view(complex)
    low = int(np.flatnonzero(coeffs)[0])
    s = abs(coeffs[low] / coeffs[m]) ** (1.0 / max(m - low, 1))
    desc = (coeffs / coeffs[m] * s ** (np.arange(m + 1) - m))[::-1]
    try:
        u = np.roots(desc)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"companion eigenvalues failed: {exc}") from exc
    pv = np.polyval(desc, u)
    with np.errstate(all="ignore"):
        step = u - pv / np.polyval(np.polyder(desc), u)
        step_pv = np.polyval(desc, step)
    better = np.abs(step_pv) < np.abs(pv)
    u = np.where(better, step, u)
    pv = np.where(better, step_pv, pv)
    if not np.all(np.abs(pv) <= polynomial._ROOT_TOL * np.polyval(np.abs(desc), np.abs(u))):
        raise NoConvergence("a root misses the backward-error test |p| <= 1e-12 * sum_k |c_k| |w|**k")
    return tuple(p.center + p.scale * (s * u))


def reference_perturbation_bound(leading, roots_old, roots_new, R, center=0j, scale=1.0):
    """perturbation_bound with its factors in a float64 array and each
    telescoped product taken by np.prod over np.concatenate."""
    old = [complex(r) for r in roots_old]
    new = [complex(r) for r in roots_new]
    center = complex(center)
    factors = np.array([R + max(abs(a - center), abs(b - center)) for a, b in zip(old, new)]) / scale
    total = 0.0
    for k in range(len(old)):
        move = abs(old[k] - new[k]) / scale
        if move == 0.0:
            continue
        others = np.concatenate([factors[:k], factors[k + 1 :]])
        total += move * float(np.prod(others))
    return abs(complex(leading)) * total


def bits(values):
    """The exact floats of complex or real values, signs of zero included,
    as hex strings."""
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


def point_on(K, rng):
    t = rng.uniform()
    if isinstance(K, Segment):
        return K.a + t * (K.b - K.a)
    if isinstance(K, Arc):
        return K.center + K.radius * np.exp(1j * (K.angle_start + t * K.span))
    if isinstance(K, PointSet):
        return K.points[rng.integers(len(K.points))]
    raise TypeError(type(K))


def random_compact_set(rng):
    kind = int(rng.integers(3))
    if kind == 0:
        a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        b = a + complex(rng.uniform(0.2, 1.0), rng.uniform(-0.5, 0.5))
        return Segment(a, b)
    if kind == 1:
        center = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        start = rng.uniform(0, 2 * math.pi)
        return Arc(center, rng.uniform(0.05, 0.5), start, start + rng.uniform(0.3, 5.5))
    pts = tuple(
        complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(int(rng.integers(1, 6)))
    )
    return PointSet(pts)


def random_repair_case(rng):
    """(K, P, budget) with a mix of on-set and clear roots."""
    K = random_compact_set(rng)
    m = int(rng.integers(1, 9))
    roots = []
    for _ in range(m):
        if rng.uniform() < 0.5:
            roots.append(point_on(K, rng))
        else:
            roots.append(complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)))
    leading = complex(rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0))
    budget = 10.0 ** rng.uniform(-4.0, -0.5)
    return K, from_roots(leading, tuple(roots)), budget


def disk_audit_points(R, rng, n=2000):
    r = R * np.sqrt(rng.uniform(0, 1, n))
    th = rng.uniform(0, 2 * math.pi, n)
    boundary = R * np.exp(1j * np.linspace(0, 2 * math.pi, n, endpoint=False))
    return np.concatenate([r * np.exp(1j * th), boundary])


def set_audit_points(K, rng, n=10_000):
    ts = rng.uniform(0, 1, n)
    return np.array([_param_point(K, t) for t in ts])


def _param_point(K, t):
    if isinstance(K, Segment):
        return K.a + t * (K.b - K.a)
    if isinstance(K, Arc):
        return K.center + K.radius * np.exp(1j * (K.angle_start + t * K.span))
    if isinstance(K, PointSet):
        return K.points[int(t * len(K.points)) % len(K.points)]
    raise TypeError(type(K))


def repair_round_trip_checks(K, P, budget, fp, cert, rng):
    """The two certificate dominations, with an ulp allowance for comparing
    two float evaluations of mathematically identical objects.

    The bound certifies the factored polynomial at the extracted roots
    against the factored polynomial at the moved roots; root-extraction
    backward error (relevant only for clustered roots) is outside its scope
    and is surfaced by fit-level audits instead.
    """
    from striplab import FactoredPolynomial, original_roots

    R = bounding_radius(K)
    m = P.degree
    coeff_scale = max(abs(c) for c in P.coeffs)
    ulp_allowance = 64.0 * EPS * coeff_scale * max(1.0, R) ** m

    before = FactoredPolynomial(fp.leading, original_roots(fp, cert), fp.scale)
    zs = disk_audit_points(R, rng)
    diff = np.abs(evaluate_factored(before, zs) - evaluate_factored(fp, zs))
    assert cert.perturbation_bound_value + ulp_allowance >= float(diff.max())

    on_set = set_audit_points(K, rng)
    min_mod = float(np.min(np.abs(evaluate_factored(fp, on_set))))
    assert cert.min_modulus_lower_bound <= min_mod * (1.0 + 1e-12) + 1e-300
    for _, new, _ in cert.moved_roots:
        assert distance(K, new) > 0.0
