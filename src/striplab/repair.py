"""Relocation of polynomial roots off a compact set, with certificates.

Each root close to the set is replaced by a verified exterior point chosen
near enough that the aggregate coefficient perturbation stays under the
caller's budget; the certificate carries a rigorous sup-norm bound for the
change and a positive lower bound for the repaired polynomial's modulus on
the set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import geometry
from .approximation import FitResult, approximate
from .errors import BudgetInfeasible, InvalidSpec, ResolutionExhausted
from .geometry import CompactSet
from .polynomial import (
    FactoredPolynomial,
    Polynomial,
    min_modulus_certificate,
    perturbation_bound,
    roots,
)

_CLEARANCE_FLOOR = 1e-9
_MAX_DELTA_HALVINGS = 60


@dataclass(frozen=True)
class RepairCertificate:
    """Proof data for one repair: bound on the polynomial change over the
    disk |z - c| <= bounding_radius(K, c), where c is the centre of the
    repaired polynomial's frame (0 for plain coefficient form), positive
    modulus floor on the set, and the individual root moves.  The disk
    contains the set, so the bound holds on it.  Both bounds are for the
    factored form leading * prod ((z - root) / scale) that the repair
    returns."""

    perturbation_bound_value: float
    min_modulus_lower_bound: float
    moved_roots: tuple[tuple[complex, complex, float], ...]
    budget: float

    def to_spec(self) -> dict:
        return {
            "perturbation_bound_value": self.perturbation_bound_value,
            "min_modulus_lower_bound": self.min_modulus_lower_bound,
            "budget": self.budget,
            "moved_roots": [
                {
                    "old": [old.real, old.imag],
                    "new": [new.real, new.imag],
                    "distance_moved": dist,
                }
                for old, new, dist in self.moved_roots
            ],
        }


def original_roots(fp: FactoredPolynomial, cert: RepairCertificate) -> tuple[complex, ...]:
    """Pre-repair root list, index-aligned with fp.roots (kept roots map to
    themselves); lets the certificate bound be recomputed from its fields."""
    old = list(fp.roots)
    used = [False] * len(old)
    for before, after, _ in cert.moved_roots:
        for i, r in enumerate(old):
            if not used[i] and r == after:
                old[i] = before
                used[i] = True
                break
        else:
            raise InvalidSpec("certificate moved_roots do not match the factored polynomial")
    return tuple(old)


def repair_nonvanishing(
    P: Polynomial,
    K: CompactSet,
    budget: float,
) -> tuple[FactoredPolynomial, RepairCertificate]:
    """Move every root on or near the set to a verified exterior point while
    keeping the sup-norm change below the budget.

    The result is a * prod ((z - root) / rho) with roots in z, where a is
    P's leading coefficient and (c, rho) its frame; keeping a in the frame
    avoids the z-leading coefficient a / rho**m, which overflows or
    underflows for large or thin sets.  The perturbation is bounded on the
    disk |z - c| <= R with R = max |z - c| over the set, and
    M = R + max |root - c|.  Roots with clearance above
    tau = max(1e-9, budget*1e-3 / (m * (M/rho)**(m-1) * |a| / rho))
    are kept in place (paired to themselves); the displacement for the rest
    starts at half its telescoping-bound allowance and halves until the
    recomputed bound clears the budget; it stops with BudgetInfeasible once
    it is at or below ``geometry.exterior_resolution`` of a root on the set
    that no probe could move.  The zero polynomial is replaced by
    the constant budget/2, the only nonvanishing choice available.
    """
    if not 0 < budget < math.inf:
        raise InvalidSpec("budget must be positive and finite")

    if P.degree == 0:
        if P.is_zero():
            c = budget / 2.0
            fp = FactoredPolynomial(c, ())
            cert = RepairCertificate(c, c, (), budget)
            return fp, cert
        fp = FactoredPolynomial(P.coeffs[0], ())
        return fp, RepairCertificate(0.0, abs(P.coeffs[0]), (), budget)

    old = roots(P)
    m = P.degree
    center, rho = P.center, P.scale
    R = geometry.bounding_radius(K, center)
    M = R + max(abs(r - center) for r in old)
    growth = abs(P.leading) / rho * (M / rho) ** (m - 1)
    tau = _CLEARANCE_FLOOR
    if growth > 0 and m * growth < float("inf"):
        tau = max(_CLEARANCE_FLOOR, budget * 1e-3 / (m * growth))

    clearances = [geometry.distance(K, r) for r in old]
    flagged = [i for i, d in enumerate(clearances) if d <= tau]

    if not flagged:
        fp = FactoredPolynomial(P.leading, old, rho)
        L = min_modulus_certificate(fp, K)
        return fp, RepairCertificate(0.0, L, (), budget)

    delta = budget / (2.0 * len(flagged) * growth) if growth > 0 else R + 1.0
    if not delta > 0:
        raise BudgetInfeasible(
            f"even an infinitesimal move exceeds budget {budget:g} "
            f"(coefficient growth factor {growth:g})",
            required_delta=delta,
        )
    delta = min(delta, R + 1.0)

    for _ in range(_MAX_DELTA_HALVINGS):
        try:
            new = list(old)
            for i in flagged:
                new[i] = geometry.nearest_exterior(K, old[i], delta)
        except ResolutionExhausted:
            # a root on the set stays there for every delta at or below the
            # resolution; above it, or off the set, a smaller delta may work
            limit = geometry.exterior_resolution(old[i])
            if clearances[i] == 0 and delta <= limit:
                raise BudgetInfeasible(
                    f"budget {budget:g} allows displacement {delta:g}, at or below the "
                    f"resolution {limit:g} of exterior points near the root {old[i]} on the set",
                    required_delta=delta,
                ) from None
            delta *= 0.5
            continue
        bound = perturbation_bound(P.leading, old, new, R, center, rho)
        if bound < budget:
            fp = FactoredPolynomial(P.leading, tuple(new), rho)
            L = min_modulus_certificate(fp, K)
            if not L > 0:
                raise BudgetInfeasible(
                    "modulus certificate collapsed to zero after the repair",
                    required_delta=delta,
                )
            moved = tuple(
                (old[i], new[i], abs(old[i] - new[i])) for i in flagged if new[i] != old[i]
            )
            return fp, RepairCertificate(bound, L, moved, budget)
        delta *= 0.5
    raise BudgetInfeasible(
        f"perturbation bound stayed at or above budget {budget:g} down to "
        f"displacement {delta:g}",
        required_delta=delta,
    )


def approximate_nonvanishing(
    K: CompactSet,
    target_spec,
    eps: float,
    max_degree: int = 60,
) -> tuple[FactoredPolynomial, FitResult, RepairCertificate]:
    """Full pipeline: fit to eps/2 on the set, then repair the roots with the
    remaining eps/2, so that fit error + perturbation bound < eps."""
    if not 0 < eps < math.inf:
        raise InvalidSpec("eps must be positive and finite")
    fit = approximate(K, target_spec, eps / 2.0, max_degree)
    fp, cert = repair_nonvanishing(fit.polynomial, K, eps / 2.0)
    return fp, fit, cert
