"""Acceptance suite: one test per criterion, one PASS/FAIL line each
(run with `pytest -s tests/test_acceptance.py` to see every line).

Frozen constants are first-run values produced by the stated oracles.
Criterion 1 runs the nonvanishing pipeline on a three-quarter arc; it is
reachable because the fit runs in the set's centred, scaled variable.  The
non-trivial-recurrence clause of criterion 5 scans the point 0.75 + i, off
the real axis (zeta(0.75) is real and negative and shows no recurrence
within T = 500), and checks its first non-trivial hit against mpmath.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from helpers import quadrupled, random_repair_case, repair_round_trip_checks
from scipy.optimize import linear_sum_assignment
from scipy.special import loggamma

import striplab as sl
from striplab.errors import BudgetNotMet
from striplab.zeta import DEFAULT_PARAMS, ZetaParams

ARC = sl.Arc(0.75, 0.1, 0.0, 1.5 * math.pi)
ORACLE = quadrupled(DEFAULT_PARAMS)

# frozen first-run regression values
A5_DENSITY = 3.7792968750000005e-05
A6_PARAMS = ZetaParams(terms_per_unit_t=0.35)
A6_BEST_D = 0.048044882084128653
A6_BEST_T = 43225.0
A6_WITNESS_T = 175.0

# criterion 5b: a point of the strip whose zeta value recurs within T = 500
RECURRENCE_POINT = 0.75 + 1j


def report(n, ok, detail=""):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}" + (f" - {detail}" if detail else ""))
    assert ok, f"criterion {n}: {detail}"


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def scan500():
    cfg = sl.ScanConfig(T=500.0, step=0.05, eps=0.3)
    return sl.scan_density(sl.PointSet((0.75,)), {"kind": "zeta"}, cfg)


@pytest.fixture(scope="module")
def scan500_half_step():
    cfg = sl.ScanConfig(T=500.0, step=0.025, eps=0.3)
    return sl.scan_density(sl.PointSet((0.75,)), {"kind": "zeta"}, cfg)


@pytest.fixture(scope="module")
def line_scan_1e5():
    cfg = sl.ScanConfig(T=1e5, step=25.0, eps=0.75, refine_tol=2.5)
    return sl.line_universality(0.8, 0.2, lambda t: 1.0, cfg, A6_PARAMS, grid_h=0.05)


# ---------------------------------------------------------------- criteria


def test_criterion_1_theorem1_pipeline_on_arc():
    started = time.monotonic()
    try:
        fp, fit, cert = sl.approximate_nonvanishing(
            ARC, {"kind": "builtin", "name": "conj"}, 1e-2, max_degree=60
        )
    except BudgetNotMet as exc:
        elapsed = time.monotonic() - started
        report(
            1,
            False,
            f"eps 1e-2 needs a fit below 5e-3, which Bernstein-Walsh allows from "
            f"degree 37, but the best fit is {exc.best.sup_error_on_samples:.3g} "
            f"(degree {exc.best.degree_used}, {elapsed:.1f}s)",
        )
        return
    elapsed = time.monotonic() - started
    total = fit.sup_error_on_samples + cert.perturbation_bound_value
    audit = sl.discretize(ARC, fit.grid_covering_radius / 10.0)
    values = sl.evaluate_factored(fp, audit.points)
    audit_err = float(np.max(np.abs(values - np.conj(audit.points))))
    audit_min = float(np.min(np.abs(values)))
    ok = (
        total < 1e-2
        and cert.min_modulus_lower_bound > 0
        and audit_err < 1e-2
        and audit_min >= cert.min_modulus_lower_bound
        and elapsed < 10.0
    )
    report(1, ok, f"total {total:.3g}, audit {audit_err:.3g}, {elapsed:.1f}s")


def test_criterion_2_certificate_soundness_100_cases():
    rng = np.random.default_rng(20240811)
    violations = 0
    for _ in range(100):
        K, P, budget = random_repair_case(rng)
        fp, cert = sl.repair_nonvanishing(P, K, budget)
        try:
            assert cert.perturbation_bound_value < budget
            assert cert.min_modulus_lower_bound > 0
            repair_round_trip_checks(K, P, budget, fp, cert, rng)
        except AssertionError:
            violations += 1
    report(2, violations == 0, f"{violations} violations in 100 randomized repairs")


def test_criterion_3_root_round_trip_200_cases():
    rng = np.random.default_rng(31337)
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 16))
        while True:
            r = rng.uniform(-2, 2, m) + 1j * rng.uniform(-2, 2, m)
            r = r[np.abs(r) <= 2.0]
            if len(r) == 0:
                continue
            d = np.abs(r[:, None] - r[None, :])
            np.fill_diagonal(d, np.inf)
            if d.min() >= 1e-3:
                break
        found = np.array(sl.roots(sl.from_roots(1.0, tuple(r))))
        cost = np.abs(found[:, None] - r[None, :])
        ri, ci = linear_sum_assignment(cost)
        worst = max(worst, float(cost[ri, ci].max()))
    report(3, worst <= 1e-8, f"worst recovery error {worst:.3g}")


def test_criterion_4_zeta_correctness():
    started = time.monotonic()
    ok_closed = (
        abs(sl.zeta_em(2.0 + 0j).value - math.pi**2 / 6.0) <= 1e-12
        and abs(sl.zeta_em(0j).value + 0.5) <= 1e-12
    )

    rng = np.random.default_rng(424242)
    oracle_ok = True
    for _ in range(100):
        s = complex(rng.uniform(0.4, 1.1), rng.uniform(0.0, 1e4))
        zv = sl.zeta_em(s)
        zo = sl.zeta_em(s, ORACLE)
        if abs(zv.value - zo.value) > max(zv.error_estimate, 1e-11):
            oracle_ok = False

    rng = np.random.default_rng(777)
    fe_ok = True
    for _ in range(20):
        s = complex(rng.uniform(0.05, 0.95), rng.uniform(0.5, 50.0))
        lhs = sl.zeta_em(s).value
        chi = np.exp(
            s * np.log(2.0) + (s - 1.0) * np.log(np.pi) + loggamma(1.0 - s)
        ) * np.sin(np.pi * s / 2.0)
        if abs(lhs - chi * sl.zeta_em(1.0 - s).value) > 1e-8:
            fe_ok = False

    def hardy_z(t, params):
        theta = loggamma(complex(0.25, t / 2.0)).imag - (t / 2.0) * math.log(math.pi)
        return (np.exp(1j * theta) * sl.zeta_em(complex(0.5, t), params).value).real

    def bisect_zero(params):
        lo, hi = 14.0, 14.2
        flo = hardy_z(lo, params)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if hardy_z(mid, params) * flo > 0:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-13:
                break
        return 0.5 * (lo + hi)

    zero_ok = abs(bisect_zero(DEFAULT_PARAMS) - bisect_zero(ORACLE)) <= 1e-6
    elapsed = time.monotonic() - started
    ok = ok_closed and oracle_ok and fe_ok and zero_ok and elapsed < 60.0
    report(
        4,
        ok,
        f"closed forms {ok_closed}, oracle {oracle_ok}, functional eq {fe_ok}, "
        f"zero bracket {zero_ok}, {elapsed:.1f}s",
    )


def test_criterion_5_density_frozen_and_stable(scan500, scan500_half_step):
    ok = (
        scan500.empirical_density > 0.0
        and scan500.hit_intervals
        and scan500.hit_intervals[0][0] == 0.0
        and scan500.empirical_density == pytest.approx(A5_DENSITY, rel=1e-6)
        and scan500_half_step.empirical_density
        == pytest.approx(scan500.empirical_density, rel=0.10)
    )
    report(
        "5a",
        ok,
        f"density {scan500.empirical_density:.6g} (frozen {A5_DENSITY:.6g}), "
        f"half-step {scan500_half_step.empirical_density:.6g}",
    )


def test_criterion_5_nontrivial_recurrence_hit():
    mpmath = pytest.importorskip("mpmath")
    eps = 0.3
    cfg = sl.ScanConfig(T=500.0, step=0.05, eps=eps)
    rep = sl.scan_density(sl.PointSet((RECURRENCE_POINT,)), {"kind": "zeta"}, cfg)
    extra = [iv for iv in rep.hit_intervals if iv[0] > 1.0]
    if not extra:
        min_tail = float(rep.ds[rep.ts > 1.0].min())
        report(
            "5b",
            False,
            f"eps {eps} finds no recurrence of zeta({RECURRENCE_POINT}) beyond t = 1 "
            f"within T = 500 (min D over (1, 500] is {min_tail:.4g})",
        )

    # an independent oracle on the scan's grid points inside the first
    # non-trivial hit: D < eps there, and the scan's D agrees with it to
    # within the zeta error estimates (their truncation part, floored at the
    # rounding level 1e-11 as in criterion 4)
    lo, hi = extra[0]
    inside = (rep.ts >= lo) & (rep.ts <= hi)
    s0 = RECURRENCE_POINT
    err0 = sl.zeta_em(s0).error_estimate
    worst_d, worst_gap, disagree = 0.0, 0.0, 0
    with mpmath.workdps(30):
        z0 = mpmath.zeta(mpmath.mpc(s0.real, s0.imag))
        for t, d in zip(rep.ts[inside], rep.ds[inside]):
            d_oracle = float(abs(mpmath.zeta(mpmath.mpc(s0.real, s0.imag + t)) - z0))
            tol = max(sl.zeta_em(s0 + 1j * t).error_estimate + err0, 1e-11)
            worst_d = max(worst_d, d_oracle)
            worst_gap = max(worst_gap, abs(d - d_oracle))
            disagree += abs(d - d_oracle) > tol
    n_checked = int(np.count_nonzero(inside))
    ok = n_checked > 0 and worst_d < eps and disagree == 0
    report(
        "5b",
        ok,
        f"first recurrence hit [{lo:.4f}, {hi:.4f}] of {len(extra)}; mpmath on "
        f"{n_checked} grid points: max D {worst_d:.4g} (eps {eps}), "
        f"max |D - D_mpmath| {worst_gap:.3g}, {disagree} beyond the error estimate",
    )


def test_criterion_6_line_universality_witness(line_scan_1e5):
    rep = line_scan_1e5
    hits = rep.ts[rep.ds < 0.75]
    ok = (
        rep.best_d < 0.75
        and rep.best_d == pytest.approx(A6_BEST_D, rel=1e-9)
        and rep.best_t == A6_BEST_T
        and len(hits) > 0
        and hits[0] == A6_WITNESS_T
    )
    report(
        6,
        ok,
        f"best_D {rep.best_d:.6g} at t = {rep.best_t:g}, "
        f"first witness t = {hits[0] if len(hits) else float('nan'):g}",
    )


def test_criterion_7_scan_semantics(scan500, scan500_half_step, line_scan_1e5, tmp_path):
    # monotone threshold on the regression scan
    cfg_wide = sl.ScanConfig(T=500.0, step=0.05, eps=0.5)
    wide = sl.scan_density(sl.PointSet((0.75,)), {"kind": "zeta"}, cfg_wide)
    grid_nested = set(np.flatnonzero(scan500.ds < 0.3)) <= set(np.flatnonzero(wide.ds < 0.5))
    interval_nested = all(
        any(lo >= lo2 - 1e-4 and hi <= hi2 + 1e-4 for lo2, hi2 in wide.hit_intervals)
        for lo, hi in scan500.hit_intervals
    )

    sorted_disjoint = True
    for rep in (scan500, scan500_half_step, wide, line_scan_1e5):
        for (a, b), (c, d) in zip(rep.hit_intervals, rep.hit_intervals[1:]):
            if not (a <= b < c <= d):
                sorted_disjoint = False

    # determinism: identical CSV bytes across reruns at fixed thread count
    cfg = sl.ScanConfig(T=500.0, step=0.05, eps=0.3)
    rerun = sl.scan_density(sl.PointSet((0.75,)), {"kind": "zeta"}, cfg, threads=1)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    sl.write_trace_csv(scan500, p1)
    sl.write_trace_csv(rerun, p2)
    byte_stable = p1.read_bytes() == p2.read_bytes()

    ok = grid_nested and interval_nested and sorted_disjoint and byte_stable
    report(
        7,
        ok,
        f"monotone {grid_nested and interval_nested}, "
        f"sorted/disjoint {sorted_disjoint}, CSV byte-stable {byte_stable}",
    )


def test_criterion_8_fat_cantor_lengths():
    worst = 0.0
    for depth in range(21):
        iv = sl.fat_cantor(depth)
        total = float(np.sum(iv[:, 1] - iv[:, 0]))
        expected = 1.0 - 0.5 * (1.0 - 2.0 ** (-depth))
        worst = max(worst, abs(total - expected))
    report(8, worst <= 1e-12, f"worst length deviation {worst:.3g} for depth <= 20")
