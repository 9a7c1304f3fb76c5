"""The four benchmark workloads.

Each workload is a closed loop with one client: it builds its inputs from
the seed, hands out jobs, and the runner starts a job only when the
previous one has returned.  A job makes one or more operations, each one
call into striplab's public API (or ``striplab.cli.main``).  Its check runs
afterwards, outside the timed region, and returns one line per wrong
operation plus facts that the traced run turns into per-layer metrics; the
fact "raised" counts operations that failed with a striplab error.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import calibration
import striplab
import striplab.cli
import striplab.repair
import striplab.scan
from striplab.errors import BudgetInfeasible
from striplab.zeta import ZetaParams

# frozen regression values of acceptance criteria 5 and 6 (tests/test_acceptance.py)
A5_DENSITY = 3.7792968750000005e-05
A6_PARAMS = ZetaParams(terms_per_unit_t=0.35)
A6_BEST_D = 0.048044882084128653
A6_BEST_T = 43225.0

EPS = np.finfo(float).eps


class Job:
    """A timed call (`run`) making `ops` operations, and the check of its
    output (`check`)."""

    __slots__ = ("label", "ops", "run", "check")

    def __init__(self, label, ops, run, check):
        self.label = label
        self.ops = ops
        self.run = run
        self.check = check


class Workload:
    """Inputs from a seed; jobs for the runner's closed loop."""

    name = ""
    uses_seed = ""
    reference = calibration.MIXED

    def warmup_job(self) -> Job:
        raise NotImplementedError

    def prepare_jobs(self) -> list[Job]:
        """Untimed jobs run before the loop, so lazy caches are filled."""
        return [self.warmup_job()]

    def next_job(self) -> Job:
        raise NotImplementedError


def _rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * abs(b)


def _one(t: float) -> float:
    return 1.0


# --------------------------------------------------------------- line_scan


class LineScan(Workload):
    """Windowed criterion-6 scans: sigma 0.8, C 0.2, f = 1, step 25."""

    name = "line_scan"
    window = 1000.0
    uses_seed = "the seed orders the window starts t_start = 43225 - 25k, k in 0..40, that jobs cycle through"

    def __init__(self, seed: int, workdir: str):
        self.kmax = int(self.window // 25.0)
        # every run covers nearly all windows, so their mix barely depends on the seed
        self.order = np.random.default_rng(seed).permutation(self.kmax + 1)
        self.jobs = 0

    def job_at(self, t_start: float, threads: int = 1) -> Job:
        cfg = striplab.ScanConfig(
            T=t_start + self.window, step=25.0, eps=0.75, refine_tol=2.5, t_start=t_start
        )

        def run():
            return striplab.scan.line_universality(
                0.8, 0.2, _one, cfg, A6_PARAMS, threads=threads, grid_h=0.05
            )

        return Job(f"window {t_start:g}", 1, run, self._check)

    @staticmethod
    def _check(report):
        wrong = []
        if report.best_t != A6_BEST_T or not _rel_close(report.best_d, A6_BEST_D, 1e-9):
            wrong.append(f"best (t, D) = ({report.best_t!r}, {report.best_d!r})")
        return wrong, {"trace_points": len(report.ts)}

    def warmup_job(self) -> Job:
        return self.job_at(A6_BEST_T - 25.0 * (self.kmax // 2))

    def next_job(self) -> Job:
        k = int(self.order[self.jobs % len(self.order)])
        self.jobs += 1
        return self.job_at(A6_BEST_T - 25.0 * k)


# ------------------------------------------------------------ density_scan


class DensityScan(Workload):
    """The criterion-5 scan500 through the command line, in-process."""

    name = "density_scan"
    uses_seed = "no randomness: every job is the same scan, the seed is ignored"

    def __init__(self, seed: int, workdir: str):
        set_path = os.path.join(workdir, "point.json")
        with open(set_path, "w", encoding="utf-8") as fh:
            json.dump({"variant": "points", "points": [[0.75, 0.0]]}, fh)
        self.csv_path = os.path.join(workdir, "trace.csv")
        self.json_path = os.path.join(workdir, "report.json")
        self.argv = [
            "scan", "--set", set_path, "--target", "zeta", "--T", "500",
            "--step", "0.05", "--eps", "0.3",
            "--out-csv", self.csv_path, "--out-json", self.json_path,
        ]
        self.reference_csv = None

    def _run(self):
        for path in (self.csv_path, self.json_path):
            if os.path.exists(path):
                os.remove(path)
        return striplab.cli.main(self.argv)

    def _check(self, code):
        if code != 0:
            return [f"exit code {code}"], {}
        with open(self.csv_path, "rb") as fh:
            csv = fh.read()
        with open(self.json_path, "rb") as fh:
            raw = fh.read()
        density = json.loads(raw)["report"]["empirical_density"]
        if self.reference_csv is None:
            self.reference_csv = csv
        wrong = []
        if not _rel_close(density, A5_DENSITY, 1e-6):
            wrong.append(f"density {density!r}")
        elif csv != self.reference_csv:
            wrong.append("CSV differs from the first job's")
        facts = {
            "trace_points": csv.count(b"\n") - 1,
            "json_bytes": len(raw),
            "csv_bytes": len(csv),
        }
        return wrong, facts

    def warmup_job(self) -> Job:
        return Job("scan500", 1, self._run, self._check)

    def next_job(self) -> Job:
        return self.warmup_job()


# ------------------------------------------------------------------ approx


def _sin8(z):
    return np.sin(8.0 * z)


def _cos6(z):
    return np.cos(6.0 * z)


ZETA = {"kind": "zeta"}

# (label, set, target spec, eps); every problem succeeds at the seed commit
APPROX_PROBLEMS = (
    ("abs [-1/2,1/2] 1e-2", striplab.Segment(-0.5, 0.5), {"kind": "builtin", "name": "abs"}, 1e-2),
    ("sin8z [-1/2,1/2] 1e-3", striplab.Segment(-0.5, 0.5), _sin8, 1e-3),
    ("cos6z [-1,1] 1e-3", striplab.Segment(-1.0, 1.0), _cos6, 1e-3),
    ("zeta [.75,.75+i] 1e-3", striplab.Segment(0.75, 0.75 + 1j), ZETA, 1e-3),
    ("zeta [.6,.9] 2e-3", striplab.Segment(0.6, 0.9), ZETA, 2e-3),
)


class Approx(Workload):
    """Certified nonvanishing approximation of a fixed list of problems.

    A job solves every problem once.  Single problems take from 0.15 s to
    1.7 s, so the median of per-problem times would sit on the boundary
    between two problems and jump between them from run to run; the median
    of whole passes does not."""

    name = "approx"
    uses_seed = "the seed shuffles the order of the problems inside each job"
    reference = calibration.GRAM_SCHMIDT

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng(seed)
        self.audits = {}

    def job_of(self, order) -> Job:
        order = [int(i) for i in order]

        def run():
            return [
                striplab.repair.approximate_nonvanishing(*APPROX_PROBLEMS[i][1:])
                for i in order
            ]

        def check(outs):
            wrong, facts = [], {"audit_over_eps": 0.0, "modulus_log10": []}
            for i, out in zip(order, outs):
                problem, audit_over_eps, modulus_log10 = self._check(i, out)
                if problem:
                    wrong.append(f"{APPROX_PROBLEMS[i][0]}: {problem}")
                facts["audit_over_eps"] = max(facts["audit_over_eps"], audit_over_eps)
                facts["modulus_log10"] += modulus_log10
            return wrong, facts

        return Job("order " + ",".join(map(str, order)), len(order), run, check)

    def _audit(self, index: int, h: float):
        # a 10x finer grid and the target on it; fits are deterministic,
        # so the grid is built once per problem and reused
        key = (index, h)
        if key not in self.audits:
            _, K, spec, _ = APPROX_PROBLEMS[index]
            grid = striplab.discretize(K, h / 10.0)
            if callable(spec):
                f = spec(grid.points)
            else:
                f = np.array(striplab.resolve_target(spec, grid).samples)
            self.audits[key] = (grid.points, f)
        return self.audits[key]

    def _check(self, index, out):
        fp, fit, cert = out
        _, K, _, eps = APPROX_PROBLEMS[index]
        h = fit.grid_covering_radius
        total = fit.sup_error_on_samples + cert.perturbation_bound_value
        L = cert.min_modulus_lower_bound
        slack = striplab.derivative_bound(fit.polynomial, striplab.bounding_radius(K)) * h
        z, f = self._audit(index, h)
        values = striplab.evaluate_factored(fp, z)
        audit_err = float(np.max(np.abs(values - f)))
        audit_min = float(np.min(np.abs(values)))
        problem = None
        if not total < eps:
            problem = f"certified total {total:.3g} >= eps {eps:g}"
        elif not L > 0:
            problem = "modulus floor L is not positive"
        elif not audit_min >= L:
            problem = f"audited min|p| {audit_min:.3g} below L {L:.3g}"
        elif not audit_err <= total + slack:
            problem = f"audit error {audit_err:.3g} above total + L_P h = {total + slack:.3g}"
        tightness = [math.log10(audit_min / L)] if L > 0 and audit_min > 0 else []
        return problem, audit_err / eps, tightness

    def warmup_job(self) -> Job:
        return self.job_of([len(APPROX_PROBLEMS) - 1])

    def prepare_jobs(self) -> list[Job]:
        # every problem once, which also builds the audit grids
        return [self.job_of(range(len(APPROX_PROBLEMS)))]

    def next_job(self) -> Job:
        return self.job_of(self.rng.permutation(len(APPROX_PROBLEMS)))


# ------------------------------------------------------------------ repair


def _point_on(K, u):
    if isinstance(K, striplab.Segment):
        return K.a + u * (K.b - K.a)
    if isinstance(K, striplab.Arc):
        return K.center + K.radius * np.exp(1j * (K.angle_start + u * K.span))
    pts = np.array(K.points, dtype=complex)
    return pts[(np.asarray(u) * len(pts)).astype(int) % len(pts)]


def _random_set(rng):
    kind = int(rng.integers(3))
    if kind == 0:
        a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        return striplab.Segment(a, a + complex(rng.uniform(0.2, 1.0), rng.uniform(-0.5, 0.5)))
    if kind == 1:
        center = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        start = rng.uniform(0, 2 * math.pi)
        return striplab.Arc(center, rng.uniform(0.05, 0.5), start, start + rng.uniform(0.3, 5.5))
    count = int(rng.integers(1, 6))
    return striplab.PointSet(tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(count)))


class Repair(Workload):
    """Random (set, polynomial, budget) cases through repair_nonvanishing,
    in the style of the criterion-2 cases but with degrees 1 to 16.

    A job repairs a batch of cases.  One case takes about 3 ms, so the
    highest percentile with ten samples beyond it would be the 11th slowest
    of some 5000 single cases and would mostly time scheduler ticks; batches
    of 32 put that percentile near p93 of sums that vary far less."""

    name = "repair"
    batch = 32
    uses_seed = "the seed draws every case and the audit points of its check"

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng(seed)
        self.audit_rng = np.random.default_rng([seed, 1])

    def _case(self):
        rng = self.rng
        K = _random_set(rng)
        m = int(rng.integers(1, 17))
        roots = []
        for _ in range(m):
            if rng.uniform() < 0.5:
                roots.append(complex(_point_on(K, rng.uniform())))
            else:
                roots.append(complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)))
        leading = complex(rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0))
        budget = 10.0 ** rng.uniform(-4.0, -0.5)
        return K, striplab.from_roots(leading, tuple(roots)), budget

    def _job(self, size: int) -> Job:
        cases = [self._case() for _ in range(size)]

        def run():
            outs = []
            for K, P, budget in cases:
                try:
                    outs.append(striplab.repair.repair_nonvanishing(P, K, budget))
                except BudgetInfeasible as exc:
                    outs.append(exc)
            return outs

        def check(outs):
            wrong, facts = [], {"raised": 0, "modulus_log10": []}
            for case, out in zip(cases, outs):
                if isinstance(out, BudgetInfeasible):
                    facts["raised"] += 1
                    continue
                problem, tightness = self._check(*case, out)
                if problem:
                    wrong.append(f"degree {case[1].degree}: {problem}")
                facts["modulus_log10"] += tightness
            return wrong, facts

        return Job(f"{size} cases", size, run, check)

    def _check(self, K, P, budget, out):
        # the criterion-2 dominations, with its ulp allowance for comparing
        # two float evaluations of mathematically identical objects
        fp, cert = out
        rng = self.audit_rng
        R = striplab.bounding_radius(K)
        L = cert.min_modulus_lower_bound
        allowance = 64.0 * EPS * max(abs(c) for c in P.coeffs) * max(1.0, R) ** P.degree
        before = striplab.FactoredPolynomial(fp.leading, striplab.original_roots(fp, cert))
        n = 2000
        disk = np.concatenate([
            R * np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * math.pi * rng.uniform(0, 1, n)),
            R * np.exp(2j * math.pi * np.arange(n) / n),
        ])
        diff = float(np.max(np.abs(
            striplab.evaluate_factored(before, disk) - striplab.evaluate_factored(fp, disk)
        )))
        on_set = np.asarray(_point_on(K, rng.uniform(0, 1, 10_000)), dtype=complex)
        audit_min = float(np.min(np.abs(striplab.evaluate_factored(fp, on_set))))
        problem = None
        if not cert.perturbation_bound_value < budget:
            problem = "perturbation bound not below budget"
        elif not L > 0:
            problem = "modulus floor L is not positive"
        elif not cert.perturbation_bound_value + allowance >= diff:
            problem = f"sampled change {diff:.3g} above the bound"
        elif not L <= audit_min * (1.0 + 1e-12) + 1e-300:
            problem = f"audited min|p| {audit_min:.3g} below L {L:.3g}"
        elif not all(striplab.distance(K, new) > 0.0 for _, new, _ in cert.moved_roots):
            problem = "a moved root lies on the set"
        tightness = [math.log10(audit_min / L)] if L > 0 and audit_min > 0 else []
        return problem, tightness

    def warmup_job(self) -> Job:
        return self._job(1)

    def next_job(self) -> Job:
        return self._job(self.batch)


WORKLOADS = {w.name: w for w in (LineScan, DensityScan, Approx, Repair)}
