"""How fast the host runs this process right now.

The benchmark shares a 2-core host with other tenants.  The speed a process
gets drifts by 20-30% over tens of seconds, longer than a run, and moves
identical jobs by as much.  A fixed reference computation that does not touch
striplab is therefore timed between jobs for 0.1 s at a time, and each job's
time is scaled by reference_s / (mean reference time around it): the result
is the time the job would take at the host speed at which one reference unit
takes reference_s.  A change to striplab cannot move the reference, so it
moves scaled times one for one.

Host contention slows kinds of work unequally, so each workload picks the
reference closest to its hot path: MIXED (long-double and complex vector
arithmetic on a cache-sized array, and a Python-level loop over small
arrays) for the scans and repair, GRAM_SCHMIDT (complex vector reductions
in a Python loop) for the polynomial fits.  Neither tracks every slowdown:
the fits slow down less than their reference when the host is busiest, so
`approx` keeps a run-to-run spread of up to about 15%.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

BLOCK_S = 0.1
EVERY_S = 0.5

_LN = np.log(np.arange(1.0, 8193.0, dtype=np.longdouble))
_LN_F = _LN.astype(np.float64)
_M = np.arange(256).reshape(16, 16) * (0.01 + 0.02j) + np.eye(16)
_Z = np.exp(1j * np.linspace(0.0, 3.0, 2000))
_W = np.full(2000, 1.0 / 2000)


def _mixed_unit() -> complex:
    theta = np.mod(_LN * np.longdouble(43210.5), np.longdouble(6.283185307179586))
    acc = complex(np.sum(np.exp(-0.8 * _LN_F) * np.exp(-1j * theta.astype(np.float64))))
    v = np.ones(16, dtype=complex)
    for _ in range(30):
        for j in range(10):
            acc = acc * (0.3 + 0.4j) + j
        v = _M @ v
        v /= np.max(np.abs(v))
        d = v[:, None] - v[None, :]
        np.fill_diagonal(d, np.inf)
        acc += complex(np.sum(1.0 / d))
    return acc


def _gram_schmidt_unit() -> complex:
    Q = np.zeros((len(_Z), 12), dtype=complex)
    Q[:, 0] = 1.0
    for k in range(1, 12):
        q = _Z * Q[:, k - 1]
        for j in range(k):
            q -= complex(np.sum(_W * np.conj(Q[:, j]) * q)) * Q[:, j]
        Q[:, k] = q / np.sqrt(np.sum(_W * np.abs(q) ** 2))
    return complex(Q[-1, -1])


class Reference:
    """A reference unit and its time on the machine the bounds were set on
    (2-core Xeon, 2.1 GHz, uncontended)."""

    def __init__(self, unit, reference_s: float):
        self.unit = unit
        self.reference_s = reference_s

    def measure(self) -> float:
        """Mean time of one unit over a block of about BLOCK_S."""
        t0 = perf_counter()
        n = 0
        while True:
            self.unit()
            n += 1
            elapsed = perf_counter() - t0
            if elapsed >= BLOCK_S:
                return elapsed / n


MIXED = Reference(_mixed_unit, 1.25e-3)
GRAM_SCHMIDT = Reference(_gram_schmidt_unit, 1.6e-3)


class Clock:
    """Reference samples taken between jobs; scales the jobs between them."""

    def __init__(self, reference: Reference):
        self.reference = reference
        self.samples = [reference.measure()]
        self.taken_at = perf_counter()
        self.before = []  # per job: index of the sample taken before it

    def after_job(self) -> None:
        self.before.append(len(self.samples) - 1)
        if perf_counter() - self.taken_at >= EVERY_S:
            self.samples.append(self.reference.measure())
            self.taken_at = perf_counter()

    def scales(self) -> list[float]:
        """Per job: reference_s / mean of the samples on either side."""
        if self.before and self.before[-1] == len(self.samples) - 1:
            self.samples.append(self.reference.measure())
        s = self.samples
        return [2.0 * self.reference.reference_s / (s[k] + s[k + 1]) for k in self.before]
