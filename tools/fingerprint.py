"""Fingerprint striplab's outputs: one SHA-256 per section and one in total.

A change that claims to leave every output bit-identical runs this at the
parent commit and at the change and compares the lines.  Every float is
hashed by float.hex, every array by its dtype, shape and bytes, and an
operation that raises a striplab error is hashed by the error's type,
message and index, so that a refusal counts as an output too.  The
sections:

  evaluate  zeta._evaluate over a fixed matrix of parameters, point sets
            and shift sets, with and without the points' shift_rows, and
            those rows cut to N0's width at the horizon (shift_rows may
            make them wider, which no value shows); the low-term
            parameters take 2 N0 or 4 N0 and exhaust precision
  zeta_em   zeta_em at fixed points, and the errors some of them raise
  scan500   the criterion-5 density scan through the command line: exit
            code, CSV bytes and the record without its wall time
  line_scan criterion-6 windows near t = 43 225 at 0.35 terms per unit t
  approx    the five fixed approximate_nonvanishing problems, and the
            command-line records of those it can state, without wall time
  grids     the sample grids of each set type, with its bounding box and
            radii, and its distance and exterior points at probes on it,
            near it and far from it
  repair    repair_nonvanishing on seeded random cases in the repair
            benchmark's style: a segment, an arc or 1-5 points, degree
            1-16 with about half the roots on the set, budget 10**-4 to
            10**-0.5, and three refusals; each factored polynomial and
            certificate, or the error raised with its required_delta

No hash is pinned anywhere: a pinned hash would block intended changes.
Fits run on one OpenBLAS thread (approximation._OneBlasThread); where numpy
links another BLAS, the approx hash may differ by host.

Usage, from any directory (striplab is imported from the src directory of
this checkout):

    python tools/fingerprint.py          # every section in full
    python tools/fingerprint.py --fast   # a subset of each section

On a 2-core x86-64 host the full run takes about 6 s and --fast under 1 s.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import numbers
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import striplab  # noqa: E402
import striplab.cli  # noqa: E402
import striplab.geometry as geometry  # noqa: E402
import striplab.zeta as zeta_mod  # noqa: E402
from striplab.errors import StriplabError  # noqa: E402
from striplab.zeta import ZetaParams  # noqa: E402


def _feed(h, x) -> None:
    """Hash x into h: tagged, so that no two different values share a byte
    stream, and by value for scalars whatever their Python or numpy type."""
    if x is None:
        h.update(b"N")
    elif isinstance(x, (bool, np.bool_)):
        h.update(b"T" if x else b"F")
    elif isinstance(x, numbers.Integral):
        h.update(b"i%d;" % int(x))
    elif isinstance(x, numbers.Real):
        h.update(b"f" + float(x).hex().encode() + b";")
    elif isinstance(x, numbers.Complex):
        h.update(b"c")
        _feed(h, x.real)
        _feed(h, x.imag)
    elif isinstance(x, str):
        _feed(h, x.encode())
    elif isinstance(x, bytes):
        h.update(b"b%d;" % len(x) + x)
    elif isinstance(x, np.ndarray):
        h.update(f"a{x.dtype.str}{x.shape};".encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif isinstance(x, dict):
        h.update(b"d%d;" % len(x))
        for key in sorted(x):
            _feed(h, key)
            _feed(h, x[key])
    elif isinstance(x, (list, tuple)):
        h.update(b"l%d;" % len(x))
        for item in x:
            _feed(h, item)
    elif dataclasses.is_dataclass(x):
        _feed(h, type(x).__name__)
        for field in dataclasses.fields(x):
            _feed(h, field.name)
            _feed(h, getattr(x, field.name))
    elif isinstance(x, BaseException):
        _feed(h, ("raised", type(x).__name__, str(x), getattr(x, "index", None)))
    else:
        raise TypeError(f"cannot fingerprint {type(x).__name__}")


def _outcome(call, *args):
    """call(*args), or the striplab error it raises."""
    try:
        return call(*args)
    except StriplabError as exc:
        return exc


# ------------------------------------------------------------------ zeta

# the defaults; the A6 scan's 0.35 terms per unit t; 2 N0 (0.15) and 4 N0
# (0.1, also with 20 corrections) at t = 1e3; N0 = max(3, ceil(2 t)) with
# one correction, whose estimate saws across the threshold; N0 = 2, which
# exhausts precision away from the real axis; and the smallest N and K at
# the default rate
EVALUATE_PARAMS = (
    ZetaParams(),
    ZetaParams(terms_per_unit_t=0.35),
    ZetaParams(terms_per_unit_t=0.15),
    ZetaParams(terms_per_unit_t=0.1),
    ZetaParams(terms_per_unit_t=0.1, bernoulli_terms=20),
    ZetaParams(terms_per_unit_t=2.0, min_terms=3, bernoulli_terms=1),
    ZetaParams(terms_per_unit_t=1e-9, min_terms=2, bernoulli_terms=12),
    ZetaParams(min_terms=2, bernoulli_terms=1),
)

EVALUATE_POINTS = (
    np.array([0.75 + 0j]),
    np.array([0.6 + 0.1j, 0.8 + 0.1j, 0.7 + 3.0j, 0.75, 0.9 - 2.0j]),
    striplab.discretize(striplab.Segment(0.8, 0.8 + 0.2j), 0.05).points,
    np.array([-0.9, 0.0, 0.55, 0.95, 2.5, 0.5 + 14.1j, 2.9 - 3.0j]),
    striplab.discretize(striplab.PointSet((0.75, 0.75 + 1e3j, 0.8, 0.8 + 1e3j, 0.6 + 0.5j)), 0.1).points,
)

EVALUATE_SHIFTS = (
    np.array([0.0]),
    np.concatenate((np.linspace(0.0, 990.0, 23), [1e3, 1e3])),
    np.array([0.46, 1.46, 2.46, -14.1]),
    43225.0 + 0.5 * np.arange(8),
    np.array([1e4, 1e5 + 0.25]),
)


def _evaluations(points, ts, params):
    yield _outcome(zeta_mod._evaluate, points, ts, params)
    t_max = float(np.max(np.abs(ts)))
    rows = _outcome(zeta_mod.shift_rows, points, t_max, params)
    if isinstance(rows, StriplabError):
        yield rows
    else:
        tau = t_max + float(np.max(np.abs(points.imag), initial=0.0))
        yield rows[:, : zeta_mod._row_width(int(zeta_mod._choose_n(tau, params)))]
        yield _outcome(zeta_mod._evaluate, points, ts, params, rows)


def section_evaluate(fast: bool):
    params = tuple(EVALUATE_PARAMS[i] for i in (0, 3, 5, 6)) if fast else EVALUATE_PARAMS
    point_sets = EVALUATE_POINTS[1::2] if fast else EVALUATE_POINTS
    shift_sets = EVALUATE_SHIFTS[:3] if fast else EVALUATE_SHIFTS
    for p in params:
        for points in point_sets:
            for ts in shift_sets:
                yield (p, points, ts)
                yield from _evaluations(points, ts, p)


ZETA_EM_POINTS = (
    2.0, 0.0, 0.75, -0.9 + 3.0j, 2.9 - 3.0j, 0.5 + 14.134725j, 0.5 - 14.1j,
    0.75 + 1e3j, 0.55 + 43225.0j, 0.95 + 1e5j, 0.75 + 1e6j,
    1.0, -1.5, 0.75 + 2e8j,
)


def section_zeta_em(fast: bool):
    points = ZETA_EM_POINTS[:8] + ZETA_EM_POINTS[-3:] if fast else ZETA_EM_POINTS
    for params in (EVALUATE_PARAMS[0],) + EVALUATE_PARAMS[3:]:
        for s in points:
            if params != EVALUATE_PARAMS[0] and abs(complex(s).imag) > 1e5:
                continue
            yield (params, s, _outcome(striplab.zeta_em, complex(s), params))
    # at 1e-9 terms per unit t N0 = 2 at t = 2e5, and the estimate is
    # above 1e92 at each of N = 2, 4 and 8
    yield _outcome(striplab.zeta_em, 0.75 + 2e5j, EVALUATE_PARAMS[6])
    # with 30 corrections at t = 1e7 the terms overflow at every N
    overflowing = ZetaParams(terms_per_unit_t=1e-9, min_terms=2, bernoulli_terms=30)
    yield _outcome(striplab.zeta_em, 0.75 + 1e7j, overflowing)


# ------------------------------------------------------------------ scans


def _record_without_wall_time(path):
    with open(path, "rb") as fh:
        record = json.load(fh)
    del record["manifest"]["wall_time_s"]
    return record


def section_scan500(fast: bool):
    with tempfile.TemporaryDirectory() as tmp:
        set_path = os.path.join(tmp, "point.json")
        with open(set_path, "w", encoding="utf-8") as fh:
            json.dump({"variant": "points", "points": [[0.75, 0.0]]}, fh)
        csv_path, json_path = os.path.join(tmp, "trace.csv"), os.path.join(tmp, "report.json")
        code = striplab.cli.main([
            "scan", "--set", set_path, "--target", "zeta", "--T", "500", "--step", "0.05",
            "--eps", "0.3", "--out-csv", csv_path, "--out-json", json_path,
        ])
        with open(csv_path, "rb") as fh:
            csv = fh.read()
        yield code, csv, _record_without_wall_time(json_path)


def _one(t: float) -> float:
    return 1.0


def section_line_scan(fast: bool):
    # the windows t_start = 43225 - 25 k of 1 000, k in 0..40
    params = ZetaParams(terms_per_unit_t=0.35)
    for k in (0, 20, 40) if fast else range(41):
        t_start = 43225.0 - 25.0 * k
        cfg = striplab.ScanConfig(T=t_start + 1000.0, step=25.0, eps=0.75, refine_tol=2.5, t_start=t_start)
        yield striplab.line_universality(0.8, 0.2, _one, cfg, params, grid_h=0.05)


# ---------------------------------------------------------- approximation


def _sin8(z):
    return np.sin(8.0 * z)


def _cos6(z):
    return np.cos(6.0 * z)


# (set, target, eps); the target is a spec the command line also takes, or
# a function that it does not
APPROX_PROBLEMS = (
    (striplab.Segment(-0.5, 0.5), "abs", 1e-2),
    (striplab.Segment(-0.5, 0.5), _sin8, 1e-3),
    (striplab.Segment(-1.0, 1.0), _cos6, 1e-3),
    (striplab.Segment(0.75, 0.75 + 1j), "zeta", 1e-3),
    (striplab.Segment(0.6, 0.9), "zeta", 2e-3),
)


def _spec(target):
    if callable(target):
        return target
    return {"kind": "zeta"} if target == "zeta" else {"kind": "builtin", "name": target}


def section_approx(fast: bool):
    problems = APPROX_PROBLEMS[::2] if fast else APPROX_PROBLEMS
    for K, target, eps in problems:
        yield _outcome(striplab.approximate_nonvanishing, K, _spec(target), eps)
    with tempfile.TemporaryDirectory() as tmp:
        for i, (K, target, eps) in enumerate(problems):
            if callable(target):
                continue
            set_path, out_path = os.path.join(tmp, f"set{i}.json"), os.path.join(tmp, f"out{i}.json")
            with open(set_path, "w", encoding="utf-8") as fh:
                json.dump(striplab.to_spec(K), fh)
            argv = ["approx", "--set", set_path, "--target", target, "--eps", repr(eps), "--out", out_path]
            code = striplab.cli.main(argv)
            yield code, _record_without_wall_time(out_path)


# ------------------------------------------------------------------ grids


def _grid_sets():
    cantor = striplab.CantorProduct(striplab.fat_cantor(3), 0.0, 0.3, 0.3, 0.55 + 0.1j)
    return (
        striplab.Segment(-0.5, 0.5),
        striplab.Segment(0.8, 0.8 + 0.2j),
        striplab.Arc(0.1j, 0.5, 0.3, 5.0),
        striplab.Polyline((0j, 1 + 0j, 1 + 1j, 0.25 + 1.5j)),
        striplab.PointSet((0.75, 0.6 + 0.2j, -0.3 - 0.4j)),
        striplab.CantorProduct(np.array([[0.0, 1.0]]), 0.0, 1.0, 0.4, 0.55),
        cantor,
        striplab.fiber_edges(cantor),
        striplab.CantorProduct(striplab.fat_cantor(2), 0.5, 0.5, 0.4, 0.55),  # zero height
    )


def _probes(K, fast: bool):
    """Points on the set (some of its samples), near it (those moved by
    1e-9 and 1e-4) and far from it (3 + 2i and -2 - 3i)."""
    on = striplab.discretize(K, 0.05).points
    on = [complex(z) for z in on[:: max(1, len(on) // (3 if fast else 12))]]
    near = [z + d * (1 + 1j) for d in (1e-9, 1e-4) for z in on]
    return on + near + [3 + 2j, -2 - 3j]


def section_grids(fast: bool):
    for K in _grid_sets():
        for h in (0.05,) if fast else (0.1, 0.05, 0.01, 1e-3):
            yield striplab.to_spec(K), h, _outcome(striplab.discretize, K, h)
        yield geometry.bounding_box(K), [striplab.bounding_radius(K, c) for c in (0j, 0.3 - 0.2j, 0.75)]
        for z in _probes(K, fast):
            yield z, striplab.distance(K, z), [_outcome(striplab.nearest_exterior, K, z, d) for d in (1e-2, 1e-5)]


# ------------------------------------------------------------------ repair


def _repair_case(rng):
    """(K, P, budget): K a segment, an arc or 1-5 points, P of degree 1-16
    with each root on K or in the square |Re|, |Im| <= 1.5 by a coin toss."""
    kind = int(rng.integers(3))
    if kind == 0:
        a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        K = striplab.Segment(a, a + complex(rng.uniform(0.2, 1.0), rng.uniform(-0.5, 0.5)))
    elif kind == 1:
        start = rng.uniform(0, 2 * np.pi)
        center = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        K = striplab.Arc(center, rng.uniform(0.05, 0.5), start, start + rng.uniform(0.3, 5.5))
    else:
        count = int(rng.integers(1, 6))
        K = striplab.PointSet(tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(count)))
    roots = []
    for _ in range(int(rng.integers(1, 17))):
        if rng.uniform() < 0.5:
            u = rng.uniform()
            if kind == 0:
                roots.append(K.a + u * (K.b - K.a))
            elif kind == 1:
                roots.append(K.center + K.radius * complex(np.exp(1j * (K.angle_start + u * K.span))))
            else:
                roots.append(K.points[int(u * len(K.points)) % len(K.points)])
        else:
            roots.append(complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)))
    leading = complex(rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0))
    return K, striplab.from_roots(leading, tuple(roots)), 10.0 ** rng.uniform(-4.0, -0.5)


# no random case raises; these three refuse: the first displacement
# underflows, no displacement resolves at the root on the set at 1e6, and
# the modulus floor of a subnormal polynomial rounds to 0
REPAIR_REFUSALS = (
    (striplab.Segment(-1, 1), striplab.Polynomial((0, 1)), 5e-324),
    (striplab.Segment(1e6 - 1, 1e6 + 1), striplab.Polynomial((-1e6, 1)), 1e-10),
    (striplab.Segment(-10, 10), striplab.Polynomial((0, 5e-324), 0, 100), 1e-3),
)


def section_repair(fast: bool):
    rng = np.random.default_rng(35)
    cases = [_repair_case(rng) for _ in range(100 if fast else 1000)]
    for K, P, budget in cases + list(REPAIR_REFUSALS):
        out = _outcome(striplab.repair_nonvanishing, P, K, budget)
        yield K, P, budget, out, getattr(out, "required_delta", None)


SECTIONS = {
    "evaluate": section_evaluate,
    "zeta_em": section_zeta_em,
    "scan500": section_scan500,
    "line_scan": section_line_scan,
    "approx": section_approx,
    "grids": section_grids,
    "repair": section_repair,
}


def fingerprint(fast: bool = False) -> dict[str, str]:
    """The SHA-256 of each section, then of all of them as "total"."""
    digests = {}
    for name, section in SECTIONS.items():
        h = hashlib.sha256()
        for item in section(fast):
            _feed(h, item)
        digests[name] = h.hexdigest()
    digests["total"] = hashlib.sha256(json.dumps(digests).encode()).hexdigest()
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--fast", action="store_true", help="a subset of every section")
    args = parser.parse_args(argv)
    for name, digest in fingerprint(args.fast).items():
        print(f"{name:<10} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
