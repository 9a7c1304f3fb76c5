"""Compact plane sets with empty interior: exact distances, sampling, exterior search.

The admissible families are segments, circular arcs (strictly shorter than a
full circle), open non-self-intersecting polylines, finite point sets, and
vertical-fiber products of a finite interval union with a y-range.  All of
them have connected complement by construction; no general topology
validation is attempted.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import BudgetExceeded, InvalidSpec, ResolutionExhausted

_TWO_PI = 2.0 * math.pi

#: hard cap on discretization size
DEFAULT_SAMPLE_CAP = 10**7


def _as_complex(value, what: str) -> complex:
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    if isinstance(value, (int, float, complex)):
        return complex(value)
    raise InvalidSpec(f"{what}: expected a complex number or [re, im] pair, got {value!r}")


@dataclass(frozen=True)
class Segment:
    a: complex
    b: complex

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))
        if not (cmath.isfinite(self.a) and cmath.isfinite(self.b)):
            raise InvalidSpec("segment endpoints must be finite")
        if self.a == self.b:
            raise InvalidSpec("segment endpoints coincide; use the points variant")


@dataclass(frozen=True)
class Arc:
    center: complex
    radius: float
    angle_start: float
    angle_end: float

    def __post_init__(self):
        object.__setattr__(self, "center", complex(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "angle_start", float(self.angle_start))
        object.__setattr__(self, "angle_end", float(self.angle_end))
        if not cmath.isfinite(self.center):
            raise InvalidSpec("arc center must be finite")
        if not 0 < self.radius < math.inf:
            raise InvalidSpec("arc radius must be positive and finite")
        span = self.angle_end - self.angle_start
        if not 0.0 < span < _TWO_PI:
            raise InvalidSpec("arc span must lie strictly between 0 and 2*pi (no full circles)")

    @property
    def span(self) -> float:
        return self.angle_end - self.angle_start


@dataclass(frozen=True)
class Polyline:
    vertices: tuple[complex, ...]

    def __post_init__(self):
        verts = tuple(complex(v) for v in self.vertices)
        object.__setattr__(self, "vertices", verts)
        if len(verts) < 2:
            raise InvalidSpec("polyline needs at least 2 vertices")
        if not all(map(cmath.isfinite, verts)):
            raise InvalidSpec("polyline vertices must be finite")
        for u, v in zip(verts, verts[1:]):
            if u == v:
                raise InvalidSpec("polyline has duplicate consecutive vertices")
        if verts[0] == verts[-1]:
            raise InvalidSpec("polyline must be open (first vertex != last vertex)")
        if _polyline_self_intersects(verts):
            raise InvalidSpec("polyline is self-intersecting")


@dataclass(frozen=True)
class PointSet:
    points: tuple[complex, ...]

    def __post_init__(self):
        pts = tuple(complex(p) for p in self.points)
        if not pts:
            raise InvalidSpec("point set must be nonempty")
        if not all(map(cmath.isfinite, pts)):
            raise InvalidSpec("points must be finite")
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True, eq=False)
class CantorProduct:
    """Union over intervals [lo, hi] of rectangles (lo..hi) x (y_lo..y_hi),
    placed by z -> offset + scale * z.

    Degenerate intervals (lo == hi) are allowed and give vertical segments;
    ``fiber_edges`` uses them to expose the empty-interior edge skeleton of a
    full product.  Only the edge skeleton (or the depth -> infinity limit)
    is nowhere dense; a finite-depth full product has interior and is meant
    as a scanning carrier, not as input to the nonvanishing repair.
    """

    intervals: np.ndarray  # shape (m, 2), columns lo, hi
    y_lo: float
    y_hi: float
    scale: float = 1.0
    offset: complex = 0j

    def __post_init__(self):
        iv = np.asarray(self.intervals, dtype=float)
        if iv.ndim != 2 or iv.shape[1] != 2 or iv.shape[0] == 0:
            raise InvalidSpec("cantor_product needs a nonempty list of [lo, hi] intervals")
        if not np.isfinite(iv).all():
            raise InvalidSpec("cantor_product intervals must be finite")
        if np.any(iv[:, 0] > iv[:, 1]):
            raise InvalidSpec("cantor_product interval with lo > hi")
        if np.any(iv[1:, 0] <= iv[:-1, 1]):
            raise InvalidSpec("cantor_product intervals must be sorted and pairwise disjoint")
        iv = iv.copy()
        iv.flags.writeable = False
        object.__setattr__(self, "intervals", iv)
        object.__setattr__(self, "y_lo", float(self.y_lo))
        object.__setattr__(self, "y_hi", float(self.y_hi))
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "offset", complex(self.offset))
        if not all(map(cmath.isfinite, (self.y_lo, self.y_hi, self.offset))):
            raise InvalidSpec("cantor_product y bounds and offset must be finite")
        if self.y_lo > self.y_hi:
            raise InvalidSpec("cantor_product needs y_lo <= y_hi")
        if not 0 < self.scale < math.inf:
            raise InvalidSpec("cantor_product scale must be positive and finite")

    def rects(self) -> tuple[np.ndarray, np.ndarray, float, float]:
        """World-coordinate rectangles as (x_lo[], x_hi[], y_lo, y_hi)."""
        ox, oy = self.offset.real, self.offset.imag
        return (
            ox + self.scale * self.intervals[:, 0],
            ox + self.scale * self.intervals[:, 1],
            oy + self.scale * self.y_lo,
            oy + self.scale * self.y_hi,
        )


CompactSet = Union[Segment, Arc, Polyline, PointSet, CantorProduct]


def _vertices(K: Segment | Polyline | PointSet) -> tuple[complex, ...]:
    """The corner points of a set made of straight pieces: a segment is the
    polyline (a, b), and a point set is its own vertex list."""
    if isinstance(K, Segment):
        return (K.a, K.b)
    if isinstance(K, Polyline):
        return K.vertices
    return K.points


@dataclass(frozen=True, eq=False)
class SampleGrid:
    """Finite sample of a CompactSet; every set point is within
    ``covering_radius`` of some sample."""

    points: np.ndarray
    covering_radius: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex).copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)


# ---------------------------------------------------------------------------
# construction


def fat_cantor(depth: int) -> np.ndarray:
    """Interval table of the positive-measure Cantor construction in [0, 1].

    At step n the open middle piece of length 4**-n is removed from each of
    the 2**(n-1) current intervals.  Returns the 2**depth remaining closed
    intervals as an array of [lo, hi] rows, sorted and pairwise disjoint.
    All endpoints are dyadic rationals, exact in double precision for
    depth <= 25.
    """
    depth = operator.index(depth)
    if depth < 0 or depth > 30:
        raise InvalidSpec("fat_cantor depth must be in 0..30")
    lo = np.array([0.0])
    hi = np.array([1.0])
    for n in range(1, depth + 1):
        removed = 4.0 ** (-n)
        keep = (hi - lo - removed) / 2.0
        new_lo = np.empty(2 * lo.size)
        new_hi = np.empty(2 * lo.size)
        new_lo[0::2] = lo
        new_hi[0::2] = lo + keep
        new_lo[1::2] = hi - keep
        new_hi[1::2] = hi
        lo, hi = new_lo, new_hi
    return np.column_stack([lo, hi])


def fiber_edges(cp: CantorProduct) -> CantorProduct:
    """Empty-interior skeleton of a product: the vertical edge segments of
    every rectangle, as a degenerate-interval product."""
    edges = np.unique(cp.intervals)
    return CantorProduct(
        intervals=np.column_stack([edges, edges]),
        y_lo=cp.y_lo,
        y_hi=cp.y_hi,
        scale=cp.scale,
        offset=cp.offset,
    )


def build_set(spec: dict) -> CompactSet:
    """Construct a validated CompactSet from its JSON-style description.

    Complex numbers are [re, im] pairs.  Variants: segment {a, b},
    arc {center, radius, angle_start, angle_end}, polyline {vertices},
    points {points}, cantor_product {intervals | depth, y_lo, y_hi,
    scale?, offset?}.
    """
    if not isinstance(spec, dict):
        raise InvalidSpec("set description must be a JSON object")
    variant = spec.get("variant")
    try:
        if variant == "segment":
            return Segment(_as_complex(spec["a"], "a"), _as_complex(spec["b"], "b"))
        if variant == "arc":
            return Arc(
                _as_complex(spec["center"], "center"),
                float(spec["radius"]),
                float(spec["angle_start"]),
                float(spec["angle_end"]),
            )
        if variant == "polyline":
            return Polyline(tuple(_as_complex(v, "vertex") for v in spec["vertices"]))
        if variant == "points":
            return PointSet(tuple(_as_complex(p, "point") for p in spec["points"]))
        if variant == "cantor_product":
            if "intervals" in spec:
                intervals = np.asarray(spec["intervals"], dtype=float)
            elif "depth" in spec:
                intervals = fat_cantor(spec["depth"])
            else:
                raise InvalidSpec("cantor_product needs 'intervals' or 'depth'")
            return CantorProduct(
                intervals=intervals,
                y_lo=float(spec["y_lo"]),
                y_hi=float(spec["y_hi"]),
                scale=float(spec.get("scale", 1.0)),
                offset=_as_complex(spec.get("offset", [0.0, 0.0]), "offset"),
            )
    except KeyError as exc:
        raise InvalidSpec(f"missing field {exc} for variant {variant!r}") from exc
    except InvalidSpec:
        # a ValueError too, but already worded by the check that raised it
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidSpec(f"malformed field in variant {variant!r}: {exc}") from exc
    raise InvalidSpec(f"unknown set variant {variant!r}")


def to_spec(K: CompactSet) -> dict:
    """Inverse of build_set, for embedding sets in output files."""
    if isinstance(K, Segment):
        return {"variant": "segment", "a": [K.a.real, K.a.imag], "b": [K.b.real, K.b.imag]}
    if isinstance(K, Arc):
        return {
            "variant": "arc",
            "center": [K.center.real, K.center.imag],
            "radius": K.radius,
            "angle_start": K.angle_start,
            "angle_end": K.angle_end,
        }
    if isinstance(K, Polyline):
        return {"variant": "polyline", "vertices": [[v.real, v.imag] for v in K.vertices]}
    if isinstance(K, PointSet):
        return {"variant": "points", "points": [[p.real, p.imag] for p in K.points]}
    if isinstance(K, CantorProduct):
        return {
            "variant": "cantor_product",
            "intervals": K.intervals.tolist(),
            "y_lo": K.y_lo,
            "y_hi": K.y_hi,
            "scale": K.scale,
            "offset": [K.offset.real, K.offset.imag],
        }
    raise InvalidSpec(f"unsupported set type {type(K).__name__}")


# ---------------------------------------------------------------------------
# distance


def _segment_distance(a: complex, b: complex, z: complex) -> float:
    d = b - a
    t = ((z - a) * d.conjugate()).real / abs(d) ** 2
    t = min(1.0, max(0.0, t))
    return abs(z - (a + t * d))


def distance(K: CompactSet, z: complex) -> float:
    """Exact Euclidean distance from z to the set (0 iff z lies on it)."""
    z = complex(z)
    if isinstance(K, Arc):
        w = z - K.center
        rho = abs(w)
        theta = math.atan2(w.imag, w.real)
        rel = (theta - K.angle_start) % _TWO_PI
        if rel <= K.span:
            return abs(rho - K.radius)
        e0 = K.center + K.radius * complex(math.cos(K.angle_start), math.sin(K.angle_start))
        e1 = K.center + K.radius * complex(math.cos(K.angle_end), math.sin(K.angle_end))
        return min(abs(z - e0), abs(z - e1))
    if isinstance(K, (Segment, Polyline)):
        verts = _vertices(K)
        return min(_segment_distance(u, v, z) for u, v in zip(verts, verts[1:]))
    if isinstance(K, PointSet):
        return min(abs(z - p) for p in K.points)
    if isinstance(K, CantorProduct):
        x_lo, x_hi, y_lo, y_hi = K.rects()
        dx = np.maximum(np.maximum(x_lo - z.real, z.real - x_hi), 0.0)
        dy = max(y_lo - z.imag, z.imag - y_hi, 0.0)
        return float(np.min(np.hypot(dx, dy)))
    raise InvalidSpec(f"unsupported set type {type(K).__name__}")


# ---------------------------------------------------------------------------
# discretization


def _intervals(length: float, spacing: float) -> int:
    """max(1, ceil(length / spacing)), or InvalidSpec when the quotient
    overflows: a set wider than a float holds, or a spacing so small that no
    sample count could be written down."""
    ratio = length / spacing
    if not math.isfinite(ratio):
        raise InvalidSpec(f"sampling an extent of {length:g} at spacing {spacing:g} overflows")
    return max(1, math.ceil(ratio))


def discretize(K: CompactSet, h_target: float, cap: int = DEFAULT_SAMPLE_CAP) -> SampleGrid:
    """Sample the set with covering radius <= h_target.

    Curves are sampled by arclength (adjacent spacing <= 2 * covering
    radius); products get a boundary-and-interior lattice per rectangle;
    point sets return themselves with covering radius 0.
    """
    if not h_target > 0:
        raise InvalidSpec("h_target must be positive")

    if isinstance(K, PointSet):
        return SampleGrid(np.array(K.points, dtype=complex), 0.0)

    if isinstance(K, Arc):
        length = K.radius * K.span
        n_int = _intervals(length, 2.0 * h_target)
        if n_int + 1 > cap:
            raise BudgetExceeded(f"arc discretization needs {n_int + 1} > {cap} samples")
        ts = np.linspace(0.0, 1.0, n_int + 1)
        pts = K.center + K.radius * np.exp(1j * (K.angle_start + ts * K.span))
        return SampleGrid(pts, (length / n_int) / 2.0)

    if isinstance(K, (Segment, Polyline)):
        verts = _vertices(K)
        chunks = []
        radius = 0.0
        total = 0
        for u, v in zip(verts, verts[1:]):
            length = abs(v - u)
            n_int = _intervals(length, 2.0 * h_target)
            total += n_int
            if total + 1 > cap:
                raise BudgetExceeded(f"polyline discretization exceeds {cap} samples")
            ts = np.linspace(0.0, 1.0, n_int + 1)
            chunks.append(u + ts[:-1] * (v - u))
            radius = max(radius, (length / n_int) / 2.0)
        chunks.append(np.array([verts[-1]], dtype=complex))
        return SampleGrid(np.concatenate(chunks), radius)

    if isinstance(K, CantorProduct):
        x_lo, x_hi, y_lo, y_hi = K.rects()
        widths = x_hi - x_lo
        height = y_hi - y_lo
        # lattice cell half-diagonal <= h_target
        cell = h_target * math.sqrt(2.0)
        ny = _intervals(height, cell)
        # the widest interval alone at cap intervals is past the cap; stopping
        # there keeps every count within the integer cast below
        if _intervals(float(np.max(widths)), cell) >= cap:
            raise BudgetExceeded(f"cantor_product discretization needs more than {cap} samples")
        nx = np.maximum(1, np.ceil(widths / cell).astype(int))
        # a degenerate interval builds one column, a zero height one row
        columns = np.where(x_hi > x_lo, nx + 1, 1)
        rows = ny + 1 if height > 0 else 1
        count = int(np.sum(columns)) * rows
        if count > cap:
            raise BudgetExceeded(f"cantor_product discretization needs {count} > {cap} samples")
        ys = np.linspace(y_lo, y_hi, rows)
        chunks = []
        radius = 0.0
        for lo, hi, n, m in zip(x_lo, x_hi, nx, columns):
            xs = np.linspace(lo, hi, m)
            dx = (hi - lo) / n
            dy = height / ny
            radius = max(radius, math.hypot(dx, dy) / 2.0)
            chunks.append((xs[:, None] + 1j * ys[None, :]).ravel())
        return SampleGrid(np.concatenate(chunks), radius)

    raise InvalidSpec(f"unsupported set type {type(K).__name__}")


# ---------------------------------------------------------------------------
# exterior search


def _normal_directions(K: CompactSet, z: complex) -> list[complex]:
    if isinstance(K, Arc):
        w = z - K.center
        if abs(w) > 0:
            n = w / abs(w)
            return [n, -n]
        return []
    if isinstance(K, (Segment, Polyline)):
        verts = _vertices(K)
        best = None
        best_d = math.inf
        for u, v in zip(verts, verts[1:]):
            d = _segment_distance(u, v, z)
            if d < best_d:
                best_d = d
                best = v - u
        n = 1j * best / abs(best)
        return [n, -n]
    return []


_RING = tuple(complex(math.cos(_TWO_PI * k / 16), math.sin(_TWO_PI * k / 16)) for k in range(16))


def exterior_resolution(z: complex) -> float:
    """The rounding allowance 4 ulp(|z|) that ``nearest_exterior`` takes off
    every probe radius around z: it probes no point around z for a delta at
    or below it."""
    return 4.0 * 2.220446049250313e-16 * abs(z)


def nearest_exterior(K: CompactSet, z: complex, delta: float) -> complex:
    """A point w with |w - z| <= delta lying strictly outside the set.

    Already-exterior points (clearance >= delta * 1e-6) are returned
    unchanged.  Otherwise the exact normal direction is probed first
    (curve variants), then 16 equally spaced directions, at radii
    delta, delta/2, delta/4, ... down to the verification margin.
    """
    if not 0 < delta < math.inf:
        raise InvalidSpec("delta must be positive and finite")
    z = complex(z)
    margin = delta * 1e-6
    if distance(K, z) >= margin:
        return z
    normals = _normal_directions(K, z)
    # probing a hair inside each radius keeps |w - z| <= delta after the
    # rounding of z + rho * direction
    shrink = delta * 1e-12 + exterior_resolution(z)
    rho = delta
    while rho >= margin:
        rho_eff = rho - shrink
        if rho_eff <= 0.0:
            break
        for direction in (*normals, *_RING):
            w = z + rho_eff * direction
            if distance(K, w) >= margin:
                return w
        rho *= 0.5
    raise ResolutionExhausted(
        f"no exterior point within {delta:g} of {z} above margin {margin:g}"
    )


# ---------------------------------------------------------------------------
# global quantities


def bounding_radius(K: CompactSet, center: complex = 0j) -> float:
    """max |z - center| over the set (closed form per variant)."""
    c = complex(center)
    if isinstance(K, (Segment, Polyline, PointSet)):
        return max(abs(v - c) for v in _vertices(K))
    if isinstance(K, Arc):
        candidates = [
            abs(K.center + K.radius * complex(math.cos(a), math.sin(a)) - c)
            for a in (K.angle_start, K.angle_end)
        ]
        w = K.center - c
        if abs(w) > 0:
            outward = math.atan2(w.imag, w.real)
            if (outward - K.angle_start) % _TWO_PI <= K.span:
                candidates.append(abs(w) + K.radius)
        else:
            candidates.append(K.radius)
        return max(candidates)
    if isinstance(K, CantorProduct):
        x_lo, x_hi, y_lo, y_hi = K.rects()
        corners = np.concatenate(
            [np.hypot(x - c.real, y - c.imag) for x in (x_lo, x_hi) for y in (y_lo, y_hi)]
        )
        return float(np.max(corners))
    raise InvalidSpec(f"unsupported set type {type(K).__name__}")


def bounding_box(K: CompactSet) -> tuple[float, float, float, float]:
    """(x_min, x_max, y_min, y_max) of the set (closed form per variant)."""
    if isinstance(K, CantorProduct):
        x_lo, x_hi, y_lo, y_hi = K.rects()
        return float(np.min(x_lo)), float(np.max(x_hi)), y_lo, y_hi
    if isinstance(K, (Segment, Polyline, PointSet)):
        pts = _vertices(K)
    elif isinstance(K, Arc):
        pts = [
            K.center + K.radius * complex(math.cos(a), math.sin(a))
            for a in (K.angle_start, K.angle_end)
        ]
        # the axis-extreme points of the circle that the arc passes through
        for k, direction in enumerate((1, 1j, -1, -1j)):
            if (k * math.pi / 2.0 - K.angle_start) % _TWO_PI <= K.span:
                pts.append(K.center + K.radius * direction)
    else:
        raise InvalidSpec(f"unsupported set type {type(K).__name__}")
    xs = [p.real for p in pts]
    ys = [p.imag for p in pts]
    return min(xs), max(xs), min(ys), max(ys)


def _polyline_self_intersects(verts: tuple[complex, ...]) -> bool:
    edges = list(zip(verts, verts[1:]))
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            a1, a2 = edges[i]
            b1, b2 = edges[j]
            if j == i + 1:
                # adjacent edges share a vertex; reject collinear backtracking
                u = a2 - a1
                v = b2 - b1
                cross = (u.conjugate() * v).imag
                dot = (u.conjugate() * v).real
                if abs(cross) < 1e-12 * abs(u) * abs(v) and dot < 0:
                    return True
                continue
            if _segments_cross(a1, a2, b1, b2):
                return True
    return False


def _segments_cross(a1, a2, b1, b2) -> bool:
    r = a2 - a1
    s = b2 - b1
    denom = (r.conjugate() * s).imag
    q = b1 - a1
    if abs(denom) < 1e-12 * abs(r) * abs(s):
        # parallel: overlap iff collinear with overlapping parameter spans
        if abs((q.conjugate() * r).imag) > 1e-12 * abs(r) * max(abs(q), abs(r)):
            return False
        t0 = (q * r.conjugate()).real / abs(r) ** 2
        t1 = t0 + (s * r.conjugate()).real / abs(r) ** 2
        lo, hi = min(t0, t1), max(t0, t1)
        return hi > 1e-12 and lo < 1.0 - 1e-12
    t = (q.conjugate() * s).imag / denom
    u = (q.conjugate() * r).imag / denom
    return 0.0 <= t <= 1.0 and 0.0 <= u <= 1.0
