"""Compact plane sets with empty interior: exact distances, sampling, exterior search.

The admissible families are segments, circular arcs (strictly shorter than a
full circle), open non-self-intersecting polylines, finite point sets, and
vertical-fiber products of a finite interval union with a y-range.  All of
them have connected complement by construction; no general topology
validation is attempted.

Each set is a tuple of pieces, and every operation one loop over them, with
one sampling rule per piece: curves, and boxes of zero width or height, by
arclength at spacing <= 2h; boxes with interior by the h*sqrt(2) lattice;
points as themselves.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, fields
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
        if not 0.0 < self.span < _TWO_PI:
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
    every rectangle, as a degenerate-interval product.  Its edges are
    sampled and probed as segments."""
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


_VARIANTS = (
    (Segment, "segment"), (Arc, "arc"), (Polyline, "polyline"), (PointSet, "points"),
    (CantorProduct, "cantor_product"),
)


def _plain(value):
    """A field as JSON: a complex number as [re, im], a tuple or an array as a list."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value.tolist() if isinstance(value, np.ndarray) else value


def to_spec(K: CompactSet) -> dict:
    """Inverse of build_set, for embedding sets in output files."""
    variant = next((name for cls, name in _VARIANTS if isinstance(K, cls)), None)
    if variant is None:
        _pieces(K)  # raises InvalidSpec for an unsupported set type
    return {"variant": variant, **{f.name: _plain(getattr(K, f.name)) for f in fields(K)}}


# ---------------------------------------------------------------------------
# pieces: each operation is one loop over a set's pieces, whose formulas stay
# scalar, on the functions they always called (numpy's forms round apart)


def _intervals(length: float, spacing: float) -> int:
    """max(1, ceil(length / spacing)), or InvalidSpec when the quotient
    overflows: a set wider than a float holds, or a spacing so small that no
    sample count could be written down."""
    ratio = length / spacing
    if not math.isfinite(ratio):
        raise InvalidSpec(f"sampling an extent of {length:g} at spacing {spacing:g} overflows")
    return max(1, math.ceil(ratio))


class _Points:
    """Points, their own sample at covering radius 0 whatever the cap.  A
    curve's points are its ends; a piece's ``corners`` attain its bounds, and
    its sample(h) yields its sample count, then, resumed once the count has
    passed the cap, (samples, covering radius)."""

    def __init__(self, points: tuple[complex, ...]):
        self.points = points

    @property
    def corners(self) -> tuple[complex, ...]:
        return self.points

    def distance(self, z: complex) -> float:
        return min(abs(z - p) for p in self.points)

    def normals(self, z: complex) -> list[complex]:
        return []

    def sample(self, h: float):
        yield 0
        yield np.array(self.points, dtype=complex), 0.0

    def reach(self, c: complex) -> float:
        return max(abs(p - c) for p in self.points)


class _Segment(_Points):
    """The segment a -> b, sampled by arclength.  An edge of a chain leaves
    its end b to the next edge (end=False), so that a shared vertex is
    sampled once; a box of zero size, a == b, does too, to be one sample."""

    def __init__(self, a: complex, b: complex, end: bool = True):
        super().__init__((a, b))
        self.a, self.b, self.d, self.end = a, b, b - a, end

    def distance(self, z: complex) -> float:
        t = ((z - self.a) * self.d.conjugate()).real / abs(self.d) ** 2
        t = min(1.0, max(0.0, t))
        return abs(z - (self.a + t * self.d))

    def normals(self, z: complex) -> list[complex]:
        n = 1j * self.d / abs(self.d)
        return [n, -n]

    def sample(self, h: float):
        length = abs(self.d)
        n = _intervals(length, 2.0 * h)
        yield n + self.end
        pts = np.empty(n + self.end, dtype=complex)
        np.add(self.a, np.linspace(0.0, 1.0, n + 1)[:-1] * self.d, out=pts[:n])
        pts[n:] = self.b  # the end itself, not a + 1.0 * (b - a)
        yield pts, (length / n) / 2.0


class _Arc(_Points):
    """An arc, sampled by arclength; its points are its two ends."""

    def __init__(self, center: complex, radius: float, start: float, end: float):
        super().__init__(tuple(center + radius * complex(math.cos(a), math.sin(a)) for a in (start, end)))
        self.center, self.radius, self.start, self.span = center, radius, start, end - start

    @property
    def corners(self) -> tuple[complex, ...]:
        # its ends, and the axis-extreme points of the circle that it passes
        # through: built only for bounding_box
        return self.points + tuple(
            self.center + self.radius * direction for k, direction in enumerate((1, 1j, -1, -1j))
            if (k * math.pi / 2.0 - self.start) % _TWO_PI <= self.span
        )

    def distance(self, z: complex) -> float:
        w = z - self.center
        theta = math.atan2(w.imag, w.real)
        if (theta - self.start) % _TWO_PI <= self.span:
            return abs(abs(w) - self.radius)
        return super().distance(z)

    def normals(self, z: complex) -> list[complex]:
        w = z - self.center
        if abs(w) > 0:
            n = w / abs(w)
            return [n, -n]
        return []

    def sample(self, h: float):
        length = self.radius * self.span
        n = _intervals(length, 2.0 * h)
        yield n + 1
        ts = np.linspace(0.0, 1.0, n + 1)
        yield self.center + self.radius * np.exp(1j * (self.start + ts * self.span)), (length / n) / 2.0

    def reach(self, c: complex) -> float:
        w = self.center - c
        # the circle's point farthest from c, if the arc passes through it
        if not abs(w) > 0 or (math.atan2(w.imag, w.real) - self.start) % _TWO_PI <= self.span:
            return max(super().reach(c), abs(w) + self.radius)
        return super().reach(c)


class _Boxes:
    """Boxes [x_lo, x_hi] x [y_lo, y_hi], as ``rects`` gives them, at the box
    formula's distance, exactly 0 on every box.  A box of zero width or
    height (an axis segment, or a point) is sampled and given normals by its
    segment piece in ``edges``, the others by a lattice on shared rows."""

    def __init__(self, x_lo: np.ndarray, x_hi: np.ndarray, y_lo: float, y_hi: float):
        self.x_lo, self.x_hi, self.y_lo, self.y_hi = x_lo, x_hi, y_lo, y_hi
        self.corners = complex(np.min(x_lo), y_lo), complex(np.max(x_hi), y_hi)
        self.edges = [
            _Segment(complex(lo, y_lo), complex(hi, y_hi), lo < hi or y_lo < y_hi)
            if lo == hi or y_lo == y_hi else None
            for lo, hi in zip(x_lo.tolist(), x_hi.tolist())
        ]

    def _gaps(self, z: complex) -> np.ndarray:
        dx = np.maximum(np.maximum(self.x_lo - z.real, z.real - self.x_hi), 0.0)
        dy = max(self.y_lo - z.imag, z.imag - self.y_hi, 0.0)
        return np.hypot(dx, dy)

    def distance(self, z: complex) -> float:
        return float(np.min(self._gaps(z)))

    def normals(self, z: complex) -> list[complex]:
        edge = self.edges[int(np.argmin(self._gaps(z)))]
        # a box of zero size, a point, has no normal
        return edge.normals(z) if edge and edge.d else []

    def sample(self, h: float):
        cell = h * math.sqrt(2.0)
        height = self.y_hi - self.y_lo
        ny = _intervals(height, cell) if None in self.edges else 0
        boxes = list(zip(self.x_lo.tolist(), self.x_hi.tolist(), self.edges))
        # per box, its edge's samples or its lattice's column intervals
        plans = [edge.sample(h) if edge else _intervals(hi - lo, cell) for lo, hi, edge in boxes]
        yield sum(next(plan) if edge else (plan + 1) * (ny + 1) for (_, _, edge), plan in zip(boxes, plans))
        ys = np.linspace(self.y_lo, self.y_hi, ny + 1)
        chunks, radii = [], []
        for (lo, hi, edge), plan in zip(boxes, plans):
            if edge:
                pts, radius = next(plan)
            else:
                pts = (np.linspace(lo, hi, plan + 1)[:, None] + 1j * ys[None, :]).ravel()
                radius = math.hypot((hi - lo) / plan, height / ny) / 2.0
            chunks.append(pts)
            radii.append(radius)
        yield np.concatenate(chunks), max(radii)

    def reach(self, c: complex) -> float:
        corners = [np.hypot(x - c.real, y - c.imag) for x in (self.x_lo, self.x_hi) for y in (self.y_lo, self.y_hi)]
        return float(np.max(np.concatenate(corners)))


def _pieces(K: CompactSet) -> tuple:
    """K as pieces, built on the first call and kept on K: a segment or an
    arc is one piece, a polyline its edges as a chain of segment pieces, a
    point set one points piece and a product one boxes piece."""
    pieces = getattr(K, "_pieces", None)
    if pieces is None:
        if isinstance(K, (Segment, Polyline)):
            v = (K.a, K.b) if isinstance(K, Segment) else K.vertices
            pieces = tuple(_Segment(v[i], v[i + 1], i == len(v) - 2) for i in range(len(v) - 1))
        elif isinstance(K, Arc):
            pieces = (_Arc(K.center, K.radius, K.angle_start, K.angle_end),)
        elif isinstance(K, PointSet):
            pieces = (_Points(K.points),)
        elif isinstance(K, CantorProduct):
            pieces = (_Boxes(*K.rects()),)
        else:
            raise InvalidSpec(f"unsupported set type {type(K).__name__}")
        object.__setattr__(K, "_pieces", pieces)
    return pieces


def distance(K: CompactSet, z: complex) -> float:
    """Exact Euclidean distance from z to the set (0 iff z lies on it)."""
    z = complex(z)
    pieces = _pieces(K)
    if len(pieces) == 1:
        return pieces[0].distance(z)
    return min(piece.distance(z) for piece in pieces)


def discretize(K: CompactSet, h_target: float, cap: int = DEFAULT_SAMPLE_CAP) -> SampleGrid:
    """Sample the set with covering radius <= h_target, one rule per piece:
    curves, and boxes of zero width or height, by arclength at spacing <= 2 *
    covering radius (a chain's shared vertices once); boxes with interior by
    the lattice of cells of half-diagonal <= h_target; points as themselves,
    whatever the cap.  The cap is checked before any sample is built.
    """
    if not h_target > 0:
        raise InvalidSpec("h_target must be positive")
    plans = [piece.sample(h_target) for piece in _pieces(K)]
    count = sum(map(next, plans))
    if count > cap:
        raise BudgetExceeded(f"discretization needs {count} > {cap} samples")
    points, radii = zip(*map(next, plans))
    return SampleGrid(points[0] if len(points) == 1 else np.concatenate(points), max(radii))


def bounding_radius(K: CompactSet, center: complex = 0j) -> float:
    """max |z - center| over the set (closed form per piece)."""
    c = complex(center)
    pieces = _pieces(K)
    if len(pieces) == 1:
        return pieces[0].reach(c)
    return max(piece.reach(c) for piece in pieces)


def bounding_box(K: CompactSet) -> tuple[float, float, float, float]:
    """(x_min, x_max, y_min, y_max) of the set (closed form per piece)."""
    corners = [p for piece in _pieces(K) for p in piece.corners]
    xs = [p.real for p in corners]
    ys = [p.imag for p in corners]
    return min(xs), max(xs), min(ys), max(ys)


# ---------------------------------------------------------------------------
# exterior search


_RING = tuple(complex(math.cos(_TWO_PI * k / 16), math.sin(_TWO_PI * k / 16)) for k in range(16))


def exterior_resolution(z: complex) -> float:
    """The rounding allowance 4 ulp(|z|) that ``nearest_exterior`` takes off
    every probe radius around z: it probes no point around z for a delta at
    or below it."""
    return 4.0 * 2.220446049250313e-16 * abs(z)


def nearest_exterior(K: CompactSet, z: complex, delta: float) -> complex:
    """A point w with |w - z| <= delta lying strictly outside the set.

    Already-exterior points (clearance >= delta * 1e-6) are returned
    unchanged.  Otherwise the nearest piece's exact normals are probed first
    (curves and axis segments), then 16 equally spaced directions, at radii
    delta, delta/2, delta/4, ... down to the verification margin.
    """
    if not 0 < delta < math.inf:
        raise InvalidSpec("delta must be positive and finite")
    z = complex(z)
    margin = delta * 1e-6
    if distance(K, z) >= margin:
        return z
    pieces = _pieces(K)
    nearest = pieces[0] if len(pieces) == 1 else min(pieces, key=lambda piece: piece.distance(z))
    normals = nearest.normals(z)
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
