import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from striplab import (
    Arc,
    CantorProduct,
    PointSet,
    Polyline,
    Segment,
    bounding_radius,
    build_set,
    discretize,
    distance,
    fat_cantor,
    fiber_edges,
    nearest_exterior,
    to_spec,
)
from striplab.errors import BudgetExceeded, InvalidSpec, ResolutionExhausted
from striplab.geometry import bounding_box

THREE_QUARTER = 1.5 * math.pi


def sample_sets():
    return [
        Segment(0, 1),
        Arc(0.75, 0.1, 0.0, THREE_QUARTER),
        Polyline((0, 1, 1 + 1j)),
        PointSet((0.75, 0.9 + 0.1j)),
        CantorProduct(fat_cantor(2), y_lo=0.0, y_hi=0.3, scale=0.3, offset=0.55 + 0.6j),
    ]


# ---------------------------------------------------------------- build_set


def test_build_segment():
    K = build_set({"variant": "segment", "a": [0.6, 0.0], "b": [0.6, 0.2]})
    assert isinstance(K, Segment)
    assert K.a == 0.6 and K.b == 0.6 + 0.2j
    # a plain number is a point on the real axis
    K = build_set({"variant": "segment", "a": 0.5, "b": [1.0, 2.0]})
    assert (K.a, K.b) == (0.5 + 0j, 1.0 + 2.0j)


def test_build_arc_three_quarter():
    K = build_set(
        {"variant": "arc", "center": [0.75, 0.0], "radius": 0.1,
         "angle_start": 0.0, "angle_end": THREE_QUARTER}
    )
    assert isinstance(K, Arc)
    assert K.span == pytest.approx(THREE_QUARTER)


def test_build_polyline_duplicate_vertex_rejected():
    with pytest.raises(InvalidSpec):
        build_set({"variant": "polyline", "vertices": [[0, 0], [1, 0], [1, 0]]})


@pytest.mark.parametrize(
    "spec",
    [
        {"variant": "arc", "center": [0, 0], "radius": 1.0, "angle_start": 0.0,
         "angle_end": 2 * math.pi},  # full circle
        {"variant": "arc", "center": [0, 0], "radius": 1.0, "angle_start": 1.0,
         "angle_end": 1.0},  # empty span
        {"variant": "polyline", "vertices": [[0, 0], [1, 0], [1, 1], [0, 0]]},  # closed
        {"variant": "polyline", "vertices": [[0, 0], [1, 1], [1, 0], [0, 1]]},  # crossing
        {"variant": "polyline",  # runs back along its own first edge
         "vertices": [[0, 0], [1, 0], [1, 1], [0.5, 1], [0.5, 0], [2, 0]]},
        {"variant": "polyline",  # touches an earlier edge at one point
         "vertices": [[0, 0], [1, 0], [1, 1], [0.5, 1], [0.5, -1]]},
        {"variant": "cantor_product", "intervals": [], "y_lo": 0, "y_hi": 1},
        {"variant": "points", "points": []},
        {"variant": "segment", "a": [0.3, 0.3], "b": [0.3, 0.3]},  # degenerate
        {"variant": "nonsense"},
        # non-finite input, as json.load reads Infinity and NaN
        {"variant": "segment", "a": [0, 0], "b": [math.inf, 0]},
        {"variant": "segment", "a": [0, math.nan], "b": [1, 0]},
        {"variant": "segment", "a": [0, 0], "b": [10**400, 0]},
        {"variant": "arc", "center": [0, 0], "radius": math.inf, "angle_start": 0.0,
         "angle_end": 1.0},
        {"variant": "arc", "center": [math.nan, 0], "radius": 1.0, "angle_start": 0.0,
         "angle_end": 1.0},
        {"variant": "polyline", "vertices": [[0, 0], [1, math.nan], [2, 0]]},
        {"variant": "points", "points": [[0.75, 0], [math.nan, 0]]},
        {"variant": "cantor_product", "intervals": [[0, math.nan]], "y_lo": 0, "y_hi": 1},
        {"variant": "cantor_product", "intervals": [[0, 1]], "y_lo": 0, "y_hi": math.inf},
        {"variant": "cantor_product", "intervals": [[0, 1]], "y_lo": 0, "y_hi": 1,
         "scale": math.inf},
        {"variant": "cantor_product", "intervals": [[0, 1]], "y_lo": 0, "y_hi": 1,
         "offset": [math.nan, 0]},
        {"variant": "cantor_product", "depth": 2.7, "y_lo": 0, "y_hi": 1},
    ],
)
def test_build_rejects_bad_specs(spec):
    with pytest.raises(InvalidSpec):
        build_set(spec)


def test_build_keeps_the_message_of_the_check_that_rejects():
    # InvalidSpec is a ValueError too; build_set passes it on as raised,
    # not reworded as a malformed field
    with pytest.raises(InvalidSpec) as info:
        build_set({"variant": "segment", "a": [0.3, 0.3], "b": [0.3, 0.3]})
    assert str(info.value) == "segment endpoints coincide; use the points variant"
    with pytest.raises(InvalidSpec) as info:
        build_set({"variant": "cantor_product", "depth": 24, "y_lo": 0, "y_hi": 1})
    assert str(info.value) == "fat_cantor depth must be in 0..23"


@pytest.mark.parametrize(
    "vertices",
    [
        (0, 1, 0.5),  # the second edge runs back along the first
        (0, 1, 1 + 1j, 3, 0.5),  # the last edge lies on the first and overlaps it
    ],
)
def test_polyline_rejects_collinear_overlaps(vertices):
    with pytest.raises(InvalidSpec, match="self-intersecting"):
        Polyline(vertices)


def test_polyline_accepts_collinear_edges_that_do_not_overlap():
    # the last edge lies on the line of the first, past its end
    K = Polyline((0, 1, 1 + 1j, 3, 2))
    assert distance(K, 1.5) == pytest.approx(0.5, abs=1e-15)


def test_spec_round_trip():
    for K in sample_sets():
        K2 = build_set(to_spec(K))
        assert type(K2) is type(K)
        for z in (0.1 + 0.2j, 0.75, 1.5 - 0.5j):
            assert distance(K, z) == pytest.approx(distance(K2, z), abs=1e-15)


# ---------------------------------------------------------------- distance


def test_distance_segment_perpendicular_foot():
    assert distance(Segment(0, 1), 0.5 + 0.3j) == pytest.approx(0.3, abs=1e-15)


def test_distance_segment_endpoint():
    assert distance(Segment(0, 1), 2) == pytest.approx(1.0, abs=1e-15)


def test_distance_arc_radial():
    assert distance(Arc(0, 1.0, 0.0, math.pi), 2j) == pytest.approx(1.0, abs=1e-15)


def test_distance_arc_outside_span_uses_endpoints():
    K = Arc(0, 1.0, 0.0, math.pi)
    # -i points into the missing half: nearest arc points are the endpoints +-1
    assert distance(K, -1j) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_distance_cantor_product():
    cp = CantorProduct(fat_cantor(1), y_lo=0.0, y_hi=1.0)
    assert distance(cp, 0.1 + 0.5j) == 0.0  # inside the first rectangle
    assert distance(cp, 0.5 + 0.5j) == pytest.approx(0.125, abs=1e-15)  # middle gap
    assert distance(cp, 0.1 + 1.4j) == pytest.approx(0.4, abs=1e-15)


def test_distance_lipschitz_property():
    rng = np.random.default_rng(7)
    for K in sample_sets():
        z = rng.uniform(-2, 2, (200, 2)) @ np.array([1, 1j])
        w = rng.uniform(-2, 2, (200, 2)) @ np.array([1, 1j])
        for z1, z2 in zip(z, w):
            d1, d2 = distance(K, z1), distance(K, z2)
            assert abs(d1 - d2) <= abs(z1 - z2) + 1e-12


# ---------------------------------------------------------------- discretize


def test_discretize_segment_spacing():
    g = discretize(Segment(0, 1), 0.25)
    assert len(g) >= 3
    gaps = np.abs(np.diff(g.points))
    assert np.all(gaps <= 2 * g.covering_radius + 1e-15)
    assert g.covering_radius <= 0.25


def test_discretize_point_set():
    g = discretize(PointSet((0.75,)), 0.1)
    assert len(g) == 1 and g.covering_radius == 0.0


def test_discretize_arc_count():
    # arclength pi over spacing 2 * 0.01 gives at least 158 intervals
    g = discretize(Arc(0, 1.0, 0.0, math.pi), 0.01)
    assert len(g) >= 158
    assert g.covering_radius <= 0.01


def test_discretize_samples_lie_on_set():
    for K in sample_sets():
        g = discretize(K, 0.05)
        for z in g.points[:: max(1, len(g) // 50)]:
            assert distance(K, z) <= 1e-12


def test_discretize_budget_cap():
    with pytest.raises(BudgetExceeded):
        discretize(Segment(0, 1), 1e-9, cap=1000)


@pytest.mark.parametrize(
    "K, h",
    [
        (Segment(-1e308, 1e308), 0.1),  # the length itself overflows
        (Segment(0, 1), 1e-310),
        (Polyline((0, 1, 1 + 1j)), 1e-310),
        (Arc(0.75, 0.1, 0.0, THREE_QUARTER), 1e-310),
        (CantorProduct(fat_cantor(2), y_lo=0.0, y_hi=0.3), 1e-310),  # the rows
        (CantorProduct(fat_cantor(2), y_lo=0.0, y_hi=0.0), 1e-310),  # the columns
    ],
)
def test_discretize_overflowing_sample_count_is_invalid_spec(K, h):
    # math.ceil of an infinite quotient used to escape as OverflowError
    with pytest.raises(InvalidSpec, match="overflows"):
        discretize(K, h)


def test_discretize_flat_product_column_count_past_the_cap():
    # some 1e299 columns per interval used to wrap in the integer cast and
    # come back as one column: a 4-sample grid of covering radius 0.075
    K = CantorProduct(fat_cantor(1), y_lo=0.0, y_hi=0.0, scale=0.4, offset=0.55)
    with pytest.raises(BudgetExceeded):
        discretize(K, 1e-300)
    with pytest.raises(BudgetExceeded):
        discretize(K, 1e-3, cap=20)


@settings(max_examples=60, deadline=None)
@given(
    depth=st.integers(0, 6),
    degenerate=st.booleans(),
    height=st.sampled_from([0.0, 0.1, 0.37]),
    scale=st.floats(0.05, 3.0),
    h=st.floats(1e-2, 1.0),
)
def test_discretize_product_cap_counts_built_samples(depth, degenerate, height, scale, h):
    # boxes of zero width or height are segment pieces, sampled by
    # arclength, and a point box is one sample; the cap check must count
    # exactly what is built
    cp = CantorProduct(fat_cantor(depth), y_lo=0.2, y_hi=0.2 + height, scale=scale)
    K = fiber_edges(cp) if degenerate else cp
    g = discretize(K, h)
    assert len(discretize(K, h, cap=len(g))) == len(g)
    with pytest.raises(BudgetExceeded):
        discretize(K, h, cap=len(g) - 1)


def test_discretize_covering_contract():
    rng = np.random.default_rng(11)
    # the curve variants, the comb of edges and a product of zero height,
    # whose boxes are vertical and horizontal segments
    comb = fiber_edges(sample_sets()[4])
    row = CantorProduct(fat_cantor(2), 0.5, 0.5, 0.4, 0.55)
    for K in sample_sets()[:3] + [comb, row]:
        g = discretize(K, 0.03)
        for _ in range(1000):
            t = rng.uniform()
            if isinstance(K, Segment):
                z = K.a + t * (K.b - K.a)
            elif isinstance(K, Arc):
                z = K.center + K.radius * np.exp(1j * (K.angle_start + t * K.span))
            elif isinstance(K, CantorProduct):
                x_lo, x_hi, y_lo, y_hi = K.rects()
                k = rng.integers(len(x_lo))
                z = complex(x_lo[k] + t * (x_hi[k] - x_lo[k]), y_lo + rng.uniform() * (y_hi - y_lo))
            else:
                edges = list(zip(K.vertices, K.vertices[1:]))
                u, v = edges[rng.integers(len(edges))]
                z = u + t * (v - u)
            assert np.min(np.abs(g.points - z)) <= g.covering_radius + 1e-12


def test_discretize_comb_samples_its_edges_as_segments():
    # the depth-3 comb's 16 edges of height 0.09, each at 45 intervals of
    # 2e-3: 736 samples at covering radius 1e-3, where the rectangle
    # lattice took 1 040 at 7.0e-4; every sample lies on its edge exactly
    K = fiber_edges(CantorProduct(fat_cantor(3), 0.0, 0.3, 0.3, 0.55 + 0.1j))
    g = discretize(K, 1e-3)
    assert len(g) == 736 and g.covering_radius == pytest.approx(1e-3, rel=1e-12)
    assert all(distance(K, z) == 0.0 for z in g.points)
    x_lo, _, y_lo, y_hi = K.rects()
    for edge, x in enumerate(x_lo):
        column = g.points[46 * edge : 46 * (edge + 1)]
        assert (column.real == x).all() and column[0].imag == y_lo and column[-1].imag == y_hi


def test_polyline_is_the_chain_of_its_edges():
    # a polyline samples each edge as the segment of its two vertices does,
    # each shared vertex once, and its distance is the least edge distance,
    # bit for bit
    K = sample_sets()[2]
    edges = [Segment(u, v) for u, v in zip(K.vertices, K.vertices[1:])]
    for h in (0.3, 0.03, 1e-3):
        grids = [discretize(edge, h) for edge in edges]
        chain = np.concatenate([g.points[:-1] for g in grids[:-1]] + [grids[-1].points])
        g = discretize(K, h)
        assert g.points.tobytes() == chain.tobytes()
        assert g.covering_radius == max(e.covering_radius for e in grids)
    rng = np.random.default_rng(3)
    for z in rng.uniform(-1, 2, (300, 2)) @ np.array([1, 1j]):
        assert distance(K, z) == min(distance(edge, z) for edge in edges)


# ---------------------------------------------------------------- exterior


def test_nearest_exterior_segment_normal():
    w = nearest_exterior(Segment(0, 1), 0.5, 0.01)
    assert w == pytest.approx(0.5 + 0.01j, rel=1e-9)
    assert distance(Segment(0, 1), w) == pytest.approx(0.01, rel=1e-9)


def test_nearest_exterior_probes_axis_boxes_along_their_normal():
    # a box of zero width or height is probed along its segment's normal
    # first: the exterior point lies straight across the comb's edge, and
    # straight above or below the flat row, where the ring's first
    # direction ran along the row
    comb = fiber_edges(CantorProduct(fat_cantor(3), 0.0, 0.3, 0.3, 0.55 + 0.1j))
    row = CantorProduct(fat_cantor(2), 0.5, 0.5, 0.4, 0.55)
    for K in (comb, row):
        x_lo, x_hi, y_lo, y_hi = K.rects()
        z = complex((x_lo[1] + x_hi[1]) / 2.0, (y_lo + y_hi) / 2.0)
        w = nearest_exterior(K, z, 1e-3)
        assert (w.imag == z.imag) if K is comb else (w.real == z.real)
        assert distance(K, w) == pytest.approx(1e-3, rel=1e-9)


def test_nearest_exterior_keeps_clear_points():
    K = Segment(0, 1)
    z = 0.5 + 0.5j
    assert nearest_exterior(K, z, 0.01) == z


def test_nearest_exterior_cantor_interior_point():
    cp = CantorProduct(fat_cantor(3), y_lo=0.0, y_hi=0.2)
    z = complex(0.37, 0.1999)  # inside the right part of the first depth-1 block
    assert distance(cp, z) == 0.0
    w = nearest_exterior(cp, z, 1e-3)
    assert abs(w - z) <= 1e-3
    assert distance(cp, w) > 0.0


@pytest.mark.parametrize("delta", [math.inf, math.nan, 0.0, -1e-3])
def test_nearest_exterior_rejects_a_delta_that_is_not_finite_and_positive(delta):
    # an infinite delta used to probe at radius inf forever
    with pytest.raises(InvalidSpec):
        nearest_exterior(Segment(0, 1), 0.5, delta)


def test_nearest_exterior_deep_interior_exhausts():
    cp = CantorProduct(np.array([[0.0, 1.0]]), y_lo=0.0, y_hi=1.0)
    with pytest.raises(ResolutionExhausted):
        nearest_exterior(cp, 0.5 + 0.5j, 1e-3)


def test_nearest_exterior_probe_property():
    rng = np.random.default_rng(13)
    # the exterior guarantee belongs to the empty-interior families, so the
    # product set enters through its fiber-edge skeleton
    sets = sample_sets()[:4] + [fiber_edges(sample_sets()[4])]
    for delta in (1e-2, 1e-4, 1e-6):
        for K in sets:
            for _ in range(50):
                z = complex(rng.uniform(-0.5, 1.5), rng.uniform(-0.5, 1.5))
                w = nearest_exterior(K, z, delta)
                assert abs(w - z) <= delta
                assert distance(K, w) > 0.0
    # plus probes that start exactly on the set
    for delta in (1e-2, 1e-4, 1e-6):
        for K in sets:
            g = discretize(K, 0.05)
            for z in g.points[:: max(1, len(g) // 20)]:
                w = nearest_exterior(K, complex(z), delta)
                assert abs(w - z) <= delta
                assert distance(K, w) > 0.0


# ---------------------------------------------------------------- fat cantor


def test_fat_cantor_depth0():
    assert fat_cantor(0).tolist() == [[0.0, 1.0]]


def test_fat_cantor_depth1():
    assert fat_cantor(1).tolist() == [[0.0, 0.375], [0.625, 1.0]]


@pytest.mark.parametrize("depth", range(0, 21))
def test_fat_cantor_total_length(depth):
    iv = fat_cantor(depth)
    assert iv.shape == (2**depth, 2)
    total = float(np.sum(iv[:, 1] - iv[:, 0]))
    expected = 1.0 - 0.5 * (1.0 - 2.0 ** (-depth))
    assert abs(total - expected) <= 1e-12
    # disjoint and sorted
    assert np.all(iv[1:, 0] > iv[:-1, 1])
    assert np.all(iv[:, 1] >= iv[:, 0])


def test_fiber_edges_have_empty_interior():
    cp = CantorProduct(fat_cantor(2), y_lo=0.0, y_hi=1.0)
    edges = fiber_edges(cp)
    assert distance(edges, complex(0.0, 0.5)) == 0.0
    # centre of the first rectangle is interior to cp but off the skeleton
    mid = (cp.intervals[0, 0] + cp.intervals[0, 1]) / 2.0
    assert distance(cp, complex(mid, 0.5)) == 0.0
    assert distance(edges, complex(mid, 0.5)) > 0.0


def test_fiber_edges_of_degenerate_intervals():
    # a degenerate interval is its own edge: the skeleton of a skeleton is
    # itself, and a product mixing the two kinds keeps each edge once
    edges = fiber_edges(CantorProduct(fat_cantor(2), 0.0, 0.3, 0.4, 0.55 + 0.1j))
    again = fiber_edges(edges)
    assert np.array_equal(again.intervals, edges.intervals)
    assert (again.y_lo, again.y_hi, again.scale, again.offset) == (0.0, 0.3, 0.4, 0.55 + 0.1j)
    mixed = fiber_edges(CantorProduct([[0.0, 0.0], [0.5, 1.0]], 0.0, 0.3))
    assert mixed.intervals.tolist() == [[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]]


# ---------------------------------------------------------------- radius


def test_bounding_radius_segment():
    assert bounding_radius(Segment(0.6, 0.6 + 0.2j)) == pytest.approx(abs(0.6 + 0.2j))


def test_bounding_radius_arc_through_angle_zero():
    assert bounding_radius(Arc(0, 1.0, -0.5, 0.5)) == pytest.approx(1.0)


def test_bounding_radius_point_set():
    assert bounding_radius(PointSet((0.75, 0.9 + 0.1j))) == pytest.approx(abs(0.9 + 0.1j))


def test_bounding_radius_dominates_samples():
    for K in sample_sets():
        g = discretize(K, 0.01)
        assert bounding_radius(K) >= np.max(np.abs(g.points)) - 1e-12


def test_bounding_radius_about_a_centre_is_attained():
    for c in (0.3 - 0.2j, 0.75, 0.7 + 0.7j):
        for K in sample_sets():
            g = discretize(K, 0.01)
            sampled = float(np.max(np.abs(g.points - c)))
            assert sampled - 1e-12 <= bounding_radius(K, c) <= sampled + g.covering_radius + 1e-12


def test_bounding_box_is_attained():
    for K in sample_sets():
        g = discretize(K, 0.01)
        h = g.covering_radius + 1e-12
        x_min, x_max, y_min, y_max = bounding_box(K)
        xs, ys = g.points.real, g.points.imag
        assert x_min - 1e-12 <= xs.min() <= x_min + h
        assert x_max - h <= xs.max() <= x_max + 1e-12
        assert y_min - 1e-12 <= ys.min() <= y_min + h
        assert y_max - h <= ys.max() <= y_max + 1e-12
