import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathdist.errors import InputError
from pathdist.geometry import (
    DiscQuadratic,
    PolyLine,
    disc_segment_intervals,
    project_onto_segments,
    segment_terms,
)
from pathdist.graph import EmbeddedGraph
from pathdist.spatial import nearest_point_on_graph


def test_polyline_requires_finite_coordinates():
    with pytest.raises(InputError):
        PolyLine([(0.0, float("nan"))])
    with pytest.raises(InputError):
        PolyLine([(0.0, float("inf")), (1.0, 0.0)])


def test_polyline_single_point_is_valid_degenerate_curve():
    p = PolyLine([(3.0, 4.0)])
    assert len(p) == 1
    assert p.length() == 0.0


def test_polyline_length_and_collapse():
    p = PolyLine([(0, 0), (1, 0), (1, 0), (1, 2)])
    assert p.length() == pytest.approx(3.0)
    collapsed = p.collapsed()
    assert len(collapsed) == 3
    assert collapsed.length() == pytest.approx(3.0)


def test_polyline_point_at_and_resample():
    p = PolyLine([(0, 0), (4, 0)])
    assert np.allclose(p.point_at(1.0), (1, 0))
    assert np.allclose(p.point_at(99.0), (4, 0))
    r = p.resampled(1.0)
    assert len(r) == 5
    assert np.allclose(r.points[2], (2, 0))


@pytest.mark.parametrize(
    "points",
    [
        [(0.0, 0.0), (3.0, 4.0), (3.0, 4.0), (7.5, 1.25), (2.0, -6.0)],
        [(1.5, -2.0)],
        [(2.0, 2.0), (2.0, 2.0)],
    ],
    ids=["zero-length-segment", "single-point", "all-duplicate"],
)
def test_point_at_array_equals_scalar_calls_bitwise(points):
    p = PolyLine(points)
    total = p.length()
    cum = p.cumulative_lengths().tolist()
    arcs = np.array([-7.0, -1e-12, 0.0, *cum, 0.3 * total, 0.77 * total, total, total + 1e-9, total + 5.0])
    rows = p.point_at(arcs)
    assert rows.shape == (arcs.size, 2)
    for arc, row in zip(arcs, rows):
        single = p.point_at(float(arc))
        assert single.shape == (2,)
        assert row.tobytes() == single.tobytes()
    assert p.point_at(arcs[:6].reshape(2, 3)).tobytes() == rows[:6].tobytes()


def test_point_segment_distance_examples():
    # Segments a -> a + d: an interior foot, a clamped end, a zero-length segment.
    a = np.array([[-1.0, 0.0], [0.0, 0.0], [5.0, 5.0]])
    d = np.array([[2.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    dists, _, _ = project_onto_segments((0, 1), a[:1], d[:1])
    assert dists[0] == pytest.approx(1.0)
    dists, _, _ = project_onto_segments((2, 2), a[1:2], d[1:2])
    assert dists[0] == pytest.approx(math.sqrt(5))
    dists, proj, u = project_onto_segments((5, 5), a[2:], d[2:])
    assert dists[0] == 0.0 and u[0] == 0.0 and proj[0].tolist() == [5.0, 5.0]


def one_edge(points) -> EmbeddedGraph:
    return EmbeddedGraph([(0, points[0]), (1, points[-1])], [("e", (0, 1, points))])


def test_point_to_polyline_distance_examples():
    g = one_edge([(-1, 0), (1, 0)])
    assert nearest_point_on_graph(g, (0.5, 0.0))[0] == 0.0
    assert nearest_point_on_graph(g, (0, 1))[0] == pytest.approx(1.0)
    assert nearest_point_on_graph(one_edge([(0, 0), (1, 0)]), (2, 2))[0] == pytest.approx(math.sqrt(5))


def test_nearest_point_on_polyline_projects_onto_interior():
    d, q, eid = nearest_point_on_graph(one_edge([(0, 0), (1, 0)]), (0.25, 3.0))
    assert d == pytest.approx(3.0)
    assert np.allclose(q, (0.25, 0.0))
    assert eid == "e"


def test_disc_segment_intervals_basic():
    a = np.array([[0.0, 0.0]])
    b = np.array([[10.0, 0.0]])
    lo, hi = disc_segment_intervals((5.0, 0.0), 1.0, a, b)
    assert lo[0] == pytest.approx(0.4)
    assert hi[0] == pytest.approx(0.6)

    lo, hi = disc_segment_intervals((5.0, 2.0), 1.0, a, b)
    assert lo[0] > hi[0]  # empty

    # Tangent disc yields a single-point interval.
    lo, hi = disc_segment_intervals((5.0, 1.0), 1.0, a, b)
    assert lo[0] == pytest.approx(0.5)
    assert hi[0] == pytest.approx(0.5)


def test_disc_segment_intervals_degenerate_segment():
    a = np.array([[2.0, 2.0]])
    lo, hi = disc_segment_intervals((2.0, 2.0), 0.0, a, a)
    assert lo[0] == 0.0 and hi[0] == 1.0
    lo, hi = disc_segment_intervals((3.0, 2.0), 0.5, a, a)
    assert lo[0] > hi[0]


def test_disc_segment_interval_outside_reach_is_empty():
    a = np.array([[0.0, 0.0]])
    b = np.array([[1.0, 0.0]])
    lo, hi = disc_segment_intervals((5.0, 0.0), 1.0, a, b)
    assert lo[0] > hi[0]


def _bits(x: np.ndarray) -> bytes:
    return np.ascontiguousarray(x).tobytes()


def test_disc_segment_intervals_broadcast_equals_row_calls():
    rng = np.random.default_rng(17)
    a = rng.uniform(0, 10, (12, 2))
    b = rng.uniform(0, 10, (12, 2))
    b[[2, 7]] = a[[2, 7]]  # zero-length segments
    centers = np.vstack([rng.uniform(0, 10, (5, 2)), a[2], [40.0, 40.0]])
    radius = 2.5

    lo, hi = disc_segment_intervals(centers[:, None, :], radius, a, b)
    assert lo.shape == (len(centers), len(a))
    for i, c in enumerate(centers):
        row_lo, row_hi = disc_segment_intervals(c, radius, a, b)
        assert _bits(lo[i]) == _bits(row_lo) and _bits(hi[i]) == _bits(row_hi)
    assert (lo > hi).any() and (lo <= hi).any()
    assert lo[5, 2] == 0.0 and hi[5, 2] == 1.0  # centre on a zero-length segment
    assert (lo[6] > hi[6]).all()  # centre out of reach

    # Points (V, 1, 2) against the segments of a curve, one column per segment.
    curve = np.vstack([rng.uniform(0, 10, (4, 2)), [[3.0, 3.0], [3.0, 3.0]]])
    points = np.vstack([rng.uniform(0, 10, (9, 2)), [[3.0, 3.0]]])
    lo, hi = disc_segment_intervals(points[:, None, :], radius, curve[:-1], curve[1:])
    assert lo.shape == (len(points), len(curve) - 1)
    for i in range(len(curve) - 1):
        col_lo, col_hi = disc_segment_intervals(points, radius, curve[i], curve[i + 1])
        assert _bits(lo[:, i]) == _bits(col_lo) and _bits(hi[:, i]) == _bits(col_hi)
    assert (lo > hi).any() and (lo <= hi).any()


def scalar_disc_interval(c, radius, a, b) -> tuple[float, float]:
    """The segment-disc quadratic of ``disc_segment_intervals``, one segment, in ``math`` floats."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    fx, fy = a[0] - c[0], a[1] - c[1]
    # np.einsum sums from +0.0, so a dot product of -0.0 terms is +0.0.
    qa = 0.0 + dx * dx + dy * dy
    qb = 2.0 * (0.0 + fx * dx + fy * dy)
    qc = (0.0 + fx * fx + fy * fy) - radius * radius
    if qa == 0.0:
        return (0.0, 1.0) if qc <= 0.0 else (math.inf, -math.inf)
    disc = qb * qb - (4.0 * qa) * qc
    sq = math.sqrt(max(disc, 0.0))
    u1 = (-qb - sq) / (2.0 * qa)
    u2 = (-qb + sq) / (2.0 * qa)
    if disc < 0.0 or u1 > 1.0 or u2 < 0.0:
        return math.inf, -math.inf
    # Clamp as np.clip does: a root of -0.0 stays -0.0.
    return min(max(u1, 0.0), 1.0), min(max(u2, 0.0), 1.0)


_coord = st.floats(-60.0, 60.0, allow_nan=False, allow_infinity=False)
_point = st.tuples(_coord, _coord)


@st.composite
def disc_cases(draw):
    """Segments (some of zero length), centres (some on a segment end) and a radius (maybe 0)."""
    offset = np.array(draw(st.sampled_from([(0.0, 0.0), (500000.0, 4500000.0), (-3.3e6, 7.1e6)])))
    a = np.array(draw(st.lists(_point, min_size=1, max_size=4))) + offset
    b = np.array(draw(st.lists(_point, min_size=len(a), max_size=len(a)))) + offset
    zero = np.array(draw(st.lists(st.booleans(), min_size=len(a), max_size=len(a))))
    b[zero] = a[zero]
    centers = np.array(draw(st.lists(_point, min_size=1, max_size=3))) + offset
    if draw(st.booleans()):
        centers[0] = a[draw(st.integers(0, len(a) - 1))]
    radius = draw(st.one_of(st.just(0.0), st.floats(0.0, 120.0, allow_nan=False)))
    return a, b, centers, radius


@settings(max_examples=300)
@given(disc_cases())
def test_disc_segment_intervals_equal_the_scalar_quadratic_bit_for_bit(case):
    a, b, centers, radius = case
    lo, hi = disc_segment_intervals(centers[:, None, :], radius, a, b)
    for i, c in enumerate(centers.tolist()):
        for s in range(len(a)):
            want = scalar_disc_interval(c, radius, a[s].tolist(), b[s].tolist())
            got = (float(lo[i, s]), float(hi[i, s]))
            assert [x.hex() for x in got] == [x.hex() for x in want], (c, a[s], b[s], radius)


@settings(max_examples=100)
@given(disc_cases(), st.lists(st.floats(0.0, 120.0, allow_nan=False), min_size=1, max_size=4))
def test_prepared_quadratic_steps_like_fresh_calls(case, radii):
    # One preparation, with or without precomputed segment terms, serves
    # every radius with the floats of a fresh call; ``free`` is ``lo <= hi``.
    a, b, centers, _ = case
    prepared = [
        DiscQuadratic(centers[:, None, :], a, b),
        DiscQuadratic(centers[:, None, :], a, b, segment_terms(a, b)),
    ]
    for radius in radii:
        lo, hi = disc_segment_intervals(centers[:, None, :], radius, a, b)
        for q in prepared:
            plo, phi = q.intervals(radius)
            assert _bits(plo) == _bits(lo) and _bits(phi) == _bits(hi)
            assert (q.free(radius) == (lo <= hi)).all()
