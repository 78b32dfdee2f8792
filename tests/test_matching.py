import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathdist.errors import InputError, StructuralError
from pathdist.experiments import PerturbationSpec, generate_perturbed, grid_graph
from pathdist.frechet import frechet_distance
from pathdist.geometry import DiscQuadratic, PolyLine, project_onto_segments
from pathdist.graph import EmbeddedGraph
from pathdist.geometry import collapsed_points
import pathdist.matching as matching
from pathdist.matching import MatchProblem, map_match_distance, match_decision, prepare_problems
from pathdist.pathdistance import match_all_paths, max_path_distance
from pathdist.spatial import nearest_point_on_graph

from oracles import (
    DenseWalkOracle,
    DiscreteMatchOracle,
    bytes_keyed_windows,
    city_pair,
    fresh,
    label_order_decision,
    nearest_point_scan,
    random_curve_near_graph,
    random_geometric_graph,
)


def segment_graph():
    return EmbeddedGraph([(0, (0, 0)), (1, (10, 0))], [("e", (0, 1))])


def test_curve_equal_to_edge_matches_at_zero(grid6):
    eid = 13
    curve = grid6.edges[eid].geometry
    assert match_decision(curve, grid6, 0.0)


def test_offset_segment_decision_and_distance():
    h = segment_graph()
    curve = PolyLine([(0, 1), (10, 1)])
    assert not match_decision(curve, h, 0.999)
    assert match_decision(curve, h, 1.001)
    assert map_match_distance(curve, h, 1e-3) == pytest.approx(1.0, abs=1e-3)


def test_map_match_distance_ends_at_a_tolerance_below_the_float_spacing():
    # The bisection runs between 2 and 4; no float bracket there is 1e-300 wide.
    curve = PolyLine([(0.0, 0.5), (5.0, 3.0), (10.0, 0.5)])
    assert map_match_distance(curve, segment_graph(), 1e-300) == pytest.approx(3.0, abs=1e-12)


def test_empty_graph_behavior():
    empty = EmbeddedGraph([], [])
    curve = PolyLine([(0, 0), (1, 0)])
    assert match_decision(curve, empty, 5.0) is False
    with pytest.raises(StructuralError):
        map_match_distance(curve, empty)
    # A problem prepared against an empty graph has no segments and no joints.
    problem = MatchProblem(collapsed_points(curve), empty)
    assert problem.cv.qb2.shape == (2, 0) and problem.jn.qb2.shape == (0, 1)
    assert match_decision(problem, empty, 5.0) is False and problem.decide(5.0) is False


def test_partial_edge_match_is_free():
    # The curve covers only half an edge; matched paths may start and end
    # inside edge interiors, so the distance is zero.
    h = segment_graph()
    curve = PolyLine([(2, 0), (6, 0)])
    assert map_match_distance(curve, h, 1e-3) == pytest.approx(0.0, abs=1e-3)


def test_mid_edge_turnaround_is_allowed(grid6):
    curve = PolyLine([(0, 0), (1.2, 0), (0, 0), (0, 2)])
    assert map_match_distance(curve, grid6, 1e-3) == pytest.approx(0.0, abs=1e-3)


def test_decision_monotone_in_eps(grid6):
    rng = np.random.default_rng(2)
    for _ in range(5):
        curve = PolyLine(rng.uniform(0, 10, (4, 2)))
        answers = [match_decision(curve, grid6, e) for e in np.linspace(0, 15, 30)]
        assert answers == sorted(answers)


def test_reversal_invariance(grid6):
    rng = np.random.default_rng(3)
    for _ in range(5):
        curve = PolyLine(rng.uniform(0, 10, (4, 2)))
        d = map_match_distance(curve, grid6, 1e-3)
        dr = map_match_distance(curve.reversed(), grid6, 1e-3)
        assert dr == pytest.approx(d, abs=2e-3)


def test_adding_edges_never_hurts():
    rng = np.random.default_rng(4)
    for seed in range(5):
        h = random_geometric_graph(np.random.default_rng(seed), 7, 2, 10.0)
        # Superset graph: same vertices/edges plus one more vertex and edge.
        vertices = list(h.vertices.items()) + [(999, (5.0, 5.0))]
        edges = [(eid, (e.u, e.v, e.geometry)) for eid, e in h.edges.items()]
        edges.append(("extra", (0, 999)))
        h_sup = EmbeddedGraph(vertices, edges)
        curve = PolyLine(rng.uniform(0, 10, (4, 2)))
        assert map_match_distance(curve, h_sup, 1e-3) <= map_match_distance(curve, h, 1e-3) + 2e-3


@pytest.mark.parametrize("lower", [math.inf, -math.inf, -1.0, math.nan])
def test_lower_must_be_a_finite_number_of_at_least_zero(lower):
    # inf once tripped the bisection's upper-bound assertion, -1 read as a
    # negative eps, and NaN was silently ignored.
    g = grid_graph()
    curve = PolyLine([(0.5, 0.3), (4.0, 0.2)])
    with pytest.raises(InputError, match="lower"):
        map_match_distance(curve, g, 1e-3, lower=lower)
    plain = map_match_distance(curve, g, 1e-3)
    assert map_match_distance(curve, g, 1e-3, lower=0.0) == plain
    assert map_match_distance(curve, g, 1e-3, lower=np.float64(0.1)) == plain


def test_endpoint_lower_bound(grid6):
    rng = np.random.default_rng(5)
    for _ in range(5):
        curve = PolyLine(rng.uniform(-5, 15, (4, 2)))
        d = map_match_distance(curve, grid6, 1e-3)
        for endpoint in (curve.points[0], curve.points[-1]):
            nd, _ = nearest_point_scan(grid6, endpoint)
            assert d >= nd - 1e-3


def duplicated_bends(g, rng, amount):
    """Copy of ``g`` whose edges bend once and repeat their points."""
    vertices = list(g.vertices.items())
    edges = []
    for eid, e in g.edges.items():
        a = np.asarray(g.vertices[e.u], float)
        b = np.asarray(g.vertices[e.v], float)
        mid = 0.5 * (a + b) + rng.uniform(-amount, amount, 2)
        edges.append((eid, (e.u, e.v, PolyLine([a, a, mid, mid, b]))))
    return EmbeddedGraph(vertices, edges)


def test_nearest_point_matches_per_segment_scan():
    for seed in range(8):
        rng = np.random.default_rng(300 + seed)
        h = duplicated_bends(random_geometric_graph(rng, 7, 3, 10.0), rng, 1.5)
        queries = np.vstack([rng.uniform(-3, 13, (20, 2)), list(h.vertices.values())])
        for p in queries:
            d, q, eid = nearest_point_on_graph(h, p)
            want, _ = nearest_point_scan(h, p)
            assert d == pytest.approx(want, abs=1e-12)
            assert math.hypot(*(q - p)) == pytest.approx(d, abs=1e-12)
            # The point lies on the edge the query names.
            pts = h.edges[eid].geometry.points
            assert project_onto_segments(q, pts[:-1], np.diff(pts, axis=0))[0].min() <= 1e-12


def test_nearest_point_ties_take_the_lowest_segment():
    # (5, 5) is 5 from all four sides of the square; the first edge wins.
    square = EmbeddedGraph(
        [(0, (0, 0)), (1, (10, 0)), (2, (10, 10)), (3, (0, 10))],
        [("s", (0, 1)), ("e", (1, 2)), ("n", (2, 3)), ("w", (3, 0))],
    )
    d, q, eid = nearest_point_on_graph(square, (5.0, 5.0))
    assert (d, eid) == (5.0, "s")
    assert q.tolist() == [5.0, 0.0]


def test_nearest_point_on_vertex_only_graph():
    h = EmbeddedGraph([("a", (0, 0)), ("b", (3, 4))], [])
    d, q, eid = nearest_point_on_graph(h, (3.0, 5.0))
    assert (d, q.tolist(), eid) == (1.0, [3.0, 4.0], None)
    assert nearest_point_scan(h, (3.0, 5.0)) == (1.0, (3.0, 4.0))


def isolated_vertex_graph():
    """An isolated vertex at the origin and one edge three metres away."""
    return EmbeddedGraph(
        [("iso", (0, 0)), ("a", (3, 0)), ("b", (3, 2))], [("e", ("a", "b"))]
    )


def test_isolated_vertex_is_a_constant_matched_path():
    # The constant path at the isolated vertex matches the curve at 1.0; the
    # endpoint lower bound must see that vertex too, or the bisection starts
    # at the edge's distance 3.0 and stops there.
    h = isolated_vertex_graph()
    curve = [(0.0, 0.5), (0.0, 1.0)]
    d = map_match_distance(PolyLine(curve), h, 1e-3)
    dense = DenseWalkOracle(h, spacing=0.005).match_distance(np.asarray(curve))
    assert d == pytest.approx(dense, abs=1e-3 + 0.01)
    assert d == pytest.approx(1.0, abs=1e-3)
    assert map_match_distance(PolyLine([(0.0, 0.5)]), h, 1e-3) == 0.5
    dn, q, eid = nearest_point_on_graph(h, (0.0, 0.5))
    assert (dn, q.tolist(), eid) == (0.5, [0.0, 0.0], None)


def test_curve_into_vertex_only_graph():
    # Only constant paths exist; the best one sits at (3, 4), 3*sqrt(2) away.
    h = EmbeddedGraph([("a", (0, 0)), ("b", (3, 4))], [])
    d = map_match_distance(PolyLine([(0, 1), (3, 5)]), h, 1e-3)
    assert d == 4.242726288794188
    assert d == pytest.approx(3.0 * math.sqrt(2.0), abs=1e-3)


def test_witness_is_a_valid_matching_path(grid6):
    rng = np.random.default_rng(7)
    for _ in range(5):
        curve = PolyLine(rng.uniform(0, 10, (4, 2)))
        d = map_match_distance(curve, grid6, 1e-3)
        # d is within tol of the true value, so d + tol certifies a match.
        ok, witness = match_decision(curve, grid6, d + 1e-3, return_witness=True)
        assert ok and witness is not None
        # The witness realizes the decision: Fréchet-close to the curve...
        assert frechet_distance(curve, witness, 1e-4) <= d + 2e-3
        # ...and every witness point lies on the graph.
        for pt in witness.points:
            nd, _ = nearest_point_scan(grid6, pt)
            assert nd <= 1e-9


def test_matches_bruteforce_oracle_on_small_graphs():
    # Spot check here; the acceptance suite runs the full 25-instance sweep.
    spacing = 0.005
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        h = random_geometric_graph(rng, 6, 2, 1.0)
        dense = DenseWalkOracle(h, spacing=spacing)
        for _ in range(2):
            curve_pts = random_curve_near_graph(rng, h, 4, 0.25)
            d = map_match_distance(PolyLine(curve_pts), h, 1e-3)
            assert d == pytest.approx(dense.match_distance(curve_pts), abs=1e-3 + 0.01)


def bend_edges(g, rng, amount):
    """Copy of ``g`` with a random interior bend point on every edge."""
    vertices = list(g.vertices.items())
    edges = []
    for eid, e in g.edges.items():
        a = np.asarray(g.vertices[e.u], float)
        b = np.asarray(g.vertices[e.v], float)
        mid = 0.5 * (a + b) + rng.uniform(-amount, amount, 2)
        edges.append((eid, (e.u, e.v, PolyLine([a, mid, b]))))
    return EmbeddedGraph(vertices, edges)


def test_polyline_edges_match_dense_oracle():
    # Interior bend points exercise the junction boundaries of the
    # free-space surface, which straight-edge graphs never touch.
    for seed in range(6):
        rng = np.random.default_rng(100 + seed)
        h = bend_edges(random_geometric_graph(rng, 6, 2, 1.0), rng, 0.15)
        dense = DenseWalkOracle(h, spacing=0.005)
        curve_pts = random_curve_near_graph(rng, h, 4, 0.3)
        d = map_match_distance(PolyLine(curve_pts), h, 1e-3)
        assert d == pytest.approx(dense.match_distance(curve_pts), abs=1e-3 + 0.01)


def test_contraction_preserves_match_distance(grid6):
    # Contracting degree-2 chains changes the combinatorics but not the
    # geometric image, so matching distances are unchanged.
    from pathdist.graph import contract_degree_two

    contracted = contract_degree_two(grid6)
    assert len(contracted.edges) < len(grid6.edges)
    rng = np.random.default_rng(12)
    for _ in range(5):
        curve = PolyLine(rng.uniform(0, 10, (4, 2)))
        d1 = map_match_distance(curve, grid6, 1e-3)
        d2 = map_match_distance(curve, contracted, 1e-3)
        assert d2 == pytest.approx(d1, abs=2e-3)


def test_enumerated_path_family_upper_bounds_distance():
    # The trimmed vertex-path family is a subset of all matched paths, so
    # its brute-force minimum can only sit above the implementation value.
    rng = np.random.default_rng(9)
    h = random_geometric_graph(rng, 5, 1, 1.0)
    enum = DiscreteMatchOracle(h, kmax=5, spacing=0.01)
    for _ in range(2):
        curve_pts = random_curve_near_graph(rng, h, 3, 0.25)
        d = map_match_distance(PolyLine(curve_pts), h, 1e-3)
        assert d <= enum.match_distance(curve_pts) + 1e-3 + 0.02


def witness_targets():
    """Bent edges; a bent edge with a parallel twin; bent edges plus isolated vertices."""
    rng = np.random.default_rng(31)
    bent = bend_edges(random_geometric_graph(rng, 8, 3, 10.0), rng, 1.5)
    twin = EmbeddedGraph(
        [("a", (0, 0)), ("b", (10, 0)), ("c", (10, 6))],
        [
            ("ab", ("a", "b", [(0, 0), (5, 1.5), (10, 0)])),
            ("ab2", ("a", "b", [(0, 0), (5, -1.5), (10, 0)])),
            ("bc", ("b", "c", [(10, 0), (11, 3), (10, 6)])),
        ],
    )
    base = bend_edges(random_geometric_graph(rng, 6, 2, 10.0), rng, 1.5)
    lonely = EmbeddedGraph(
        [*base.vertices.items(), ("iso1", (14.0, 3.0)), ("iso2", (-3.0, 12.0))],
        [(eid, (e.u, e.v, e.geometry)) for eid, e in base.edges.items()],
    )
    return {"bent": bent, "parallel": twin, "isolated": lonely}


def distance_to_graph(h, p):
    """Distance from ``p`` to the nearest edge point or vertex of ``h``."""
    nd, _ = nearest_point_scan(h, p)
    return min([nd, *(math.hypot(p[0] - q.x, p[1] - q.y) for q in h.vertices.values())])


@pytest.mark.parametrize("target", ["bent", "parallel", "isolated"])
def test_witness_lies_on_the_graph_and_matches_the_curve(target):
    h = witness_targets()[target]
    rng = np.random.default_rng(41)
    curves = [random_curve_near_graph(rng, h, n, 2.5) for n in (2, 3, 5, 5, 8)]
    if target == "parallel":
        # Out along one twin and back along the other, then up the last edge.
        curves.append(np.array([(0, 0.3), (5, 1.8), (10, 0.2), (5, -1.8), (0, -0.2)]))
        curves.append(np.array([(0.5, -0.3), (5, -2.0), (9.5, -0.2), (10.5, 3)]))
    if target == "isolated":
        # Near the isolated vertex only its constant path matches closely.
        curves.append(np.array([(13.5, 2.0), (14.5, 3.5), (14.0, 4.0)]))
    for pts in curves:
        curve = PolyLine(pts)
        d = map_match_distance(curve, h, 1e-3)
        # d is within tol/2 of the true value, so d + tol certifies a match.
        ok, witness = match_decision(curve, h, d + 1e-3, return_witness=True)
        assert ok and witness is not None
        for pt in witness.points:
            assert distance_to_graph(h, pt) <= 1e-9
        assert frechet_distance(curve, witness, 1e-3) <= d + 2e-3


def degenerate_target(rng, n_vertices: int, twins: int, isolated: int) -> EmbeddedGraph:
    """A random geometric graph plus zero-length edges and isolated vertices.

    Each twin is a new vertex on top of an old one, joined to it by a
    zero-length edge and, when the draw allows, onward to another vertex.
    """
    base = random_geometric_graph(rng, n_vertices, 2, 10.0)
    vertices = list(base.vertices.items())
    edges = [(eid, (e.u, e.v, e.geometry)) for eid, e in base.edges.items()]
    for k in range(twins):
        v, w = (int(x) for x in rng.integers(0, n_vertices, 2))
        vertices.append((("twin", k), tuple(base.vertices[v])))
        edges.append((("zero", k), (v, ("twin", k))))
        if w != v:
            edges.append((("onward", k), (("twin", k), w)))
    vertices += [(("iso", k), tuple(rng.uniform(0.0, 10.0, 2))) for k in range(isolated)]
    return EmbeddedGraph(vertices, edges)


def assert_decides_like_label_order(h, curve: PolyLine, eps_values) -> None:
    """``match_decision`` equals the label-order sweep at each eps, and its witness matches."""
    points = collapsed_points(curve)
    for eps in eps_values:
        if eps < 0.0:
            continue
        ok, witness = match_decision(curve, h, eps, return_witness=True)
        assert ok == label_order_decision(points, h, eps), eps
        if ok:
            for pt in witness.points:
                assert distance_to_graph(h, pt) <= 1e-9
            assert frechet_distance(curve, witness, 1e-3) <= eps + 1e-3


@settings(max_examples=80)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 7),
    st.integers(2, 6),
    st.integers(0, 2),
    st.integers(0, 2),
)
def test_sweep_decides_like_label_order(seed, n_vertices, n_points, twins, isolated):
    # The sweep pops the deepest curve row first and accepts the first
    # accepting cell it reaches; it must decide as the label-order sweep does.
    rng = np.random.default_rng(seed)
    h = degenerate_target(rng, n_vertices, twins, isolated)
    curve = PolyLine(random_curve_near_graph(rng, h, n_points, 2.5))
    d = map_match_distance(curve, h, 1e-3)
    assert_decides_like_label_order(h, curve, (d - 1e-3, d, d + 1e-3, *rng.uniform(0.0, 2.0 * d + 1.0, 3)))


@settings(max_examples=30)
@given(st.floats(0.0, 2.0 * math.pi), st.floats(0.5, 50.0), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
def test_a_cell_whose_label_drops_is_expanded_again(angle, scale, dx, dy):
    # At eps = scale the sweep first reaches X in curve row 1 through P, at
    # a label past the short time the joint b of X and Z is free; only X's
    # own step from row 0, at the row's earliest label, opens b, and Z is
    # the only way to the curve's end.
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]) * scale
    move = lambda pts: np.asarray(pts, float) @ rot.T + (dx, dy)
    spots = {"a": (1.0, -0.99), "p": (-0.3, -0.3), "b": (0.2, 0.99), "z": (10.0, 0.5)}
    h = EmbeddedGraph(
        [(v, tuple(move(p))) for v, p in spots.items()],
        [("P", ("a", "p")), ("X", ("a", "b")), ("Z", ("b", "z"))],
    )
    curve = PolyLine(move([(1.0, -0.5), (0.0, 0.0), (10.0, 0.0)]))
    assert match_decision(curve, h, scale)
    d = map_match_distance(curve, h, 1e-3 * scale)
    assert_decides_like_label_order(h, curve, (scale, d - 1e-3 * scale, d, d + 1e-3 * scale))


def test_map_match_distance_survives_utm_offset():
    rng = np.random.default_rng(23)
    h = bend_edges(random_geometric_graph(rng, 8, 3, 100.0), rng, 15.0)
    shift = np.array([5e5, 4.5e6])
    moved = EmbeddedGraph(
        [(v, tuple(np.asarray(p) + shift)) for v, p in h.vertices.items()],
        [(eid, (e.u, e.v, e.geometry.points + shift)) for eid, e in h.edges.items()],
    )
    for _ in range(6):
        pts = random_curve_near_graph(rng, h, 5, 25.0)
        d = map_match_distance(PolyLine(pts), h, 1e-3)
        assert abs(map_match_distance(PolyLine(pts + shift), moved, 1e-3) - d) < 1e-3


def split_edge(g, eid, frac: float) -> EmbeddedGraph:
    """Copy of ``g`` whose edge ``eid`` is cut by a new vertex at ``frac`` of its length."""
    e = g.edges[eid]
    cum = e.geometry.cumulative_lengths()
    arc = frac * cum[-1]
    cut = e.geometry.point_at(arc)
    before = int(np.searchsorted(cum, arc, side="right"))
    pts = e.geometry.points
    vertices = list(g.vertices.items()) + [("cut", tuple(cut))]
    edges = [(k, (f.u, f.v, f.geometry)) for k, f in g.edges.items() if k != eid]
    edges.append(((eid, 0), (e.u, "cut", [*pts[:before], cut])))
    edges.append(((eid, 1), ("cut", e.v, [cut, *pts[before:]])))
    return EmbeddedGraph(vertices, edges)


@settings(max_examples=40)
@given(
    st.integers(0, 2**16),
    st.floats(0.02, 0.98),
    st.booleans(),
)
def test_splitting_a_target_edge_keeps_the_distance(seed, frac, bent):
    # A vertex inside an edge adds a joint but no new path: a matched path
    # could already turn around anywhere on the edge.
    rng = np.random.default_rng(seed)
    h = random_geometric_graph(rng, 6, 2, 40.0)
    if bent:
        h = bend_edges(h, rng, 8.0)
    eid = list(h.edges)[int(rng.integers(0, len(h.edges)))]
    h_split = split_edge(h, eid, frac)
    tol = 1e-3
    for _ in range(2):
        curve = PolyLine(random_curve_near_graph(rng, h, 4, 10.0))
        d = map_match_distance(curve, h, tol)
        assert abs(map_match_distance(curve, h_split, tol) - d) <= tol


def test_prepared_problem_decides_like_the_curve():
    rng = np.random.default_rng(31)
    h = bend_edges(random_geometric_graph(rng, 8, 3, 50.0), rng, 6.0)
    for _ in range(4):
        curve = PolyLine(random_curve_near_graph(rng, h, 5, 12.0))
        problem = MatchProblem(collapsed_points(curve), h)
        d = map_match_distance(curve, h, 1e-3)
        for eps in (0.0, 0.5 * d, d - 1e-3, d + 1e-3, 2.0 * d + 1.0):
            assert match_decision(problem, h, eps) == match_decision(curve, h, eps)
        ok, witness = match_decision(problem, h, d + 1e-3, return_witness=True)
        ok_raw, witness_raw = match_decision(curve, h, d + 1e-3, return_witness=True)
        assert ok and ok_raw
        assert witness.points.tobytes() == witness_raw.points.tobytes()
        # Decisions on the problem above left its memo alone.
        assert map_match_distance(problem, h, 1e-3).hex() == d.hex()


def test_prepared_problem_refuses_another_graph():
    h = segment_graph()
    problem = MatchProblem(collapsed_points(PolyLine([(0, 1), (10, 1)])), h)
    with pytest.raises(InputError):
        match_decision(problem, segment_graph(), 1.0)


def chunk_case(offset):
    """A bent target with an isolated vertex, and curves that share points and segments."""
    rng = np.random.default_rng(41)
    base = bend_edges(random_geometric_graph(rng, 7, 3, 40.0), rng, 5.0)
    h = EmbeddedGraph(
        [(v, tuple(np.asarray(p) + offset)) for v, p in base.vertices.items()] + [("lone", tuple(offset + (55.0, 20.0)))],
        [(eid, (e.u, e.v, e.geometry.points + offset)) for eid, e in base.edges.items()],
    )
    u, v, w = (np.asarray(base.vertices[i], float) for i in (0, 1, 2))
    curves = [
        random_curve_near_graph(rng, base, 5, 10.0),
        [u, v],
        [u, v, u],  # a backtrack: its first and last point are one row
        [u, v, u, v],  # the segment u -> v twice
        [u, v, w, u],  # a k=3 cycle
        [(3.0, 3.0)],  # one point: no families
        [(-0.0, 0.0), (10.0, -0.0), (0.0, 5.0)],  # -0.0 and 0.0 stay apart
        [(0.0, 0.0), (10.0, 0.0), (-0.0, 5.0)],
        [(50.0, 20.0), (55.0, 20.0), (60.0, 20.0)],  # across the isolated vertex
        [(0.0, 20.0), (1e-200, 20.0), (30.0, 25.0)],  # a segment whose length squared is 0
        random_curve_near_graph(rng, base, 3, 10.0),
    ]
    # Adding a zero offset would turn -0.0 into 0.0.
    return h, [collapsed_points(np.asarray(c, float) + offset if offset.any() else np.asarray(c, float)) for c in curves]


def assert_same_quadratic(chunked, single):
    for name in ("qa4", "den", "qb2", "nqb", "ff"):
        x, y = getattr(chunked, name), getattr(single, name)
        assert x.shape == y.shape, name
        assert np.array_equal(x.view(np.uint64), y.view(np.uint64)), name
    if single.degenerate is None:
        assert chunked.degenerate is None
    else:
        assert np.array_equal(chunked.degenerate, single.degenerate)


@pytest.mark.parametrize("offset", [(0.0, 0.0), (5e5, 4.5e6)])
@pytest.mark.parametrize("budget", [None, "small", 1])
def test_chunk_prepared_problems_equal_one_curve_problems(monkeypatch, offset, budget):
    # Problems prepared together share one table per family; each must be
    # the problem its curve gets alone, bit for bit, however the windows fall.
    h, curves = chunk_case(np.asarray(offset))
    geom = matching.surface_geometry(h)
    if budget == "small":
        budget = 8 * (geom.n_segments + geom.joint_pos.shape[0])
    if budget is not None:
        monkeypatch.setattr(matching, "_WINDOW_CELLS", budget)
    windows = []
    build = matching._window_families

    def counting(geom, window, *rest):
        windows.append(len(window))
        return build(geom, window, *rest)

    monkeypatch.setattr(matching, "_window_families", counting)
    problems = list(prepare_problems(curves, h))
    assert sum(windows) == len(curves)
    if budget is None:
        assert len(windows) == 1
    elif budget == 1:
        assert len(windows) == sum(c.shape[0] > 1 for c in curves)
    else:
        assert 1 < len(windows) < len(curves) - 1
    for problem, curve in zip(problems, curves):
        single = MatchProblem(curve, h)
        assert problem.points is curve
        if curve.shape[0] > 1:
            # The one-curve problem is the same code; the quadratics built
            # from this curve alone are the reference for both.
            cv = DiscQuadratic(curve[:, None, :], geom.seg_a, geom.seg_b, geom.seg_terms)
            jn = DiscQuadratic(geom.joint_pos[:, None, :], curve[:-1], curve[1:])
            for prepared in (problem, single):
                assert_same_quadratic(prepared.cv, cv)
                assert_same_quadratic(prepared.jn, jn)
        d = map_match_distance(single, h, 1e-3)
        for eps in (0.0, 0.5 * d, d - 1e-3, d + 1e-3):
            assert match_decision(problem, h, eps) == match_decision(single, h, eps)
        assert map_match_distance(problem, h, 1e-3).hex() == d.hex()


def assert_keyed_like_bytes(curves, h) -> int:
    """``_families`` gives the rows, columns, windows and tables of the bytes keying; returns the window count."""
    geom = matching.surface_geometry(h)
    families, tables = bytes_keyed_windows(curves, geom.n_segments, geom.joint_pos.shape[0], matching._WINDOW_CELLS)
    windows = []
    for (points, window, rows, cols), curve, (at, want_rows, want_cols) in zip(
        matching._families(curves, h), curves, families, strict=True
    ):
        assert points is curve
        assert rows == want_rows and cols == want_cols
        assert (window is None) == (at is None)
        if window is not None:
            if not windows or windows[-1] is not window:
                windows.append(window)
            assert len(windows) - 1 == at
    assert len(windows) == len(tables)
    for window, (table, starts, stops) in zip(windows, tables):
        want = matching._Window(geom, table, starts, stops)
        assert window.cv_terms.tobytes() == want.cv_terms.tobytes()
        assert window.jn_terms.tobytes() == want.jn_terms.tobytes()
        assert window.cells == want.cells
    return len(windows)


def test_index_keying_equals_bytes_keying_on_study_paths_by_bound():
    from pathdist.pathdistance import _path_bounds
    from pathdist.paths import canonical_walks, path_curves

    h = grid_graph()
    for p in (0.1, 0.5, 0.9):
        g = generate_perturbed(PerturbationSpec(p=p, seed_count=1, rng_seed=3))[0]
        walks = canonical_walks(g, 3)
        curves, bounds = path_curves(g, walks), _path_bounds(g, h, walks)
        # The order in which max_path_distance's chunk takes them.
        by_bound = sorted(range(len(curves)), key=lambda i: -bounds[i])
        assert assert_keyed_like_bytes([curves[i] for i in by_bound], h) == 1


def test_index_keying_equals_bytes_keying_across_windows():
    from pathdist.paths import canonical_walks, path_curves

    g, h = city_pair(0, 3)
    assert assert_keyed_like_bytes(path_curves(g, canonical_walks(g, 2)), h) == 3
    assert assert_keyed_like_bytes(path_curves(h, canonical_walks(h, 3)), g) == 8


@pytest.mark.parametrize("budget", [None, "small", 1])
def test_index_keying_equals_bytes_keying_on_signed_zeros_and_repeated_points(monkeypatch, budget):
    h, curves = chunk_case(np.zeros(2))
    geom = matching.surface_geometry(h)
    if budget is not None:
        monkeypatch.setattr(matching, "_WINDOW_CELLS", 1 if budget == 1 else 8 * (geom.n_segments + geom.joint_pos.shape[0]))
    # Also a lone one-point curve, one-point curves around a two-point one, and no curve.
    for case in (curves, curves[::-1], curves + curves, [curves[5]], [curves[5], curves[1], curves[5]], []):
        assert_keyed_like_bytes(case, h)


def step_alone(monkeypatch):
    """Make every decision step its own rows, never its window's tables."""
    monkeypatch.setattr(matching._Window, "tables", lambda self, rows, cols, eps: None)


@pytest.mark.parametrize("offset", [(0.0, 0.0), (5e5, 4.5e6)])
@pytest.mark.parametrize("budget", [None, "small"])
def test_window_step_decides_like_each_curve_alone(monkeypatch, offset, budget):
    # Decisions at one shared eps step the whole window once and read their
    # rows off it; each must equal its curve's own step, witness included.
    h, curves = chunk_case(np.asarray(offset))
    if budget == "small":
        geom = matching.surface_geometry(h)
        monkeypatch.setattr(matching, "_WINDOW_CELLS", 8 * (geom.n_segments + geom.joint_pos.shape[0]))
    distances = [map_match_distance(curve, h, 1e-3) for curve in curves]
    shared = sorted({x for d in distances for x in (d - 1e-3, d, d + 1e-3)})
    with monkeypatch.context() as alone:
        step_alone(alone)
        singles = [MatchProblem(curve, h) for curve in curves]
        expected = [
            [(p.tables(eps), match_decision(p, h, eps, return_witness=True)) for p in singles if p.window]
            for eps in shared
        ]
    served = {"steps": 0, "reads": 0}
    window_tables, window_step = matching._Window.tables, matching._Window.step

    def counted_tables(self, rows, cols, eps):
        tables = window_tables(self, rows, cols, eps)
        served["reads"] += tables is not None
        return tables

    def counted_step(self, eps):
        served["steps"] += 1
        return window_step(self, eps)

    monkeypatch.setattr(matching._Window, "tables", counted_tables)
    monkeypatch.setattr(matching._Window, "step", counted_step)
    for eps, want in zip(shared, expected):
        problems = [p for p in prepare_problems(curves, h) if p.window]
        for problem, (tables, (ok, witness)) in zip(problems, want, strict=True):
            got_ok, got_witness = match_decision(problem, h, eps, return_witness=True)
            for got, ref in zip(problem.tables(eps), tables):
                assert np.array(got).tobytes() == np.array(ref).tobytes()
            assert got_ok == ok
            if witness is None:
                assert got_witness is None
            else:
                assert got_witness.points.tobytes() == witness.points.tobytes()
    assert 0 < served["steps"] < served["reads"]


def test_a_run_at_one_eps_costs_at_most_twice_stepping_alone(monkeypatch):
    # Every root step is priced at its cells plus the fixed cost of a call;
    # the window steps once, when its curves' own steps would cost as much.
    h, curves = chunk_case(np.zeros(2))
    geom = matching.surface_geometry(h)
    prices = []
    step = matching._step

    def priced(cv, jn, eps):
        prices.append(cv.qb2.size + jn.qb2.size + matching._STEP_CELLS)
        return step(cv, jn, eps)

    monkeypatch.setattr(matching, "_step", priced)
    problems = [p for p in prepare_problems(curves, h) if p.window]
    window = problems[0].window
    alone = 0
    for _ in range(3):
        for problem in problems:
            match_decision(problem, h, 5.0)
            alone += len(problem.rows) * geom.n_segments + geom.joint_pos.shape[0] * len(problem.cols)
            alone += matching._STEP_CELLS
            assert sum(prices) <= 2 * alone
    whole = window.cells + matching._STEP_CELLS
    assert prices.count(whole) == 1
    # ...and not later: the steps alone before it cost less than its own.
    assert sum(prices[: prices.index(whole)]) < whole


@pytest.mark.parametrize("offset", [(0.0, 0.0), (5e5, 4.5e6)])
def test_window_step_keeps_the_maximum_bit_for_bit(monkeypatch, offset):
    # The early exits of max_path_distance decide most paths at the running
    # maximum, the repeated eps that makes a window step.
    shift = np.asarray(offset)
    h = grid_graph(6.0, 2.0)
    g = generate_perturbed(PerturbationSpec(p=0.4, seed_count=1, rng_seed=5, extent=6.0))[0]
    g, h = (
        EmbeddedGraph(
            [(v, (p.x + shift[0], p.y + shift[1])) for v, p in x.vertices.items()],
            [(eid, (e.u, e.v, e.geometry.points + shift)) for eid, e in x.edges.items()],
        )
        for x in (g, h)
    )
    # g remembers nothing, and floored the k=1 values that floor its k=2 paths.
    floored = fresh(g)
    match_all_paths(floored, h, 1, 1e-3)
    runs = [(g, 2), (g, 3), (floored, 2)]
    windowed = [max_path_distance(source, h, k, 1e-3).hex() for source, k in runs]
    step_alone(monkeypatch)
    assert [max_path_distance(source, h, k, 1e-3).hex() for source, k in runs] == windowed


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0])
def test_map_match_distance_rejects_a_tolerance_that_is_not_positive_and_finite(tol):
    with pytest.raises(InputError, match="tol"):
        map_match_distance(PolyLine([(0, 1), (10, 1)]), segment_graph(), tol)


@pytest.mark.parametrize("eps", [math.nan, -math.inf, -1e-9])
def test_match_decision_rejects_nan_and_negative_eps(eps, grid6):
    curve = grid6.edges[13].geometry
    with pytest.raises(InputError, match="eps"):
        match_decision(curve, grid6, eps)


def test_match_decision_holds_at_infinite_eps(grid6):
    assert match_decision(PolyLine([(0, 1), (10, 1)]), grid6, math.inf)
