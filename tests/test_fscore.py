import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathdist.errors import InputError
from pathdist.fscore import (
    FScoreParams,
    _max_matching,
    _thinned,
    bottleneck_match,
    f_score,
    fscore_analysis,
    sample_neighborhood,
    sample_neighborhood_at,
)
from pathdist.geometry import PolyLine, project_onto_segments
from pathdist.graph import Edge, EmbeddedGraph
from pathdist.parallel import run_pool
from pathdist.spatial import SpatialGrid, close_pairs, close_pairs_within

from oracles import (
    brute_close_pairs,
    exhaustive_matching_size,
    exhaustive_max_matching,
    nearest_point_scan,
    random_geometric_graph,
    sample_neighborhood_at_oracle,
    sample_neighborhood_oracle,
)


def single_edge(length=10.0):
    return EmbeddedGraph([(0, (0, 0)), (1, (length, 0))], [("e", (0, 1))])


def test_params_validation():
    with pytest.raises(InputError):
        FScoreParams(sampling_interval=0.0)
    with pytest.raises(InputError):
        FScoreParams(matched_distance=-1.0)


@pytest.mark.parametrize("field", ["sampling_interval", "matched_distance", "max_path_length"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_reject_nan_and_infinity(field, value):
    with pytest.raises(InputError):
        FScoreParams(**{field: value})


def test_params_allow_a_zero_max_path_length():
    assert FScoreParams(max_path_length=0.0).max_path_length == 0.0


def test_single_edge_sampling():
    params = FScoreParams(sampling_interval=5.0, matched_distance=5.0, max_path_length=300.0)
    samples = sample_neighborhood(single_edge(), 0, params)
    assert len(samples) == 3  # distances 0, 5, 10 from the seed
    xs = sorted(p[0] for p in samples.points)
    assert xs == pytest.approx([0.0, 5.0, 10.0])


def test_max_path_length_zero_keeps_only_seed():
    params = FScoreParams(sampling_interval=5.0, matched_distance=5.0, max_path_length=0.0)
    samples = sample_neighborhood(single_edge(), 0, params)
    assert len(samples) == 1


def test_tee_junction_sample_count(tee):
    # Seed at the junction: walks go 10 m along each of the three streets,
    # sampling every 5 m -> 2 samples per street plus the seed.
    params = FScoreParams(sampling_interval=5.0, matched_distance=5.0, max_path_length=10.0)
    samples = sample_neighborhood(tee, "c", params)
    assert len(samples) == 1 + 3 * 2


def test_samples_respect_interval_along_walks(tee):
    params = FScoreParams(sampling_interval=5.0, matched_distance=5.0, max_path_length=300.0)
    samples = sample_neighborhood(tee, "w", params)
    # All samples lie on the network and within max path length.
    for x, y in samples.points:
        on_horizontal = abs(y) < 1e-9 and -10.0 - 1e-9 <= x <= 10.0 + 1e-9
        on_stub = abs(x) < 1e-9 and 0.0 <= y <= 10.0 + 1e-9
        assert on_horizontal or on_stub


def test_seed_at_point_walks_both_directions():
    params = FScoreParams(sampling_interval=2.0, matched_distance=5.0, max_path_length=4.0)
    samples = sample_neighborhood_at(single_edge(), (5.0, 0.5), params)
    xs = sorted(p[0] for p in samples.points)
    # Seed projects to (5, 0); walks reach 1..9 in steps of 2 each way.
    assert xs == pytest.approx([1.0, 3.0, 5.0, 7.0, 9.0])


def bent_edge_with_neighbours():
    # Edge "bent" bends four times and repeats a point (a zero-length segment);
    # the walks from a seed on it continue into ac, bd (bent too) and be.
    return EmbeddedGraph(
        [("a", (0, 0)), ("b", (30, 0)), ("c", (0, -20)), ("d", (30, 20)), ("e", (45, 0))],
        [
            ("bent", ("a", "b", [(0, 0), (10, 0), (10, 0), (15, 5), (25, 5.5), (30, 0)])),
            ("ac", ("a", "c")),
            ("bd", ("b", "d", [(30, 0), (33, 9), (30, 20)])),
            ("be", ("b", "e")),
        ],
    )


# Seed, then the seed edge towards b and towards a, then the sweep from a
# (ac) and from b (bd, be), in the order the sampler accepts them.
BENT_SEED_SAMPLES = [
    (13.5, 3.5),
    (16.876335700872033, 5.093816785043602),
    (20.87134505638341, 5.29356725281917),
    (24.86635441189479, 5.49331772059474),
    (27.600679120286816, 2.6392529676845022),
    (10.671572875253808, 0.6715728752538084),
    (6.949747468305832, 0.0),
    (2.949747468305832, 0.0),
    (0.0, -1.0502525316941664),
    (0.0, -5.050252531694166),
    (0.0, -9.050252531694166),
    (0.0, -13.050252531694166),
    (30.136975032580676, 0.4109250977420289),
    (31.401886096648028, 4.205658289944084),
    (32.666797160715376, 8.000391482146139),
    (34.433153085530705, 0.0),
    (38.433153085530705, 0.0),
]


def test_seed_inside_bent_edge_samples_pinned_points():
    params = FScoreParams(sampling_interval=4.0, matched_distance=5.0, max_path_length=30.0)
    samples = sample_neighborhood_at(bent_edge_with_neighbours(), (13.0, 4.0), params)
    assert samples.seed == (13.5, 3.5)
    assert [tuple(p) for p in samples.points.tolist()] == BENT_SEED_SAMPLES


def test_sample_at_exactly_half_an_interval_from_an_earlier_one_is_kept():
    # The edge doubles back, so its sample at network distance 5 lies exactly
    # 2.5 (half the interval) from the seed: too far to be a duplicate.
    g = EmbeddedGraph(
        [("a", (0, 0)), ("b", (10, 2.5))], [("e", ("a", "b", [(0, 0), (0, 3.75), (0, 2.5), (10, 2.5)]))]
    )
    params = FScoreParams(sampling_interval=5.0, matched_distance=5.0, max_path_length=15.0)
    samples = sample_neighborhood(g, "a", params).points
    assert samples.tolist() == [[0.0, 0.0], [0.0, 2.5], [5.0, 2.5], [10.0, 2.5]]
    assert samples.tobytes() == sample_neighborhood_oracle(g, "a", params).tobytes()


def test_sample_neighborhood_at_empty_graph():
    empty = EmbeddedGraph([], [])
    params = FScoreParams()
    assert len(sample_neighborhood_at(empty, (0.0, 0.0), params)) == 0


def test_seed_skips_an_isolated_vertex_nearer_than_every_edge():
    # The isolated vertex at the origin is 0.5 from the point, the edge 3.
    h = EmbeddedGraph([("iso", (0, 0)), ("a", (3, 0)), ("b", (3, 2))], [("e", ("a", "b"))])
    d, q, eid = SpatialGrid(h).nearest_point((0.0, 0.5))
    assert (d, q.tolist(), eid) == (3.0, [3.0, 0.5], "e")
    assert sample_neighborhood_at(h, (0.0, 0.5), FScoreParams()).seed == (3.0, 0.5)


def test_seed_without_edges_answers_as_the_whole_view():
    h = EmbeddedGraph([("a", (0, 0)), ("b", (3, 4))], [])
    d, q, eid = SpatialGrid(h).nearest_point((3.0, 5.0))
    assert (d, q.tolist(), eid) == (1.0, [3.0, 4.0], None)
    assert SpatialGrid(EmbeddedGraph([], [])).nearest_point((0.0, 0.0)) == (math.inf, None, None)


@pytest.mark.parametrize("order", [("north", "east"), ("east", "north")])
def test_seed_tie_at_a_shared_vertex_takes_the_edge_inserted_first(order):
    # (-3, -4) is 5 from the shared vertex and from nothing nearer on either edge.
    ends = {"north": (0, 10), "east": (10, 0)}
    h = EmbeddedGraph(
        [("o", (0, 0)), *((name, ends[name]) for name in order)],
        [(name, ("o", name)) for name in order],
    )
    d, q, eid = SpatialGrid(h).nearest_point((-3.0, -4.0))
    assert (d, q.tolist(), eid) == (5.0, [0.0, 0.0], order[0])


def test_seed_distance_equals_the_segment_scan():
    for seed in range(8):
        rng = np.random.default_rng(500 + seed)
        h = random_geometric_graph(rng, 7, 3, 10.0)
        grid = SpatialGrid(h)
        for p in np.vstack([rng.uniform(-3, 13, (20, 2)), list(h.vertices.values())]):
            d, q, eid = grid.nearest_point(p)
            assert d == pytest.approx(nearest_point_scan(h, p)[0], abs=1e-12)
            assert math.hypot(*(q - p)) == pytest.approx(d, abs=1e-12)
            e = h.edges[eid]
            a, b = np.asarray(h.vertices[e.u]), np.asarray(h.vertices[e.v])
            assert project_onto_segments(q, a[None], (b - a)[None])[0][0] <= 1e-12


def test_bottleneck_match_identical_sets():
    pts = np.array([[0.0, 0.0], [5.0, 0.0], [9.0, 3.0]])
    matched, um, uh = bottleneck_match(pts, pts.copy(), 0.5)
    assert (matched, um, uh) == (3, 0, 0)


def test_bottleneck_match_disjoint_far_sets():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = a + 100.0
    matched, um, uh = bottleneck_match(a, b, 5.0)
    assert (matched, um, uh) == (0, 2, 2)


def test_bottleneck_match_three_marbles_two_holes():
    marbles = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    holes = np.array([[0.5, 0.0], [1.5, 0.0]])
    matched, um, uh = bottleneck_match(marbles, holes, 2.0)
    assert (matched, um, uh) == (2, 1, 0)


def test_bottleneck_match_equals_exhaustive_optimum():
    rng = np.random.default_rng(8)
    for _ in range(10):
        nm, nh = rng.integers(1, 9, size=2)
        marbles = rng.uniform(0, 10, (nm, 2))
        holes = rng.uniform(0, 10, (nh, 2))
        thresh = float(rng.uniform(1.0, 6.0))
        matched, _, _ = bottleneck_match(marbles, holes, thresh)
        assert matched == exhaustive_max_matching(marbles, holes, thresh)


def test_f_score_arithmetic():
    assert f_score(5, 5, 5, 5) == 1.0
    assert f_score(0, 5, 0, 7) == 0.0
    assert f_score(1, 2, 1, 2) == pytest.approx(0.5)
    assert f_score(0, 0, 0, 0) == 0.0
    with pytest.raises(InputError):
        f_score(6, 5, 5, 5)


def test_identity_graphs_score_near_one(grid6):
    params = FScoreParams(sampling_interval=2.0, matched_distance=2.0, max_path_length=20.0)
    result = fscore_analysis(grid6, grid6, params)
    assert result.global_score >= 0.99
    assert result.global_marbles == result.global_holes
    assert all(v >= 0.99 for v in result.vertex_scores.values())


def test_missing_street_lowers_nearby_scores(tee):
    # The same map without the north stub: junction-area scores drop.
    pruned = EmbeddedGraph(
        [("w", (-10.0, 0.0)), ("c", (0.0, 0.0)), ("e", (10.0, 0.0))],
        [("we", ("w", "c")), ("ce", ("c", "e"))],
    )
    params = FScoreParams(sampling_interval=2.0, matched_distance=2.0, max_path_length=15.0)
    result = fscore_analysis(tee, pruned, params)
    assert result.vertex_scores["n"] < 0.6
    assert result.vertex_scores["c"] < 1.0
    assert result.global_score < 0.99
    edge_sig = result.edge_scores
    assert edge_sig.values["cn"] < edge_sig.values["we"]


def test_score_monotone_in_matched_distance(tee):
    pruned = EmbeddedGraph(
        [("w", (-10.0, 0.0)), ("c", (0.0, 0.0)), ("e", (10.0, 0.0))],
        [("we", ("w", "c")), ("ce", ("c", "e"))],
    )
    scores = []
    for md in (2.0, 5.0, 8.0, 12.0):
        params = FScoreParams(sampling_interval=2.0, matched_distance=md, max_path_length=15.0)
        scores.append(fscore_analysis(tee, pruned, params).global_score)
    assert scores == sorted(scores)


def test_empty_target_scores_zero(tee):
    params = FScoreParams(sampling_interval=2.0, matched_distance=2.0, max_path_length=15.0)
    result = fscore_analysis(tee, EmbeddedGraph([], []), params)
    assert result.global_score == 0.0
    assert all(v == 0.0 for v in result.vertex_scores.values())


def test_bottleneck_match_on_a_1500_point_chain():
    # Marble k lies between the holes at 5k - 2.5 and 5k + 2.5, listed in
    # reverse.  Marble 0's own cell column holds its right-hand hole, which
    # it tries first; each later marble then finds its left-hand hole taken
    # and takes its right-hand one, until the last marble's only hole is
    # taken: one 3000-step augmenting path shifts every marble back.
    n = 1500
    marbles = np.array([(5.0 * k, 0.0) for k in range(n)])
    holes = np.array([(5.0 * k - 2.5, 0.0) for k in reversed(range(n))])
    assert bottleneck_match(marbles, holes, 2.6) == (n, 0, 0)


def test_bottleneck_match_on_a_mirrored_1500_point_chain():
    # The chain above reflected in x: marble k now lies between the holes
    # at -5k - 2.5 and -5k + 2.5, and searching the west column before the
    # east one sends the greedy pass down the long augmenting path.
    n = 1500
    marbles = np.array([(-5.0 * k, 0.0) for k in range(n)])
    holes = np.array([(2.5 - 5.0 * k, 0.0) for k in reversed(range(n))])
    assert bottleneck_match(marbles, holes, 2.6) == (n, 0, 0)


def test_matching_follows_a_1500_step_augmenting_path():
    # Greedy takes hole k+1 for marble k, which leaves the last marble only a
    # taken hole: the one augmenting path runs through every marble.
    n = 1500
    adj = [[k + 1, k] for k in range(n - 1)] + [[n - 1]]
    assert _max_matching(adj, n) == n


@st.composite
def bipartite_graphs(draw):
    """Up to 7x7 bipartite graphs, each hole list in a drawn order."""
    n_right = draw(st.integers(0, 7))
    holes = st.lists(st.integers(0, n_right - 1), unique=True, max_size=n_right) if n_right else st.just([])
    return draw(st.lists(holes, max_size=7)), n_right


def _cardinality_bound(adj):
    return min(sum(1 for nbrs in adj if nbrs), len({v for nbrs in adj for v in nbrs}))


@settings(max_examples=300)
@given(bipartite_graphs())
def test_matching_with_and_without_the_bound_equals_exhaustive_optimum(case):
    adj, n_right = case
    best = exhaustive_matching_size(adj)
    assert _max_matching(adj, n_right, _cardinality_bound(adj)) == best
    assert _max_matching(adj, n_right) == best


def test_matching_below_the_bound_searches_to_the_end():
    # Hall's condition fails: marbles 0 and 1 share their only hole, so the
    # bound of 3 (three marbles with a hole, three holes with a marble) is
    # never reached and the last pass augments nothing.
    adj = [[0], [0], [1, 2]]
    assert _cardinality_bound(adj) == 3
    assert _max_matching(adj, 3, 3) == _max_matching(adj, 3) == exhaustive_matching_size(adj) == 2


def test_matching_of_shuffled_close_pairs_equals_exhaustive_optimum():
    rng = np.random.default_rng(30)
    for _ in range(40):
        nm, nh = rng.integers(1, 9, size=2)
        marbles = rng.uniform(0, 10, (nm, 2))
        holes = rng.uniform(0, 10, (nh, 2))
        thresh = float(rng.uniform(1.0, 6.0))
        m, h = close_pairs(marbles, holes, thresh, strict=False)
        adj = [rng.permutation(h[m == i]).tolist() for i in range(nm)]
        assert _max_matching(adj, nh, _cardinality_bound(adj)) == exhaustive_max_matching(marbles, holes, thresh)


def test_importing_the_package_and_cli_loads_no_scipy():
    code = "import sys, pathdist, pathdist.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


_coord = st.floats(-40.0, 40.0, allow_nan=False)


def _with_self_loop(g: EmbeddedGraph, vid, bend) -> EmbeddedGraph:
    """``g`` plus a bent edge from ``vid`` back to ``vid``, which only a pickle can carry."""
    x, y = g.vertices[vid]
    loop = PolyLine([(x, y), (x + bend[0], y + bend[1]), (x + bend[0], y), (x, y)])
    edges = dict(g.edges)
    edges["loop"] = Edge(vid, vid, loop)
    out = EmbeddedGraph.__new__(EmbeddedGraph)
    out.__setstate__((dict(g.vertices), edges))
    return out


@st.composite
def sampling_cases(draw):
    """Small maps with bent edges, repeated points, parallel edges, maybe a self-loop, at some offset."""
    offset = np.array(draw(st.sampled_from([(0.0, 0.0), (-75.5, -20.25), (500000.0, 4649776.0)])))
    pts = draw(st.lists(st.tuples(_coord, _coord), min_size=2, max_size=6, unique=True))
    vertices = [(i, tuple(np.asarray(p) + offset)) for i, p in enumerate(pts)]
    pairs = [(draw(st.integers(0, i - 1)), i) for i in range(1, len(pts))]
    pairs += draw(st.lists(st.tuples(st.integers(0, len(pts) - 1), st.integers(0, len(pts) - 1)), max_size=3))
    edges = []
    for u, v in pairs:
        if u == v:
            continue
        # Nine bends give ten segments, where a pairwise sum can differ from a running one.
        bends = [tuple(np.asarray(b) + offset) for b in draw(st.lists(st.tuples(_coord, _coord), max_size=9))]
        if bends and draw(st.booleans()):
            bends.insert(draw(st.integers(0, len(bends))), bends[0])  # a zero-length segment
        edges.append((len(edges), (u, v, [vertices[u][1], *bends, vertices[v][1]])))
    g = EmbeddedGraph(vertices, edges)
    if draw(st.booleans()):
        g = _with_self_loop(g, draw(st.integers(0, len(pts) - 1)), draw(st.tuples(_coord, _coord)))
    interval = draw(st.floats(0.5, 12.0))
    max_len = draw(st.one_of(st.just(0.0), st.floats(0.0, 120.0), st.just(1e6)))
    params = FScoreParams(sampling_interval=interval, matched_distance=5.0, max_path_length=max_len)
    probe = tuple(np.asarray(draw(st.tuples(_coord, _coord))) + offset)
    return g, params, probe


@settings(max_examples=150)
@given(sampling_cases())
def test_sampling_places_the_oracles_points_bit_for_bit(case):
    g, params, probe = case
    for v in g.vertices:
        got = sample_neighborhood(g, v, params).points
        assert got.tobytes() == sample_neighborhood_oracle(g, v, params).tobytes(), v
    got = sample_neighborhood_at(g, probe, params).points
    assert got.tobytes() == sample_neighborhood_at_oracle(g, probe, params).tobytes()


def test_one_point_edges_sample_the_oracles_points():
    from test_paths import one_point_edges_graph

    g = one_point_edges_graph()
    params = FScoreParams(sampling_interval=1.5, matched_distance=5.0, max_path_length=20.0)
    for v in g.vertices:
        assert sample_neighborhood(g, v, params).points.tobytes() == sample_neighborhood_oracle(g, v, params).tobytes()
    # (4, 0) and (5, -1) seed on the one-point edge inserted first; (2, 1) walks onto it.
    for probe in [(4.0, 0.0), (5.0, -1.0), (2.0, 1.0)]:
        got = sample_neighborhood_at(g, probe, params).points
        assert got.tobytes() == sample_neighborhood_at_oracle(g, probe, params).tobytes(), probe


def _pair_set(i, j):
    return sorted(zip(i.tolist(), j.tolist()))


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("offset", [(0.0, 0.0), (-123.25, -987.5), (500000.0, 4649776.0)])
def test_close_pairs_at_exactly_the_radius(strict, offset):
    a = np.array([(0.0, 0.0)]) + offset
    b = np.array([(3.0, 4.0), (-3.0, -4.0), (5.0, 0.0), (0.0, -4.999)]) + offset
    i, j = close_pairs(a, b, 5.0, strict=strict)
    assert _pair_set(i, j) == ([(0, 3)] if strict else [(0, 0), (0, 1), (0, 2), (0, 3)])


@st.composite
def point_sets(draw):
    offset = np.array(draw(st.sampled_from([(0.0, 0.0), (-3.3e6, -7.1e6), (500000.0, 4649776.0)])))
    grid = st.tuples(st.integers(-8, 8), st.integers(-8, 8)).map(lambda p: (p[0] * 1.5, p[1] * 2.0))
    free = st.tuples(st.floats(-12.0, 12.0), st.floats(-12.0, 12.0))
    pts = st.lists(st.one_of(grid, free), max_size=12)
    a = np.array(draw(pts), dtype=float).reshape(-1, 2) + offset
    b = np.array(draw(pts), dtype=float).reshape(-1, 2) + offset
    radius = draw(st.one_of(st.just(0.0), st.sampled_from([1.5, 2.0, 2.5]), st.floats(0.0, 10.0)))
    return a, b, radius


@settings(max_examples=300)
@given(point_sets(), st.booleans())
def test_close_pairs_equal_brute_force(case, strict):
    a, b, radius = case
    i, j = close_pairs(a, b, radius, strict=strict)
    assert list(i) == sorted(i)
    assert _pair_set(i, j) == brute_close_pairs(a, b, radius, strict)


def test_close_pairs_decide_ties_with_python_float_power():
    # Where ``x**2`` rounds differently from ``x*x``, a pair ``x`` apart is
    # within radius ``x`` exactly when Python's float test says so.
    xs = [x for x in np.random.default_rng(3).uniform(1.0, 100.0, 100000).tolist() if x**2 != x * x]
    a = np.zeros((1, 2))
    for x in xs[:40]:
        b = np.array([(x, 0.0)])
        for strict in (True, False):
            assert _pair_set(*close_pairs(a, b, x, strict=strict)) == brute_close_pairs(a, b, x, strict)


def _brute_pairs_within(p, radius):
    return sorted((i, j) for i, j in brute_close_pairs(p, p, radius, True) if j < i)


def _check_pairs_within(p, radius):
    later, earlier = close_pairs_within(p, radius)
    assert list(later) == sorted(later)
    assert _pair_set(later, earlier) == _brute_pairs_within(p, radius)


@settings(max_examples=300)
@given(point_sets())
def test_close_pairs_within_equal_brute_force(case):
    a, b, radius = case
    _check_pairs_within(a, radius)
    _check_pairs_within(np.vstack([a, b, a[:3]]), radius)  # duplicate points too


@pytest.mark.parametrize("offset", [(0.0, 0.0), (-123.25, -987.5), (500000.0, 4649776.0)])
def test_close_pairs_within_at_exactly_the_radius(offset):
    p = np.array([(0.0, 0.0), (3.0, 4.0), (-3.0, -4.0), (5.0, 0.0), (0.0, -4.999), (0.0, 0.0)]) + offset
    _check_pairs_within(p, 5.0)
    pairs = _pair_set(*close_pairs_within(p, 5.0))
    # Points 1 to 3 lie exactly 5 from points 0 and 5, which a strict test excludes.
    assert [pair for pair in pairs if 0 in pair or 5 in pair] == [(4, 0), (5, 0), (5, 4)]


def test_close_pairs_within_decide_ties_with_python_float_power():
    xs = [x for x in np.random.default_rng(3).uniform(1.0, 100.0, 100000).tolist() if x**2 != x * x]
    for x in xs[:40]:
        p = np.array([(x, 0.0), (0.0, 0.0), (0.0, x)])
        _check_pairs_within(p, x)


def test_close_pairs_within_of_no_or_one_point():
    for p in (np.empty((0, 2)), np.array([(1.0, 2.0)])):
        later, earlier = close_pairs_within(p, 3.0)
        assert len(later) == len(earlier) == 0


def _thinned_by_full_join(points, radius):
    """Thinning by the full-stencil self-join: every ordered pair, then ``earlier < later``."""
    later, earlier = close_pairs(points, points, radius, strict=True)
    back = earlier < later
    keep = [True] * len(points)
    for e, l in zip(earlier[back].tolist(), later[back].tolist()):
        if keep[e]:
            keep[l] = False
    return points[np.asarray(keep, dtype=bool)]


@settings(max_examples=200)
@given(point_sets())
def test_thinning_keeps_the_points_of_the_full_join(case):
    a, b, radius = case
    points = np.vstack([a, b, a[::2]])
    assert _thinned(points, radius).tobytes() == _thinned_by_full_join(points, radius).tobytes()


def test_thinning_of_samples_keeps_the_points_of_the_full_join():
    g = random_geometric_graph(np.random.default_rng(11), 30, 8, 60.0)
    for v in list(g.vertices)[:10]:
        points = sample_neighborhood(g, v, FScoreParams(sampling_interval=1.0, max_path_length=40.0)).points
        for radius in (0.5, 3.0):
            got = _thinned(points, radius)
            assert got.tobytes() == _thinned_by_full_join(points, radius).tobytes()
        assert len(got) < len(points)


def test_close_pairs_of_empty_sets():
    pts = np.array([(1.0, 2.0)])
    for a, b in ((np.empty((0, 2)), pts), (pts, np.empty((0, 2))), (np.empty((0, 2)), np.empty((0, 2)))):
        i, j = close_pairs(a, b, 3.0, strict=False)
        assert len(i) == len(j) == 0


@pytest.mark.parametrize("offset", [(0.0, 0.0), (500000.0, 4649776.0)])
def test_bottleneck_match_at_zero_distance_pairs_coincident_points(offset):
    marbles = np.array([(0.0, 0.0), (0.0, 0.0), (1.0, 0.0)]) + offset
    holes = np.array([(0.0, 0.0), (1.0, 1e-9), (2.0, 0.0)]) + offset
    assert bottleneck_match(marbles, holes, 0.0) == (1, 2, 2)
    assert bottleneck_match(np.zeros((2, 2)), np.zeros((3, 2)), 0.0) == (2, 0, 1)


def test_fscore_analysis_per_seed_equal_with_two_workers(tee):
    # Each worker unpickles its own copy of the graphs and rebuilds their tables.
    shifted = EmbeddedGraph(
        [(v, (p.x + 0.7, p.y - 0.4)) for v, p in tee.vertices.items()],
        [(eid, (e.u, e.v)) for eid, e in tee.edges.items()],
    )
    params = FScoreParams(sampling_interval=1.5, matched_distance=1.0, max_path_length=12.0)
    one = fscore_analysis(tee, shifted, params)
    with run_pool(2):
        two = fscore_analysis(tee, shifted, params)
    assert one.per_seed == two.per_seed
