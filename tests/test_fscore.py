import math

import numpy as np
import pytest

from pathdist.errors import InputError
from pathdist.fscore import (
    FScoreParams,
    bottleneck_match,
    f_score,
    fscore_analysis,
    sample_neighborhood,
    sample_neighborhood_at,
)
from pathdist.graph import EmbeddedGraph

from oracles import exhaustive_max_matching


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


def test_sample_neighborhood_at_empty_graph():
    empty = EmbeddedGraph([], [])
    params = FScoreParams()
    assert len(sample_neighborhood_at(empty, (0.0, 0.0), params)) == 0


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
