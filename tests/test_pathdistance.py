import csv
import functools
import hashlib
import io
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathdist.errors import InputError, ParseError, StructuralError
from pathdist.frechet import discrete_frechet, frechet_distance
from pathdist.geometry import DiscQuadratic
from pathdist.graph import EmbeddedGraph
from pathdist.matching import map_match_distance, match_decision
from pathdist.parallel import run_pool, split_chunks
from pathdist.pathdistance import (
    PathDistanceReport,
    _RADIUS_STEPS,
    _chunk_max,
    _computed,
    _floors,
    _path_bounds,
    directed_path_distance,
    intersection_radius,
    iter_match_records,
    match_all_paths,
    max_path_distance,
    path_distance_analysis,
    read_records_csv,
    separation_census,
    write_records_csv,
)
from pathdist.paths import VertexPath, canonical_walks, enumerate_paths, path_curves, path_geometry
from pathdist.experiments import PerturbationSpec, generate_perturbed, grid_graph

from oracles import (
    as_walks,
    canonical_path,
    city_pair,
    dense_radius_scan,
    fresh,
    polylines_meet,
    random_geometric_graph,
    reversed_path,
    with_bends,
)
from test_matching import distance_to_graph
from test_paths import assert_sub_rows_are_canonical_halves, mixed_id_graph

TOL = 1e-3


def cross(dx=0.0, dy=0.0, length=10.0):
    return EmbeddedGraph(
        [
            ("c", (dx, dy)),
            ("e", (dx + length, dy)),
            ("n", (dx, dy + length)),
            ("w", (dx - length, dy)),
            ("s", (dx, dy - length)),
        ],
        [(0, ("c", "e")), (1, ("c", "n")), (2, ("c", "w")), (3, ("c", "s"))],
    )


def test_identity_distance_is_zero(grid6):
    for k in (1, 2, 3):
        report = directed_path_distance(grid6, grid6, k, TOL)
        assert report.max_distance <= TOL
        assert report.weighted_mean <= TOL
        assert report.percentile(0.9) <= TOL


@pytest.mark.parametrize("q", [math.nan, 1.5, math.inf, -0.5, -math.inf])
def test_percentile_rejects_a_quantile_outside_0_to_1(grid6, q):
    report = directed_path_distance(grid6, grid6, 1, TOL)
    with pytest.raises(InputError, match="quantile"):
        report.percentile(q)
    with pytest.raises(InputError, match="quantile"):
        PathDistanceReport(k=1, direction="G->H", records=[]).percentile(q)
    assert report.percentile(0.0) <= report.percentile(1.0) == report.max_distance


def test_max_only_mode_equals_full_records(grid6):
    spec = PerturbationSpec(p=0.4, seed_count=1, rng_seed=17)
    gp = generate_perturbed(spec)[0]
    records = match_all_paths(gp, grid6, 2, TOL)
    full_max = max(r.distance for r in records)
    assert max_path_distance(gp, grid6, 2, TOL) == full_max
    # Chunked workers reduce to the exact same maximum.
    with run_pool(2):
        assert max_path_distance(gp, grid6, 2, TOL) == full_max


def test_workers_do_not_change_records(grid6):
    spec = PerturbationSpec(p=0.3, seed_count=1, rng_seed=5)
    gp = generate_perturbed(spec)[0]
    r1 = match_all_paths(gp, grid6, 2, TOL)
    with run_pool(3):
        r2 = match_all_paths(fresh(gp), grid6, 2, TOL)
    assert [r.distance for r in r1] == [r.distance for r in r2]


def test_max_only_mode_with_sub_tolerance_distances(grid6):
    # Distances smaller than the tolerance must not break the pruning.
    shifted = EmbeddedGraph(
        [(v, (p.x + 4e-4, p.y)) for v, p in grid6.vertices.items()],
        [(eid, (e.u, e.v)) for eid, e in grid6.edges.items()],
    )
    d = max_path_distance(shifted, grid6, 1, TOL)
    records = match_all_paths(shifted, grid6, 1, TOL)
    assert d == max(r.distance for r in records)
    assert d <= TOL


def test_monotone_in_link_length():
    rng = np.random.default_rng(1)
    for seed in range(3):
        g = random_geometric_graph(np.random.default_rng(seed), 10, 3, 30.0)
        h = random_geometric_graph(np.random.default_rng(seed + 100), 10, 3, 30.0)
        d1 = max_path_distance(g, h, 1, TOL)
        d2 = max_path_distance(g, h, 2, TOL)
        d3 = max_path_distance(g, h, 3, TOL)
        assert d1 <= d2 + 2 * TOL
        assert d2 <= d3 + 2 * TOL


def small_city_pair(seed: int) -> tuple[EmbeddedGraph, EmbeddedGraph]:
    """A 2x2-block lattice of bent streets and a jittered copy missing one street."""
    rng = np.random.default_rng(seed)
    ids = {(i, j): f"v{i}_{j}" for j in range(3) for i in range(3)}
    streets = [
        (c, (c[0] + di, c[1] + dj))
        for c in ids
        for di, dj in ((1, 0), (0, 1))
        if (c[0] + di, c[1] + dj) in ids
    ]
    bends = rng.uniform(-8.0, 8.0, (len(streets), 2))

    def build(jitter: float, drop: int | None) -> EmbeddedGraph:
        pos = {c: 100.0 * np.asarray(c, float) + rng.uniform(-jitter, jitter, 2) for c in ids}
        edges = []
        for s, (u, v) in enumerate(streets):
            if s == drop:
                continue
            a, b = pos[u], pos[v]
            normal = np.array([a[1] - b[1], b[0] - a[0]]) / 100.0
            bent = [a + t * (b - a) + off * normal for t, off in zip((1 / 3, 2 / 3), bends[s])]
            edges.append((f"e{s}", (ids[u], ids[v], [a, *bent, b])))
        return EmbeddedGraph([(ids[c], tuple(p)) for c, p in pos.items()], edges)

    return build(0.0, None), build(3.0, 5)


def monotonicity_pair(pair) -> tuple[EmbeddedGraph, EmbeddedGraph]:
    if pair == "city":
        return small_city_pair(0)
    g = random_geometric_graph(np.random.default_rng(pair), 10, 3, 30.0)
    h = random_geometric_graph(np.random.default_rng(pair + 100), 10, 3, 30.0)
    return g, h


@pytest.mark.parametrize("pair", [0, 1, 2, "city"])
def test_path_distance_never_falls_below_its_edges(pair):
    # A link-2 path contains each of its edges as a link-1 path, and a
    # matching of the whole path restricts to one of each edge.
    g, h = monotonicity_pair(pair)
    edges = [p.edge_ids[0] for p in enumerate_paths(g, 1)]
    by_edge = {edges[r.path_id]: r.distance for r in match_all_paths(g, h, 1, TOL)}
    paths = list(enumerate_paths(g, 2))
    records = match_all_paths(g, h, 2, TOL)
    assert records
    for rec in records:
        assert rec.distance >= max(by_edge[e] for e in paths[rec.path_id].edge_ids) - TOL


@pytest.mark.parametrize("pair", [0, 1, 2, "city"])
def test_path_distance_never_falls_below_its_sub_paths(pair):
    # The two link-2 sub-paths of a link-3 path are a prefix and a suffix of
    # its curve, and a matching of the whole curve restricts to each.
    g, h = monotonicity_pair(pair)
    shorter = list(enumerate_paths(g, 2))
    by_path = {shorter[r.path_id]: r.distance for r in match_all_paths(g, h, 2, TOL)}
    paths = list(enumerate_paths(g, 3))
    records = match_all_paths(g, h, 3, TOL)
    assert records
    for rec in records:
        v, e = paths[rec.path_id].vertex_ids, paths[rec.path_id].edge_ids
        prefix = canonical_path(VertexPath(v[:3], e[:2]))
        suffix = canonical_path(VertexPath(v[1:], e[1:]))
        assert rec.distance >= max(by_path[prefix], by_path[suffix]) - TOL


def _plain_distances(g, h, k):
    """Each link-``k`` path's distance from a bisection without any floor."""
    return {p: map_match_distance(path_geometry(g, p), h, TOL) for p in enumerate_paths(g, k)}


@settings(max_examples=6)
@given(st.integers(0, 2**16))
def test_distances_never_fall_as_k_grows_on_bent_cities(seed):
    # The sub-path floor and its probe both rest on this: a matching of a
    # path restricts to its prefix and its suffix.
    g, h = small_city_pair(seed)
    tables = {}
    for k in (1, 2, 3):
        plain = _plain_distances(g, h, k)
        # Under the link-(k-1) values, which g remembers from the pass before.
        records = match_all_paths(g, h, k, TOL)
        paths = list(plain)
        assert [r.distance for r in records] == [plain[paths[r.path_id]] for r in records]
        if k > 1:
            for p, d in plain.items():
                v, e = p.vertex_ids, p.edge_ids
                prefix = canonical_path(VertexPath(v[:-1], e[:-1]))
                suffix = canonical_path(VertexPath(v[1:], e[1:]))
                assert d >= max(tables[k - 1][prefix], tables[k - 1][suffix]) - TOL, p
        tables[k] = plain


@settings(max_examples=6)
@given(st.integers(0, 2**16))
def test_reversed_k2_path_has_the_same_distance_on_bent_cities(seed):
    g, h = small_city_pair(seed)
    for p, d in _plain_distances(g, h, 2).items():
        reverse = map_match_distance(path_geometry(g, reversed_path(p)), h, TOL)
        assert abs(reverse - d) <= TOL, p


def with_extra_streets(h: EmbeddedGraph, rng, count: int) -> EmbeddedGraph:
    """Copy of ``h`` with ``count`` more bent streets between random pairs of its vertices."""
    ids = list(h.vertices)
    edges = [(eid, (e.u, e.v, e.geometry)) for eid, e in h.edges.items()]
    for n in range(count):
        u, v = (ids[i] for i in rng.choice(len(ids), 2, replace=False))
        a, b = np.asarray(h.vertices[u], float), np.asarray(h.vertices[v], float)
        bend = 0.5 * (a + b) + rng.uniform(-10.0, 10.0, 2)
        edges.append((f"extra{n}", (u, v, [a, bend, b])))
    return EmbeddedGraph(list(h.vertices.items()), edges)


@settings(max_examples=6)
@given(st.integers(0, 2**16), st.integers(1, 3))
def test_adding_target_streets_never_raises_the_distance(seed, count):
    # Every path of the smaller target is a path of the larger one.
    g, h = small_city_pair(seed)
    more = with_extra_streets(h, np.random.default_rng(seed), count)
    for k in (1, 2):
        before = match_all_paths(g, h, k, TOL)
        after = match_all_paths(g, more, k, TOL)
        assert [r.path_id for r in after] == [r.path_id for r in before]
        for r, s in zip(before, after):
            assert s.distance <= r.distance + TOL, r.path_id
        assert max_path_distance(g, more, k, TOL) <= max_path_distance(g, h, k, TOL) + TOL


def test_sub_paths_keep_the_canonical_choice_on_mixed_ids():
    g = mixed_id_graph()
    for k in (2, 3, 4):
        assert_sub_rows_are_canonical_halves(g, k)


@pytest.mark.parametrize("pair", [0, 1, 2, "city"])
def test_sub_path_floor_never_changes_a_value(pair):
    # Each k >= 2 path is bisected under its sub-paths' values, remembered
    # from the pass before or computed on the way; every value must be the
    # float a bisection without the floor returns.
    g, h = monotonicity_pair(pair)
    match_all_paths(g, h, 1, TOL)
    tables = {}
    for k in (2, 3):
        records = match_all_paths(g, h, k, TOL)
        assert records == match_all_paths(fresh(g), h, k, TOL)
        paths = list(enumerate_paths(g, k))
        for rec in records:
            plain = map_match_distance(path_geometry(g, paths[rec.path_id]), h, TOL)
            assert rec.distance.hex() == plain.hex(), rec.path_id
        tables[k] = {r.path_id: r.distance for r in records}
    floored = fresh(g)
    match_all_paths(floored, h, 2, TOL)
    d3 = max_path_distance(floored, h, 3, TOL)
    assert d3 == max_path_distance(fresh(g), h, 3, TOL) == max(tables[3].values())
    assert max_path_distance(g, h, 3, TOL) == d3


def test_sub_path_floor_saves_decisions(monkeypatch):
    import pathdist.matching as matching

    g, h = small_city_pair(0)
    match_all_paths(g, h, 1, TOL)
    calls = []
    original = matching.match_decision

    def counting(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(matching, "match_decision", counting)
    records = match_all_paths(g, h, 2, TOL)
    assert len(calls) / len(records) <= 4.0
    # Without the floor each path pays a full bisection.
    calls.clear()
    paths = list(enumerate_paths(g, 2))
    for rec in records:
        map_match_distance(path_geometry(g, paths[rec.path_id]), h, TOL)
    assert len(calls) / len(records) > 8.0


@pytest.mark.parametrize(
    "kind, seed",
    [("small", seed) for seed in range(3)] + [("city3", seed) for seed in range(3)],
    ids=["0", "1", "2", "city3-0", "city3-1", "city3-2"],
)
def test_max_path_distance_is_the_maximum_of_the_records(kind, seed):
    # The early exit, by bound or by decision, and the bisection share each
    # curve's memo, and a serial maximum is one chunk; neither may move the
    # maximum off the float the records give, with or without floors, for
    # any worker count; nor may reading it off the remembered records.
    g, h = small_city_pair(seed) if kind == "small" else city_pair(seed, 3)
    for k in (1, 2, 3):
        floored = fresh(g)
        if k > 1:
            match_all_paths(floored, h, k - 1, TOL)
        top = max(r.distance for r in match_all_paths(g, h, k, TOL)).hex()
        sources = {"remembered": g, "no floor": fresh(g)} | ({"floor": floored} if k > 1 else {})
        for how, source in sources.items():
            for workers in (1, 2):
                with run_pool(workers):
                    d = max_path_distance(source, h, k, TOL)
                assert d.hex() == top, (k, how, workers)


@pytest.mark.parametrize(
    "kind, seed",
    [("small", seed) for seed in range(5)] + [(kind, seed) for kind in ("grid", "city3") for seed in range(3)],
)
def test_path_bounds_are_upper_bounds(kind, seed):
    # max_path_distance skips a path without a decision when its bound is
    # at most the running maximum minus tol, which keeps the maximum only if
    # no path's distance (the record map_match_distance gives) exceeds its
    # bound by more than tol.
    if kind == "small":
        g, h = small_city_pair(seed)
    elif kind == "grid":
        g, h = generate_perturbed(PerturbationSpec(p=0.5, seed_count=1, rng_seed=seed))[0], grid_graph()
    else:
        g, h = city_pair(seed, 3)
    g = fresh(g)
    bounds = []
    for k in (1, 2, 3):
        records = match_all_paths(g, h, k, TOL)
        for r, bound in zip(records, _path_bounds(g, h, canonical_walks(g, k))):
            bounds.append(bound)
            assert not r.distance > bound + TOL, (k, r.path_id, r.distance, bound)
    assert any(math.isfinite(b) for b in bounds)
    # The city targets miss streets, so some paths have no anchored walk.
    assert any(math.isinf(b) for b in bounds) == (kind != "grid")


# sha256 of each pass's paths, curves, lengths and bounds (see the test
# below), recorded before walks, curves and bounds read one dart table.
PINNED_SELF_LOOP = [
    (6, "a871e175d24421d27af8daaa49041b4d2c6d4cc8e7e72e193ced21e2665679bc"),
    (26, "8e05c3a1aa14587212ae22a57e51592c1afa428c5876b1d783c6f731401c72b7"),
    (68, "36203ea292d469e88b0977a4dd45999e5eaff518af60761e65e66162bde0415d"),
    (6, "67862384d5ce71f97f9dac6dfd790fea86c527067eb4ec54a1a41f6542fb7567"),
    (26, "3a0ec8866d9163252c40aae8464939f9d3679302246c15519f14ddf61b79e180"),
    (68, "232633a7578c599dda5a80720aadf6a5bc0f578f62f154cc82785aa516e92018"),
]


def test_a_self_loop_is_walked_forward_from_both_ends_and_bounded_both_ways():
    # A self-loop, which only a pickle carries, appears twice in its vertex's
    # adjacency; its curve runs forward whichever end a walk enters at, and as
    # a target edge both of its orientations bound a source edge.
    from test_fscore import _with_self_loop

    g = _with_self_loop(cross(), "c", (3.0, 4.0))
    h = _with_self_loop(cross(1.0, 0.5), "c", (3.0, -4.0))
    loop = VertexPath(("c", "c"), ("loop",))
    assert path_curves(g, as_walks(g, [loop]))[0].tobytes() == g.edges["loop"].geometry.points.tobytes()
    target = h.edges["loop"].geometry
    both = [discrete_frechet(g.edges["loop"].geometry, f) for f in (target, target.reversed())]
    assert _path_bounds(g, h, as_walks(g, [loop])) == [min(both)] and both[1] < both[0]
    got = []
    for source, target in ((g, h), (h, g)):
        for k in (1, 2, 3):
            paths = list(enumerate_paths(source, k))
            curves, lengths = path_curves(source, as_walks(source, paths), return_lengths=True)
            bounds = _path_bounds(source, target, as_walks(source, paths))
            text = repr(paths) + "".join(c.tobytes().hex() for c in curves) + " ".join(x.hex() for x in lengths + bounds)
            got.append((len(paths), hashlib.sha256(text.encode()).hexdigest()))
    assert got == PINNED_SELF_LOOP


def test_a_graph_remembers_only_the_values_it_computed(grid6):
    # A record holds its target, so a call that remembers nothing makes none;
    # a resumed value comes from a file and must floor no other path.
    g = generate_perturbed(PerturbationSpec(p=0.3, seed_count=1, rng_seed=3))[0]
    max_path_distance(g, grid6, 2, TOL)
    assert grid6 not in g._frozen_cache[("distances", TOL)]
    records = match_all_paths(g, grid6, 1, TOL, known={0: 123.0})
    assert records[0].distance == 123.0
    # One array per link-length, aligned with the rows; NaN is not computed.
    memo = _computed(g, grid6, TOL)
    assert list(memo) == [1] and len(memo[1]) == len(canonical_walks(g, 1))
    assert math.isnan(memo[1][0]) and memo[1][1:].tolist() == [r.distance for r in records[1:]]
    match_all_paths(g, grid6, 2, TOL)
    assert memo[1][0] == match_all_paths(fresh(g), grid6, 1, TOL)[0].distance
    assert not np.isnan(memo[2]).any()


def test_remembered_records_are_not_computed_again(monkeypatch):
    # A second call yields the values g remembers and computes only the
    # rows it lacks; known= still comes first.
    import pathdist.matching as matching
    import pathdist.pathdistance as pathdistance

    g, h = city_pair(0, 3)
    first = {k: match_all_paths(g, h, k, TOL) for k in (2, 1)}
    decisions, bisected = [], []
    decide, bisect = matching.match_decision, pathdistance.map_match_distance
    monkeypatch.setattr(matching, "match_decision", lambda *a, **kw: decisions.append(a[2]) or decide(*a, **kw))
    monkeypatch.setattr(pathdistance, "map_match_distance", lambda *a, **kw: bisected.append(a) or bisect(*a, **kw))
    for k in (1, 2):
        assert match_all_paths(g, h, k, TOL) == first[k]
        assert list(iter_match_records(g, h, k, TOL)) == first[k]
    resumed = match_all_paths(g, h, 2, TOL, known={0: 123.0})
    assert resumed[0].distance == 123.0 and resumed[1:] == first[2][1:]
    report, _, _ = path_distance_analysis(g, h, 2, TOL)
    assert report.records == first[2]
    assert decisions == [] and bisected == []
    # A graph that remembers some rows computes the others alone.
    partial = fresh(g)
    match_all_paths(partial, h, 1, TOL, known={0: 0.0, 3: 0.0})
    bisected.clear()
    assert match_all_paths(partial, h, 1, TOL) == first[1]
    assert len(bisected) == 2


def test_a_remembered_maximum_decides_nothing_and_builds_no_path(monkeypatch):
    # After the records, each Δk is the maximum of the remembered array.
    import pathdist.matching as matching

    g, h = small_city_pair(0)
    maxima = [max(r.distance for r in match_all_paths(g, h, k, TOL)) for k in (1, 2, 3)]
    calls = []
    monkeypatch.setattr(matching, "match_decision", lambda *args, **kwargs: calls.append(args))
    original = VertexPath.__post_init__
    monkeypatch.setattr(VertexPath, "__post_init__", lambda self: calls.append(self) or original(self))
    assert [max_path_distance(g, h, k, TOL) for k in (1, 2, 3)] == maxima
    assert calls == []


def test_records_signatures_strict_and_labels_build_no_path(monkeypatch):
    # Records point to their walk rows, and everything downstream reads the rows.
    g, h = small_city_pair(0)
    calls = []
    original = VertexPath.__post_init__
    monkeypatch.setattr(VertexPath, "__post_init__", lambda self: calls.append(self) or original(self))
    records = match_all_paths(g, h, 2, TOL)
    path_distance_analysis(fresh(g), h, 2, TOL)
    directed_path_distance(g, h, 2, TOL, strict=True)
    write_records_csv(records, io.StringIO())
    assert records and calls == []


@pytest.fixture
def root_steps(monkeypatch):
    """The radius of every root step; each sweep steps both interval families once, or its window does."""
    steps = []
    original = DiscQuadratic._roots

    def counting(self, radius):
        steps.append(radius)
        return original(self, radius)

    monkeypatch.setattr(DiscQuadratic, "_roots", counting)
    return steps


def test_delta3_early_exits_decide_at_the_running_maximum(root_steps):
    g, h = small_city_pair(0)
    for k in (1, 2):
        match_all_paths(g, h, k, TOL)
    root_steps.clear()
    d3 = max_path_distance(g, h, 3, TOL)
    assert d3.hex() == PINNED_DELTAS[2]
    # 179 root steps when a serial maximum restarted in four chunks; 146
    # when each early exit first probed at its own path's lower + tol/2;
    # 82 when every early exit decides at the one running maximum.
    assert len(root_steps) / 2 <= 82


@pytest.mark.parametrize("kind, seed", [("small", seed) for seed in range(5)] + [("city3", seed) for seed in range(3)])
def test_floors_never_cost_delta3_root_steps(kind, seed, root_steps):
    # A sub-path floor only answers decisions without a sweep: Δ3 with the
    # k=1 and k=2 values remembered steps no more often than Δ3 on a copy
    # that remembers nothing.  Early exits that probed at each path's own
    # scale kept windows from stepping at the shared eps and stepped more.
    g, h = small_city_pair(seed) if kind == "small" else city_pair(seed, 3)
    for k in (1, 2):
        match_all_paths(g, h, k, TOL)
    root_steps.clear()
    floored = max_path_distance(g, h, 3, TOL)
    floored_steps = len(root_steps)
    root_steps.clear()
    assert max_path_distance(fresh(g), h, 3, TOL) == floored
    assert floored_steps <= len(root_steps)


def _hex_digest(values) -> str:
    return hashlib.sha256(" ".join(float(v).hex() for v in values).encode()).hexdigest()


# float.hex digests of the k=1..3 records of small_city_pair(0), recorded
# before the curve preparation was split from the decision.
PINNED_RECORDS = {
    1: (12, "d20fa70dea0fc947684983cba85152bc29f0c426ff4bbe397dbdb53fef10c5c5"),
    2: (46, "5c0c78708221daef82c3204ebde67bff27c6c92d5b9705f8a99690075bb79254"),
    3: (96, "126601cd3bfd5c15c9c766d77660d7a5a2ea8ad07d08cc6102b144efdcde1adc"),
}
PINNED_DELTAS = ["0x1.8a67787783ee2p+6", "0x1.8e3557cf04e6cp+6", "0x1.930e6d9efb168p+6"]
# The witness of the worst k=3 path, recorded when the sweep began to take
# the deepest curve row first: the sweep's order picks which matched path it
# traces, so only this pin follows the order.
PINNED_WITNESS = [
    ("-0x1.c5ad1dcbcf020p+0", "0x1.8d0081bcf481fp+6"),
    ("0x1.9f598fa27eb88p+2", "0x1.0fa3be60009b6p+6"),
    ("-0x1.3f79e94cdab76p+1", "0x1.97fbc401310d2p+6"),
    ("-0x1.de77925a9ad7cp+2", "0x1.0c1a1858be709p+7"),
    ("0x1.6adaa76f5552fp+2", "0x1.4ba3f03f011a4p+7"),
    ("-0x1.f772c9aff1e10p-1", "0x1.8bcda894eae24p+7"),
    ("0x1.06f7d83770d73p+5", "0x1.7f30b8c8a42fdp+7"),
    ("0x1.097e3cd2c6c4bp+6", "0x1.84ddcb0e46b9ep+7"),
    ("0x1.8ecee293dca41p+6", "0x1.938e4ee376bd7p+7"),
    ("0x1.8ec290fd0886bp+6", "0x1.4ea274f9792a7p+7"),
    ("0x1.7c2d152199e99p+6", "0x1.0988377316d23p+7"),
    ("0x1.96e3ee97a19edp+6", "0x1.89beaf945f986p+6"),
]


# float.hex of max_path_distance(k=3) without sub-path floors on two perturbed
# 6x6 grids, recorded before curves were prepared a window at a time.
PINNED_STUDY = ["0x1.2e227b587ce6cp-1", "0x1.347c184af98e7p-1"]


def test_study_route_is_pinned_bit_for_bit():
    # The study takes each graph's k=3 maximum with no table of sub-path
    # values, so most paths settle by one early exit at the running maximum.
    h = grid_graph()
    graphs = generate_perturbed(PerturbationSpec(p=0.5, seed_count=2, rng_seed=7))
    for workers in (1, 2):
        with run_pool(workers):
            assert [max_path_distance(g, h, 3, TOL).hex() for g in graphs] == PINNED_STUDY


def test_study_early_exits_mostly_settle_by_their_bound(monkeypatch):
    # Without the path bounds the two study graphs made 845 and 848
    # decisions: most paths settled by one decision at the running maximum.
    import pathdist.matching as matching

    calls = []
    original = matching.match_decision

    def counting(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(matching, "match_decision", counting)
    h = grid_graph()
    graphs = generate_perturbed(PerturbationSpec(p=0.5, seed_count=2, rng_seed=7))
    for g, pinned in zip(graphs, PINNED_STUDY):
        calls.clear()
        assert max_path_distance(g, h, 3, TOL).hex() == pinned
        assert len(calls) <= 175


def test_pooled_chunks_stay_cheap(monkeypatch):
    # run_pool(2) cuts max_path_distance's items into 8 contiguous chunks,
    # and each starts at no maximum.  Visiting each chunk by bound made 537
    # decisions here; enumeration order made 818, and one sort over the
    # whole call before the cut 960, since it leaves every high bound to the
    # first chunk.
    import pathdist.matching as matching

    calls = []
    original = matching.match_decision

    def counting(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    g, h = city_pair(0, 3)
    serial = max_path_distance(fresh(g), h, 3, TOL)
    walks = canonical_walks(g, 3)
    floors = _floors(g, 3, np.arange(len(walks)), _computed(g, h, TOL))
    items = list(zip(path_curves(g, walks), floors, _path_bounds(g, h, walks)))
    monkeypatch.setattr(matching, "match_decision", counting)
    pooled = max(_chunk_max(h, TOL, chunk) for chunk in split_chunks(items, -(-len(items) // 8)))
    assert pooled.hex() == serial.hex()
    assert len(calls) <= 600


def test_records_census_and_witness_are_pinned_bit_for_bit():
    # Speed-ups of matching must leave every float as it was.
    g, h = small_city_pair(0)
    floored = fresh(g)
    tables = {}
    for k in (1, 2, 3):
        records = match_all_paths(g, h, k, TOL)
        assert (len(records), _hex_digest(r.distance for r in records)) == PINNED_RECORDS[k], k
        paths = list(enumerate_paths(g, k))
        tables[k] = {paths[r.path_id]: r.distance for r in records}
        if k < 3:
            match_all_paths(floored, h, k, TOL)
    # Without floors, with Δ1 and Δ2 remembered and Δ3 under the k=2 floor,
    # and with every Δk remembered.
    for source in (fresh(g), floored, g):
        assert [r.d.hex() for r in separation_census(source, h, TOL)] == PINNED_DELTAS
    worst = max(tables[3], key=tables[3].get)
    curve = path_geometry(g, worst)
    ok, witness = match_decision(curve, h, tables[3][worst] + TOL, return_witness=True)
    assert ok
    assert [(x.hex(), y.hex()) for x, y in witness.points.tolist()] == PINNED_WITNESS
    # The pinned witness is a matched path: on the graph and Fréchet-close.
    for pt in witness.points:
        assert distance_to_graph(h, pt) <= 1e-9
    assert frechet_distance(curve, witness, TOL) <= tables[3][worst] + 2 * TOL


def test_strict_k2_takes_delta3_under_the_k2_table(monkeypatch):
    import pathdist.matching as matching
    import pathdist.pathdistance as pathdistance

    h = grid_graph(10.0, 2.0)
    g = generate_perturbed(PerturbationSpec(p=0.3, seed_count=1, rng_seed=11))[0]
    calls = []
    deltas = []
    original_decision = matching.match_decision
    original_max = pathdistance.max_path_distance

    def counting(*args, **kwargs):
        calls.append(args[2])
        return original_decision(*args, **kwargs)

    def recording(*args, **kwargs):
        deltas.append(original_max(*args, **kwargs))
        return deltas[-1]

    monkeypatch.setattr(matching, "match_decision", counting)
    monkeypatch.setattr(pathdistance, "max_path_distance", recording)
    report = directed_path_distance(g, h, 2, TOL, strict=True)
    strict_calls = len(calls)
    calls.clear()
    records = match_all_paths(fresh(g), h, 2, TOL)
    d3 = original_max(fresh(g), h, 3, TOL)
    # Delta3 and the report are the floats a Delta3 without floors gives.
    assert [d.hex() for d in deltas] == [d3.hex()] == ["0x1.8c5f99371950bp-2"]
    summary = {k: v.hex() if isinstance(v, float) else v for k, v in report.summary().items()}
    assert summary == {
        "k": 2,
        "direction": "G->H",
        "max": "0x1.8c0fed24ba8c6p-2",
        "p90_weighted": "0x1.21db33d87a03ap-2",
        "mean_weighted": "0x1.d6ee9c1dbbd14p-3",
        "path_count": 172,
        "strict": True,
        "strict_bound": None,
    }
    assert set(report.records) <= set(records)
    # ... with fewer decisions than the k=2 records plus an unfloored Delta3:
    # the k=2 floors answer the early exits they prove to fail, and narrow
    # each bisection, while every other early exit decides at the running
    # maximum as it would without them.
    assert strict_calls < len(calls)


def test_perturbed_grid_respects_displacement_bound(grid6):
    p = 0.5
    spec = PerturbationSpec(p=p, seed_count=2, rng_seed=3)
    for gp in generate_perturbed(spec):
        d = max_path_distance(gp, grid6, 3, TOL)
        assert d <= math.sqrt(2) * p + 2 * TOL


def test_edge_signature_bounded_by_endpoint_vertex_signatures(grid6):
    spec = PerturbationSpec(p=0.6, seed_count=1, rng_seed=11)
    gp = generate_perturbed(spec)[0]
    _, edge_sig, vertex_sig = path_distance_analysis(gp, grid6, 2, TOL)
    for eid, value in edge_sig.values.items():
        e = gp.edges[eid]
        assert value <= min(vertex_sig.values[e.u], vertex_sig.values[e.v]) + 2 * TOL


def test_signatures_aggregate_the_same_records(grid6):
    spec = PerturbationSpec(p=0.4, seed_count=1, rng_seed=2)
    gp = generate_perturbed(spec)[0]
    report, edge_sig, vertex_sig = path_distance_analysis(gp, grid6, 2, TOL)
    assert report.max_distance == max(edge_sig.values.values())
    assert report.max_distance == max(vertex_sig.values.values())
    paths = list(enumerate_paths(gp, 2))
    for rec in report.records:
        for eid in paths[rec.path_id].edge_ids:
            assert edge_sig.values[eid] >= rec.distance


def signatures_by_loop(g, records, k):
    """Both signature maps, one record at a time: each edge's and vertex's largest distance, in first-path order."""
    paths = list(enumerate_paths(g, k))
    edges, vertices = {}, {}
    for rec in records:
        p = paths[rec.path_id]
        for out, keys in ((edges, p.edge_ids), (vertices, p.vertex_ids)):
            for key in keys:
                if key not in out or rec.distance > out[key]:
                    out[key] = rec.distance
    return edges, vertices


@pytest.mark.parametrize("case", ["city", "self-loop", "isolated"])
def test_signatures_equal_the_per_record_loop(case):
    from test_fscore import _with_self_loop

    if case == "city":
        g, h = small_city_pair(2)
    elif case == "self-loop":
        g, h = _with_self_loop(cross(), "c", (3.0, 4.0)), _with_self_loop(cross(1.0, 0.5), "c", (3.0, -4.0))
    else:
        # A vertex on no path gets no entry.
        mixed = mixed_id_graph()
        edges = [(eid, (e.u, e.v, e.geometry)) for eid, e in mixed.edges.items()]
        g, h = EmbeddedGraph([*mixed.vertices.items(), ("lone", (50.0, 50.0))], edges), cross(5.0, 5.0)
    for k in (1, 2, 3):
        report, edge_sig, vertex_sig = path_distance_analysis(g, h, k, TOL)
        edges, vertices = signatures_by_loop(g, report.records, k)
        assert [(e, d.hex()) for e, d in edge_sig.values.items()] == [(e, d.hex()) for e, d in edges.items()], k
        assert [(v, d.hex()) for v, d in vertex_sig.values.items()] == [(v, d.hex()) for v, d in vertices.items()], k
    assert case != "isolated" or "lone" not in vertex_sig.values


def test_missing_edge_signature_matches_direct_match():
    # Five-street fixture: remove one street from the target and the
    # missing street's own distance is exactly its match into the rest.
    g = EmbeddedGraph(
        [(0, (0, 0)), (1, (10, 0)), (2, (20, 0)), (3, (10, 8)), (4, (10, -8))],
        [("a", (0, 1)), ("b", (1, 2)), ("c", (1, 3)), ("d", (1, 4)), ("e", (0, 3))],
    )
    h = EmbeddedGraph(
        [(0, (0, 0)), (1, (10, 0)), (2, (20, 0)), (3, (10, 8)), (4, (10, -8))],
        [("a", (0, 1)), ("b", (1, 2)), ("c", (1, 3)), ("d", (1, 4))],
    )
    _, edge_sig, _ = path_distance_analysis(g, h, 1, TOL)
    direct = map_match_distance(path_geometry(g, next(iter_paths(g, "e"))), h, TOL)
    assert edge_sig.values["e"] == pytest.approx(direct, abs=2 * TOL)
    assert edge_sig.values["e"] > 1.0  # the street really is missing


def iter_paths(g, eid):
    from pathdist.paths import enumerate_paths

    return (p for p in enumerate_paths(g, 1) if eid in p.edge_ids)


def test_report_summary_shape(grid6):
    report = directed_path_distance(grid6, grid6, 1, TOL)
    s = report.summary()
    assert set(s) == {"k", "direction", "max", "p90_weighted", "mean_weighted", "path_count"}
    assert s["path_count"] == 60
    recomputed = sum(r.length * r.distance for r in report.records) / sum(
        r.length for r in report.records
    )
    assert report.weighted_mean == pytest.approx(recomputed, rel=1e-9)
    assert report.max_distance >= report.percentile(0.9) >= 0.0


def test_iter_records_streams_in_order_and_reuses_known(grid6):
    records = list(iter_match_records(grid6, grid6, 1, TOL))
    assert [r.path_id for r in records] == list(range(60))
    # Stored distances are trusted verbatim, so resumed runs never recompute.
    known = {0: 123.0, 7: 456.0}
    resumed = list(iter_match_records(grid6, grid6, 1, TOL, known=known))
    assert resumed[0].distance == 123.0
    assert resumed[7].distance == 456.0
    assert resumed[1].distance == records[1].distance


def test_match_distance_bounded_by_whole_path_frechet(grid6):
    # Matching against a graph can only beat matching against any one of
    # its realized paths end to end.
    from pathdist.frechet import frechet_distance
    from pathdist.paths import enumerate_paths

    rng = np.random.default_rng(21)
    paths = list(enumerate_paths(grid6, 3))
    for _ in range(5):
        curve = np.asarray(rng.uniform(0, 10, (4, 2)))
        from pathdist.geometry import PolyLine

        d = map_match_distance(PolyLine(curve), grid6, TOL)
        p = paths[int(rng.integers(0, len(paths)))]
        full = frechet_distance(PolyLine(curve), path_geometry(grid6, p), TOL)
        assert d <= full + 2 * TOL


def test_records_csv_round_trip(tmp_path, grid6):
    report = directed_path_distance(grid6, grid6, 1, TOL)
    path = tmp_path / "records.csv"
    with open(path, "w", newline="") as fh:
        write_records_csv(report.records, fh)
    with open(path) as fh:
        distances = read_records_csv(fh)
    assert distances == {r.path_id: r.distance for r in report.records}


def split_label(label: str) -> list[str]:
    ids, current, chars = [], "", iter(label)
    for c in chars:
        if c == "\\":
            current += next(chars)
        elif c == "-":
            ids.append(current)
            current = ""
        else:
            current += c
    return ids + [current]


def odd_id_graph():
    """Vertex ids holding ``-`` or ``\\``, an int among them, and ids a plain join keeps."""
    ids = ["a-b", "c", "a", "b-c", "x\\", "-", "\\-", 3, 0, 12, "v3_4", "v3_5"]
    verts = [(v, (10.0 * (i % 4), 10.0 * (i // 4))) for i, v in enumerate(ids)]
    ends = [("a-b", "c"), ("a", "b-c"), ("c", "a"), ("x\\", "-"), ("-", "\\-"), ("\\-", 3), (0, 12), ("v3_4", "v3_5")]
    return EmbeddedGraph(verts, [(i, uv) for i, uv in enumerate(ends)])


@pytest.mark.parametrize("name", ["mixed", "odd"])
def test_record_labels_split_back_into_their_ids(name):
    g = mixed_id_graph() if name == "mixed" else odd_id_graph()
    for k in (1, 2, 3):
        paths = list(enumerate_paths(g, k))
        records = match_all_paths(g, g, k, TOL)
        fh = io.StringIO()
        assert write_records_csv(records, fh) == records
        rows = list(csv.reader(io.StringIO(fh.getvalue())))[1:]
        assert [int(row[0]) for row in rows] == [r.path_id for r in records]
        labels = {paths[r.path_id].vertex_ids: row[1] for r, row in zip(records, rows)}
        for ids, label in labels.items():
            assert split_label(label) == [str(v) for v in ids], k
        if name == "odd" and k == 1:
            assert labels["a-b", "c"] != labels["a", "b-c"]
            # Ids without "-" or "\\" keep their text.
            assert labels[0, 12] == "0-12"
            assert labels["v3_4", "v3_5"] == "v3_4-v3_5"


CUT_DISTANCES = (3.7517922473742, 1.5, 2.7517922473742)


def _written_report(grid6) -> str:
    records = directed_path_distance(grid6, grid6, 1, TOL).records[:3]
    fh = io.StringIO()
    write_records_csv([replace(r, distance=d) for r, d in zip(records, CUT_DISTANCES)], fh)
    return fh.getvalue()


def test_read_records_drops_row_cut_before_last_field(grid6):
    text = _written_report(grid6)
    cut = text[: text.rindex(",")]  # the last row lost its distance field
    assert read_records_csv(io.StringIO(cut)) == {0: CUT_DISTANCES[0], 1: CUT_DISTANCES[1]}


def test_read_records_drops_row_cut_inside_last_float(grid6):
    text = _written_report(grid6)
    assert text.endswith(",2.7517922473742\n")
    cut = text[: -len("2473742\n")]  # the last distance reads 2.75179224
    assert read_records_csv(io.StringIO(cut)) == {0: CUT_DISTANCES[0], 1: CUT_DISTANCES[1]}
    assert len(read_records_csv(io.StringIO(text))) == 3
    assert read_records_csv(io.StringIO("path_id,vertex_seq")) == {}


def test_read_records_without_a_header_keeps_the_first_row():
    assert read_records_csv(io.StringIO("0,a-b,1.0,2.0\n1,b-c,1.0,3.0\n")) == {0: 2.0, 1: 3.0}
    # A first row that is neither the header nor a report row is an error, not a header.
    with pytest.raises(ParseError, match="^line 1: bad report row"):
        read_records_csv(io.StringIO("id,vertex_sequence,path_length_m,match_distance_m\n1,b-c,1.0,3.0\n"))


def test_intersection_radius_perpendicular_cross():
    g = cross()
    r = intersection_radius(g, "c", 1.0)
    assert r == pytest.approx(math.sqrt(2.0), abs=1e-9)


def test_intersection_radius_short_edges_infinite():
    g = cross(length=1.2)
    # Required radius sqrt(2) exceeds the edge length 1.2.
    assert intersection_radius(g, "c", 1.0) == math.inf


def test_intersection_radius_degenerate_vertices():
    g = EmbeddedGraph([(0, (0, 0)), (1, (5, 0)), (2, (9, 9))], [(0, (0, 1))])
    assert intersection_radius(g, 2, 1.0) == math.inf  # isolated
    assert intersection_radius(g, 0, 1.0) == 0.0  # single incident edge
    parallel = EmbeddedGraph(
        [(0, (0, 0)), (1, (10, 0))],
        [(0, (0, 1)), (1, (0, 1))],  # two identical straight edges
    )
    assert intersection_radius(parallel, 0, 0.5) == math.inf


@pytest.mark.parametrize("d", [math.nan, -math.inf, -1e-9])
def test_intersection_radius_rejects_nan_and_negative_d(grid6, d):
    # NaN must not read as "not separated" (inf).
    for v in grid6.vertices:
        with pytest.raises(InputError, match="d must be"):
            intersection_radius(grid6, v, d)


def test_intersection_radius_polyline_matches_dense_scan():
    # Bent (polyline) edges force the numeric scan; a 10x-resolution
    # independent march should land within scan resolution.
    g = EmbeddedGraph(
        [("c", (0, 0)), ("a", (10, 4)), ("b", (-4, 10)), ("d", (-6, -8))],
        [
            (0, ("c", "a", [(0, 0), (4, 0), (10, 4)])),
            (1, ("c", "b", [(0, 0), (0, 5), (-4, 10)])),
            (2, ("c", "d", [(0, 0), (-3, -2), (-6, -8)])),
        ],
    )
    d = 0.8
    ours = intersection_radius(g, "c", d)
    ref = dense_radius_scan(g, "c", d, resolution=2560)
    assert math.isfinite(ours) and math.isfinite(ref)
    step = (ref + 1) / 256  # scan grid resolution upper bound
    assert ours == pytest.approx(ref, abs=step)


def bent_graph(seed: int, shift=(0.0, 0.0)) -> EmbeddedGraph:
    """A random geometric graph whose edges bend at one to three points."""
    rng = np.random.default_rng(seed)
    return with_bends(random_geometric_graph(rng, 8, 4, 40.0), rng, shift)


def _reach(g, v) -> float:
    center = np.asarray(g.vertices[v], float)
    return min(
        float(np.hypot(*(g.edges[e].geometry.points - center).T).max())
        for e in g.adjacency[v]
    )


@pytest.mark.parametrize("seed", [0, 1])
def test_intersection_radius_bent_edges_match_dense_scan(seed):
    g = bent_graph(seed)
    d = 0.5
    finite = 0
    for v in g.vertices:
        ours = intersection_radius(g, v, d)
        ref = dense_radius_scan(g, v, d)
        assert math.isfinite(ours) == math.isfinite(ref)
        if math.isfinite(ref) and g.degree(v) > 1:
            finite += 1
            # The oracle's crossings lie up to one fine arc step past the
            # circle, so agreement is to one coarse scan step.
            assert ours == pytest.approx(ref, abs=(_reach(g, v) - d) / (_RADIUS_STEPS - 1))
    assert finite >= 2


def test_intersection_radius_collinear_split_matches_closed_form():
    # A midpoint on each straight edge makes the edges polylines, which
    # takes the zooming scan instead of d / sin(theta/2).
    rng = np.random.default_rng(2718)
    finite = 0
    for _ in range(40):
        degree = int(rng.integers(2, 6))
        angles = rng.uniform(0, 2 * math.pi, degree)
        lengths = rng.uniform(2.0, 12.0, degree)
        c = rng.uniform(-5, 5, 2)
        ends = c + lengths[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])
        verts = [("c", tuple(c))] + [(i, tuple(p)) for i, p in enumerate(ends)]
        straight = EmbeddedGraph(verts, [(i, ("c", i)) for i in range(degree)])
        mids = c + rng.uniform(0.2, 0.8, (degree, 1)) * (ends - c)
        split = EmbeddedGraph(verts, [(i, ("c", i, [c, mids[i], ends[i]])) for i in range(degree)])
        d = float(rng.uniform(0.2, 3.0))
        want = intersection_radius(straight, "c", d)
        got = intersection_radius(split, "c", d)
        assert math.isfinite(got) == math.isfinite(want)
        if math.isfinite(want):
            finite += 1
            assert got == pytest.approx(want, abs=1e-9)
    assert finite >= 10


def test_intersection_radius_survives_utm_offset():
    for seed in (0, 1):
        g = bent_graph(seed)
        moved = bent_graph(seed, shift=np.array([5e5, 4.5e6]))
        for d in (0.5, 2.0):
            for v in g.vertices:
                r = intersection_radius(g, v, d)
                r_moved = intersection_radius(moved, v, d)
                assert math.isfinite(r) == math.isfinite(r_moved)
                if math.isfinite(r):
                    assert abs(r - r_moved) < 1e-6


UTM = np.array([5e5, 4.5e6])

# float.hex digests of every intersection_radius of both maps of
# small_city_pair(seed), as is and moved by a UTM-size offset, at Δ1..Δ3 of
# the unmoved pair halved 0..5 times (every radius at Δk itself is inf on
# these 100 m blocks); recorded before the crossings shared DiscQuadratic.
PINNED_RADII = {
    (0, False): "105a7e69e83888758afac63f3f98467de2eb14f3c280b09907c67bb0f2410c4c",
    (0, True): "a041a59187000beca71c5c1880ce567165052864ef77613da1ea8872d7aaf1e4",
    (1, False): "e15eefb38f9012de3b27ce53632b30c069c0839bc99ac14f076f1d98cb286540",
    (1, True): "10012627519464aee871e4d36016a298b017bdede0ba92de4968773f32f90b17",
}


@pytest.mark.parametrize("seed", [0, 1])
def test_intersection_radii_are_pinned_bit_for_bit(seed):
    g, h = small_city_pair(seed)
    deltas = [r.d for r in separation_census(g, h, TOL)]
    for moved in (False, True):
        pair = (shifted(g, UTM), shifted(h, UTM)) if moved else (g, h)
        radii = [
            intersection_radius(x, v, d / 2**j) for x in pair for d in deltas for j in range(6) for v in x.vertices
        ]
        assert sum(map(math.isfinite, radii)) == 270
        assert _hex_digest(radii) == PINNED_RADII[seed, moved], moved


def shifted(g: EmbeddedGraph, shift: np.ndarray) -> EmbeddedGraph:
    return EmbeddedGraph(
        [(v, (p.x + shift[0], p.y + shift[1])) for v, p in g.vertices.items()],
        [(eid, (e.u, e.v, e.geometry.points + shift)) for eid, e in g.edges.items()],
    )


@pytest.mark.parametrize("pair", [0, 1, 2, "city"])
def test_reports_survive_utm_offset(pair):
    g, h = monotonicity_pair(pair)
    shift = np.array([5e5, 4.5e6])
    g_moved, h_moved = shifted(g, shift), shifted(h, shift)
    for k in (1, 2, 3) if pair == 0 else (1, 2):
        report, edge_sig, _ = path_distance_analysis(g, h, k, TOL)
        moved, edge_sig_moved, _ = path_distance_analysis(g_moved, h_moved, k, TOL)
        assert list(enumerate_paths(g_moved, k)) == list(enumerate_paths(g, k))
        assert [r.path_id for r in moved.records] == [r.path_id for r in report.records]
        for r, r_moved in zip(report.records, moved.records):
            assert abs(r_moved.distance - r.distance) < TOL
        assert list(edge_sig_moved.values) == list(edge_sig.values)
        for eid, value in edge_sig.values.items():
            assert abs(edge_sig_moved.values[eid] - value) < TOL
    counts = [r.separated_count for r in separation_census(g, h, TOL)]
    moved_counts = [r.separated_count for r in separation_census(g_moved, h_moved, TOL)]
    assert moved_counts == counts


def rotated(g: EmbeddedGraph, angle: float, offset: np.ndarray) -> EmbeddedGraph:
    """``g`` turned by ``angle`` about the origin, then moved by ``offset``.

    Elementwise, so a vertex and the edge ends on it land on the same floats.
    """
    c, s = math.cos(angle), math.sin(angle)

    def move(points: np.ndarray) -> np.ndarray:
        x, y = points[..., 0], points[..., 1]
        return np.stack([c * x - s * y + offset[0], s * x + c * y + offset[1]], axis=-1)

    return EmbeddedGraph(
        [(v, tuple(move(np.array([p.x, p.y])).tolist())) for v, p in g.vertices.items()],
        [(eid, (e.u, e.v, move(e.geometry.points))) for eid, e in g.edges.items()],
    )


# Each bisection returns a midpoint within tol/2 of its own threshold, so two
# runs on the same geometry differ by at most TOL.  A rotation and a move to
# UTM-size coordinates change the geometry only by rounding: about 1e-9 m per
# coordinate near 6e6, and a Fréchet threshold moves by no more than twice
# the largest point moved.  ROUNDING_SLACK covers that with a wide margin.
ROUNDING_SLACK = 1e-6
# A radius at a fixed scale moves only with the rounded crossing points.
RADIUS_REL = 1e-6


@functools.cache
def unrotated_run(seed: int):
    g, h = small_city_pair(seed)
    records = {k: match_all_paths(g, h, k, TOL) for k in (1, 2)}
    deltas = [r.d for r in separation_census(g, h, TOL)]
    scales = [d / 2**j for d in deltas for j in range(4)]
    radii = [[intersection_radius(g, v, d) for v in g.vertices] for d in scales]
    return records, deltas, scales, radii


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 4), st.floats(0.0, 2.0 * math.pi, exclude_max=True))
def test_distances_and_radii_survive_rotation_at_utm_size(seed, angle):
    records, deltas, scales, radii = unrotated_run(seed)
    g, h = (rotated(x, angle, np.array([5e5, 5.8e6])) for x in small_city_pair(seed))
    for k in (1, 2):
        assert list(enumerate_paths(g, k)) == list(enumerate_paths(small_city_pair(seed)[0], k))
        moved = match_all_paths(g, h, k, TOL)
        assert [r.path_id for r in moved] == [r.path_id for r in records[k]]
        for r, r_moved in zip(records[k], moved):
            assert abs(r_moved.distance - r.distance) <= TOL + ROUNDING_SLACK, (k, r.path_id)
    census = separation_census(g, h, TOL)
    for d, report in zip(deltas, census):
        assert abs(report.d - d) <= TOL + ROUNDING_SLACK, report.k
    # Radii at the unrotated scales, so that only the rotation moves them.
    for d, expected in zip(scales, radii):
        got = [intersection_radius(g, v, d) for v in g.vertices]
        assert [math.isfinite(r) for r in got] == [math.isfinite(r) for r in expected], d
        for r, r_expected in zip(got, expected):
            if math.isfinite(r):
                assert abs(r - r_expected) <= RADIUS_REL * r_expected, d


def test_separation_census_identity(grid6):
    reports = separation_census(grid6, grid6, TOL)
    assert [r.k for r in reports] == [1, 2, 3]
    for rep in reports:
        assert rep.d <= TOL
        # Every grid vertex has distinct-angle incident edges, so all are
        # separated at the (tiny) identity distance.
        assert rep.separated_count == 36


def test_separation_zero_when_edges_too_short():
    g = cross(length=1.0)
    assert intersection_radius(g, "c", 2.0) == math.inf


def test_crossing_paths_witnesses_intersect():
    # A well-separated degree-4 crossing: matched counterparts of the two
    # transverse link-2 paths through it must cross geometrically.
    g = cross()
    h = cross(dx=0.35, dy=0.2)
    from pathdist.paths import VertexPath

    p_horizontal = path_geometry(g, VertexPath(("w", "c", "e"), (2, 0)))
    p_vertical = path_geometry(g, VertexPath(("s", "c", "n"), (3, 1)))
    d_sep = 1.0
    assert math.isfinite(intersection_radius(g, "c", d_sep))
    eps = max(
        map_match_distance(p_horizontal, h, TOL),
        map_match_distance(p_vertical, h, TOL),
    ) + TOL
    assert eps < d_sep
    ok1, w1 = match_decision(p_horizontal, h, eps, return_witness=True)
    ok2, w2 = match_decision(p_vertical, h, eps, return_witness=True)
    assert ok1 and ok2
    assert polylines_meet(w1, w2)


def plus_and_overpass():
    """A plus sign of 100 m arms meeting at vertex ``c``, and its two streets crossing with no vertex."""
    g = EmbeddedGraph(
        [("c", (0.0, 0.0)), ("w", (-100.0, 0.0)), ("e", (100.0, 0.0)), ("s", (0.0, -100.0)), ("n", (0.0, 100.0))],
        [("cw", ("c", "w")), ("ce", ("c", "e")), ("cs", ("c", "s")), ("cn", ("c", "n"))],
    )
    h = EmbeddedGraph(
        [("w", (-100.0, 0.0)), ("e", (100.0, 0.0)), ("s", (0.0, -100.0)), ("n", (0.0, 100.0))],
        [("we", ("w", "e")), ("sn", ("s", "n"))],
    )
    return g, h


def test_only_paths_through_a_vertex_find_a_missing_intersection():
    # The paper's motivating case.  Each arm alone matches a street, so k=1
    # sees no difference; a k=2 path that turns at c cannot turn in h,
    # whose streets cross without a vertex, and runs to a street's end.
    g, h = plus_and_overpass()
    assert max_path_distance(g, h, 1, TOL) == 0.0
    deltas = [max_path_distance(g, h, k, TOL) for k in (2, 3)]
    assert all(abs(d - 100.0) <= TOL for d in deltas), deltas
    # Directional: each street of h runs straight through c in g.
    assert [max_path_distance(h, g, k, TOL) for k in (1, 2, 3)] == [0.0, 0.0, 0.0]
    for k, top in ((1, 0.0), (2, deltas[0])):
        _, edge_sig, vertex_sig = path_distance_analysis(g, h, k, TOL)
        # Every arm and every vertex lies on a turning path, keyed in first-path order.
        paths = list(enumerate_paths(g, k))
        assert list(edge_sig.values) == list(dict.fromkeys(e for p in paths for e in p.edge_ids))
        assert list(vertex_sig.values) == list(dict.fromkeys(v for p in paths for v in p.vertex_ids))
        assert edge_sig.values == {eid: top for eid in ("cw", "ce", "cs", "cn")}, k
        assert vertex_sig.values == {v: top for v in ("c", "w", "e", "s", "n")}, k


def test_strict_mode_filters_and_reports_bound():
    g = cross()
    h = cross(dx=0.05, dy=0.05)
    report = directed_path_distance(g, h, 2, TOL, strict=True)
    assert report.strict
    # All interior vertices on the cross have degree 4 or are endpoints;
    # paths through the center survive the filter.
    assert report.records
    paths = list(enumerate_paths(g, 2))
    for rec in report.records:
        for v in paths[rec.path_id].vertex_ids[1:-1]:
            assert g.degree(v) != 3
    s = report.summary()
    assert "strict_bound" in s


def strict_records_by_loop(g, h, k):
    """The strict records, one path at a time: each interior vertex has a finite radius at Δ3 and degree != 3."""
    d3 = max_path_distance(fresh(g), h, 3, TOL)
    paths = list(enumerate_paths(g, k))
    return [
        r
        for r in match_all_paths(fresh(g), h, k, TOL)
        if all(
            math.isfinite(intersection_radius(g, v, d3)) and g.degree(v) != 3
            for v in paths[r.path_id].vertex_ids[1:-1]
        )
    ]


@pytest.mark.parametrize("pair", ["grid", "city"])
def test_strict_keeps_the_records_the_per_path_loop_keeps(pair):
    if pair == "grid":
        g = grid_graph(4.0, 2.0)
        h = generate_perturbed(PerturbationSpec(p=0.2, seed_count=1, rng_seed=4, extent=4.0, spacing=2.0))[0]
    else:
        g, h = city_pair(1, 3)
    kept = []
    for k in (1, 2, 3) if pair == "grid" else (1, 2):
        every = match_all_paths(fresh(g), h, k, TOL)
        expected = strict_records_by_loop(g, h, k)
        assert directed_path_distance(fresh(g), h, k, TOL, strict=True).records == expected, k
        kept.append((len(expected), len(every)))
    # No link-1 path has an interior vertex; the filter keeps some link-2 paths, not all.
    assert kept[0][0] == kept[0][1] and 1 < kept[1][0] < kept[1][1], kept


def plus_lattice(rng, jitter: float, n: int = 3, spacing: float = 100.0) -> EmbeddedGraph:
    """An n x n lattice of degree-4 crossings whose boundary streets end in degree-1 stubs.

    Every vertex moves by uniform offsets in [-jitter, jitter] per coordinate.
    """
    inside = range(n)
    # Crossings have both indices inside, stubs one.
    cells = [(i, j) for i in range(-1, n + 1) for j in range(-1, n + 1) if i in inside or j in inside]
    moved = rng.uniform(-jitter, jitter, size=(len(cells), 2))
    vertices = [(f"{i},{j}", (i * spacing + dx, j * spacing + dy)) for (i, j), (dx, dy) in zip(cells, moved)]
    edges = []
    for i, j in cells:
        for a, b in ((i + 1, j), (i, j + 1)):
            # A street joins neighbours of which at least one is a crossing.
            if (a, b) in cells and (i in inside and j in inside or a in inside and b in inside):
                edges.append((len(edges), (f"{i},{j}", f"{a},{b}")))
    return EmbeddedGraph(vertices, edges)


def assert_strict_bound_bounds_link_4_paths(seed, jitter_g, jitter_h):
    """The --strict bound 2r + Δ3 is defined on two plus lattices and bounds their k=4 distance.

    Every vertex is a degree-4 crossing or a stub, and streets are long
    against the jitter, so every vertex qualifies; the paper's guarantee
    says the bound then holds for longer paths too.
    """
    rng = np.random.default_rng(seed)
    g, h = plus_lattice(rng, jitter_g), plus_lattice(rng, jitter_h)
    assert sorted({g.degree(v) for v in g.vertices}) == [1, 4]
    bound = directed_path_distance(g, h, 1, TOL, strict=True).strict_bound
    assert bound is not None
    with pytest.warns(UserWarning, match="link-length 4"):
        d4 = max_path_distance(g, h, 4, TOL)
    assert d4 <= bound, (d4, bound)
    return d4, bound


@pytest.mark.parametrize("seed", range(8))
def test_strict_bound_bounds_link_4_paths_on_a_plus_lattice(seed):
    d4, bound = assert_strict_bound_bounds_link_4_paths(seed, 6.0, 6.0)
    assert 0.0 < d4 < bound


@settings(max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    jitter_g=st.floats(0.0, 6.0),
    jitter_h=st.floats(0.0, 6.0),
)
def test_strict_bound_bounds_link_4_paths_on_jittered_plus_lattices(seed, jitter_g, jitter_h):
    assert_strict_bound_bounds_link_4_paths(seed, jitter_g, jitter_h)


def test_undirected_is_max_of_directions(grid6):
    from pathdist.pathdistance import undirected_path_distance

    spec = PerturbationSpec(p=0.5, seed_count=1, rng_seed=8)
    gp = generate_perturbed(spec)[0]
    gh = max_path_distance(gp, grid6, 1, TOL)
    hg = max_path_distance(grid6, gp, 1, TOL)
    assert undirected_path_distance(gp, grid6, 1, TOL) == max(gh, hg)


@pytest.mark.parametrize("tol", [math.nan, -1.0])
def test_tolerance_is_checked_where_the_source_has_no_path(tol, grid6):
    g = EmbeddedGraph([(0, (0.0, 0.0)), (1, (5.0, 0.0))], [])
    for call in (
        lambda: max_path_distance(g, grid6, 1, tol),
        lambda: separation_census(g, grid6, tol),
        lambda: match_all_paths(g, grid6, 1, tol),
    ):
        with pytest.raises(InputError, match="tol"):
            call()


def test_empty_target_graph_raises(grid6):
    with pytest.raises(StructuralError):
        directed_path_distance(grid6, EmbeddedGraph([], []), 1, TOL)
