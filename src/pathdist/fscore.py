"""Marbles-and-holes F-score between two graphs (sampling baseline).

Around each seed location, walks explore every branch of the graph up to a
maximum network distance, dropping sample points at a regular interval.
Each edge a walk reaches is sampled in one pass: every sample arc on it
goes to a single :meth:`PolyLine.point_at` call.
Samples of one graph (marbles) are matched one-to-one to samples of the
other (holes) when closer than a matched-distance threshold; precision,
recall, and their harmonic mean summarize the tallies.  This is the
standard sampling-based comparison, useful as a contrast to the path-based
signature.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import InputError, StructuralError
from .geometry import PolyLine, project_onto_segments
from .graph import EdgeId, EmbeddedGraph, VertexId
from .parallel import run_chunked
from .signatures import SignatureMap
from .spatial import SpatialGrid

__all__ = [
    "FScoreParams",
    "SampleSet",
    "FScoreResult",
    "sample_neighborhood",
    "sample_neighborhood_at",
    "bottleneck_match",
    "f_score",
    "fscore_analysis",
]


@dataclass(frozen=True)
class FScoreParams:
    sampling_interval: float = 5.0
    matched_distance: float = 20.0
    max_path_length: float = 300.0

    def __post_init__(self):
        # Written so that NaN fails every test.
        if not (
            0.0 < self.sampling_interval < math.inf
            and 0.0 < self.matched_distance < math.inf
            and 0.0 <= self.max_path_length < math.inf
        ):
            raise InputError(
                "F-score parameters must be finite; the interval and match distance positive, "
                "the max path length non-negative"
            )


@dataclass
class SampleSet:
    """Sample points taken along all walks within range of a seed location."""

    seed: tuple[float, float]
    points: np.ndarray  # (n, 2)

    def __len__(self) -> int:
        return int(self.points.shape[0])


class _Dedup:
    """Hash-grid rejecting points within ``radius`` of an accepted one."""

    def __init__(self, radius: float):
        self.radius = radius
        self.cells: dict[tuple[int, int], list[tuple[float, float]]] = {}

    def add(self, x: float, y: float) -> bool:
        r = self.radius
        cx, cy = int(math.floor(x / r)), int(math.floor(y / r))
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for px, py in self.cells.get((cx + dx, cy + dy), ()):
                    if (px - x) ** 2 + (py - y) ** 2 < r * r:
                        return False
        self.cells.setdefault((cx, cy), []).append((x, y))
        return True


def _sample_edge(
    geom: PolyLine,
    offset: float,
    d0: float,
    limit: float,
    interval: float,
    dedup: _Dedup,
    samples: list[tuple[float, float]],
) -> None:
    """Sample ``geom`` at each network distance ``k*interval`` in ``(d0, d0 + limit]``.

    Arc ``offset`` of ``geom`` lies at network distance ``d0``, so one
    :meth:`PolyLine.point_at` call over arcs ``offset + k*interval - d0``
    places every sample; ``dedup`` then filters them in walk order.
    """
    k0 = int(math.floor(d0 / interval)) + 1
    dist = np.arange(k0, int(math.floor((d0 + limit) / interval)) + 2) * interval
    dist = dist[(dist > d0) & (dist <= d0 + limit)]
    for x, y in geom.point_at(offset + dist - d0).tolist():
        if dedup.add(x, y):
            samples.append((x, y))


def _walk_samples(
    g: EmbeddedGraph,
    starts: list[tuple[float, EdgeId, VertexId]],
    params: FScoreParams,
    dedup: _Dedup,
    samples: list[tuple[float, float]],
    visited: set[EdgeId],
) -> None:
    """Explore edges breadth-first by network distance, sampling as we go.

    ``starts`` holds (entry network distance, edge id, entry vertex).  Each
    edge is walked once, in the direction of its first (closest) arrival,
    so junction fan-outs never re-sample a street.
    """
    interval = params.sampling_interval
    max_len = params.max_path_length
    heap: list[tuple[float, int, EdgeId, VertexId]] = []
    for order, (d0, eid, vid) in enumerate(starts):
        heapq.heappush(heap, (d0, order, eid, vid))
    order = len(starts)
    while heap:
        d0, _, eid, vid = heapq.heappop(heap)
        if eid in visited or d0 > max_len:
            continue
        visited.add(eid)
        geom = g.edge_geometry_from(eid, vid)
        length = geom.length()
        _sample_edge(geom, 0.0, d0, min(length, max_len - d0), interval, dedup, samples)
        end_dist = d0 + length
        if end_dist < max_len:
            far = g.other_endpoint(eid, vid)
            for nxt in g.adjacency[far]:
                if nxt not in visited:
                    heapq.heappush(heap, (end_dist, order, nxt, far))
                    order += 1


def sample_neighborhood(
    g: EmbeddedGraph, seed_vertex: VertexId, params: FScoreParams
) -> SampleSet:
    """Samples every ``sampling_interval`` meters along all walks from a vertex.

    Walk distance is measured along edge geometry.  Samples closer than half
    the interval to an already accepted one (junction overlaps) are dropped.
    """
    if seed_vertex not in g.vertices:
        raise StructuralError(f"unknown vertex id {seed_vertex!r}")
    seed = g.vertices[seed_vertex]
    dedup = _Dedup(params.sampling_interval / 2.0)
    dedup.add(seed.x, seed.y)
    samples = [(seed.x, seed.y)]
    starts = [(0.0, eid, seed_vertex) for eid in g.adjacency[seed_vertex]]
    _walk_samples(g, starts, params, dedup, samples, set())
    return SampleSet(seed=(seed.x, seed.y), points=np.asarray(samples, dtype=float))


def sample_neighborhood_at(g: EmbeddedGraph, point, params: FScoreParams) -> SampleSet:
    """Like :func:`sample_neighborhood` but seeded at the closest graph point.

    Used for the second graph, whose seed is wherever the first graph's seed
    lands on it.  Returns an empty sample set for an empty graph.
    """
    p = np.asarray(point, dtype=float)
    if g.is_empty() or not g.edges:
        return SampleSet(seed=(float(p[0]), float(p[1])), points=np.empty((0, 2)))
    grid = g._frozen_cache.get("fscore_grid")
    if grid is None:
        grid = SpatialGrid(g, max(params.max_path_length / 4.0, 1.0))
        g._frozen_cache["fscore_grid"] = grid
    _, q, eid = grid.nearest_point(p)
    edge = g.edges[eid]
    geom = edge.geometry
    # Arc position of the seed on its edge, measured from the u endpoint.
    d = np.diff(geom.points, axis=0)
    dists, _, u = project_onto_segments(q, geom.points[:-1], d)
    i = int(np.argmin(dists))
    seed_arc = float(geom.cumulative_lengths()[i]) + float(u[i]) * math.sqrt(float(d[i] @ d[i]))
    length = geom.length()
    seed_xy = (float(q[0]), float(q[1]))
    interval, max_len = params.sampling_interval, params.max_path_length
    dedup = _Dedup(interval / 2.0)
    dedup.add(*seed_xy)
    samples = [seed_xy]
    starts: list[tuple[float, EdgeId, VertexId]] = []
    # Walk the seed edge itself in both directions before the general sweep.
    for geom_dir, remaining, far in (
        (geom, length - seed_arc, edge.v),
        (geom.reversed(), seed_arc, edge.u),
    ):
        offset = (length - remaining) if remaining < length else 0.0
        _sample_edge(geom_dir, offset, 0.0, min(remaining, max_len), interval, dedup, samples)
        if remaining < max_len:
            for nxt in g.adjacency[far]:
                if nxt != eid:
                    starts.append((remaining, nxt, far))
    _walk_samples(g, starts, params, dedup, samples, {eid})
    return SampleSet(seed=seed_xy, points=np.asarray(samples, dtype=float))


def _hopcroft_karp(adj: list[list[int]], n_right: int) -> int:
    """Maximum cardinality matching size for a bipartite adjacency list."""
    INF = float("inf")
    match_l = [-1] * len(adj)
    match_r = [-1] * n_right
    result = 0
    while True:
        dist = [INF] * len(adj)
        queue = [u for u in range(len(adj)) if match_l[u] == -1]
        for u in queue:
            dist[u] = 0
        found = False
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            for v in adj[u]:
                w = match_r[v]
                if w == -1:
                    found = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if not found:
            return result

        def dfs(u: int) -> bool:
            for v in adj[u]:
                w = match_r[v]
                if w == -1 or (dist[w] == dist[u] + 1 and dfs(w)):
                    match_l[u] = v
                    match_r[v] = u
                    return True
            dist[u] = INF
            return False

        for u in range(len(adj)):
            if match_l[u] == -1 and dfs(u):
                result += 1


def bottleneck_match(
    marbles: SampleSet | np.ndarray,
    holes: SampleSet | np.ndarray,
    max_dist: float,
) -> tuple[int, int, int]:
    """Maximum one-to-one matching of marbles to holes within ``max_dist``.

    Each hole holds at most one marble.  Returns (matched count, unmatched
    marbles, unmatched holes).  The matching is maximum-cardinality over the
    thresholded distance graph, found by augmenting paths.
    """
    if max_dist < 0:
        raise InputError("max_dist must be non-negative")
    mpts = marbles.points if isinstance(marbles, SampleSet) else np.asarray(marbles, float)
    hpts = holes.points if isinstance(holes, SampleSet) else np.asarray(holes, float)
    nm, nh = mpts.shape[0], hpts.shape[0]
    if nm == 0 or nh == 0:
        return 0, nm, nh
    pairs = cKDTree(mpts).query_ball_tree(cKDTree(hpts), max_dist)
    adj = [sorted(cands) for cands in pairs]
    matched = _hopcroft_karp(adj, nh)
    return matched, nm - matched, nh - matched


def f_score(
    matched_marbles: int, total_marbles: int, matched_holes: int, total_holes: int
) -> float:
    """Harmonic mean of precision and recall; 0 when both are undefined."""
    if matched_marbles > total_marbles or matched_holes > total_holes:
        raise InputError("matched counts cannot exceed totals")
    if min(matched_marbles, matched_holes, total_marbles, total_holes) < 0:
        raise InputError("counts must be non-negative")
    precision = matched_marbles / total_marbles if total_marbles else 0.0
    recall = matched_holes / total_holes if total_holes else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


@dataclass
class FScoreResult:
    params: FScoreParams
    vertex_scores: dict[VertexId, float]
    edge_scores: SignatureMap
    global_matched: int = 0
    global_marbles: int = 0
    global_holes: int = 0
    per_seed: list[tuple[VertexId, int, int, int]] = field(default_factory=list)

    @property
    def global_score(self) -> float:
        return f_score(self.global_matched, self.global_marbles, self.global_matched, self.global_holes)


def _seed_counts(
    g: EmbeddedGraph, h: EmbeddedGraph, params: FScoreParams, seeds: list[VertexId]
) -> list[tuple[int, int, int]]:
    out = []
    for v in seeds:
        marbles = sample_neighborhood(g, v, params)
        holes = sample_neighborhood_at(h, g.vertices[v], params)
        matched, _, _ = bottleneck_match(marbles, holes, params.matched_distance)
        out.append((matched, len(marbles), len(holes)))
    return out


def fscore_analysis(
    g: EmbeddedGraph,
    h: EmbeddedGraph,
    params: FScoreParams | None = None,
    *,
    workers: int = 1,
) -> FScoreResult:
    """Per-vertex and per-edge F-scores of ``g`` against ``h`` plus global tally.

    Every vertex of ``g`` (including degree-two ones, so run this before any
    contraction if those matter) seeds one local comparison; the seed in
    ``h`` is the closest point of ``h``.  Edge scores average the two
    endpoint scores.
    """
    if params is None:
        params = FScoreParams()
    seeds = list(g.vertices)
    fn = functools.partial(_seed_counts, g, h, params)
    counts: list[tuple[int, int, int]] = []
    for chunk in run_chunked(fn, seeds, workers):
        counts.extend(chunk)
    vertex_scores: dict[VertexId, float] = {}
    per_seed = []
    tot_matched = tot_marbles = tot_holes = 0
    for v, (matched, n_m, n_h) in zip(seeds, counts):
        vertex_scores[v] = f_score(matched, n_m, matched, n_h)
        per_seed.append((v, matched, n_m, n_h))
        tot_matched += matched
        tot_marbles += n_m
        tot_holes += n_h
    edge_values = {
        eid: 0.5 * (vertex_scores[e.u] + vertex_scores[e.v]) for eid, e in g.edges.items()
    }
    edge_scores = SignatureMap(target="edge", k=0, values=edge_values, graph=g)
    return FScoreResult(
        params=params,
        vertex_scores=vertex_scores,
        edge_scores=edge_scores,
        global_matched=tot_matched,
        global_marbles=tot_marbles,
        global_holes=tot_holes,
        per_seed=per_seed,
    )
