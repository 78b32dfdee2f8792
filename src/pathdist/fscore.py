"""Marbles-and-holes F-score between two graphs (sampling baseline).

Around each seed location, walks explore every branch of the graph up to a
maximum network distance, dropping sample points at a regular interval.
A walk only records the edges it reaches; one numpy pass over a per-graph
table of edge points then places every sample of the whole walk, and one
self-join drops those within half an interval of an earlier one.
Samples of one graph (marbles) are matched one-to-one to samples of the
other (holes) when closer than a matched-distance threshold; precision,
recall, and their harmonic mean summarize the tallies.  The matching tries
each marble's nearest cell column of holes first and stops as soon as it
matches every marble with a hole or every hole with a marble.  This is the
standard sampling-based comparison, useful as a contrast to the path-based
signature.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, StructuralError
from .geometry import PolyLine, project_onto_segments
from .graph import EdgeId, EmbeddedGraph, VertexId
from .parallel import run_chunked
from .paths import dart_table
from .signatures import SignatureMap
from .spatial import SpatialGrid, _lex_keys, close_pairs, close_pairs_within

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


class _EdgeTable:
    """Arc lengths along the rows of a graph's dart table, for sampling.

    ``darts`` is :func:`~pathdist.paths.dart_table` of the graph: a walk
    entering an edge at a vertex reads the row of the dart that enters it
    there.  ``cum`` holds each row's :meth:`PolyLine.cumulative_lengths`,
    computed from that row's own points and laid out like the rows;
    ``length[d]`` is row ``d``'s :meth:`PolyLine.length` (a pairwise sum,
    which can differ from the last ``cum`` entry).  ``keys`` pair each
    point's row with its ``cum`` as lexicographic keys, so one search finds
    the segment of any (row, arc).
    """

    __slots__ = ("darts", "cum", "length", "keys")

    def __init__(self, g: EmbeddedGraph):
        self.darts = dart_table(g)
        rows = [PolyLine(self.darts.row(d)) for d in range(2 * len(g.edges))]
        self.cum = np.concatenate([geom.cumulative_lengths() for geom in rows]) if rows else np.empty(0)
        self.length = [geom.length() for geom in rows]
        self.keys = _lex_keys(np.repeat(np.arange(len(rows), dtype=float), np.diff(self.darts.start)), self.cum)

    def samples(self, walked: list[tuple[int, float, float, float]], interval: float) -> np.ndarray:
        """Sample points of every walked ``(row, offset, d0, limit)``, in order.

        Arc ``offset`` of the row lies at network distance ``d0``; the row is
        sampled at each network distance ``k*interval`` in ``(d0, d0 + limit]``,
        that is at arcs ``offset + k*interval - d0``, with the float operations
        of :meth:`PolyLine.point_at` on the row: the clamp to the row, the
        segment holding the arc (the count of ``cum`` entries at most the arc),
        and ``points[i] + u*(points[i+1] - points[i])``.  A row of length 0 places
        its first point (a one-point row's ``i`` falls on the row before).
        """
        if not walked:
            return np.empty((0, 2))
        rec = np.asarray(walked, dtype=float)
        row, offset, d0, limit = rec[:, 0].astype(np.intp), rec[:, 1], rec[:, 2], rec[:, 3]
        end = d0 + limit
        k0 = np.floor(d0 / interval) + 1.0
        count = np.maximum(np.floor(end / interval) + 2.0 - k0, 0.0).astype(np.intp)
        owner = np.repeat(np.arange(len(rec)), count)
        dist = (np.repeat(k0 - (np.cumsum(count) - count), count) + np.arange(int(count.sum()))) * interval
        inside = (dist > d0[owner]) & (dist <= end[owner])
        owner, dist = owner[inside], dist[inside]
        row = row[owner]
        start, points = self.darts.start, self.darts.points
        first, last = start[row], start[row + 1] - 1
        total = self.cum[last]
        arc = np.clip(offset[owner] + dist - d0[owner], 0.0, total)
        ahead = np.searchsorted(self.keys, _lex_keys(row.astype(float), arc), side="right") - first
        i = first + np.minimum(ahead - 1, last - first - 1)
        seg = self.cum[i + 1] - self.cum[i]
        u = np.where(seg == 0.0, 0.0, (arc - self.cum[i]) / np.where(seg == 0.0, 1.0, seg))
        pts = points[i] + u[:, None] * (points[i + 1] - points[i])
        return np.where((total == 0.0)[:, None], points[first], pts)


def _edge_table(g: EmbeddedGraph) -> _EdgeTable:
    """The cached sampling table of ``g``, built on first use."""
    table = g._frozen_cache.get("fscore_edges")
    if table is None:
        table = g._frozen_cache["fscore_edges"] = _EdgeTable(g)
    return table


def _walk(
    g: EmbeddedGraph,
    table: _EdgeTable,
    starts: list[tuple[float, EdgeId, VertexId]],
    max_len: float,
    visited: set[EdgeId],
    walked: list[tuple[int, float, float, float]],
) -> None:
    """Explore edges breadth-first by network distance, recording what to sample.

    ``starts`` holds (entry network distance, edge id, entry vertex).  Each
    edge is walked once, in the direction of its first (closest) arrival,
    so junction fan-outs never re-sample a street; it is recorded in
    ``walked`` as ``(row, 0.0, d0, limit)`` for :meth:`_EdgeTable.samples`.
    """
    heap: list[tuple[float, int, EdgeId, VertexId]] = []
    for order, (d0, eid, vid) in enumerate(starts):
        heapq.heappush(heap, (d0, order, eid, vid))
    order = len(starts)
    while heap:
        d0, _, eid, vid = heapq.heappop(heap)
        if eid in visited or d0 > max_len:
            continue
        visited.add(eid)
        row, far = table.darts.dart_of[eid, vid]
        length = table.length[row]
        walked.append((row, 0.0, d0, min(length, max_len - d0)))
        end_dist = d0 + length
        if end_dist < max_len:
            for nxt in g.adjacency[far]:
                if nxt not in visited:
                    heapq.heappush(heap, (end_dist, order, nxt, far))
                    order += 1


def _thinned(points: np.ndarray, radius: float) -> np.ndarray:
    """``points`` without each one closer than ``radius`` to an earlier kept one."""
    later, earlier = close_pairs_within(points, radius)
    keep = [True] * len(points)
    # Pairs come sorted by the later point, so each earlier one is settled.
    for e, l in zip(earlier.tolist(), later.tolist()):
        if keep[e]:
            keep[l] = False
    return points[np.asarray(keep, dtype=bool)]


def _sample_set(
    seed_xy: tuple[float, float],
    table: _EdgeTable,
    walked: list[tuple[int, float, float, float]],
    interval: float,
) -> SampleSet:
    points = np.vstack([np.asarray([seed_xy], dtype=float), table.samples(walked, interval)])
    return SampleSet(seed=seed_xy, points=_thinned(points, interval / 2.0))


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
    table = _edge_table(g)
    walked: list[tuple[int, float, float, float]] = []
    starts = [(0.0, eid, seed_vertex) for eid in g.adjacency[seed_vertex]]
    _walk(g, table, starts, params.max_path_length, set(), walked)
    return _sample_set((seed.x, seed.y), table, walked, params.sampling_interval)


def sample_neighborhood_at(g: EmbeddedGraph, point, params: FScoreParams) -> SampleSet:
    """Like :func:`sample_neighborhood` but seeded at the closest graph point.

    Used for the second graph, whose seed is wherever the first graph's seed
    lands on it.  Returns an empty sample set for a graph without edges.
    """
    p = np.asarray(point, dtype=float)
    if not g.edges:
        return SampleSet(seed=(float(p[0]), float(p[1])), points=np.empty((0, 2)))
    _, q, eid = SpatialGrid(g).nearest_point(p)
    edge = g.edges[eid]
    geom = edge.geometry
    # Arc position of the seed on its edge, measured from the u endpoint (0 on a one-point edge).
    seed_arc = 0.0
    if len(geom) > 1:
        d = np.diff(geom.points, axis=0)
        dists, _, u = project_onto_segments(q, geom.points[:-1], d)
        i = int(np.argmin(dists))
        seed_arc = float(geom.cumulative_lengths()[i]) + float(u[i]) * math.sqrt(float(d[i] @ d[i]))
    table = _edge_table(g)
    row, _ = table.darts.dart_of[eid, edge.u]
    length = table.length[row]
    max_len = params.max_path_length
    walked: list[tuple[int, float, float, float]] = []
    starts: list[tuple[float, EdgeId, VertexId]] = []
    # Walk the seed edge itself in both directions before the general sweep.
    for direction, remaining, far in ((row, length - seed_arc, edge.v), (row + 1, seed_arc, edge.u)):
        offset = (length - remaining) if remaining < length else 0.0
        walked.append((direction, offset, 0.0, min(remaining, max_len)))
        if remaining < max_len:
            for nxt in g.adjacency[far]:
                if nxt != eid:
                    starts.append((remaining, nxt, far))
    _walk(g, table, starts, max_len, {eid}, walked)
    return _sample_set((float(q[0]), float(q[1])), table, walked, params.sampling_interval)


def _augment(root: int, adj: list[list[int]], match_r: list[int], seen: list[bool]) -> bool:
    """Search depth-first, with an explicit stack, for an augmenting path from ``root``.

    Holes already ``seen`` in this pass are skipped; on success each hole on
    the path takes the marble before it.
    """
    lefts = [root]
    rights: list[int] = []  # rights[k] leads from lefts[k] to lefts[k + 1]
    todo = [iter(adj[root])]
    while todo:
        for v in todo[-1]:
            if seen[v]:
                continue
            seen[v] = True
            rights.append(v)
            w = match_r[v]
            if w == -1:
                for u, v in zip(lefts, rights):
                    match_r[v] = u
                return True
            lefts.append(w)
            todo.append(iter(adj[w]))
            break
        else:
            todo.pop()
            lefts.pop()
            if rights:
                rights.pop()
    return False


def _max_matching(adj: list[list[int]], n_right: int, bound: int | None = None) -> int:
    """Maximum cardinality matching size for a bipartite adjacency list.

    A greedy pass matches what it can; then each pass runs one augmenting
    search from every unmatched left vertex with a neighbor, holes visited
    once per pass.  The matching is maximum once a pass augments nothing,
    since that pass searched every alternating path, or once its size
    reaches ``bound``, an upper bound such as ``min(left vertices with a
    neighbor, right vertices with a neighbor)``; stopping there spares the
    pass in which every search fails.  ``bound`` defaults to the left
    vertices with a neighbor, at most ``n_right``.
    """
    match_r = [-1] * n_right
    free = []
    matched = 0
    for u, nbrs in enumerate(adj):
        for v in nbrs:
            if match_r[v] == -1:
                match_r[v] = u
                matched += 1
                break
        else:
            if nbrs:
                free.append(u)
    if bound is None:
        bound = min(matched + len(free), n_right)
    while free and matched < bound:
        seen = [False] * n_right
        left = []
        for u in free:
            if _augment(u, adj, match_r, seen):
                matched += 1
                if matched == bound:
                    return matched
            else:
                left.append(u)
        if len(left) == len(free):
            break
        free = left
    return matched


def bottleneck_match(
    marbles: SampleSet | np.ndarray,
    holes: SampleSet | np.ndarray,
    max_dist: float,
) -> tuple[int, int, int]:
    """Maximum one-to-one matching of marbles to holes within ``max_dist``.

    Each hole holds at most one marble.  Returns (matched count, unmatched
    marbles, unmatched holes).  The matching is maximum-cardinality over the
    thresholded distance graph (the pairs :func:`~pathdist.spatial.close_pairs`
    finds with ``<=``), found by augmenting paths that try each marble's
    holes in its own cell column first.  No matching outgrows the marbles
    with a hole or the holes with a marble; the search stops once it
    matches the fewer of the two.
    """
    if not max_dist >= 0:  # NaN fails too
        raise InputError("max_dist must be non-negative")
    mpts = marbles.points if isinstance(marbles, SampleSet) else np.asarray(marbles, float)
    hpts = holes.points if isinstance(holes, SampleSet) else np.asarray(holes, float)
    nm, nh = mpts.shape[0], hpts.shape[0]
    if nm == 0 or nh == 0:
        return 0, nm, nh
    m, h = close_pairs(mpts, hpts, max_dist, strict=False)
    bounds = np.searchsorted(m, np.arange(nm + 1)).tolist()
    holes_of = h.tolist()
    bound = min(np.count_nonzero(np.diff(bounds)), np.count_nonzero(np.bincount(h, minlength=nh)))
    matched = _max_matching([holes_of[a:b] for a, b in zip(bounds[:-1], bounds[1:])], nh, int(bound))
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
    for chunk in run_chunked(fn, seeds):
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
