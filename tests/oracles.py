"""Independent reference implementations used only by the tests.

Everything here is deliberately written from scratch against the raw graph
data (vertices, edges, geometry) so it shares no algorithmic code with the
package: walk counting by directed enumeration, map-matching by discrete
dynamic programming over densely resampled candidate paths, matching by
exhaustive search, intersection radii by fine arc marching, nearest
graph points by a scalar per-segment scan, and polyline crossings by
scalar orientation tests over every segment pair.  F-score sampling is kept here in
its per-edge form: one ``PolyLine.point_at`` call per walked edge and a hash
grid that accepts or rejects each sample as it is placed.

One reference checks a single part of the package instead:
``label_order_decision`` reads the package's own free-interval tables and
sweeps them in plain label order, so it differs from ``match_decision`` only
in the order the sweep takes cells.

``fresh`` is no oracle: it copies a graph without the path distances the
package remembers on it, for tests that need a run without a sub-path floor
or a reference that does its own work.  Nor is ``city_pair``, the
benchmark's seeded city pair, for tests that need maps of its size, nor
``as_walks``, which turns hand-made paths into the package's walk rows.
``link_length``, ``reversed_path``, ``path_key`` and ``canonical_path``
read a ``VertexPath``'s ids: its edge count, its reverse, and the order up
to reversal in which the package keeps one of a walk and its reverse.
"""

from __future__ import annotations

import heapq
import importlib.util
import math
import pickle
from pathlib import Path

import numpy as np

from pathdist.geometry import PolyLine

CITYGEN = Path(__file__).resolve().parents[1] / "bench" / "citygen.py"


def city_pair(seed: int, blocks: int):
    """The benchmark's seeded curved city pair (``bench/citygen.py``)."""
    spec = importlib.util.spec_from_file_location("bench_citygen", CITYGEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.city_pair(seed, blocks)


def fresh(g):
    """A copy of ``g`` with nothing remembered (a pickled graph arrives with an empty cache)."""
    return pickle.loads(pickle.dumps(g))


def as_walks(g, paths):
    """``VertexPath``s of one link-length as ``paths.Walks`` rows of ``g``; the dart table checks each hop."""
    from pathdist.paths import Walks, dart_table

    table = dart_table(g)
    index = {v: i for i, v in enumerate(g.vertices)}
    k = link_length(paths[0]) if paths else 1
    vertices = np.array([index[v] for p in paths for v in p.vertex_ids], dtype=np.intp)
    darts = np.array([d for p in paths for d in table.walk(p)], dtype=np.intp)
    return Walks(table, vertices.reshape(-1, k + 1), darts.reshape(-1, k))


def link_length(p) -> int:
    """The number of edges of ``VertexPath`` ``p``."""
    return len(p.edge_ids)


def reversed_path(p):
    """``VertexPath`` ``p`` walked from its other end."""
    from pathdist.paths import VertexPath

    return VertexPath(p.vertex_ids[::-1], p.edge_ids[::-1])


def path_key(p) -> tuple:
    """The order of paths up to reversal: the vertex ids' ``repr``s, then the edge ids'."""
    return tuple(repr(v) for v in p.vertex_ids), tuple(repr(e) for e in p.edge_ids)


def canonical_path(p):
    """Of ``p`` and its reverse, the one with the smaller ``path_key``; ``p`` on a tie."""
    rev = reversed_path(p)
    return p if path_key(p) <= path_key(rev) else rev


def adjacency_from_edges(g) -> dict:
    adj: dict = {v: [] for v in g.vertices}
    for eid, e in g.edges.items():
        adj[e.u].append((eid, e.v))
        adj[e.v].append((eid, e.u))
    return adj


def directed_walks(g, k: int):
    """Every directed walk of link-length k as (vertex tuple, edge tuple)."""
    adj = adjacency_from_edges(g)

    def extend(vseq, eseq):
        if len(eseq) == k:
            yield tuple(vseq), tuple(eseq)
            return
        for eid, w in adj[vseq[-1]]:
            yield from extend(vseq + [w], eseq + [eid])

    for v in g.vertices:
        yield from extend([v], [])


def count_canonical_walks(g, k: int) -> int:
    """Canonical path count via (directed + palindromes) / 2."""
    total = 0
    palindromes = 0
    for vseq, eseq in directed_walks(g, k):
        total += 1
        if vseq == vseq[::-1] and eseq == eseq[::-1]:
            palindromes += 1
    assert (total + palindromes) % 2 == 0
    return (total + palindromes) // 2


def canonical_walks_up_to(g, kmax: int):
    """Canonical walks of link-length 1..kmax, deduplicated up to reversal."""
    seen = set()
    out = []
    for k in range(1, kmax + 1):
        for vseq, eseq in directed_walks(g, k):
            key = min((vseq, eseq), (vseq[::-1], eseq[::-1]))
            if key not in seen:
                seen.add(key)
                out.append(key)
    return out


def walk_geometry(g, vseq, eseq) -> np.ndarray:
    pts = []
    for i, eid in enumerate(eseq):
        e = g.edges[eid]
        seg = e.geometry.points
        if vseq[i] == e.v:
            seg = seg[::-1]
        pts.extend(seg if not pts else seg[1:])
    return np.asarray(pts)


def resample_points(pts: np.ndarray, spacing: float) -> tuple[np.ndarray, np.ndarray]:
    """Resampled points plus the arc length of each sample."""
    out = [pts[0]]
    arcs = [0.0]
    arc = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        seg = float(np.hypot(*(b - a)))
        if seg == 0.0:
            continue
        n = max(1, int(math.ceil(seg / spacing)))
        for j in range(1, n + 1):
            out.append(a + (j / n) * (b - a))
            arcs.append(arc + (j / n) * seg)
        arc += seg
    return np.asarray(out), np.asarray(arcs)


def _reach_rows(ok: np.ndarray, start_mask: np.ndarray) -> np.ndarray:
    """Discrete-Fréchet reachability with a free start inside start_mask.

    ok[i, j] says curve sample i and path sample j are within eps.  Returns
    the reachable set of the last row.  Moves: advance the curve, advance
    the path, or both; the path may begin at any start_mask sample.
    """
    n = ok.shape[1]
    idx = np.arange(n)

    def propagate(row_ok: np.ndarray, seeded: np.ndarray) -> np.ndarray:
        blocked = np.maximum.accumulate(np.where(~row_ok, idx, -1))
        seeds = np.maximum.accumulate(np.where(seeded & row_ok, idx, -2))
        return row_ok & (seeds > blocked)

    reach = propagate(ok[0], start_mask)
    for i in range(1, ok.shape[0]):
        base = reach.copy()
        base[1:] |= reach[:-1]
        reach = propagate(ok[i], base)
    return reach


class DiscreteMatchOracle:
    """Brute-force map-matching: min over enumerated candidate paths.

    Candidate paths are every canonical vertex-path up to a link-length cap,
    in both orientations, with start and end free anywhere on the first and
    last edge at a fine sample spacing.  The value per candidate is the
    discrete Fréchet distance over the resampled sequences, found by
    bisection on the reachability test above.

    Each edge is resampled once; a candidate's sample sequence is the
    concatenation of its edges' sample blocks (columns reversed for edges
    walked backwards).  The duplicated junction sample between blocks is a
    harmless repeated state in the discrete coupling.
    """

    def __init__(self, g, kmax: int = 6, spacing: float = 0.005):
        self.g = g
        self.spacing = spacing
        self.edge_ids = list(g.edges)
        self.edge_samples = {
            eid: resample_points(g.edges[eid].geometry.points, spacing)[0]
            for eid in self.edge_ids
        }
        self.candidates = []  # list of hop lists [(edge_id, forward), ...]
        for vseq, eseq in canonical_walks_up_to(g, kmax):
            hops = [
                (eid, vseq[i] == g.edges[eid].u) for i, eid in enumerate(eseq)
            ]
            self.candidates.append(hops)
            self.candidates.append([(eid, not fwd) for eid, fwd in hops[::-1]])

    def match_distance(self, curve_pts: np.ndarray, value_tol: float = 1e-4) -> float:
        curve, _ = resample_points(np.asarray(curve_pts, float), self.spacing)
        blocks = {}
        edge_min = {}
        for eid, samples in self.edge_samples.items():
            diff = curve[:, None, :] - samples[None, :, :]
            d = np.hypot(diff[..., 0], diff[..., 1])
            blocks[eid] = d
            edge_min[eid] = d.min(axis=1)

        # Cheap lower bound per candidate (every curve sample must come near
        # the candidate's image), then full evaluation in ascending-bound
        # order until the bound exceeds the best value found.
        scored = []
        for idx, hops in enumerate(self.candidates):
            mins = np.minimum.reduce([edge_min[eid] for eid, _ in hops])
            scored.append((float(mins.max()), idx))
        scored.sort()
        best = math.inf
        for lb, idx in scored:
            if lb >= best:
                break
            hops = self.candidates[idx]
            d = np.hstack(
                [blocks[eid] if fwd else blocks[eid][:, ::-1] for eid, fwd in hops]
            )
            n_first = blocks[hops[0][0]].shape[1]
            n_last = blocks[hops[-1][0]].shape[1]
            start_mask = np.zeros(d.shape[1], dtype=bool)
            start_mask[:n_first] = True
            end_mask = np.zeros(d.shape[1], dtype=bool)
            end_mask[d.shape[1] - n_last :] = True
            # A candidate infeasible at ``best`` has its threshold above it, and
            # the bisection's ``hi`` is always feasible, so its value exceeds
            # ``best``: skipping it leaves the minimum as it was.
            if best < math.inf and not self._feasible(d, best, start_mask, end_mask):
                continue
            lo, hi = lb, float(d.max())
            if not self._feasible(d, hi, start_mask, end_mask):
                continue
            while hi - lo > value_tol:
                mid = 0.5 * (lo + hi)
                if self._feasible(d, mid, start_mask, end_mask):
                    hi = mid
                else:
                    lo = mid
            best = min(best, hi)
        return best

    @staticmethod
    def _feasible(d: np.ndarray, eps: float, start_mask, end_mask) -> bool:
        reach = _reach_rows(d <= eps, start_mask)
        return bool(np.any(reach & end_mask))


class DenseWalkOracle:
    """Brute-force map-matching over all sampled walks in the graph.

    The graph is resampled into a dense node chain per edge (plus one hub
    node per vertex joining the chains).  Candidate matched paths are every
    walk over these nodes, with free start and end nodes; unlike the
    vertex-path enumeration above this includes walks that reverse inside an
    edge.  The value is found by bisecting a per-row reachability sweep:
    from curve sample i-1 a walk may stay, step to a neighboring node, and
    wander freely among in-range nodes before the next curve sample.

    With curve and graph resampled at spacing ``s/2`` each, the result is
    within ``s`` of the true map-matching distance.
    """

    def __init__(self, g, spacing: float = 0.005):
        self.spacing = spacing
        nodes: list[np.ndarray] = []
        adj: list[list[int]] = []

        def add_node(pt) -> int:
            nodes.append(np.asarray(pt, float))
            adj.append([])
            return len(nodes) - 1

        def link(a: int, b: int) -> None:
            adj[a].append(b)
            adj[b].append(a)

        hubs = {vid: add_node(pos) for vid, pos in g.vertices.items()}
        for e in g.edges.values():
            fine, _ = resample_points(e.geometry.points, spacing)
            chain = [add_node(p) for p in fine]
            for a, b in zip(chain[:-1], chain[1:]):
                link(a, b)
            link(hubs[e.u], chain[0])
            link(hubs[e.v], chain[-1])
        self.nodes = np.asarray(nodes)
        self.adj = adj

    def match_distance(self, curve_pts: np.ndarray, value_tol: float = 1e-4) -> float:
        curve, _ = resample_points(np.asarray(curve_pts, float), self.spacing)
        diff = curve[:, None, :] - self.nodes[None, :, :]
        d = np.hypot(diff[..., 0], diff[..., 1])
        lo = float(d.min(axis=1).max())  # every curve sample needs a node
        hi = float(d.max(axis=0).min())  # constant path at the best node
        if self._feasible(d, lo):
            return lo
        while hi - lo > value_tol:
            mid = 0.5 * (lo + hi)
            if self._feasible(d, mid):
                hi = mid
            else:
                lo = mid
        return hi

    def _feasible(self, d: np.ndarray, eps: float) -> bool:
        ok = d <= eps
        if not ok[0].any():
            return False
        reach = ok[0].copy()  # free start: every in-range node
        for i in range(1, d.shape[0]):
            row_ok = ok[i]
            base = row_ok & reach
            frontier = list(np.nonzero(base)[0])
            nxt = base.copy()
            # One step down or diagonally, then wander within the row.
            for j in np.nonzero(reach)[0]:
                for nb in self.adj[j]:
                    if row_ok[nb] and not nxt[nb]:
                        nxt[nb] = True
                        frontier.append(nb)
            while frontier:
                j = frontier.pop()
                for nb in self.adj[j]:
                    if row_ok[nb] and not nxt[nb]:
                        nxt[nb] = True
                        frontier.append(nb)
            reach = nxt
            if not reach.any():
                return False
        return True


def exhaustive_max_matching(marbles: np.ndarray, holes: np.ndarray, max_dist: float) -> int:
    """Optimal matching size by branch and bound; fine up to ~8x8."""
    allowed = [
        [j for j in range(len(holes)) if np.hypot(*(marbles[i] - holes[j])) <= max_dist]
        for i in range(len(marbles))
    ]
    return exhaustive_matching_size(allowed)


def exhaustive_matching_size(allowed: list[list[int]]) -> int:
    """Largest matching of left vertex ``i`` to one of ``allowed[i]``, by branch and bound."""
    nm = len(allowed)
    best = 0

    def rec(i: int, used: int, size: int):
        nonlocal best
        if size + (nm - i) <= best:
            return
        if i == nm:
            best = max(best, size)
            return
        for j in allowed[i]:
            if not used & (1 << j):
                rec(i + 1, used | (1 << j), size + 1)
        rec(i + 1, used, size)

    rec(0, 0, 0)
    return best


class SampleDedup:
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


def sample_edge(geom, offset, d0, limit, interval, dedup, samples) -> None:
    """Sample ``geom`` at each network distance ``k*interval`` in ``(d0, d0 + limit]``.

    Arc ``offset`` of ``geom`` lies at network distance ``d0``; one
    ``point_at`` call places every sample and ``dedup`` filters them in order.
    """
    k0 = int(math.floor(d0 / interval)) + 1
    dist = np.arange(k0, int(math.floor((d0 + limit) / interval)) + 2) * interval
    dist = dist[(dist > d0) & (dist <= d0 + limit)]
    for x, y in geom.point_at(offset + dist - d0).tolist():
        if dedup.add(x, y):
            samples.append((x, y))


def walk_samples(g, starts, params, dedup, samples, visited) -> None:
    """Explore edges by network distance from ``starts``, sampling each edge once."""
    interval = params.sampling_interval
    max_len = params.max_path_length
    heap = []
    for order, (d0, eid, vid) in enumerate(starts):
        heapq.heappush(heap, (d0, order, eid, vid))
    order = len(starts)
    while heap:
        d0, _, eid, vid = heapq.heappop(heap)
        if eid in visited or d0 > max_len:
            continue
        visited.add(eid)
        e = g.edges[eid]
        geom = e.geometry if vid == e.u else e.geometry.reversed()
        length = geom.length()
        sample_edge(geom, 0.0, d0, min(length, max_len - d0), interval, dedup, samples)
        end_dist = d0 + length
        if end_dist < max_len:
            far = e.v if vid == e.u else e.u
            for nxt in g.adjacency[far]:
                if nxt not in visited:
                    heapq.heappush(heap, (end_dist, order, nxt, far))
                    order += 1


def sample_neighborhood_oracle(g, seed_vertex, params) -> np.ndarray:
    """Sample points of ``fscore.sample_neighborhood``, placed edge by edge."""
    seed = g.vertices[seed_vertex]
    dedup = SampleDedup(params.sampling_interval / 2.0)
    dedup.add(seed.x, seed.y)
    samples = [(seed.x, seed.y)]
    starts = [(0.0, eid, seed_vertex) for eid in g.adjacency[seed_vertex]]
    walk_samples(g, starts, params, dedup, samples, set())
    return np.asarray(samples, dtype=float)


def sample_neighborhood_at_oracle(g, point, params) -> np.ndarray:
    """Sample points of ``fscore.sample_neighborhood_at``, placed edge by edge.

    The seed is found as the package finds it (its ``SpatialGrid`` and the
    shared segment projection); only the sampling is independent.
    """
    from pathdist.geometry import project_onto_segments
    from pathdist.spatial import SpatialGrid

    _, q, eid = SpatialGrid(g).nearest_point(np.asarray(point, dtype=float))
    edge = g.edges[eid]
    geom = edge.geometry
    seed_arc = 0.0
    if len(geom) > 1:
        d = np.diff(geom.points, axis=0)
        dists, _, u = project_onto_segments(q, geom.points[:-1], d)
        i = int(np.argmin(dists))
        seed_arc = float(geom.cumulative_lengths()[i]) + float(u[i]) * math.sqrt(float(d[i] @ d[i]))
    length = geom.length()
    seed_xy = (float(q[0]), float(q[1]))
    interval, max_len = params.sampling_interval, params.max_path_length
    dedup = SampleDedup(interval / 2.0)
    dedup.add(*seed_xy)
    samples = [seed_xy]
    starts = []
    for geom_dir, remaining, far in (
        (geom, length - seed_arc, edge.v),
        (geom.reversed(), seed_arc, edge.u),
    ):
        offset = (length - remaining) if remaining < length else 0.0
        sample_edge(geom_dir, offset, 0.0, min(remaining, max_len), interval, dedup, samples)
        if remaining < max_len:
            for nxt in g.adjacency[far]:
                if nxt != eid:
                    starts.append((remaining, nxt, far))
    walk_samples(g, starts, params, dedup, samples, {eid})
    return np.asarray(samples, dtype=float)


def brute_close_pairs(a: np.ndarray, b: np.ndarray, radius: float, strict: bool) -> list[tuple[int, int]]:
    """Every ``(i, j)`` with ``a[i]`` and ``b[j]`` within ``radius``, tested pair by pair."""
    out = []
    for i, (ax, ay) in enumerate(np.asarray(a, dtype=float).tolist()):
        for j, (bx, by) in enumerate(np.asarray(b, dtype=float).tolist()):
            d2 = (ax - bx) ** 2 + (ay - by) ** 2
            if d2 < radius * radius or (not strict and d2 == radius * radius):
                out.append((i, j))
    return out


def dense_radius_scan(g, v, d: float, resolution: int = 2560) -> float:
    """Intersection radius by marching each incident edge at fine arc steps."""
    center = np.asarray(g.vertices[v], dtype=float)
    incident = g.adjacency[v]
    if not incident:
        return math.inf
    walks = []
    for eid in incident:
        e = g.edges[eid]
        pts = e.geometry.points
        if v == e.v:
            pts = pts[::-1]
        fine, _ = resample_points(pts, max(PolyLine(pts).length() / 4096.0, 1e-9))
        walks.append(fine)
    if len(incident) == 1:
        return 0.0
    reach = min(float(np.hypot(w[:, 0] - center[0], w[:, 1] - center[1]).max()) for w in walks)
    if reach < d:
        return math.inf

    def crossing(walk: np.ndarray, r: float):
        dists = np.hypot(walk[:, 0] - center[0], walk[:, 1] - center[1])
        beyond = np.nonzero(dists >= r)[0]
        if beyond.size == 0:
            return None
        return walk[beyond[0]]

    for r in np.linspace(d, reach, resolution):
        ws = [crossing(w, float(r)) for w in walks]
        if any(w is None for w in ws):
            return math.inf
        ok = all(
            float(np.hypot(*(ws[i] - ws[j]))) > 2.0 * d
            for i in range(len(ws))
            for j in range(i + 1, len(ws))
        )
        if ok:
            return float(r)
    return math.inf


def nearest_point_scan(g, p) -> tuple[float, tuple[float, float]]:
    """Closest graph point by a closed-form projection onto every raw segment.

    Works on each edge's geometry as stored, duplicate points included; a
    graph without edges falls back to its closest vertex.
    """
    px, py = float(p[0]), float(p[1])
    best, best_pt = math.inf, None
    for e in g.edges.values():
        pts = [tuple(q) for q in e.geometry.points.tolist()]
        for (ax, ay), (bx, by) in list(zip(pts[:-1], pts[1:])) or [(pts[0], pts[0])]:
            dx, dy = bx - ax, by - ay
            length2 = dx * dx + dy * dy
            t = 0.0 if length2 == 0.0 else ((px - ax) * dx + (py - ay) * dy) / length2
            t = min(max(t, 0.0), 1.0)
            qx, qy = ax + t * dx, ay + t * dy
            d = math.hypot(px - qx, py - qy)
            if d < best:
                best, best_pt = d, (qx, qy)
    if best_pt is None:
        for pos in g.vertices.values():
            d = math.hypot(px - pos.x, py - pos.y)
            if d < best:
                best, best_pt = d, (pos.x, pos.y)
    return best, best_pt


def _cross(ax, ay, bx, by, cx, cy) -> float:
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def segments_meet(p1, p2, q1, q2) -> bool:
    """True iff closed segments ``p1p2`` and ``q1q2`` share a point; either may be a single point.

    Scalar orientation tests: the segments cross properly when each one's
    endpoints lie strictly on opposite sides of the other, and otherwise
    meet only where an endpoint lies on the other segment.
    """
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = (tuple(map(float, p)) for p in (p1, p2, q1, q2))
    d1, d2 = _cross(cx, cy, dx, dy, ax, ay), _cross(cx, cy, dx, dy, bx, by)
    d3, d4 = _cross(ax, ay, bx, by, cx, cy), _cross(ax, ay, bx, by, dx, dy)
    if min(d1, d2) < 0.0 < max(d1, d2) and min(d3, d4) < 0.0 < max(d3, d4):
        return True

    def on_segment(sx, sy, tx, ty, x, y) -> bool:
        return (
            _cross(sx, sy, tx, ty, x, y) == 0.0
            and min(sx, tx) <= x <= max(sx, tx)
            and min(sy, ty) <= y <= max(sy, ty)
        )

    return (
        on_segment(cx, cy, dx, dy, ax, ay)
        or on_segment(cx, cy, dx, dy, bx, by)
        or on_segment(ax, ay, bx, by, cx, cy)
        or on_segment(ax, ay, bx, by, dx, dy)
    )


def polylines_meet(f, g) -> bool:
    """True iff the images of polylines ``f`` and ``g`` share a point, by every segment pair."""

    def segments(curve):
        pts = curve.points.tolist()
        return list(zip(pts[:-1], pts[1:])) or [(pts[0], pts[0])]

    return any(segments_meet(a, b, c, d) for a, b in segments(f) for c, d in segments(g))


def random_geometric_graph(rng: np.random.Generator, n_vertices: int, extra_edges: int, box: float):
    """Random connected geometric graph: a random tree plus a few chords."""
    from pathdist.graph import EmbeddedGraph

    pts = rng.uniform(0.0, box, size=(n_vertices, 2))
    vertices = [(i, (float(x), float(y))) for i, (x, y) in enumerate(pts)]
    edges = []
    eid = 0
    seen = set()
    for i in range(1, n_vertices):
        j = int(rng.integers(0, i))
        edges.append((eid, (j, i)))
        seen.add((j, i))
        eid += 1
    tries = 0
    while extra_edges > 0 and tries < 50:
        a, b = sorted(rng.integers(0, n_vertices, size=2).tolist())
        tries += 1
        if a == b or (a, b) in seen:
            continue
        seen.add((a, b))
        edges.append((eid, (a, b)))
        eid += 1
        extra_edges -= 1
    return EmbeddedGraph(vertices, edges)


def with_bends(g, rng: np.random.Generator, shift=(0.0, 0.0)):
    """Copy of ``g``, moved by ``shift``, whose edges bend at one to three points.

    Each bend sits at a uniform fraction in [0.15, 0.85] of its edge and
    leaves it along the edge normal by up to a fifth of the edge's length.
    """
    from pathdist.graph import EmbeddedGraph

    edges = []
    for eid, e in g.edges.items():
        a, b = (np.asarray(g.vertices[x], float) for x in (e.u, e.v))
        normal = np.array([b[1] - a[1], a[0] - b[0]])
        ts = np.sort(rng.uniform(0.15, 0.85, int(rng.integers(1, 4))))
        bends = [a + t * (b - a) + rng.uniform(-0.2, 0.2) * normal for t in ts]
        edges.append((eid, (e.u, e.v, [pt + shift for pt in (a, *bends, b)])))
    return EmbeddedGraph([(v, (p.x + shift[0], p.y + shift[1])) for v, p in g.vertices.items()], edges)


def random_curve_near_graph(rng: np.random.Generator, g, n_points: int, step: float) -> np.ndarray:
    """A short random walk starting near a random vertex of the graph."""
    ids = list(g.vertices)
    v = ids[int(rng.integers(0, len(ids)))]
    p = np.asarray(g.vertices[v], dtype=float) + rng.uniform(-step, step, 2)
    pts = [p]
    for _ in range(n_points - 1):
        p = p + rng.uniform(-step, step, 2)
        pts.append(p)
    return np.asarray(pts)


def label_order_decision(points: np.ndarray, h, eps: float) -> bool:
    """``match_decision`` for collapsed ``points`` (two or more) by a sweep in label order.

    One heap holds every cell of the free-space surface by its label, the
    earliest reachable curve time, and the first accepting cell popped
    decides; a cell is expanded once, at its least label.  The intervals are
    the package's own (``MatchProblem.tables``), so only the sweep's order
    is checked.
    """
    from pathdist.matching import MatchProblem

    problem = MatchProblem(points, h)
    geom = problem.window.geom
    free, jn_lo, jn_hi = problem.tables(eps)
    M = points.shape[0] - 1
    # State id of cell (segment s, curve segment i): s*M + i.
    dist = [math.inf] * (geom.n_segments * M)
    heap = []
    for s in range(geom.n_segments):
        if free[0][s]:
            dist[s * M] = 0.0
            heapq.heappush(heap, (0.0, s * M))
    while heap:
        t, state = heapq.heappop(heap)
        if t > dist[state]:
            continue
        s, i = divmod(state, M)
        if i == M - 1 and free[M][s]:
            return True
        if i + 1 < M and free[i + 1][s] and i + 1 < dist[state + 1]:
            dist[state + 1] = float(i + 1)
            heapq.heappush(heap, (float(i + 1), state + 1))
        for j in geom.seg_joint[s]:
            blo, bhi = jn_lo[i][j], jn_hi[i][j]
            if blo <= bhi and i + bhi >= t:
                t_j = max(t, i + blo)
                for nbr in geom.incident[j]:
                    if t_j < dist[nbr * M + i]:
                        dist[nbr * M + i] = t_j
                        heapq.heappush(heap, (t_j, nbr * M + i))
    return False


def recursive_paths(g, k: int):
    """Canonical link-length-``k`` paths of ``g``, as the package enumerated them by recursion.

    Depth-first from each vertex in insertion order, each hop in
    ``g.adjacency`` order (a self-loop twice, walked forward from both of
    its ends, as the package's dart table takes it); a walk is kept when its
    vertex ids' ``repr``s, then its edge ids', compare no greater than its
    reverse's.
    """
    from pathdist.paths import VertexPath

    vkey = {v: repr(v) for v in g.vertices}
    ekey = {e: repr(e) for e in g.edges}

    def canonical(vseq, eseq) -> bool:
        vk = [vkey[v] for v in vseq]
        rk = vk[::-1]
        return vk < rk or (vk == rk and [ekey[e] for e in eseq] <= [ekey[e] for e in eseq[::-1]])

    def end(eid, at):
        e = g.edges[eid]
        return e.v if at == e.u else e.u

    def extend(vseq, eseq):
        if len(eseq) == k:
            yield tuple(vseq), tuple(eseq)
            return
        for eid in g.adjacency[vseq[-1]]:
            yield from extend(vseq + [end(eid, vseq[-1])], eseq + [eid])

    for v in g.vertices:
        for vseq, eseq in extend([v], []):
            if canonical(vseq, eseq):
                yield VertexPath(vseq, eseq)


def bytes_keyed_windows(curves, n_segments: int, n_joints: int, budget: int):
    """The windows of ``matching._families``, keyed the way the package keyed them by bytes.

    Each point is the bytes of its two float64 coordinates and each segment
    the pair of its ends' bytes; a window takes consecutive curves while its
    distinct points x ``n_segments`` plus ``n_joints`` x distinct segments
    stay within ``budget`` (a window's first curve of two or more points
    always fits).  Returns ``(families, windows)``: per curve ``(window
    index, rows, cols)``, all None below two points, and per window its
    distinct points, segment starts and segment stops in first-seen order.
    """
    key = np.dtype((np.void, 16))
    families, windows = [], []
    point_id: dict = {}
    seg_id: dict = {}

    def close():
        def table(keys):
            return np.frombuffer(b"".join(keys), dtype=float).reshape(-1, 2)

        windows.append((table(point_id), table(a for a, _ in seg_id), table(b for _, b in seg_id)))

    for points in curves:
        rows = cols = None
        if points.shape[0] > 1:
            keys = np.ascontiguousarray(points, dtype=float).view(key).ravel().tolist()
            segs = list(zip(keys, keys[1:]))
            n_points = len(point_id) + len(set(keys).difference(point_id))
            n_segs = len(seg_id) + len(set(segs).difference(seg_id))
            if point_id and n_points * n_segments + n_joints * n_segs > budget:
                close()
                point_id, seg_id = {}, {}
            rows = [point_id.setdefault(k, len(point_id)) for k in keys]
            cols = [seg_id.setdefault(s, len(seg_id)) for s in segs]
        families.append((len(windows) if rows else None, rows, cols))
    if point_id:
        close()
    return families, windows
