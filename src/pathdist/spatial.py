"""The flattened segment view of a graph, and nearest-point queries on it.

``_SurfaceGeometry`` lays every edge out as rows of ``seg_a``/``seg_b``
segment endpoints (cached per graph) and numbers the points where segments
meet, graph vertices and polyline bends alike, as one array of joints.
Free-space map matching sweeps these rows and glues them at the joints.
Every nearest-point query projects a point onto a prefix of the rows in one
pass of ``geometry.project_onto_segments``: :func:`nearest_point_on_graph`
onto all of them, and the F-score seeding (``SpatialGrid``) onto the edge
segments alone.  :func:`close_pairs` finds every pair of points of two
sets within a radius, own cell column first, which the F-score matching
joins marbles to holes on; :func:`close_pairs_within` finds each close pair
of one set once, which F-score sampling thins with.
"""

from __future__ import annotations

import math
from typing import Hashable

import numpy as np

from .geometry import project_onto_segments, segment_terms
from .graph import EdgeId, EmbeddedGraph

__all__ = ["SpatialGrid", "close_pairs", "close_pairs_within", "nearest_point_on_graph"]


class _SurfaceGeometry:
    """Flattened graph geometry reused across decisions and queries on one graph.

    Segment ``s`` runs from ``seg_a[s]`` to ``seg_b[s]`` (``seg_d[s]`` is
    their difference) along edge ``seg_edge[s]``; segments are numbered edge
    by edge in the graph's insertion order, each edge's collapsed geometry
    in order.  Every point where segments meet is a *joint*: the graph
    vertices come first, in insertion order, then the interior polyline
    points.  Segment ``s`` runs from joint ``seg_joint[s][0]`` to joint
    ``seg_joint[s][1]``, and ``incident[j]`` lists the segments that end at
    joint ``j``.  An isolated vertex gets one zero-length segment with edge
    ``None`` after all edge segments: the constant path at that vertex.  The
    first ``n_edge_segments`` rows are therefore the edges alone.
    ``seg_terms`` holds the :func:`~pathdist.geometry.segment_terms` of the
    rows, which every curve's free intervals against them share.
    """

    __slots__ = (
        "joint_pos",
        "seg_a",
        "seg_b",
        "seg_d",
        "seg_terms",
        "seg_edge",
        "seg_joint",
        "incident",
        "n_segments",
        "n_edge_segments",
    )

    def __init__(self, g: EmbeddedGraph):
        vidx = {v: i for i, v in enumerate(g.vertices)}
        joint_pos: list = list(g.vertices.values())
        seg_a: list[np.ndarray] = []
        seg_b: list[np.ndarray] = []
        seg_edge: list[Hashable] = []
        seg_joint: list[tuple[int, int]] = []
        pieces = [(eid, e.u, e.v, e.geometry.collapsed().points) for eid, e in g.edges.items()]
        isolated = [v for v in g.vertices if not g.adjacency[v]]
        pieces += [(None, v, v, np.asarray([g.vertices[v]])) for v in isolated]
        for eid, u, v, pts in pieces:
            if pts.shape[0] == 1:
                pts = np.vstack([pts, pts])  # keep one zero-length segment
            inner = range(len(joint_pos), len(joint_pos) + pts.shape[0] - 2)
            joints = [vidx[u], *inner, vidx[v]]
            joint_pos.extend(pts[1:-1])
            seg_a.extend(pts[:-1])
            seg_b.extend(pts[1:])
            seg_edge.extend([eid] * (pts.shape[0] - 1))
            seg_joint.extend(zip(joints[:-1], joints[1:]))
        incident: list[list[int]] = [[] for _ in joint_pos]
        for s, ends in enumerate(seg_joint):
            for j in set(ends):
                incident[j].append(s)
        self.joint_pos = np.asarray(joint_pos, dtype=float).reshape(-1, 2)
        self.seg_a = np.asarray(seg_a, dtype=float).reshape(-1, 2)
        self.seg_b = np.asarray(seg_b, dtype=float).reshape(-1, 2)
        self.seg_terms = segment_terms(self.seg_a, self.seg_b)
        self.seg_d = self.seg_terms[0]
        self.seg_edge = seg_edge
        self.seg_joint = seg_joint
        self.incident = incident
        self.n_segments = len(seg_a)
        self.n_edge_segments = self.n_segments - len(isolated)


def surface_geometry(g: EmbeddedGraph) -> _SurfaceGeometry:
    """The cached flattened view of ``g``, built on first use."""
    geom = g._frozen_cache.get("surface")
    if geom is None:
        geom = _SurfaceGeometry(g)
        g._frozen_cache["surface"] = geom
    return geom


class SpatialGrid:
    """The closest point on an edge of ``graph``: the query that seeds the F-score.

    It projects onto the edge segments of the graph's flattened view, so an
    isolated vertex is never a seed while the graph has an edge; ties go to
    the lowest segment index, as in :func:`nearest_point_on_graph`.  A graph
    without edges answers as that function does.
    """

    def __init__(self, graph: EmbeddedGraph):
        self.geom = surface_geometry(graph)

    def nearest_point(self, p) -> tuple[float, np.ndarray, EdgeId | None]:
        """Distance to, coordinates of, and edge of the closest edge point."""
        return _nearest_on_segments(self.geom, p, self.geom.n_edge_segments or self.geom.n_segments)


def nearest_point_on_graph(g: EmbeddedGraph, p) -> tuple[float, np.ndarray, EdgeId | None]:
    """Distance to, coordinates of, and edge of the closest graph point.

    One numpy pass projects ``p`` onto every segment of the flattened view;
    ties go to the lowest segment index.  Isolated vertices are zero-length
    segments there, so a closest isolated vertex comes with edge ``None``.
    A graph without vertices has no closest point: ``(inf, None, None)``.
    """
    geom = surface_geometry(g)
    return _nearest_on_segments(geom, p, geom.n_segments)


def _nearest_on_segments(geom: _SurfaceGeometry, p, n: int) -> tuple[float, np.ndarray, EdgeId | None]:
    """The closest point of ``p`` on the first ``n`` segments of ``geom``, lowest index on ties."""
    if not n:
        return math.inf, None, None
    dists, proj, _ = project_onto_segments(p, geom.seg_a[:n], geom.seg_d[:n])
    s = int(np.argmin(dists))
    return float(dists[s]), proj[s], geom.seg_edge[s]


def _lex_keys(x, y) -> np.ndarray:
    """``x + iy`` as complex keys: numpy sorts and searches them by ``x``, then ``y``."""
    keys = np.empty(np.shape(x), dtype=complex)
    keys.real = x
    keys.imag = y
    return keys


def _cells(points: np.ndarray, radius: float, scale: float) -> np.ndarray:
    """Cell ``floor(p / side)`` of each point, cells a little wider than ``radius``.

    ``side`` exceeds ``radius`` by ``2**-40`` of ``scale``, the largest
    coordinate: enough that rounding in ``p / side`` cannot put a pair at
    exactly ``radius`` two cells apart, small enough that cell numbers stay
    exact integers, and never 0.
    """
    return np.floor(points / ((radius + scale * 2.0**-40) or 1.0))


def _runs(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every ``(q, s)`` with ``lo[q] <= s < hi[q]``, grouped by ascending ``q``."""
    count = hi - lo
    q = np.repeat(np.arange(len(lo)), count)
    s = np.repeat(lo - (np.cumsum(count) - count), count) + np.arange(int(count.sum()))
    return q, s


def _within(dx: np.ndarray, dy: np.ndarray, radius: float, strict: bool) -> np.ndarray:
    """Whether ``dx**2 + dy**2 < radius*radius`` (``<=`` unless ``strict``) as Python floats compute it."""
    d2 = dx * dx + dy * dy
    # Python's float power may round a square one unit off ``x*x``; that can
    # only decide sums this close to the threshold, so those take its floats.
    rr = radius * radius
    near = np.abs(d2 - rr) <= rr * 2.0**-40
    d2[near] = np.float_power(dx[near], 2) + np.float_power(dy[near], 2)
    return d2 < rr if strict else d2 <= rr


def close_pairs(a, b, radius: float, *, strict: bool) -> tuple[np.ndarray, np.ndarray]:
    """Pairs ``(i, j)`` with ``a[i]`` within ``radius`` of ``b[j]``, grouped by ascending ``i``.

    The test is ``(ax-bx)**2 + (ay-by)**2 < radius*radius`` (``<=`` unless
    ``strict``) as Python floats compute it, and every pair that passes it is
    found.  Points fall into square cells a little wider than ``radius`` and
    only pairs in the same or adjacent cells are tested.  Within a group the
    pairs of ``a[i]``'s own cell column come first, then those of the column
    to its west, then east; in each column by cell row, then by ``j``.  A
    matcher that tries a marble's holes in this order tries the nearest
    column first.
    """
    a = np.asarray(a, dtype=float).reshape(-1, 2)
    b = np.asarray(b, dtype=float).reshape(-1, 2)
    if not len(a) or not len(b):
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    scale = max(float(np.abs(a).max()), float(np.abs(b).max()))
    cell_a, cell_b = _cells(a, radius, scale), _cells(b, radius, scale)
    order = np.argsort(_lex_keys(cell_b[:, 0], cell_b[:, 1]), kind="stable")
    keys = _lex_keys(cell_b[order, 0], cell_b[order, 1])
    # Sorted by column, then row, the three cells of one adjacent column are
    # one run of keys: each point of ``a`` looks up three runs.
    cx = (cell_a[:, 0, None] + np.array([0.0, -1.0, 1.0])).ravel()
    cy = np.repeat(cell_a[:, 1], 3)
    lo = np.searchsorted(keys, _lex_keys(cx, cy - 1.0), side="left")
    hi = np.searchsorted(keys, _lex_keys(cx, cy + 1.0), side="right")
    i, j = _runs(lo, hi)
    i, j = i // 3, order[j]
    close = _within(a[i, 0] - b[j, 0], a[i, 1] - b[j, 1], radius, strict)
    return i[close], j[close]


def close_pairs_within(points, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Pairs ``(later, earlier)`` of ``points`` closer than ``radius``, sorted by ``later``.

    Each unordered pair of distinct indices comes once, with ``earlier <
    later``; the test is :func:`close_pairs`' strict one, ties included.
    With the points sorted by cell, each point searches half the stencil:
    the rest of its own cell column from its own place on (its cell and the
    one above), and the three cells of the column to its east.  That meets
    every pair of the same or adjacent cells once and no point with itself.
    """
    p = np.asarray(points, dtype=float).reshape(-1, 2)
    n = len(p)
    if n < 2:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    cell = _cells(p, radius, float(np.abs(p).max()))
    order = np.argsort(_lex_keys(cell[:, 0], cell[:, 1]), kind="stable")
    cx, cy = cell[order, 0], cell[order, 1]
    keys = _lex_keys(cx, cy)
    own_hi = np.searchsorted(keys, _lex_keys(cx, cy + 1.0), side="right")
    east_lo = np.searchsorted(keys, _lex_keys(cx + 1.0, cy - 1.0), side="left")
    east_hi = np.searchsorted(keys, _lex_keys(cx + 1.0, cy + 1.0), side="right")
    lo = np.column_stack([np.arange(1, n + 1), east_lo]).ravel()
    i, j = _runs(lo, np.column_stack([own_hi, east_hi]).ravel())
    i, j = order[i // 2], order[j]
    close = _within(p[i, 0] - p[j, 0], p[i, 1] - p[j, 1], radius, True)
    i, j = i[close], j[close]
    later, earlier = np.maximum(i, j), np.minimum(i, j)
    by_later = np.argsort(later, kind="stable")
    return later[by_later], earlier[by_later]
