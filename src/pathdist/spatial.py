"""The flattened segment view of a graph, and nearest-point queries on it.

``_SurfaceGeometry`` lays every edge out as rows of ``seg_a``/``seg_b``
segment endpoints (cached per graph) and numbers the points where segments
meet, graph vertices and polyline bends alike, as one array of joints.
Free-space map matching sweeps these rows and glues them at the joints.
Every nearest-point query projects a point onto a prefix of the rows in one
pass of ``geometry.project_onto_segments``: :func:`nearest_point_on_graph`
onto all of them, and the F-score seeding (``SpatialGrid``) onto the edge
segments alone.  :func:`close_pairs` finds every pair of points within a
radius, which F-score sampling thins with and its matching joins on.
"""

from __future__ import annotations

import math
from typing import Hashable

import numpy as np

from .geometry import project_onto_segments, segment_terms
from .graph import EdgeId, EmbeddedGraph

__all__ = ["SpatialGrid", "close_pairs", "nearest_point_on_graph"]


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


def close_pairs(a, b, radius: float, *, strict: bool) -> tuple[np.ndarray, np.ndarray]:
    """Pairs ``(i, j)`` with ``a[i]`` within ``radius`` of ``b[j]``, grouped by ascending ``i``.

    The test is ``(ax-bx)**2 + (ay-by)**2 < radius*radius`` (``<=`` unless
    ``strict``) as Python floats compute it, and every pair that passes it is
    found.  Points fall into square cells ``floor(p / side)`` and only pairs
    in the same or adjacent cells are tested.  ``side`` exceeds ``radius`` by
    ``2**-40`` of the largest coordinate: enough that rounding in ``p / side``
    cannot put a pair at exactly ``radius`` two cells apart, small enough that
    cell numbers stay exact integers, and never 0.
    """
    a = np.asarray(a, dtype=float).reshape(-1, 2)
    b = np.asarray(b, dtype=float).reshape(-1, 2)
    if not len(a) or not len(b):
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    scale = max(float(np.abs(a).max()), float(np.abs(b).max()))
    side = (radius + scale * 2.0**-40) or 1.0
    cell_a, cell_b = np.floor(a / side), np.floor(b / side)
    order = np.argsort(_lex_keys(cell_b[:, 0], cell_b[:, 1]), kind="stable")
    keys = _lex_keys(cell_b[order, 0], cell_b[order, 1])
    # Sorted by column, then row, the three cells of one adjacent column are
    # one run of keys: each point of ``a`` looks up three runs.
    cx = (cell_a[:, 0, None] + np.array([-1.0, 0.0, 1.0])).ravel()
    cy = np.repeat(cell_a[:, 1], 3)
    lo = np.searchsorted(keys, _lex_keys(cx, cy - 1.0), side="left")
    count = np.searchsorted(keys, _lex_keys(cx, cy + 1.0), side="right") - lo
    i = np.repeat(np.arange(len(cx)) // 3, count)
    j = order[np.repeat(lo - (np.cumsum(count) - count), count) + np.arange(int(count.sum()))]
    dx, dy = a[i, 0] - b[j, 0], a[i, 1] - b[j, 1]
    d2 = dx * dx + dy * dy
    # Python's float power may round a square one unit off ``x*x``; that can
    # only decide sums this close to the threshold, so those take its floats.
    rr = radius * radius
    near = np.abs(d2 - rr) <= rr * 2.0**-40
    d2[near] = np.float_power(dx[near], 2) + np.float_power(dy[near], 2)
    close = d2 < rr if strict else d2 <= rr
    return i[close], j[close]
