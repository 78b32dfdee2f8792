"""Vertex-paths of bounded link-length and their enumeration.

A vertex-path is a walk: vertices joined by listed edges, with repeated
vertices and edges allowed (an immediate backtrack such as ``<u v u>`` is a
valid link-length-2 path).  Because the graphs are undirected and matching
costs are reversal-invariant, paths are enumerated canonically up to
reversal: of a walk and its reverse, only the lexicographically smaller one
is produced.

The walks of one link-length are integer arrays (:class:`Walks`): each row
holds a walk's vertex indices and the darts of :func:`dart_table` it takes.
They are built level by level over the darts leaving each vertex, in
``g.adjacency`` order, so the rows come in depth-first order, and a walk is
kept when it is canonical by the ranks of its ids' ``repr``s.  Curves,
bounds, sub-paths (:func:`sub_rows`), records, signatures and report labels
read the rows by index.  :class:`VertexPath` objects are built only by
:func:`enumerate_paths` and for hand-made paths given to :func:`path_geometry`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import InputError, StructuralError, is_integer
from .geometry import PolyLine
from .graph import EdgeId, EmbeddedGraph, VertexId

__all__ = [
    "VertexPath",
    "Walks",
    "canonical_walks",
    "check_link_length",
    "enumerate_paths",
    "path_curves",
    "path_geometry",
    "sub_rows",
]


@dataclass(frozen=True)
class VertexPath:
    """A walk of link-length ``k``: k+1 vertex ids and k edge ids."""

    vertex_ids: tuple[VertexId, ...]
    edge_ids: tuple[EdgeId, ...]

    def __post_init__(self):
        if len(self.edge_ids) < 1 or len(self.vertex_ids) != len(self.edge_ids) + 1:
            raise InputError("a vertex-path needs k>=1 edges and k+1 vertices")


def _ranks(ids) -> np.ndarray:
    """Each id's rank among the ``repr``s of ``ids``, in ``str`` order: equal reprs, equal ranks."""
    reprs = [repr(x) for x in ids]
    rank = {r: i for i, r in enumerate(sorted(set(reprs)))}
    return np.array([rank[r] for r in reprs], dtype=np.intp)


class _Darts:
    """Both directions of every edge of a graph, as rows of one point array.

    Dart ``2*i`` runs along the ``i``-th edge (insertion order) from ``u``
    to ``v`` and dart ``2*i + 1`` runs back; row ``d`` is ``points[start[d]
    : start[d + 1]]``.  ``dart_of[eid, w]`` is the dart that enters edge
    ``eid`` at vertex ``w`` and the vertex it ends at, and ``head[d]`` the
    index (insertion order) of that vertex.  A self-loop, which only a
    pickle carries, runs forward from both ends.  This table alone decides
    which way an edge's points run along a walk.

    The darts leaving vertex ``v`` are ``out[out_start[v] : out_start[v +
    1]]``, in ``g.adjacency`` order: a self-loop is listed there twice.
    ``vertex_rank`` and ``edge_rank`` order the ids by their ``repr``s.
    """

    def __init__(self, g: EmbeddedGraph):
        rows: list[np.ndarray] = []
        self.dart_of: dict = {}
        index = {v: i for i, v in enumerate(g.vertices)}
        head: list[int] = []
        for i, (eid, e) in enumerate(g.edges.items()):
            rows += (e.geometry.points, e.geometry.points[::-1])
            self.dart_of[eid, e.v] = (2 * i + 1, e.u)
            self.dart_of[eid, e.u] = (2 * i, e.v)
            head += (index[e.v], index[e.u])
        self.start = np.cumsum([0] + [len(r) for r in rows], dtype=np.intp)
        self.points = np.concatenate(rows) if rows else np.empty((0, 2))
        self.head = np.asarray(head, dtype=np.intp)
        out = [self.dart_of[eid, v][0] for v, ids in g.adjacency.items() for eid in ids]
        self.out = np.asarray(out, dtype=np.intp)
        self.out_start = np.cumsum([0] + [len(ids) for ids in g.adjacency.values()], dtype=np.intp)
        self.vertex_ids = list(g.vertices)
        self.edge_ids = list(g.edges)
        self.vertex_rank = _ranks(self.vertex_ids)
        self.edge_rank = _ranks(self.edge_ids)

    def row(self, d: int) -> np.ndarray:
        return self.points[self.start[d] : self.start[d + 1]]

    def walk(self, p: VertexPath) -> Iterator[int]:
        """The darts ``p`` takes, in order; a :class:`StructuralError` names an edge it cannot take."""
        for eid, a, b in zip(p.edge_ids, p.vertex_ids, p.vertex_ids[1:]):
            hop = self.dart_of.get((eid, a))
            if hop is None or hop[1] != b:
                raise StructuralError(f"no edge {eid!r} joins {a!r} and {b!r}")
            yield hop[0]


def dart_table(g: EmbeddedGraph) -> _Darts:
    """The cached dart table of ``g``, built on first use (again after unpickling)."""
    darts = g._frozen_cache.get("darts")
    if darts is None:
        darts = g._frozen_cache["darts"] = _Darts(g)
    return darts


def _below_reverse(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row: whether it is lexicographically less than its reverse, and whether equal."""
    rev = rows[:, ::-1]
    differ = rows != rev
    first = differ.argmax(axis=1)[:, None]
    less = np.take_along_axis(rows, first, 1) < np.take_along_axis(rev, first, 1)
    return less[:, 0], ~differ.any(axis=1)


def _canonical(t: _Darts, vertices: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Which walks (rows of vertex and edge indices) are canonical: no greater than their reverse.

    A walk is canonical when its vertex ids' ``repr``s compare below its
    reverse's, or equal and its edge ids' ``repr``s no greater.  The ranks
    of the ``repr``s decide it without a string.
    """
    v_less, v_equal = _below_reverse(t.vertex_rank[vertices])
    e_less, e_equal = _below_reverse(t.edge_rank[edges])
    return v_less | (v_equal & (e_less | e_equal))


class Walks:
    """Walks of one link-length ``k`` in a graph, one per row.

    ``vertices`` holds each walk's k+1 vertex indices (insertion order) and
    ``darts`` the k darts of :func:`dart_table` it takes.  Indexing with an
    array or a list of rows gives those walks.
    """

    __slots__ = ("table", "vertices", "darts")

    def __init__(self, table: _Darts, vertices: np.ndarray, darts: np.ndarray):
        self.table, self.vertices, self.darts = table, vertices, darts

    def __len__(self) -> int:
        return self.darts.shape[0]

    def __getitem__(self, rows) -> "Walks":
        return Walks(self.table, self.vertices[rows], self.darts[rows])


def check_link_length(k) -> None:
    """Raise :class:`InputError` unless ``k`` is an integer >= 1 (a bool is not one)."""
    if not is_integer(k, 1):
        raise InputError(f"link-length k must be an integer >= 1, got {k!r}")


def canonical_walks(g: EmbeddedGraph, k: int) -> Walks:
    """Every link-length-``k`` walk of ``g`` once up to reversal, cached on ``g``.

    Rows are in depth-first order: starts in vertex insertion order, each
    hop in ``g.adjacency`` order.  Non-simple walks (repeated vertices or
    edges) are included.  ``k`` is checked by :func:`check_link_length`.
    """
    check_link_length(k)
    walks = g._frozen_cache.get(("walks", int(k)))
    if walks is None:
        if k > 3:
            warnings.warn(f"enumerating link-length {k} paths is combinatorially expensive", stacklevel=3)
        t = dart_table(g)
        vertices = np.arange(len(t.vertex_ids), dtype=np.intp)[:, None]
        darts = np.empty((len(vertices), 0), dtype=np.intp)
        # Each level repeats every walk once per dart leaving its last vertex.
        for _ in range(k):
            lo = t.out_start[vertices[:, -1]]
            n = t.out_start[vertices[:, -1] + 1] - lo
            parent = np.repeat(np.arange(len(n)), n)
            hop = t.out[np.arange(len(parent)) + np.repeat(lo - (np.cumsum(n) - n), n)]
            vertices = np.column_stack((vertices[parent], t.head[hop]))
            darts = np.column_stack((darts[parent], hop))
        walks = Walks(t, vertices, darts)[_canonical(t, vertices, darts >> 1)]
        # Every caller shares them.
        walks.vertices.setflags(write=False)
        walks.darts.setflags(write=False)
        g._frozen_cache["walks", int(k)] = walks
    return walks


def enumerate_paths(g: EmbeddedGraph, k: int) -> Iterator[VertexPath]:
    """Stream every link-length-``k`` vertex-path of ``g`` once up to reversal.

    The paths are the rows of :func:`canonical_walks`, in order, so the
    stream is deterministic.  ``k`` is checked by :func:`check_link_length`
    before the first path.
    """
    walks = canonical_walks(g, k)
    vid, eid = walks.table.vertex_ids, walks.table.edge_ids
    for v, e in zip(walks.vertices.tolist(), (walks.darts >> 1).tolist()):
        yield VertexPath(tuple(map(vid.__getitem__, v)), tuple(map(eid.__getitem__, e)))


def sub_rows(g: EmbeddedGraph, k: int) -> np.ndarray:
    """Per row of ``canonical_walks(g, k)``, k >= 2, the rows of its canonical prefix and suffix, cached on ``g``.

    Each half, oriented canonically (see :func:`_canonical`), is found among
    the rows of ``canonical_walks(g, k - 1)`` by its vertex and edge indices;
    of two alike rows, which a self-loop can make, the first serves.
    """
    subs = g._frozen_cache.get(("sub_rows", k))
    if subs is None:
        walks, shorter = canonical_walks(g, k), canonical_walks(g, k - 1)
        v = np.vstack((walks.vertices[:, :-1], walks.vertices[:, 1:]))  # prefixes, then suffixes
        e = np.vstack(((walks.darts >> 1)[:, :-1], (walks.darts >> 1)[:, 1:]))
        keep = _canonical(walks.table, v, e)[:, None]
        halves = np.where(keep, np.hstack((v, e)), np.hstack((v[:, ::-1], e[:, ::-1])))
        rows = np.vstack((np.hstack((shorter.vertices, shorter.darts >> 1)), halves))
        _, first, group = np.unique(rows, axis=0, return_index=True, return_inverse=True)
        subs = first[group.ravel()[len(shorter) :]].reshape(2, -1).T
        subs.setflags(write=False)
        g._frozen_cache["sub_rows", k] = subs
    return subs


def path_geometry(g: EmbeddedGraph, p: VertexPath) -> PolyLine:
    """Concatenated, correctly oriented polyline realizing ``p``.

    Shared junction points are not duplicated.
    """
    darts = dart_table(g)
    rows = [darts.row(d) for d in darts.walk(p)]
    return PolyLine(np.concatenate([rows[0], *(r[1:] for r in rows[1:])]))


def path_curves(g: EmbeddedGraph, walks: Walks, *, return_lengths: bool = False):
    """Each walk's curve points, collapsed, gathered from the rows of ``g``'s dart table.

    Row for row and bit for bit, the curve of walk ``p`` (as a :class:`VertexPath`)
    is ``path_geometry(g, p).collapsed().points``: the first dart in full,
    each later dart without its first point, and then consecutive duplicate
    points dropped.  All walks share one gather and one pass over their
    segment lengths; each curve is a read-only slice of the kept rows.  With
    ``return_lengths=True`` returns ``(curves, lengths)``, each length the
    float ``path_geometry(g, p).length()``.
    """
    if not len(walks):
        return ([], []) if return_lengths else []
    darts = dart_table(g)
    hops = walks.darts.ravel()
    lead = np.arange(len(walks)) * walks.darts.shape[1]
    # Each hop's rows of the point table: all of the first dart, then each without its first point.
    lo = darts.start[hops] + 1
    lo[lead] -= 1
    count = darts.start[hops + 1] - lo
    offset = np.cumsum(count) - count
    index = np.arange(count.sum()) + np.repeat(lo - offset, count)
    points = darts.points[index]
    d = np.diff(points, axis=0)
    seg = np.hypot(d[:, 0], d[:, 1])
    starts = offset[lead]
    keep = np.empty(len(index), dtype=bool)
    keep[1:] = seg > 0.0
    keep[starts] = True
    kept = points[keep]
    kept.setflags(write=False)
    # Each path's first and one-past-last row among the kept rows.
    ends = np.append(starts[1:], len(index))
    upto = np.cumsum(keep)
    curves = [kept[a:b] for a, b in zip((upto[starts] - 1).tolist(), upto[ends - 1].tolist())]
    if not return_lengths:
        return curves
    return curves, [float(seg[a : b - 1].sum()) for a, b in zip(starts.tolist(), ends.tolist())]
