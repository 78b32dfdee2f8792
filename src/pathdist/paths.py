"""Vertex-paths of bounded link-length and their enumeration.

A vertex-path is a walk: vertices joined by listed edges, with repeated
vertices and edges allowed (an immediate backtrack such as ``<u v u>`` is a
valid link-length-2 path).  Because the graphs are undirected and matching
costs are reversal-invariant, paths are enumerated canonically up to
reversal: of a walk and its reverse, only the lexicographically smaller one
is produced.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import InputError, StructuralError
from .geometry import PolyLine
from .graph import EdgeId, EmbeddedGraph, VertexId

__all__ = [
    "VertexPath",
    "canonical_test",
    "check_link_length",
    "enumerate_paths",
    "path_curves",
    "path_geometry",
]


@dataclass(frozen=True)
class VertexPath:
    """A walk of link-length ``k``: k+1 vertex ids and k edge ids."""

    vertex_ids: tuple[VertexId, ...]
    edge_ids: tuple[EdgeId, ...]

    def __post_init__(self):
        if len(self.edge_ids) < 1 or len(self.vertex_ids) != len(self.edge_ids) + 1:
            raise InputError("a vertex-path needs k>=1 edges and k+1 vertices")

    @property
    def link_length(self) -> int:
        return len(self.edge_ids)

    def reversed(self) -> "VertexPath":
        return VertexPath(self.vertex_ids[::-1], self.edge_ids[::-1])

    def key(self) -> tuple:
        """Total-order key used for canonicalization up to reversal."""
        return (
            tuple(repr(v) for v in self.vertex_ids),
            tuple(repr(e) for e in self.edge_ids),
        )

    def canonical(self) -> "VertexPath":
        rev = self.reversed()
        return self if self.key() <= rev.key() else rev

    def label(self) -> str:
        r"""Vertex ids joined by ``-``, used in report CSVs.

        Inside each id, ``\`` becomes ``\\`` and ``-`` becomes ``\-``, so the
        label splits back into its ids; other ids keep their text.
        """
        return "-".join(str(v).replace("\\", "\\\\").replace("-", "\\-") for v in self.vertex_ids)


class _Darts:
    """Both directions of every edge of a graph, as rows of one point array.

    Dart ``2*i`` runs along the ``i``-th edge (insertion order) from ``u``
    to ``v`` and dart ``2*i + 1`` runs back; row ``d`` is ``points[start[d]
    : start[d + 1]]``.  ``dart_of[eid, w]`` is the dart that enters edge
    ``eid`` at vertex ``w`` and the vertex it ends at.  A self-loop, which
    only a pickle carries, runs forward from both ends.  This table alone
    decides which way an edge's points run along a walk.
    """

    def __init__(self, g: EmbeddedGraph):
        rows: list[np.ndarray] = []
        self.dart_of: dict = {}
        for i, (eid, e) in enumerate(g.edges.items()):
            rows += (e.geometry.points, e.geometry.points[::-1])
            self.dart_of[eid, e.v] = (2 * i + 1, e.u)
            self.dart_of[eid, e.u] = (2 * i, e.v)
        self.start = np.cumsum([0] + [len(r) for r in rows], dtype=np.intp)
        self.points = np.concatenate(rows) if rows else np.empty((0, 2))

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


def _extensions(g: EmbeddedGraph, dart_of: dict, vseq: list, eseq: list, k: int) -> Iterator[tuple[tuple, tuple]]:
    if len(eseq) == k:
        yield tuple(vseq), tuple(eseq)
        return
    last = vseq[-1]
    for eid in g.adjacency[last]:
        vseq.append(dart_of[eid, last][1])
        eseq.append(eid)
        yield from _extensions(g, dart_of, vseq, eseq, k)
        vseq.pop()
        eseq.pop()


def canonical_test(g: EmbeddedGraph) -> Callable[[Sequence, Sequence], bool]:
    """A test of whether the walk ``(vertex ids, edge ids)`` in ``g`` is canonical.

    It decides :meth:`VertexPath.canonical`'s ``key() <= reversed().key()``
    from one ``repr`` per vertex id and edge id of ``g``, without building
    either key or the reversed path.
    """
    vkey = {v: repr(v) for v in g.vertices}
    ekey = {e: repr(e) for e in g.edges}

    def is_canonical(vseq: Sequence, eseq: Sequence) -> bool:
        vk = [vkey[v] for v in vseq]
        rk = vk[::-1]
        return vk < rk or (vk == rk and [ekey[e] for e in eseq] <= [ekey[e] for e in eseq[::-1]])

    return is_canonical


def check_link_length(k) -> None:
    """Raise :class:`InputError` unless ``k`` is an integer >= 1 (a bool is not one)."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
        raise InputError(f"link-length k must be an integer >= 1, got {k!r}")


def enumerate_paths(g: EmbeddedGraph, k: int) -> Iterator[VertexPath]:
    """Stream every link-length-``k`` vertex-path of ``g`` once up to reversal.

    Walks are generated in vertex insertion order, so the stream is
    deterministic.  Non-simple walks (repeated vertices or edges) are
    included.  ``k`` is checked by :func:`check_link_length` before the
    first path.
    """
    check_link_length(k)
    if k > 3:
        warnings.warn(
            f"enumerating link-length {k} paths is combinatorially expensive",
            stacklevel=2,
        )
    is_canonical = canonical_test(g)
    dart_of = dart_table(g).dart_of
    for v0 in g.vertices:
        for vseq, eseq in _extensions(g, dart_of, [v0], [], k):
            if is_canonical(vseq, eseq):
                yield VertexPath(vseq, eseq)


def path_geometry(g: EmbeddedGraph, p: VertexPath) -> PolyLine:
    """Concatenated, correctly oriented polyline realizing ``p``.

    Shared junction points are not duplicated.
    """
    darts = dart_table(g)
    rows = [darts.row(d) for d in darts.walk(p)]
    return PolyLine(np.concatenate([rows[0], *(r[1:] for r in rows[1:])]))


def path_curves(g: EmbeddedGraph, paths: Sequence[VertexPath], *, return_lengths: bool = False):
    """Each path's curve points, collapsed, gathered from the rows of ``g``'s dart table.

    Row for row and bit for bit, the curve of ``p`` is
    ``path_geometry(g, p).collapsed().points``: the first dart in full, each
    later dart without its first point, and then consecutive duplicate
    points dropped.  All paths share one gather and one pass over their
    segment lengths; each curve is a read-only slice of the kept rows.  With
    ``return_lengths=True`` returns ``(curves, lengths)``, each length the
    float ``path_geometry(g, p).length()``.
    """
    darts = dart_table(g)
    start = darts.start.tolist()
    index: list[int] = []
    starts = []
    for p in paths:
        starts.append(len(index))
        for i, d in enumerate(darts.walk(p)):
            index += range(start[d] + (i > 0), start[d + 1])
    if not starts:
        return ([], []) if return_lengths else []
    points = darts.points[np.asarray(index, dtype=np.intp)]
    d = np.diff(points, axis=0)
    seg = np.hypot(d[:, 0], d[:, 1])
    keep = np.empty(len(index), dtype=bool)
    keep[1:] = seg > 0.0
    keep[starts] = True
    kept = points[keep]
    kept.setflags(write=False)
    # Each path's first and one-past-last row among the kept rows.
    ends = starts[1:] + [len(index)]
    upto = np.cumsum(keep).tolist()
    curves = [kept[upto[a] - 1 : upto[b - 1]] for a, b in zip(starts, ends)]
    if not return_lengths:
        return curves
    return curves, [float(seg[a : b - 1].sum()) for a, b in zip(starts, ends)]
