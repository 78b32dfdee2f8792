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
from .graph import EdgeId, EmbeddedGraph, VertexId, _merge_chain_geometry

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


def validate_path(g: EmbeddedGraph, p: VertexPath) -> None:
    """Raise unless every hop of ``p`` uses a real edge of ``g``."""
    for i, eid in enumerate(p.edge_ids):
        if eid not in g.edges:
            raise StructuralError(f"unknown edge id {eid!r}")
        e = g.edges[eid]
        a, b = p.vertex_ids[i], p.vertex_ids[i + 1]
        if {a, b} != {e.u, e.v}:
            raise StructuralError(f"edge {eid!r} does not join {a!r} and {b!r}")


def _extensions(g: EmbeddedGraph, vseq: list, eseq: list, k: int) -> Iterator[tuple[tuple, tuple]]:
    if len(eseq) == k:
        yield tuple(vseq), tuple(eseq)
        return
    last = vseq[-1]
    for eid in g.adjacency[last]:
        vseq.append(g.other_endpoint(eid, last))
        eseq.append(eid)
        yield from _extensions(g, vseq, eseq, k)
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
    for v0 in g.vertices:
        for vseq, eseq in _extensions(g, [v0], [], k):
            if is_canonical(vseq, eseq):
                yield VertexPath(vseq, eseq)


def path_geometry(g: EmbeddedGraph, p: VertexPath) -> PolyLine:
    """Concatenated, correctly oriented polyline realizing ``p``.

    Shared junction points are not duplicated.
    """
    validate_path(g, p)
    return _merge_chain_geometry(g, list(zip(p.edge_ids, p.vertex_ids)))


def path_curves(g: EmbeddedGraph, paths: Sequence[VertexPath], *, return_lengths: bool = False):
    """Each path's curve points, collapsed, gathered from one flat table of ``g``'s edge points.

    Row for row and bit for bit, the curve of ``p`` is
    ``path_geometry(g, p).collapsed().points``: the first edge in full, each
    later edge oriented from its entry vertex without its first point, and
    then consecutive duplicate points dropped.  All paths share one gather
    and one pass over their segment lengths; each curve is a read-only
    slice of the kept rows.  With ``return_lengths=True`` returns
    ``(curves, lengths)``, each length the float
    ``path_geometry(g, p).length()``.
    """
    # Per edge: its rows of the table forward and reversed, each in full and
    # without its first row.
    rows: dict = {}
    at = 0
    for eid, e in g.edges.items():
        fwd = list(range(at, at + len(e.geometry)))
        rev = fwd[::-1]
        rows[eid] = (e.u, fwd, fwd[1:], rev, rev[1:])
        at += len(fwd)
    index: list[int] = []
    starts = []
    for p in paths:
        validate_path(g, p)
        starts.append(len(index))
        for i, (eid, start) in enumerate(zip(p.edge_ids, p.vertex_ids)):
            u, fwd, fwd_tail, rev, rev_tail = rows[eid]
            if start == u:
                index += fwd_tail if i else fwd
            else:
                index += rev_tail if i else rev
    if not starts:
        return ([], []) if return_lengths else []
    table = np.concatenate([e.geometry.points for e in g.edges.values()])
    points = table[np.asarray(index, dtype=np.intp)]
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
