"""Vertex-paths of bounded link-length and their enumeration.

A vertex-path is a walk: vertices joined by listed edges, with repeated
vertices and edges allowed (an immediate backtrack such as ``<u v u>`` is a
valid link-length-2 path).  Because the graphs are undirected and matching
costs are reversal-invariant, paths are enumerated canonically up to
reversal: of a walk and its reverse, only the lexicographically smaller one
is produced.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterator

from .errors import InputError, StructuralError
from .geometry import PolyLine
from .graph import EdgeId, EmbeddedGraph, VertexId, _merge_chain_geometry

__all__ = [
    "VertexPath",
    "enumerate_paths",
    "paths_through_vertex",
    "paths_through_edge",
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
        """Human-readable vertex sequence, used in report CSVs."""
        return "-".join(str(v) for v in self.vertex_ids)


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


def _walks_from(g: EmbeddedGraph, start: VertexId, k: int) -> Iterator[tuple[tuple, tuple]]:
    """All directed walks of link-length ``k`` starting at ``start``."""
    if k == 0:
        yield (start,), ()
        return
    yield from _extensions(g, [start], [], k)


def _warn_large_k(k: int) -> None:
    if k > 3:
        warnings.warn(
            f"enumerating link-length {k} paths is combinatorially expensive",
            stacklevel=3,
        )


def enumerate_paths(g: EmbeddedGraph, k: int) -> Iterator[VertexPath]:
    """Stream every link-length-``k`` vertex-path of ``g`` once up to reversal.

    Walks are generated in vertex insertion order, so the stream is
    deterministic.  Non-simple walks (repeated vertices or edges) are
    included.
    """
    if k < 1:
        raise InputError("link-length k must be >= 1")
    _warn_large_k(k)
    for v0 in g.vertices:
        for vseq, eseq in _walks_from(g, v0, k):
            p = VertexPath(vseq, eseq)
            if p.key() <= p.reversed().key():
                yield p


def _joined(back: tuple[tuple, tuple], fwd: tuple[tuple, tuple]) -> VertexPath:
    """Join a backward walk (reversed) with a forward walk sharing its origin."""
    bv, be = back
    fv, fe = fwd
    return VertexPath(bv[::-1] + fv[1:], be[::-1] + fe)


def paths_through_vertex(g: EmbeddedGraph, v: VertexId, k: int) -> Iterator[VertexPath]:
    """Canonical link-length-``k`` paths containing ``v`` at any position."""
    if v not in g.vertices:
        raise StructuralError(f"unknown vertex id {v!r}")
    if k < 1:
        raise InputError("link-length k must be >= 1")
    _warn_large_k(k)
    seen: set[tuple] = set()
    for i in range(k + 1):
        for back in _walks_from(g, v, i):
            for fwd in _walks_from(g, v, k - i):
                p = _joined(back, fwd).canonical()
                key = p.key()
                if key not in seen:
                    seen.add(key)
                    yield p


def paths_through_edge(g: EmbeddedGraph, e: EdgeId, k: int) -> Iterator[VertexPath]:
    """Canonical link-length-``k`` paths traversing edge ``e`` at any position."""
    if e not in g.edges:
        raise StructuralError(f"unknown edge id {e!r}")
    if k < 1:
        raise InputError("link-length k must be >= 1")
    _warn_large_k(k)
    edge = g.edges[e]
    seen: set[tuple] = set()
    for u, v in ((edge.u, edge.v), (edge.v, edge.u)):
        for i in range(1, k + 1):  # e occupies hop i of the walk
            for back in _walks_from(g, u, i - 1):
                for fwd in _walks_from(g, v, k - i):
                    bv, be = back
                    fv, fe = fwd
                    p = VertexPath(bv[::-1] + fv, be[::-1] + (e,) + fe).canonical()
                    key = p.key()
                    if key not in seen:
                        seen.add(key)
                        yield p


def path_geometry(g: EmbeddedGraph, p: VertexPath) -> PolyLine:
    """Concatenated, correctly oriented polyline realizing ``p``.

    Shared junction points are not duplicated.
    """
    validate_path(g, p)
    return _merge_chain_geometry(g, list(zip(p.edge_ids, p.vertex_ids)))
