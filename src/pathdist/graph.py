"""Embedded street-map graphs: data model, CSV/GeoJSON I/O, statistics.

A street map is an undirected geometric graph: vertices carry planar meter
coordinates, edges carry polyline geometry oriented from their first to
their second endpoint.  Self-loops are rejected; parallel edges are allowed.
Instances are treated as immutable after construction, so they are safe to
share across worker processes.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import math
from pathlib import Path
from typing import Hashable, Iterable, Mapping, NamedTuple

import numpy as np

from .atomic import atomic_write
from .errors import InputError, ParseError, StructuralError
from .geometry import Point2D, PolyLine

__all__ = [
    "Edge",
    "EmbeddedGraph",
    "GraphStats",
    "load_graph",
    "write_graph_csv",
    "export_geojson",
    "contract_degree_two",
    "graph_stats",
]

VertexId = Hashable
EdgeId = Hashable


class Edge(NamedTuple):
    u: VertexId
    v: VertexId
    geometry: PolyLine


class GraphStats(NamedTuple):
    vertex_count: int
    vertex_count_degree_not3: int
    edge_count: int
    total_length: float


class EmbeddedGraph:
    """Planar geometric graph with polyline edges.

    ``vertices`` maps vertex id to :class:`Point2D`; ``edges`` maps edge id
    to :class:`Edge`.  Edge geometry must start at the ``u`` vertex position
    and end at the ``v`` one.  Iteration order of both mappings is the
    insertion order, which all exports and enumerations follow, so outputs
    are deterministic for a given input.
    """

    __slots__ = ("vertices", "edges", "adjacency", "_frozen_cache")

    def __init__(
        self,
        vertices: Mapping[VertexId, Point2D] | Iterable[tuple[VertexId, tuple[float, float]]],
        edges: Mapping[EdgeId, tuple] | Iterable[tuple[EdgeId, tuple]],
    ):
        vitems = vertices.items() if isinstance(vertices, Mapping) else vertices
        self.vertices: dict[VertexId, Point2D] = {}
        for vid, p in vitems:
            if vid in self.vertices:
                raise StructuralError(f"duplicate vertex id {vid!r}")
            x, y = float(p[0]), float(p[1])
            if not (math.isfinite(x) and math.isfinite(y)):
                raise InputError(f"vertex {vid!r} has non-finite coordinates ({x!r}, {y!r})")
            self.vertices[vid] = Point2D(x, y)

        eitems = edges.items() if isinstance(edges, Mapping) else edges
        self.edges: dict[EdgeId, Edge] = {}
        for eid, spec in eitems:
            if eid in self.edges:
                raise StructuralError(f"duplicate edge id {eid!r}")
            u, v = spec[0], spec[1]
            if u not in self.vertices or v not in self.vertices:
                missing = u if u not in self.vertices else v
                raise StructuralError(f"edge {eid!r} references unknown vertex {missing!r}")
            if u == v:
                raise StructuralError(f"edge {eid!r} is a self-loop at {u!r}")
            geom = spec[2] if len(spec) > 2 and spec[2] is not None else None
            if geom is None:
                geom = PolyLine([self.vertices[u], self.vertices[v]])
            elif not isinstance(geom, PolyLine):
                geom = PolyLine(geom)
            if not self._touches(geom.points[0], self.vertices[u]) or not self._touches(
                geom.points[-1], self.vertices[v]
            ):
                raise StructuralError(f"edge {eid!r} geometry does not join its endpoints")
            self.edges[eid] = Edge(u, v, geom)
        self._index()

    @staticmethod
    def _touches(pt: np.ndarray, vpos: Point2D) -> bool:
        return pt[0] == vpos.x and pt[1] == vpos.y

    def __getstate__(self):
        return (self.vertices, self.edges)

    def __setstate__(self, state):
        self.vertices, self.edges = state
        self._index()

    def _index(self) -> None:
        """Each vertex's incident edge ids in edge insertion order, and an empty cache."""
        adj: dict[VertexId, list[EdgeId]] = {v: [] for v in self.vertices}
        for eid, e in self.edges.items():
            adj[e.u].append(eid)
            adj[e.v].append(eid)
        self.adjacency = {v: tuple(ids) for v, ids in adj.items()}
        self._frozen_cache: dict = {}

    def degree(self, vid: VertexId) -> int:
        return len(self.adjacency[vid])

    def total_length(self) -> float:
        return float(sum(e.geometry.length() for e in self.edges.values()))

    def is_empty(self) -> bool:
        return not self.vertices


def graph_stats(g: EmbeddedGraph) -> GraphStats:
    """Vertex/edge counts, degree!=3 vertex count, and total edge length."""
    not3 = sum(1 for v in g.vertices if g.degree(v) != 3)
    return GraphStats(
        vertex_count=len(g.vertices),
        vertex_count_degree_not3=not3,
        edge_count=len(g.edges),
        total_length=g.total_length(),
    )


def open_text(path) -> io.StringIO:
    """A file's text, read as UTF-8 with its line endings kept (as ``newline=""``).

    A leading UTF-8 byte-order mark, as spreadsheet exports write, is
    dropped.  Bytes that are not UTF-8 raise a :class:`ParseError` with
    their line.
    """
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        return io.StringIO(data.decode("utf-8"), newline="")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason}", line) from None


def csv_rows(fh, header: str):
    """``(line, stripped cells)`` of each non-blank CSV row of the open text ``fh``.

    ``line`` is the file line the row starts on.  A row on line 1 whose first
    cell, in any case, is ``header`` (lower case) is skipped.  A ``csv.Error``
    raises a :class:`ParseError` at the line of its row.
    """
    reader = csv.reader(fh)
    line = 1
    try:
        for row in reader:
            cells = [cell.strip() for cell in row]
            if any(cells) and not (line == 1 and cells[0].lower() == header):
                yield line, cells
            line = reader.line_num + 1
    except csv.Error as exc:
        raise ParseError(str(exc), line) from None


def finite_numbers(cells: list[str], what: str, lineno: int, low: float = -math.inf) -> list[float]:
    """The cells as floats; a ParseError at ``lineno`` unless all are finite and >= ``low``."""
    try:
        values = [float(c) for c in cells]
    except ValueError as exc:
        raise ParseError(f"bad {what}: {exc}", lineno) from exc
    if not all(math.isfinite(v) and v >= low for v in values):
        raise ParseError(f"{what} out of range: {', '.join(cells)}", lineno)
    return values


def load_graph(vertex_file, edge_file) -> EmbeddedGraph:
    """Load a graph from two CSV files.

    Vertex rows are ``id,x,y``; edge rows are ``id,u,v[,x1,y1,x2,y2,...]``
    where the optional trailing floats are interior polyline points, each
    file with an optional ``id`` header (:func:`csv_rows`).  A malformed
    row, a coordinate that is not a finite number and a self-loop raise a
    :class:`ParseError` that names the line.
    """
    vertices: list[tuple[str, tuple[float, float]]] = []
    seen_v: set[str] = set()
    for lineno, row in csv_rows(open_text(vertex_file), "id"):
        if len(row) != 3:
            raise ParseError(f"vertex row needs 3 fields, got {len(row)}", lineno)
        vid = row[0]
        x, y = finite_numbers(row[1:], "vertex coordinates", lineno)
        if vid in seen_v:
            raise ParseError(f"duplicate vertex id {vid!r}", lineno)
        seen_v.add(vid)
        vertices.append((vid, (x, y)))
    vpos = dict(vertices)

    edges: list[tuple[str, tuple]] = []
    seen_e: set[str] = set()
    for lineno, row in csv_rows(open_text(edge_file), "id"):
        if len(row) < 3 or len(row) % 2 == 0:
            raise ParseError(
                f"edge row needs id,u,v plus x,y pairs; got {len(row)} fields", lineno
            )
        eid, u, v = row[0], row[1], row[2]
        if eid in seen_e:
            raise ParseError(f"duplicate edge id {eid!r}", lineno)
        seen_e.add(eid)
        coords = finite_numbers(row[3:], "edge coordinates", lineno)
        interior = list(zip(coords[0::2], coords[1::2]))
        if u not in vpos or v not in vpos:
            missing = u if u not in vpos else v
            raise StructuralError(f"line {lineno}: edge {eid!r} references unknown vertex {missing!r}")
        if u == v:
            raise ParseError(f"edge {eid!r} is a self-loop at {u!r}", lineno)
        geometry = PolyLine([vpos[u], *interior, vpos[v]])
        edges.append((eid, (u, v, geometry)))

    return EmbeddedGraph(vertices, edges)


def _fmt(x: float) -> str:
    return repr(float(x))


def write_graph_csv(g: EmbeddedGraph, vertex_file, edge_file) -> None:
    """Write the two-file CSV representation read by :func:`load_graph`."""
    with atomic_write(vertex_file, newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["id", "x", "y"])
        for vid, p in g.vertices.items():
            w.writerow([vid, _fmt(p.x), _fmt(p.y)])
    with atomic_write(edge_file, newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["id", "u", "v"])
        for eid, e in g.edges.items():
            interior = e.geometry.points[1:-1]
            row = [eid, e.u, e.v]
            for px, py in interior:
                row.extend([_fmt(px), _fmt(py)])
            w.writerow(row)


def linestring_collection(lines: Iterable[tuple[np.ndarray, dict]]) -> dict:
    """FeatureCollection of one LineString per ``(points, properties)`` pair of ``lines``.

    Coordinates stay in the input planar frame; no reprojection is applied.
    """
    features = [
        {
            "type": "Feature",
            "geometry": {"type": "LineString", "coordinates": [[float(x), float(y)] for x, y in points]},
            "properties": properties,
        }
        for points, properties in lines
    ]
    return {"type": "FeatureCollection", "features": features}


def write_geojson(path, doc: dict) -> None:
    """Write ``doc`` atomically with one-space indents and a final newline.

    Keys keep the order the document was built in; they are not sorted.
    """
    with atomic_write(path) as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def export_geojson(g: EmbeddedGraph, path=None) -> dict:
    """:func:`linestring_collection` of every edge, with its ``edge_id``.

    Returns the document; writes it to ``path`` when given.
    """
    doc = linestring_collection((e.geometry.points, {"edge_id": eid}) for eid, e in g.edges.items())
    if path is not None:
        write_geojson(path, doc)
    return doc


def contract_degree_two(g: EmbeddedGraph) -> EmbeddedGraph:
    """Merge maximal chains through degree-2 vertices into single edges.

    Chain interiors become polyline bend points of the merged edge, which
    keeps the id of its first constituent edge.  A chain with both ends at
    the same anchor would contract to a self-loop, so it is split at one of
    its interior vertices instead; an isolated cycle of degree-2 vertices
    keeps two anchor vertices and becomes two parallel edges.  A self-loop,
    which only a pickle carries, is a chain of one edge and stays one edge,
    so the result then carries it the way a pickle does.  The operation is
    idempotent and preserves total length.
    """
    from .paths import VertexPath, dart_table, path_geometry  # paths imports this module
    dart_of = dart_table(g).dart_of
    is_interior = {v: g.degree(v) == 2 for v in g.vertices}
    visited_edges: set[EdgeId] = set()
    new_edges: list[tuple[EdgeId, tuple]] = []
    kept_vertices: set[VertexId] = {v for v, mid in is_interior.items() if not mid}

    def walk(eid: EdgeId, start: VertexId) -> tuple[list[tuple[EdgeId, VertexId]], VertexId]:
        """Follow a chain from anchor ``start`` until a non-interior vertex."""
        chain = [(eid, start)]
        visited_edges.add(eid)
        cur = dart_of[eid, start][1]
        prev_eid = eid
        while is_interior[cur] and cur != start:
            e1, e2 = g.adjacency[cur]
            nxt = e2 if e1 == prev_eid else e1
            if nxt in visited_edges:
                break
            chain.append((nxt, cur))
            visited_edges.add(nxt)
            prev_eid = nxt
            cur = dart_of[nxt, cur][1]
        return chain, cur

    def emit(chain: list[tuple[EdgeId, VertexId]], start: VertexId, end: VertexId) -> None:
        if start == end and len(chain) > 1:
            # Would form a self-loop: split at the interior vertex halfway in.
            half = max(1, len(chain) // 2)
            mid_vertex = chain[half][1]
            kept_vertices.add(mid_vertex)
            emit(chain[:half], start, mid_vertex)
            emit(chain[half:], mid_vertex, end)
            return
        eids, entries = zip(*chain)
        geom = path_geometry(g, VertexPath((*entries, end), eids))
        kept_vertices.add(start)
        kept_vertices.add(end)
        new_edges.append((chain[0][0], (start, end, geom)))

    for vid in g.vertices:
        if is_interior[vid]:
            continue
        for eid in g.adjacency[vid]:
            if eid not in visited_edges:
                chain, end = walk(eid, vid)
                emit(chain, vid, end)

    # Isolated cycles where every vertex has degree two: anchor the first
    # vertex reached in iteration order and split the resulting loop.
    for vid in g.vertices:
        if not is_interior[vid]:
            continue
        unvisited = [eid for eid in g.adjacency[vid] if eid not in visited_edges]
        if not unvisited:
            continue
        kept_vertices.add(vid)
        chain, end = walk(unvisited[0], vid)
        emit(chain, vid, end)

    vertex_items = [(v, g.vertices[v]) for v in g.vertices if v in kept_vertices]
    out = EmbeddedGraph(vertex_items, [(eid, spec) for eid, spec in new_edges if spec[0] != spec[1]])
    if len(out.edges) < len(new_edges):
        out.__setstate__((out.vertices, {eid: Edge(*spec) for eid, spec in new_edges}))
    return out
