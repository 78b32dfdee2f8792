"""Directed path-based distance, local signatures, and separation diagnostics.

The directed distance of link-length ``k`` maps every canonical
link-length-``k`` vertex-path of the source graph into the target graph and
takes the maximum of the map-matching distances.  The same per-path values,
aggregated over the paths through each edge or vertex, yield the local
signatures, so one matching pass serves the global distance and both
signature maps.  The distance is directional and deliberately asymmetric.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import InputError, ParseError, StructuralError
from .frechet import DEFAULT_TOLERANCE, check_tolerance, discrete_frechet
from .geometry import DiscQuadratic, PolyLine, max_distance_to_point
from .graph import EmbeddedGraph, VertexId, csv_rows, finite_numbers
from .matching import map_match_distance, prepare_problems
from .parallel import iter_chunked, run_chunked
from .paths import Walks, canonical_walks, dart_table, path_curves, sub_rows
from .signatures import SignatureMap

__all__ = [
    "PathRecord",
    "PathDistanceReport",
    "SeparationReport",
    "directed_path_distance",
    "iter_match_records",
    "match_all_paths",
    "max_path_distance",
    "undirected_path_distance",
    "path_distance_analysis",
    "intersection_radius",
    "separation_census",
    "write_records_csv",
    "read_records_csv",
]


@dataclass(frozen=True)
class PathRecord:
    """One matched path: its row ``path_id`` of ``walks``, its length, and its match distance.

    ``walks`` is the source graph's shared :func:`~pathdist.paths.canonical_walks`
    table, so ``walks.vertices[path_id]`` holds the path's vertex indices.
    Records compare by row, length and distance.
    """

    path_id: int
    walks: Walks = field(repr=False, compare=False)
    length: float
    distance: float


@dataclass
class PathDistanceReport:
    """Per-path map-matching distances plus their weighted summaries."""

    k: int
    direction: str
    records: list[PathRecord]
    strict: bool = False
    strict_bound: float | None = None

    @property
    def max_distance(self) -> float:
        return max((r.distance for r in self.records), default=0.0)

    def percentile(self, q: float = 0.9) -> float:
        """Length-weighted ``q``-quantile of the per-path distances; ``q`` lies in [0, 1]."""
        if not 0.0 <= q <= 1.0:  # NaN fails too
            raise InputError(f"quantile q must lie in [0, 1], got {q!r}")
        if not self.records:
            return 0.0
        values = np.asarray([r.distance for r in self.records])
        weights = np.asarray([r.length for r in self.records])
        return _weighted_quantile(values, weights, q)

    @property
    def weighted_mean(self) -> float:
        total = sum(r.length for r in self.records)
        if total == 0.0:
            return 0.0
        return sum(r.length * r.distance for r in self.records) / total

    def summary(self) -> dict:
        out = {
            "k": self.k,
            "direction": self.direction,
            "max": self.max_distance,
            "p90_weighted": self.percentile(0.9),
            "mean_weighted": self.weighted_mean,
            "path_count": len(self.records),
        }
        if self.strict:
            out["strict"] = True
            out["strict_bound"] = self.strict_bound
        return out


def directions(g: EmbeddedGraph, h: EmbeddedGraph, both: bool) -> list[tuple]:
    """``(tag, direction, source, target)`` per pass, G->H then H->G if ``both``; tags name files."""
    return [("gh", "G->H", g, h), ("hg", "H->G", h, g)][: 2 if both else 1]


@dataclass
class SeparationReport:
    """Per-vertex intersection radii at scale ``d`` and the separated count."""

    k: int
    d: float
    per_vertex: dict[VertexId, float] = field(default_factory=dict)

    @property
    def separated_count(self) -> int:
        return sum(1 for r in self.per_vertex.values() if math.isfinite(r))

    def summary(self) -> dict:
        """The census row: scale, separated count and vertex count."""
        return {
            "k": self.k,
            "d": self.d,
            "separated": self.separated_count,
            "vertices": len(self.per_vertex),
        }


def _weighted_quantile(values: np.ndarray, weights: np.ndarray, q: float) -> float:
    order = np.argsort(values, kind="stable")
    v = values[order]
    w = weights[order]
    cw = np.cumsum(w)
    if cw[-1] == 0.0:
        return float(v[-1])
    idx = int(np.searchsorted(cw, q * cw[-1], side="left"))
    return float(v[min(idx, len(v) - 1)])


def _chunk_distances(h: EmbeddedGraph, tol: float, items: list) -> list[float]:
    """Distances of ``(collapsed points, lower)`` items; see :func:`map_match_distance`."""
    problems = prepare_problems([pts for pts, _ in items], h)
    return [map_match_distance(problem, h, tol, lower=lower) for problem, (_, lower) in zip(problems, items)]


def _chunk_max(h: EmbeddedGraph, tol: float, items: list) -> float:
    """Exact maximum of canonical per-curve distances over one chunk.

    Curves are visited by their upper bound (see :func:`_path_bounds`),
    largest first; ties keep the chunk's order.  A curve whose threshold
    (the least eps its decision holds at) is at most ``best - tol/2``
    cannot raise the maximum, because :func:`map_match_distance` returns
    one of three values, none above ``best``:

    - ``lo`` when ``decide(lo)`` holds, which is then the threshold itself;
    - the midpoint of a final bracket no wider than ``tol`` whose lower end
      fails, so below the threshold plus ``tol/2``;
    - at the rounding stop of
      :func:`~pathdist.frechet.bisect_decision`, an end of a bracket of
      adjacent floats whose lower end fails: at most the least float at or
      above the threshold, so at most the float ``best - tol/2``.

    So the visit stops at the first curve whose bound is at most that:
    every later bound is no larger, and ``best`` only rises.  Curves after
    the stop are never prepared or decided; keying them is a few array
    passes over the chunk, and their window's tables, built with its first
    curve, hold their points too (see :func:`~pathdist.matching._families`).
    A curve visited before the stop is skipped when its decision at
    ``best - tol/2`` holds; every record-breaker gets the full bisection.
    Every curve is decided at that one running maximum, so the decisions of
    a window share its root steps; a failure stays in the curve's memo for
    the bisection that follows.  The decision is left out where the curve's
    floor (``lower - tol/2``, see :func:`map_match_distance`) proves it
    fails: at the floor too, since ``lower`` is below its sub-path's
    threshold plus ``tol/2``, and a curve's threshold is never below a
    sub-curve's.  (Only a ``tol`` below the float spacing breaks that
    strictness, and leaving a decision out never changes a value.)  The
    result equals the maximum of the individually computed distances, so
    neither the order nor the chunking changes it.  Items are ``(collapsed
    points, lower, bound)``.
    """
    items = sorted(items, key=lambda item: -item[2])
    best = -math.inf
    for problem, (_, lower, bound) in zip(prepare_problems([pts for pts, _, _ in items], h), items):
        eps = best - 0.5 * tol
        if bound <= eps:
            break
        if best > tol and (lower is None or eps > lower - 0.5 * tol) and problem.decide(eps):
            continue
        d = map_match_distance(problem, h, tol, lower=lower)
        if d > best:
            best = d
    return best


def _path_bounds(g: EmbeddedGraph, h: EmbeddedGraph, walks: Walks) -> list[float]:
    """An upper bound on each of ``walks``' distance into ``h``, from one bound per edge of ``g``.

    Each vertex u of ``g`` is anchored at its nearest vertex a(u) of ``h``
    (the first in insertion order on a tie).  The bound of an edge from u
    to v is the smallest discrete Fréchet distance between its geometry and
    a dart of ``h`` from a(u) to a(v) (see :func:`~pathdist.paths.dart_table`),
    and ``inf`` when no edge of ``h`` joins them.  The edges matched along a path meet
    at the anchors, so they form a walk in ``h``; the largest bound of the
    path's edges therefore bounds the walk's discrete, and so its
    continuous, Fréchet distance to the path, and with it the path's
    map-matching distance.  All walks take that largest bound at once, off
    their rows of edge indices.
    """
    ids = list(h.vertices)
    xy = np.asarray(list(h.vertices.values()))
    # One vertex at a time: a matrix of all pairs would grow with the product of the maps' sizes.
    anchor = {
        v: ids[int(np.argmin(np.hypot(xy[:, 0] - p.x, xy[:, 1] - p.y)))] for v, p in g.vertices.items()
    }
    darts = dart_table(h)
    joining: dict = {}
    for i, e in enumerate(h.edges.values()):
        joining.setdefault((e.u, e.v), []).append(darts.row(2 * i))
        joining.setdefault((e.v, e.u), []).append(darts.row(2 * i + 1))
    bound = np.array(
        [
            min(
                (discrete_frechet(e.geometry, f) for f in joining.get((anchor[e.u], anchor[e.v]), ())),
                default=math.inf,
            )
            for e in g.edges.values()
        ],
        dtype=float,
    )
    return bound[walks.darts >> 1].max(axis=1).tolist()


def _computed(g: EmbeddedGraph, h: EmbeddedGraph, tol: float, *, fill: bool = False) -> dict[int, np.ndarray]:
    """The distances into ``h`` at ``tol`` of the paths of ``g`` computed so far.

    Per link-length k, one array aligned with the rows of
    :func:`~pathdist.paths.canonical_walks` ``(g, k)``; NaN is not computed.
    Graphs never change, so no value goes stale.  The record holds ``h``,
    so only a caller that will ``fill`` it makes one.  A pickled graph
    arrives with an empty cache: pool workers neither read nor fill it.
    """
    records = g._frozen_cache.setdefault(("distances", tol), {})
    return records.setdefault(h, {}) if fill else records.get(h, {})


def _floors(g: EmbeddedGraph, k: int, rows: np.ndarray, memo: dict) -> list[float | None]:
    """Each link-``k`` row's ``lower`` for :func:`map_match_distance`: its sub rows' larger value, if both are known."""
    below = memo.get(k - 1)
    if below is None:
        return [None] * len(rows)
    floors = below[sub_rows(g, k)[rows]].max(axis=1).tolist()
    return [None if math.isnan(f) else f for f in floors]


def _distances(g: EmbeddedGraph, h: EmbeddedGraph, k: int, rows: np.ndarray, curves: list[np.ndarray], tol: float):
    """Yield chunks of the distances of ``rows`` of ``canonical_walks(g, k)``, in order.

    ``curves`` holds each row's geometry points, collapsed.  The sub rows
    (see :func:`~pathdist.paths.sub_rows`) that :func:`_computed` does not
    hold yet are computed first, the same way and in the order they first
    occur, so every path of link-length >= 2 is bisected under its
    sub-paths' floor.  Each chunk's values join the record as it is yielded.
    """
    memo = _computed(g, h, tol, fill=True)
    values = memo.setdefault(k, np.full(len(canonical_walks(g, k)), np.nan))
    if k > 1:
        subs = np.fromiter(dict.fromkeys(sub_rows(g, k)[rows].ravel().tolist()), np.intp)
        subs = subs[np.isnan(memo[k - 1][subs])] if k - 1 in memo else subs
        for _ in _distances(g, h, k - 1, subs, path_curves(g, canonical_walks(g, k - 1)[subs]), tol):
            pass
    items = list(zip(curves, _floors(g, k, rows, memo)))
    done = 0
    for chunk in iter_chunked(functools.partial(_chunk_distances, h, tol), items):
        values[rows[done : done + len(chunk)]] = chunk
        done += len(chunk)
        yield chunk


def iter_match_records(
    g: EmbeddedGraph,
    h: EmbeddedGraph,
    k: int,
    tol: float = DEFAULT_TOLERANCE,
    *,
    known: dict[int, float] | None = None,
):
    """Yield per-path records in canonical order as chunks complete.

    ``known`` maps path ids to distances from an earlier, possibly partial
    run (see ``read_records_csv``); those paths are not recomputed, and
    their values, read from a file, are not remembered.  Streaming
    consumers can persist records as they arrive, which is what makes long
    link-3 runs restartable.

    Each record's path is its row of
    :func:`~pathdist.paths.canonical_walks` ``(g, k)``, and ``g``
    remembers every value computed here by that row (see
    :func:`_computed`).  A path that is not in ``known`` but whose value
    ``g`` remembers takes that value; only the rest are computed.  Each is
    bisected under the larger of its prefix's and suffix's values,
    computed first if ``g`` does not remember them, which saves most
    decisions and changes no value.
    """
    check_tolerance(tol)
    if h.is_empty():
        raise StructuralError("no path exists: the target graph is empty")
    walks = canonical_walks(g, k)
    curves, lengths = path_curves(g, walks, return_lengths=True)
    remembered = _computed(g, h, tol).get(k)
    values = remembered.tolist() if remembered is not None else [math.nan] * len(walks)
    if known:
        values = [known.get(i, d) for i, d in enumerate(values)]
    todo = [i for i, d in enumerate(values) if math.isnan(d)]
    chunks = _distances(g, h, k, np.asarray(todo, dtype=np.intp), [curves[i] for i in todo], tol)
    # Chunks are pulled one at a time, as the records that need them are taken.
    distances = (d for chunk in chunks for d in chunk)
    for i, (length, d) in enumerate(zip(lengths, values)):
        yield PathRecord(i, walks, length, next(distances) if math.isnan(d) else d)


def match_all_paths(
    g: EmbeddedGraph,
    h: EmbeddedGraph,
    k: int,
    tol: float = DEFAULT_TOLERANCE,
    *,
    known: dict[int, float] | None = None,
) -> list[PathRecord]:
    """Match every canonical link-length-``k`` path of ``g`` into ``h``.

    ``known`` is as for :func:`iter_match_records`.
    """
    return list(iter_match_records(g, h, k, tol, known=known))


def max_path_distance(
    g: EmbeddedGraph,
    h: EmbeddedGraph,
    k: int,
    tol: float = DEFAULT_TOLERANCE,
) -> float:
    """The directed distance alone, skipping per-path bookkeeping.

    Equals the maximum of the per-path distances that ``match_all_paths``
    would produce, for any worker count.  When ``g`` remembers every path's
    value (see :func:`iter_match_records`), this is their maximum.
    Otherwise each path is decided under the floor its remembered sub-path
    values give, if any; no sub-path is computed and nothing is
    remembered, which suits the early exit.  Each chunk visits its paths by
    their upper bound from ``h``'s edges between the vertices nearest to
    theirs (see :func:`_path_bounds`, computed once per call), largest
    first, and stops at the first path whose bound the running maximum
    rules out; most paths before it are settled by one decision at the
    running maximum.

    The paths are read as :func:`~pathdist.paths.canonical_walks` rows, as
    everywhere in this module: their curves, bounds, floors and remembered
    values come from the arrays.
    """
    check_tolerance(tol)
    if h.is_empty():
        raise StructuralError("no path exists: the target graph is empty")
    walks = canonical_walks(g, k)
    memo = _computed(g, h, tol)
    if k in memo and not np.isnan(memo[k]).any():
        return max(memo[k].tolist(), default=0.0)
    items = list(zip(path_curves(g, walks), _floors(g, k, np.arange(len(walks)), memo), _path_bounds(g, h, walks)))
    fn = functools.partial(_chunk_max, h, tol)
    maxima = run_chunked(fn, items)
    return max(maxima, default=0.0)


def directed_path_distance(
    g: EmbeddedGraph,
    h: EmbeddedGraph,
    k: int,
    tol: float = DEFAULT_TOLERANCE,
    *,
    strict: bool = False,
) -> PathDistanceReport:
    """Directed link-length-``k`` path distance from ``g`` into ``h``.

    With ``strict=True`` the path set is restricted to paths whose interior
    vertices have finite intersection radius at scale Δ3 and degree != 3
    (the hypotheses of the approximation guarantee); when on top of that
    every vertex qualifies and adjacent vertices are at least ``2*(r+Δ3)``
    apart, the report carries the diagnostic upper bound ``2*r + Δ3`` for
    the unrestricted-path distance.
    """
    records = match_all_paths(g, h, k, tol)
    report = PathDistanceReport(k=k, direction="G->H", records=records)
    if strict:
        d3 = max_path_distance(g, h, 3, tol)
        radii = {v: intersection_radius(g, v, d3) for v in g.vertices}
        # One flag per vertex index; a path is kept when its interior vertices all qualify.
        good = np.array([math.isfinite(radii[v]) and g.degree(v) != 3 for v in g.vertices], dtype=bool)
        keep = good[canonical_walks(g, k).vertices[:, 1:-1]].all(axis=1)
        report.records = [r for r in records if keep[r.path_id]]
        report.strict = True
        report.strict_bound = _strict_bound(g, good, d3, radii)
    return report


def undirected_path_distance(
    g: EmbeddedGraph,
    h: EmbeddedGraph,
    k: int,
    tol: float = DEFAULT_TOLERANCE,
) -> float:
    """Maximum of the two directional distances, like undirected Hausdorff."""
    return max(
        max_path_distance(g, h, k, tol),
        max_path_distance(h, g, k, tol),
    )


def _strict_bound(
    g: EmbeddedGraph, good: np.ndarray, d3: float, radii: dict[VertexId, float]
) -> float | None:
    if not good.all() or not radii:
        return None
    r_max = max(radii.values())
    spacing_ok = all(
        math.dist(g.vertices[e.u], g.vertices[e.v]) >= 2.0 * (r_max + d3)
        for e in g.edges.values()
    )
    return 2.0 * r_max + d3 if spacing_ok else None


def _signature(rows: np.ndarray, ids: list, distances: np.ndarray) -> dict:
    """Per id, the largest of ``distances`` over the walks whose row of ``rows`` holds its index.

    Keys come in the order their indices first occur in ``rows``, read row
    by row, not in set order, which PYTHONHASHSEED changes; an id on no
    walk gets no entry.
    """
    best = np.full(len(ids), -np.inf)
    np.maximum.at(best, rows, distances[:, None])
    first = np.full(len(ids), rows.size)
    np.minimum.at(first, rows.ravel(), np.arange(rows.size))
    order = np.argsort(first, kind="stable")[: np.count_nonzero(first < rows.size)]
    return dict(zip([ids[i] for i in order.tolist()], best[order].tolist()))


def path_distance_analysis(
    g: EmbeddedGraph,
    h: EmbeddedGraph,
    k: int,
    tol: float = DEFAULT_TOLERANCE,
) -> tuple[PathDistanceReport, SignatureMap, SignatureMap]:
    """One matching pass yielding the report and both signature maps.

    The per-edge signature of ``e`` is the maximum distance over paths
    traversing ``e``; per-vertex analogously.  Every path contains its own
    edges and vertices, so both maps fall out of the same records.
    """
    records = match_all_paths(g, h, k, tol)
    report = PathDistanceReport(k=k, direction="G->H", records=records)
    walks = canonical_walks(g, k)
    distances = np.array([r.distance for r in records], dtype=float)
    edge_values = _signature(walks.darts >> 1, walks.table.edge_ids, distances)
    vertex_values = _signature(walks.vertices, walks.table.vertex_ids, distances)
    edge_sig = SignatureMap(target="edge", k=k, values=edge_values, graph=g)
    vertex_sig = SignatureMap(target="vertex", k=k, values=vertex_values, graph=g)
    return report, edge_sig, vertex_sig


# Radii tested at once in each round of intersection_radius's zooming scan.
_RADIUS_STEPS = 256


def _first_crossings(walks: list[np.ndarray], center: np.ndarray):
    """A function of ``radii``: per walk, the first point at each distance ``r`` from ``center``.

    Each walk is a polyline that starts at ``center`` and has no zero-length
    segments (see ``PolyLine.collapsed``).  Distance to ``center`` is convex
    along each segment, so the first segment whose far endpoint reaches
    ``r`` holds the crossing, at the far root of the segment-disc quadratic.
    The quadratic of every segment of every walk is prepared once, for all
    the radii asked.  Rows are NaN where a walk never reaches ``r``.
    """
    points = np.concatenate(walks)
    starts = np.cumsum([0] + [len(w) for w in walks[:-1]])[:, None]
    # The segments between one walk's end and the next one's start are never picked.
    quad = DiscQuadratic(center, points[:-1], points[1:])
    reach = [np.maximum.accumulate(np.hypot(w[1:, 0] - center[0], w[1:, 1] - center[1])) for w in walks]

    def crossings(radii: np.ndarray) -> np.ndarray:
        seg = np.stack([np.searchsorted(r, radii) for r in reach])
        missed = seg == np.array([[r.size] for r in reach])
        seg = np.where(missed, 0, seg) + starts
        rows = DiscQuadratic.of_terms(quad.qa4[seg], quad.den[seg], None, quad.qb2[seg], quad.nqb[seg], quad.ff[seg])
        u = np.clip(rows._roots(radii)[1], 0.0, 1.0)
        a = points[seg]
        out = a + u[..., None] * (points[seg + 1] - a)
        out[missed] = np.nan
        return out

    return crossings


def intersection_radius(g: EmbeddedGraph, v: VertexId, d: float) -> float:
    """Minimum radius at which first edge crossings are pairwise > 2d apart.

    Walking each incident edge from ``v``, the crossing with the radius-r
    circle must exist for every edge and the crossing points must be more
    than ``2*d`` apart.  When all incident edges are straight segments the
    closed form ``d / sin(theta/2)`` applies, with ``theta`` the minimum
    angle between incident edges, provided every edge is long enough to
    reach that radius.  Otherwise a zooming scan tests ``_RADIUS_STEPS``
    radii from ``d`` to the shortest edge reach at once, then rescans
    between the last failing and the first passing radius until the grid
    can no longer narrow.  Returns ``inf`` when no radius qualifies (the
    vertex is then not d-separated).
    """
    if v not in g.vertices:
        raise StructuralError(f"unknown vertex id {v!r}")
    if not d >= 0:
        raise InputError("d must be non-negative")
    incident = g.adjacency[v]
    if not incident:
        return math.inf
    if len(incident) == 1:
        return 0.0  # one crossing, no pair constraint; any radius works
    center = np.asarray(g.vertices[v], dtype=float)
    darts = dart_table(g)
    geoms = [PolyLine(darts.row(darts.dart_of[eid, v][0])).collapsed().points for eid in incident]

    if all(pts.shape[0] == 2 for pts in geoms):
        dirs = []
        lengths = []
        for pts in geoms:
            vec = pts[1] - pts[0]
            norm = float(np.hypot(*vec))
            dirs.append(vec / norm)
            lengths.append(norm)
        min_theta = math.pi
        for i in range(len(dirs)):
            for j in range(i + 1, len(dirs)):
                cosang = float(np.clip(dirs[i] @ dirs[j], -1.0, 1.0))
                min_theta = min(min_theta, math.acos(cosang))
        if min_theta == 0.0:
            return math.inf
        r = d / math.sin(min_theta / 2.0)
        return r if all(length >= r for length in lengths) else math.inf

    reach = min(max_distance_to_point(pts, center) for pts in geoms)
    if reach < d or reach == 0.0:
        return math.inf

    crossings_at = _first_crossings(geoms, center)
    first, second = np.triu_indices(len(geoms), 1)
    lo, hi = d, reach
    while True:
        radii = np.linspace(lo, hi, _RADIUS_STEPS)
        crossings = crossings_at(radii)
        gaps = crossings[first] - crossings[second]
        ok = (np.hypot(gaps[..., 0], gaps[..., 1]) > 2.0 * d).all(axis=0)
        if not ok.any():
            return math.inf
        hit = int(np.argmax(ok))
        if hit == 0:
            return float(radii[0])
        if radii[hit] - radii[hit - 1] >= hi - lo:
            return float(radii[hit])
        lo, hi = radii[hit - 1], radii[hit]


def separation_census(
    g: EmbeddedGraph,
    h: EmbeddedGraph,
    tol: float = DEFAULT_TOLERANCE,
) -> list[SeparationReport]:
    """Count d-separated vertices of ``g`` for d = Δ1, Δ2, Δ3 into ``h``.

    Each Δk is :func:`max_path_distance`, so a Δk whose path values ``g``
    remembers is read off them, and a missing one is decided under the
    floors the remembered link-``k-1`` values give.
    """
    reports = []
    for k in (1, 2, 3):
        dk = max_path_distance(g, h, k, tol)
        per_vertex = {v: intersection_radius(g, v, dk) for v in g.vertices}
        reports.append(SeparationReport(k=k, d=dk, per_vertex=per_vertex))
    return reports


def write_records_csv(records: Iterable[PathRecord], fh) -> list[PathRecord]:
    r"""Stream per-path rows: path_id, vertex_sequence, path_length_m, match_distance_m.

    ``records`` may be any iterable, such as :func:`iter_match_records`.
    Each row is flushed as it is written, so a run that stops keeps every
    finished row for ``--resume``.  Returns the records written.

    A path's ``vertex_sequence`` joins its vertex ids with ``-``.  Inside
    each id, ``\`` becomes ``\\`` and ``-`` becomes ``\-``, so the label
    splits back into its ids; other ids keep their text.
    """
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(["path_id", "vertex_sequence", "path_length_m", "match_distance_m"])
    written = []
    escaped: dict = {}  # per dart table, each vertex id's text in a label
    for rec in records:
        names = escaped.get(rec.walks.table)
        if names is None:
            ids = rec.walks.table.vertex_ids
            names = escaped[rec.walks.table] = [str(v).replace("\\", "\\\\").replace("-", "\\-") for v in ids]
        label = "-".join(map(names.__getitem__, rec.walks.vertices[rec.path_id].tolist()))
        w.writerow([rec.path_id, label, repr(rec.length), repr(rec.distance)])
        fh.flush()
        written.append(rec)
    return written


def read_records_csv(fh) -> dict[int, float]:
    """Map of path_id -> match distance from a previously written report.

    The writer ends every row with a newline and flushes it, so a last line
    without one was cut off mid-write (say, by a crash) and is dropped.  Any
    other malformed row, or a distance that is not a finite number >= 0,
    raises a :class:`ParseError` with its line number.  The ``path_id``
    header is optional (:func:`csv_rows`).
    """
    text = fh.read()
    if not text.endswith("\n"):
        text = text[: text.rfind("\n") + 1]
    out: dict[int, float] = {}
    for lineno, row in csv_rows(io.StringIO(text), "path_id"):
        if len(row) != 4:
            raise ParseError(f"report row needs 4 fields, got {len(row)}", lineno)
        try:
            path_id = int(row[0])
        except ValueError as exc:
            raise ParseError(f"bad report row: {exc}", lineno) from exc
        out[path_id] = finite_numbers(row[3:], "match distance", lineno, 0.0)[0]
    return out
