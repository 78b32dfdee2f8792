"""Fréchet map-matching of a curve into a street-map graph.

``match_decision`` answers whether some path in the graph (starting and
ending anywhere on edges, free to revisit vertices and edges and to turn
around mid-edge) stays within Fréchet distance ``eps`` of the query curve.
It sweeps the free-space surface of curve x graph: one free-space diagram
per graph edge, glued along shared vertices.

Key fact making the sweep cheap: inside a single cell (one curve segment x
one edge segment) the free region is convex, so from an entry at curve time
``t0`` every free point with time >= ``t0`` is reachable.  Each cell (and
each vertex boundary per curve segment) therefore carries a single label,
the earliest reachable curve time, and a Dijkstra pass over these labels
decides reachability exactly.

The sweep runs over the graph's flattened segment view from
:mod:`pathdist.spatial`; the nearest-point queries that start each
bisection project onto the same arrays.  A decision computes each family of
free intervals (curve vertices x graph segments, graph vertices x curve
segments, polyline junctions x curve segments) in one broadcast call.
"""

from __future__ import annotations

from heapq import heappop, heappush

import numpy as np

from .errors import InputError, StructuralError
from .frechet import DEFAULT_TOLERANCE
from .geometry import PolyLine, disc_segment_intervals
from .graph import EmbeddedGraph
from .spatial import nearest_point_on_graph, surface_geometry

__all__ = ["match_decision", "map_match_distance"]

_INF = float("inf")


def _prepared_curve(curve: PolyLine) -> np.ndarray:
    if not isinstance(curve, PolyLine):
        curve = PolyLine(curve)
    return curve.collapsed().points


class _Reachability:
    """Earliest-entry labels over surface cells and vertex boundaries.

    This is the reachability front the decision sweep propagates: one float
    per cell (edge segment x curve segment) and per (vertex, curve segment)
    boundary.  For witness reconstruction each label also stores its
    predecessor and the graph-space point where the boundary was crossed.
    """

    __slots__ = ("dist", "prev", "track")

    def __init__(self, n_states: int, track: bool):
        self.dist = [_INF] * n_states
        self.prev = [None] * n_states if track else None
        self.track = track

    def relax(self, heap, state: int, t: float, prev_state, point) -> None:
        if t < self.dist[state]:
            self.dist[state] = t
            if self.track:
                self.prev[state] = (prev_state, (float(point[0]), float(point[1])))
            heappush(heap, (t, state))


def match_decision(
    curve: PolyLine,
    h: EmbeddedGraph,
    eps: float,
    *,
    return_witness: bool = False,
):
    """True iff some path in ``h`` is within Fréchet distance ``eps`` of ``curve``.

    Matched paths may begin and end in edge interiors and may traverse edges
    non-simply (free-space reachability allows revisiting).  With
    ``return_witness=True`` returns ``(decision, witness)`` where the witness
    is a polyline tracing one matched path in the graph, or ``None`` when the
    decision is negative.
    """
    if eps < 0:
        raise InputError("eps must be non-negative")
    if h.is_empty():
        return (False, None) if return_witness else False
    C = _prepared_curve(curve)
    M = C.shape[0] - 1

    if M == 0:
        d, q, _ = nearest_point_on_graph(h, C[0])
        ok = d <= eps
        witness = PolyLine([q]) if (ok and return_witness and q is not None) else None
        return (ok, witness) if return_witness else ok

    geom = surface_geometry(h)
    N = geom.n_segments
    V = geom.n_vertices

    # Free intervals, each family in one broadcast call:
    #   cv[i][s]: x-interval of segment s within eps of curve vertex i
    #   vx[v][i]: t-interval (local [0,1]) of curve segment i within eps of vertex v
    #   jn[j][i]: same for interior polyline junction points
    cv_lo, cv_hi = disc_segment_intervals(C[:, None, :], eps, geom.seg_a, geom.seg_b)
    vx_lo, vx_hi = disc_segment_intervals(geom.vertex_pos[:, None, :], eps, C[:-1], C[1:])
    jn_lo, jn_hi = disc_segment_intervals(geom.junctions[:, None, :], eps, C[:-1], C[1:])

    cvlo = cv_lo.tolist()
    cvhi = cv_hi.tolist()
    vxlo = vx_lo.tolist()
    vxhi = vx_hi.tolist()
    jnlo = jn_lo.tolist()
    jnhi = jn_hi.tolist()

    seg_a = geom.seg_a
    seg_d = geom.seg_d
    vpos = geom.vertex_pos
    junctions = geom.junctions

    # State ids: cell(s, i) -> s*M + i; vertex(v, i) -> N*M + v*M + i.
    n_states = (N + V) * M
    reach = _Reachability(n_states, return_witness)

    # Every state free at curve time 0 starts at label 0.0; listed in
    # ascending state order, the seeds already form a valid heap.
    seed_cells = np.flatnonzero(cv_lo[0] <= cv_hi[0])
    seed_vertices = np.flatnonzero(vx_lo[:, 0] == 0.0)
    seeds = (seed_cells * M).tolist() + (N * M + seed_vertices * M).tolist()
    heap: list[tuple[float, int]] = [(0.0, state) for state in seeds]
    for state in seeds:
        reach.dist[state] = 0.0
    if return_witness:
        starts = seg_a[seed_cells] + cv_lo[0, seed_cells, None] * seg_d[seed_cells]
        for state, pt in zip(seeds, np.concatenate([starts, vpos[seed_vertices]])):
            reach.prev[state] = (None, (float(pt[0]), float(pt[1])))

    dist = reach.dist

    def finish(state: int, point) -> PolyLine | None:
        if not return_witness:
            return None
        pts = [(float(point[0]), float(point[1]))]
        cur = state
        while cur is not None:
            prev_state, crossing = reach.prev[cur]
            pts.append(crossing)
            cur = prev_state
        pts.reverse()
        return PolyLine(np.asarray(pts)).collapsed()

    while heap:
        t, state = heappop(heap)
        if t > dist[state]:
            continue
        if state < N * M:
            s, i = divmod(state, M)
            if i == M - 1 and cvlo[M][s] <= cvhi[M][s]:
                wit = finish(state, seg_a[s] + cvlo[M][s] * seg_d[s])
                return (True, wit) if return_witness else True
            if i + 1 < M and cvlo[i + 1][s] <= cvhi[i + 1][s]:
                pt = seg_a[s] + cvlo[i + 1][s] * seg_d[s]
                reach.relax(heap, s * M + i + 1, float(i + 1), state, pt)
            for side_link, nbr in ((geom.a_link[s], s - 1), (geom.b_link[s], s + 1)):
                kind, target = side_link
                if kind == "v":
                    blo, bhi = vxlo[target][i], vxhi[target][i]
                    if blo <= bhi and i + bhi >= t:
                        reach.relax(
                            heap,
                            N * M + target * M + i,
                            max(t, i + blo),
                            state,
                            vpos[target],
                        )
                else:
                    blo, bhi = jnlo[target][i], jnhi[target][i]
                    if blo <= bhi and i + bhi >= t:
                        reach.relax(
                            heap, nbr * M + i, max(t, i + blo), state, junctions[target]
                        )
        else:
            v, i = divmod(state - N * M, M)
            if i == M - 1 and vxhi[v][i] == 1.0:
                wit = finish(state, vpos[v])
                return (True, wit) if return_witness else True
            for s in geom.incident[v]:
                reach.relax(heap, s * M + i, t, state, vpos[v])
            if i + 1 < M and vxhi[v][i] == 1.0 and vxlo[v][i + 1] == 0.0:
                reach.relax(heap, N * M + v * M + i + 1, float(i + 1), state, vpos[v])

    return (False, None) if return_witness else False


def map_match_distance(
    curve: PolyLine,
    h: EmbeddedGraph,
    tol: float = DEFAULT_TOLERANCE,
) -> float:
    """Minimum Fréchet distance from ``curve`` to any path in ``h``.

    Bisects :func:`match_decision` between the endpoint-to-graph lower bound
    and an upper bound obtained by doubling from the lower bound (a constant
    matched path at the nearest graph point always certifies a finite upper
    bound, so the doubling terminates).  The result is within ``tol`` of the
    true infimum and deterministic for fixed inputs, independent of how work
    is chunked across workers.
    """
    if tol <= 0:
        raise InputError("tol must be positive")
    if h.is_empty():
        raise StructuralError("no path exists: the target graph is empty")
    C = _prepared_curve(curve)
    d0, q0, _ = nearest_point_on_graph(h, C[0])
    d1, _, _ = nearest_point_on_graph(h, C[-1])
    lo = max(d0, d1)
    if match_decision(curve, h, lo):
        return lo
    # Constant path at the nearest point bounds the distance from above.
    ub = float(np.hypot(C[:, 0] - q0[0], C[:, 1] - q0[1]).max())
    hi = max(2.0 * lo, tol)
    while hi < ub and not match_decision(curve, h, hi):
        lo = hi
        hi = min(2.0 * hi, ub)
    if hi >= ub:
        hi = ub
        if not match_decision(curve, h, hi):
            hi = ub * (1.0 + 1e-9) + tol
            if not match_decision(curve, h, hi):
                raise AssertionError("upper bound violated; geometry inconsistent")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if match_decision(curve, h, mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
