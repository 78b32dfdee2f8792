"""Fréchet map-matching of a curve into a street-map graph.

``match_decision`` answers whether some path in the graph (starting and
ending anywhere on edges, free to revisit vertices and edges and to turn
around mid-edge) stays within Fréchet distance ``eps`` of the query curve.
It sweeps the free-space surface of curve x graph: one free-space diagram
per graph segment, glued along the joints where segments meet (graph
vertices and interior polyline bends alike).

Key fact making the sweep cheap: inside a single cell (one curve segment x
one graph segment) the free region is convex, so from an entry at curve time
``t0`` every free point with time >= ``t0`` is reachable.  Each cell
therefore carries a single label, the earliest reachable curve time, and a
Dijkstra pass over these labels decides reachability exactly.  A cell hands
its label to the next curve segment along its own graph segment, and to
every cell at the same curve segment whose graph segment shares one of its
joints.

The sweep runs over the graph's flattened segment view from
:mod:`pathdist.spatial`, where an isolated vertex is a zero-length segment;
the nearest-point queries that start each bisection project onto the same
arrays.  A decision computes its two families of free intervals (curve
vertices x graph segments, joints x curve segments) in one broadcast call
each.
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
    """Earliest-entry labels over the cells of the free-space surface.

    This is the reachability front the decision sweep propagates: one float
    per cell (graph segment x curve segment).  For witness reconstruction
    each label also stores its predecessor and the graph-space point where
    the cell was entered: a point on a cell boundary or the joint that
    glues two cells.
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

    # Free intervals, each family in one broadcast call:
    #   cv[i][s]: x-interval of segment s within eps of curve vertex i
    #   jn[j][i]: t-interval (local [0,1]) of curve segment i within eps of joint j
    # The sweep reads only whether a cv interval is free; its ends place
    # witness points.
    cv_lo, cv_hi = disc_segment_intervals(C[:, None, :], eps, geom.seg_a, geom.seg_b)
    jn_lo, jn_hi = disc_segment_intervals(geom.joint_pos[:, None, :], eps, C[:-1], C[1:])

    free = cv_lo <= cv_hi
    cv_free = free.tolist()
    jnlo = jn_lo.tolist()
    jnhi = jn_hi.tolist()

    seg_a = geom.seg_a
    seg_d = geom.seg_d
    joint_pos = geom.joint_pos
    seg_joint = geom.seg_joint
    incident = geom.incident

    # State id of cell (segment s, curve segment i): s*M + i.
    reach = _Reachability(N * M, return_witness)

    # Every cell free at curve time 0 starts at label 0.0; listed in
    # ascending state order, the seeds already form a valid heap.
    seed_cells = np.flatnonzero(free[0])
    seeds = (seed_cells * M).tolist()
    heap: list[tuple[float, int]] = [(0.0, state) for state in seeds]
    for state in seeds:
        reach.dist[state] = 0.0
    if return_witness:
        starts = seg_a[seed_cells] + cv_lo[0, seed_cells, None] * seg_d[seed_cells]
        for state, pt in zip(seeds, starts):
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
        s, i = divmod(state, M)
        if i == M - 1 and cv_free[M][s]:
            wit = finish(state, seg_a[s] + cv_lo[M, s] * seg_d[s])
            return (True, wit) if return_witness else True
        if i + 1 < M and cv_free[i + 1][s]:
            pt = seg_a[s] + cv_lo[i + 1, s] * seg_d[s] if return_witness else None
            reach.relax(heap, state + 1, float(i + 1), state, pt)
        for j in seg_joint[s]:
            blo, bhi = jnlo[j][i], jnhi[j][i]
            if blo <= bhi and i + bhi >= t:
                t_j = max(t, i + blo)
                for nbr in incident[j]:
                    # Most cells at a joint already hold an earlier label.
                    if t_j < dist[nbr * M + i]:
                        reach.relax(heap, nbr * M + i, t_j, state, joint_pos[j])

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
