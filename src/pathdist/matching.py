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
from .frechet import DEFAULT_TOLERANCE, bisect_decision
from .geometry import PolyLine, collapsed_points, disc_segment_intervals, max_distance_to_point
from .graph import EmbeddedGraph
from .spatial import nearest_point_on_graph, surface_geometry

__all__ = ["match_decision", "map_match_distance", "decision_floor"]

_INF = float("inf")


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
    C = collapsed_points(curve)
    M = C.shape[0] - 1

    if M == 0:
        d, q, _ = nearest_point_on_graph(h, C[0])
        ok = d <= eps
        witness = PolyLine([q]) if (ok and return_witness and q is not None) else None
        return (ok, witness) if return_witness else ok

    geom = surface_geometry(h)

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
    seg_joint = geom.seg_joint
    incident = geom.incident

    # State id of cell (segment s, curve segment i): s*M + i.  ``dist`` holds
    # each cell's label; ``back`` holds how each relaxed cell got its label:
    # (previous state, the joint crossed, or -1 for a step along segment s).
    # Every cell free at curve time 0 is a seed at label 0.0; listed in
    # ascending state order, the seeds already form a valid heap.
    dist = [_INF] * (geom.n_segments * M)
    back: dict[int, tuple[int, int]] = {}
    seeds = (np.flatnonzero(free[0]) * M).tolist()
    heap: list[tuple[float, int]] = [(0.0, state) for state in seeds]
    for state in seeds:
        dist[state] = 0.0

    while heap:
        t, state = heappop(heap)
        if t > dist[state]:
            continue
        s, i = divmod(state, M)
        if i == M - 1 and cv_free[M][s]:
            return (True, _witness(geom, cv_lo, back, state, M)) if return_witness else True
        if i + 1 < M and cv_free[i + 1][s] and i + 1 < dist[state + 1]:
            dist[state + 1] = t_next = float(i + 1)
            back[state + 1] = (state, -1)
            heappush(heap, (t_next, state + 1))
        for j in seg_joint[s]:
            blo, bhi = jnlo[j][i], jnhi[j][i]
            if blo <= bhi and i + bhi >= t:
                t_j = max(t, i + blo)
                for nbr in incident[j]:
                    nxt = nbr * M + i
                    # Most cells at a joint already hold an earlier label.
                    if t_j < dist[nxt]:
                        dist[nxt] = t_j
                        back[nxt] = (state, j)
                        heappush(heap, (t_j, nxt))

    return (False, None) if return_witness else False


def _witness(geom, cv_lo: np.ndarray, back: dict, state: int, M: int) -> PolyLine:
    """The matched path in the graph, traced back from the accepting cell ``state``.

    The path ends where the last curve vertex meets segment s, and passes
    through each cell's entry point: the joint crossed into it, or, for a
    seed or a step along segment s, the first point of s within eps of
    curve vertex i.
    """
    s = state // M
    pts = [geom.seg_a[s] + cv_lo[M, s] * geom.seg_d[s]]
    while state is not None:
        s, i = divmod(state, M)
        state, j = back.get(state, (None, -1))
        pts.append(geom.joint_pos[j] if j >= 0 else geom.seg_a[s] + cv_lo[i, s] * geom.seg_d[s])
    pts.reverse()
    return PolyLine(np.asarray(pts)).collapsed()


def map_match_distance(
    curve: PolyLine,
    h: EmbeddedGraph,
    tol: float = DEFAULT_TOLERANCE,
    *,
    lower: float | None = None,
) -> float:
    """Minimum Fréchet distance from ``curve`` to any path in ``h``.

    Bisects :func:`match_decision` between the endpoint-to-graph lower bound
    and an upper bound obtained by doubling from the lower bound (a constant
    matched path at the nearest graph point always certifies a finite upper
    bound, so the doubling terminates).  The result is within ``tol`` of the
    true infimum and deterministic for fixed inputs, independent of how work
    is chunked across workers.

    ``lower``, if given, must be a value this function returned, at the same
    ``tol``, for a prefix or suffix of ``curve`` (a curve's distance is never
    below a sub-curve's, since a matching of the whole restricts to the
    part).  The decisions then go through a monotone memo of the largest
    failing and the smallest holding eps: every eps strictly below
    ``lower - tol/2`` fails without a sweep, and one probe at
    ``lower + tol/2`` usually settles every larger eps.  The search still
    visits the same eps and returns the same float as without ``lower``;
    it only sweeps inside a window about ``tol`` wide.
    """
    if tol <= 0:
        raise InputError("tol must be positive")
    if h.is_empty():
        raise StructuralError("no path exists: the target graph is empty")
    C = collapsed_points(curve)
    decide = _MonotoneDecision(curve, h, lower, tol)
    d0, q0, _ = nearest_point_on_graph(h, C[0])
    d1, _, _ = nearest_point_on_graph(h, C[-1])
    lo = max(d0, d1)
    if decide(lo):
        return lo
    # Constant path at the nearest point bounds the distance from above.
    ub = max_distance_to_point(C, q0)
    hi = max(2.0 * lo, tol)
    while hi < ub and not decide(hi):
        lo = hi
        hi = min(2.0 * hi, ub)
    if hi >= ub:
        hi = ub
        if not decide(hi):
            hi = ub * (1.0 + 1e-9) + tol
            if not decide(hi):
                raise AssertionError("upper bound violated; geometry inconsistent")
    return bisect_decision(decide, lo, hi, tol)


def decision_floor(lower: float | None, tol: float) -> float:
    """Every eps strictly below this fails for a curve whose sub-curve's distance is ``lower``.

    ``lower`` is a bisection midpoint, so within ``tol/2`` of the sub-curve's
    threshold, which the whole curve's threshold is never below.
    """
    return -_INF if lower is None else lower - 0.5 * tol


class _MonotoneDecision:
    """``match_decision`` of one curve, memoised by monotonicity in eps.

    Every eps at or below ``fail`` fails and every eps at or above ``hold``
    holds.  With a sub-curve's distance ``lower``, every eps below its
    :func:`decision_floor` fails too, and the first eps above
    ``lower + tol/2`` is preceded by one probe at that point.
    """

    def __init__(self, curve: PolyLine, h: EmbeddedGraph, lower: float | None, tol: float):
        self.curve = curve
        self.h = h
        self.fail = -_INF
        self.hold = _INF
        self.floor = decision_floor(lower, tol)
        self.probe = None if lower is None else lower + 0.5 * tol

    def __call__(self, eps: float) -> bool:
        if eps <= self.fail or eps < self.floor:
            return False
        if eps >= self.hold:
            return True
        if self.probe is not None and eps > self.probe:
            probe, self.probe = self.probe, None
            if self(probe):
                return True
        ok = match_decision(self.curve, self.h, eps)
        if ok:
            self.hold = eps
        else:
            self.fail = eps
        return ok
