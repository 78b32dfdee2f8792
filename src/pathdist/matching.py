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
therefore carries a single label, the earliest reachable curve time found so
far.  A cell hands its label to the next curve segment along its own graph
segment (label ``i+1`` for curve row ``i+1``), and to every cell at the same
curve segment whose graph segment shares one of its joints (the later of its
label and the joint's first free time, if the joint is free by then).

The sweep keeps one heap per curve row, ordered by label, and always pops
the deepest row that has cells: a step into row ``i+1`` moves there, and a
row that runs empty hands back to the one before it.  A cell is pushed again
whenever its label drops, so the labels end at the same least fixpoint as a
pass in label order: each relaxation is monotone in the label it starts
from.  The sweep accepts the first cell of the last row it reaches whose
graph segment meets the disc about the curve's last vertex; any reached
label there will do, since the cell's free region is convex and holds the
end.  A decision that holds thus dives to the last row instead of first
popping every reachable cell of the earlier rows; it gives the same boolean
as label order, and only its witness may be another matched path.

The sweep runs over the graph's flattened segment view from
:mod:`pathdist.spatial`, where an isolated vertex is a zero-length segment;
the nearest-point queries that start each bisection project onto the same
arrays.  A :class:`MatchProblem` prepares one curve against the graph once:
its collapsed points and the eps-independent terms of its two families of
free intervals (curve vertices x graph segments, joints x curve segments),
as :class:`~pathdist.geometry.DiscQuadratic` objects.  A decision then pays
only the root step of each family at its eps.  The problem also holds the
monotone memo of :func:`map_match_distance`, so an early-exit decision and
the bisection that follows it share one preparation and one memo.

The paths of a map share most of their vertices and edges, so
:func:`prepare_problems` prepares consecutive curves together: one table of
the distinct curve points x graph segments and one of the joints x distinct
oriented curve segments per window of curves.  A problem holds its rows and
columns of the window's tables and gathers its own quadratics only when it
first steps alone.  Many decisions on a window at one eps, as the early
exits of :func:`~pathdist.pathdistance.max_path_distance` make, share one
root step over the whole window instead (see :meth:`_Window.tables`); the
step is elementwise, so both routes give the same floats.  Windows are
bounded by a fixed number of table cells, and the lists a window keeps from
its last step by the same number, so memory stays bounded on large maps; a
lone curve is the one-curve window.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import compress
from typing import Iterable, Iterator

import numpy as np

from .errors import InputError, StructuralError
from .frechet import DEFAULT_TOLERANCE, bisect_decision, check_tolerance
from .geometry import DiscQuadratic, PolyLine, collapsed_points, max_distance_to_point
from .graph import EmbeddedGraph
from .spatial import nearest_point_on_graph, surface_geometry

__all__ = ["MatchProblem", "prepare_problems", "match_decision", "map_match_distance"]

_INF = float("inf")


class MatchProblem:
    """One curve prepared against one graph ``h``, shared by every decision on it.

    ``points`` are the curve's vertices with consecutive duplicates removed
    (see :func:`~pathdist.geometry.collapsed_points`); they form M segments.
    For M >= 1 the problem belongs to a window of curves (see
    :func:`prepare_problems`) and holds its row ids in the window's ``cv``
    table and its column ids in the window's ``jn`` table.  From them it
    gathers, on first use, the eps-independent quadratics of both interval
    families:

    - ``cv``: curve vertex i x graph segment s, the x-interval of s within
      eps of the vertex ((M+1) x S);
    - ``jn``: joint j x curve segment i, the t-interval (local [0, 1]) of
      the curve segment within eps of the joint (J x M).

    A decision at an eps the window has stepped reads its rows off the
    window's tables and gathers neither.

    It also holds the monotone memo of :meth:`decide`: every eps at or below
    ``fail`` fails and every eps at or above ``hold`` holds, and every eps
    below ``floor`` fails; ``floor`` and one ``probe`` are set by
    :func:`map_match_distance` alone.
    """

    __slots__ = ("points", "h", "window", "rows", "cols", "_quads", "fail", "hold", "floor", "probe")

    def __init__(self, points: np.ndarray, h: EmbeddedGraph):
        ((_, window, rows, cols),) = _families([points], h)
        self._bind(points, h, window, rows, cols)

    def _bind(self, points: np.ndarray, h: EmbeddedGraph, window, rows, cols) -> None:
        self.points = points
        self.h = h
        self.window, self.rows, self.cols = window, rows, cols
        self._quads = None
        self.fail = -_INF
        self.hold = _INF
        self.floor = -_INF
        self.probe = None

    @property
    def cv(self) -> DiscQuadratic:
        return self._gathered()[0]

    @property
    def jn(self) -> DiscQuadratic:
        return self._gathered()[1]

    def _gathered(self) -> tuple[DiscQuadratic, DiscQuadratic]:
        if self._quads is None:
            self._quads = self.window.gather(self.rows, self.cols)
        return self._quads

    def tables(self, eps: float):
        """The sweep's lists at ``eps``: ``free[i][s]``, ``lo[i][j]`` and ``hi[i][j]``.

        ``free[i][s]`` tells whether graph segment s meets the disc about
        curve vertex i; ``lo[i][j]``, ``hi[i][j]`` bound the part of curve
        segment i within eps of joint j.  They are the window's rows when
        the window steps at ``eps`` (see :meth:`_Window.tables`), else this
        curve's own quadratics stepped alone: the root step is elementwise,
        so both give the same floats.
        """
        tables = self.window.tables(self.rows, self.cols, eps)
        return tables if tables is not None else _step(self.cv, self.jn, eps)

    def decide(self, eps: float) -> bool:
        """:func:`match_decision` at ``eps``, answered from the memo when it can be."""
        if eps <= self.fail or eps < self.floor:
            return False
        if eps >= self.hold:
            return True
        if self.probe is not None and eps > self.probe:
            probe, self.probe = self.probe, None
            if self.decide(probe):
                return True
        ok = match_decision(self, self.h, eps)
        if ok:
            self.hold = eps
        else:
            self.fail = eps
        return ok


def prepare_problems(curves: Iterable[np.ndarray], h: EmbeddedGraph) -> Iterator[MatchProblem]:
    """A :class:`MatchProblem` against ``h`` for each of ``curves`` (collapsed points), in order.

    Consecutive curves are prepared together in windows (see
    :func:`_families`), so a point or segment that many curves share is
    prepared once per window; each problem equals ``MatchProblem(points, h)``
    bit for bit.  Problems are built one at a time as they are taken.
    """
    for points, window, rows, cols in _families(curves, h):
        problem = MatchProblem.__new__(MatchProblem)
        problem._bind(points, h, window, rows, cols)
        yield problem


# The most cells the shared tables of one window may hold: distinct curve
# points x graph segments plus graph joints x distinct curve segments.  The
# lists a window keeps from its last step hold one item per cell, so they
# are bounded by the same budget (or by one curve's cells, for a curve that
# exceeds it alone).
_WINDOW_CELLS = 1 << 14

# The fixed cost of one root step, in table cells: what a ``_step`` call
# costs beyond its cells, plus a problem's first ``gather``.  A linear fit
# of ``_step`` time against cells, over one-curve tables (350-2300 cells)
# and whole-window tables (6500-16400 cells) of the study's grids and a
# 3x3-block city, gave about 12 us + 24 ns per cell (about 530 cells) on a
# 2-vCPU x86 VM with numpy 2; a first gather adds about 5.7 us (about 240).
_STEP_CELLS = 770

# A point's two float64 coordinates as one key: equal keys, equal bits.
_POINT_KEY = np.dtype((np.void, 16))


def _families(curves: Iterable[np.ndarray], h: EmbeddedGraph):
    """Yield ``(points, window, rows, cols)`` per curve; all but ``points`` are None below two points.

    Curves are taken in windows of consecutive curves whose distinct points
    (by bit pattern, so -0.0 and 0.0 stay apart) and distinct oriented
    segments fit ``_WINDOW_CELLS``; a curve alone may exceed it.  ``rows``
    and ``cols`` are the curve's point and segment ids in its window.
    """
    geom = surface_geometry(h)
    S, J = geom.n_segments, geom.joint_pos.shape[0]
    # The window's curves with their own rows and columns, and the ids of
    # its distinct points and segments.
    window: list[tuple] = []
    point_id: dict[bytes, int] = {}
    seg_id: dict[tuple[bytes, bytes], int] = {}
    for points in curves:
        rows = cols = None
        if points.shape[0] > 1:
            keys = np.ascontiguousarray(points, dtype=float).view(_POINT_KEY).ravel().tolist()
            segs = list(zip(keys, keys[1:]))
            n_points = len(point_id) + len(set(keys).difference(point_id))
            n_segs = len(seg_id) + len(set(segs).difference(seg_id))
            if point_id and n_points * S + J * n_segs > _WINDOW_CELLS:
                yield from _window_families(geom, window, point_id, seg_id)
                window, point_id, seg_id = [], {}, {}
            rows = [point_id.setdefault(k, len(point_id)) for k in keys]
            cols = [seg_id.setdefault(s, len(seg_id)) for s in segs]
        window.append((points, rows, cols))
    yield from _window_families(geom, window, point_id, seg_id)


def _window_families(geom, window: list, point_id: dict, seg_id: dict):
    """:func:`_families` for one window; the arguments are as :func:`_families` keeps them."""
    shared = _Window(geom, point_id, seg_id) if point_id else None
    for points, rows, cols in window:
        yield points, shared if rows else None, rows, cols


class _Window:
    """The shared tables of one window of curves, and their lists at the last eps stepped.

    ``cv`` holds the window's distinct points x graph segments and ``jn``
    the joints x its distinct segments, as :class:`MatchProblem` describes
    them per curve.  A curve's share is its rows of ``cv`` and its columns
    of ``jn``.
    """

    __slots__ = ("geom", "cv_terms", "jn_terms", "cv", "jn", "cells", "asked", "spent", "eps", "free", "lo", "hi")

    def __init__(self, geom, point_id: dict, seg_id: dict):
        S, J = geom.n_segments, geom.joint_pos.shape[0]
        table = np.frombuffer(b"".join(point_id), dtype=float).reshape(-1, 2)
        starts = np.frombuffer(b"".join(a for a, _ in seg_id), dtype=float).reshape(-1, 2)
        stops = np.frombuffer(b"".join(b for _, b in seg_id), dtype=float).reshape(-1, 2)
        # Each table stacks its radius-free terms so that one gather takes a
        # curve's share: cv rows qb^2, -qb and |a-c|^2; jn rows qb^2, -qb and
        # |a-c|^2 of every joint, then 4*qa and 2*safe_qa.
        self.cv_terms = np.empty((3, len(point_id), S))
        self.cv = DiscQuadratic(table[:, None, :], geom.seg_a, geom.seg_b, geom.seg_terms, out=self.cv_terms)
        self.jn_terms = np.empty((3 * J + 2, len(seg_id)))
        self.jn = DiscQuadratic(
            geom.joint_pos[:, None, :], starts, stops, out=self.jn_terms[: 3 * J].reshape(3, J, len(seg_id))
        )
        self.jn_terms[3 * J], self.jn_terms[3 * J + 1] = self.jn.qa4, self.jn.den
        self.geom = geom
        self.cells = len(point_id) * S + J * len(seg_id)
        self.asked = self.eps = None
        self.spent = 0

    def gather(self, rows: list, cols: list):
        """The ``(cv, jn)`` quadratics of the curve with these rows and columns."""
        J = self.geom.joint_pos.shape[0]
        _, qa4, den, degenerate = self.geom.seg_terms
        cv = DiscQuadratic.of_terms(qa4, den, degenerate, *np.take(self.cv_terms, rows, axis=1))
        jn = np.take(self.jn_terms, cols, axis=1)
        # A curve segment has zero length where its 4*qa, like its qa, is 0.
        short = jn[3 * J] == 0.0 if self.jn.degenerate is not None else None
        if short is not None and not short.any():
            short = None  # as segment_terms gives it
        jn = DiscQuadratic.of_terms(jn[3 * J], jn[3 * J + 1], short, jn[:J], jn[J : 2 * J], jn[2 * J : 3 * J])
        return cv, jn

    def tables(self, rows: list, cols: list, eps: float):
        """:meth:`MatchProblem.tables` from the window's step at ``eps``, or None to step alone.

        Each step is priced in cells: its table cells plus ``_STEP_CELLS``,
        the fixed cost of one call.  The window steps only once the prices
        of the steps its curves took alone at ``eps`` (since it was last
        asked another eps), plus this curve's, would reach the price of its
        own step.  A run of decisions at one eps, as the early exits of
        :func:`~pathdist.pathdistance.max_path_distance` make, then costs at
        most twice what stepping every curve alone would, and usually much
        less; a lone eps, as in a bisection, steps its curve alone.
        """
        if eps != self.eps:
            if eps != self.asked:
                self.asked, self.spent = eps, 0
            S, J = self.geom.n_segments, self.geom.joint_pos.shape[0]
            self.spent += len(rows) * S + J * len(cols) + _STEP_CELLS
            if self.spent < self.cells + _STEP_CELLS:
                return None
            self.step(eps)
        free, lo, hi = self.free, self.lo, self.hi
        return [free[r] for r in rows], [lo[c] for c in cols], [hi[c] for c in cols]

    def step(self, eps: float) -> None:
        """Step both whole tables at ``eps`` and keep their lists."""
        self.eps = eps
        self.free, self.lo, self.hi = _step(self.cv, self.jn, eps)


def _step(cv: DiscQuadratic, jn: DiscQuadratic, eps: float):
    """The root step of both families at ``eps``, as the lists :meth:`MatchProblem.tables` describes."""
    lo, hi = jn.intervals(eps)
    return cv.free(eps).tolist(), lo.T.tolist(), hi.T.tolist()


def _problem(curve, h: EmbeddedGraph) -> MatchProblem:
    """``curve`` itself if it is a problem prepared against ``h``, else ``curve`` prepared."""
    if not isinstance(curve, MatchProblem):
        return MatchProblem(collapsed_points(curve), h)
    if curve.h is not h:
        raise InputError("the match problem was prepared against another graph")
    return curve


def match_decision(
    curve: PolyLine | MatchProblem,
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
    decision is negative.  ``curve`` may be a :class:`MatchProblem` prepared
    against ``h``; its memo is neither read nor updated.
    """
    if not eps >= 0:
        raise InputError("eps must be non-negative")
    if h.is_empty():
        return (False, None) if return_witness else False
    problem = _problem(curve, h)
    C = problem.points
    M = C.shape[0] - 1

    if M == 0:
        d, q, _ = nearest_point_on_graph(h, C[0])
        ok = d <= eps
        witness = PolyLine([q]) if (ok and return_witness and q is not None) else None
        return (ok, witness) if return_witness else ok

    geom = problem.window.geom
    free, jn_lo, jn_hi = problem.tables(eps)
    seg_joint = geom.seg_joint
    incident = geom.incident

    # State id of cell (segment s, curve segment i): s*M + i.  ``dist`` holds
    # each cell's label; ``back`` holds how each relaxed cell got its label:
    # (previous state, the joint crossed, or -1 for a step along segment s).
    # Row i's heap holds its cells by label, and the sweep always pops the
    # deepest row that has any.  Every cell free at curve time 0 is a seed
    # at label 0.0; listed in ascending state order, the seeds already form
    # a valid heap.
    dist = [_INF] * (geom.n_segments * M)
    back: dict[int, tuple[int, int]] = {}
    seeds = [s * M for s in compress(range(geom.n_segments), free[0])]
    heaps: list[list[tuple[float, int]]] = [[] for _ in range(M)]
    heaps[0] = [(0.0, state) for state in seeds]
    for state in seeds:
        dist[state] = 0.0

    i = 0
    while i >= 0:
        heap = heaps[i]
        if not heap:
            i -= 1
            continue
        t, state = heappop(heap)
        if t > dist[state]:
            continue
        s = state // M
        if i == M - 1 and free[M][s]:
            if not return_witness:
                return True
            return True, _witness(geom, problem.cv.intervals(eps)[0], back, state, M)
        lo, hi = jn_lo[i], jn_hi[i]
        for j in seg_joint[s]:
            blo, bhi = lo[j], hi[j]
            if blo <= bhi and i + bhi >= t:
                t_j = max(t, i + blo)
                for nbr in incident[j]:
                    nxt = nbr * M + i
                    # Most cells at a joint already hold an earlier label.
                    if t_j < dist[nxt]:
                        dist[nxt] = t_j
                        back[nxt] = (state, j)
                        heappush(heap, (t_j, nxt))
        if i + 1 < M and free[i + 1][s] and i + 1 < dist[state + 1]:
            dist[state + 1] = t_next = float(i + 1)
            back[state + 1] = (state, -1)
            i += 1
            heappush(heaps[i], (t_next, state + 1))

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
    curve: PolyLine | MatchProblem,
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
    part).  The decisions go through the problem's monotone memo of the
    largest failing and the smallest holding eps; with ``lower``, every eps
    strictly below ``lower - tol/2`` fails without a sweep, and one probe at
    ``lower + tol/2`` usually settles every larger eps.  The search still
    visits the same eps and returns the same float as without ``lower``;
    it only sweeps inside a window about ``tol`` wide.

    ``curve`` may be a :class:`MatchProblem` prepared against ``h``, such as
    one that already made an early-exit decision; that decision stays in
    its memo.
    """
    check_tolerance(tol)
    if h.is_empty():
        raise StructuralError("no path exists: the target graph is empty")
    problem = _problem(curve, h)
    # ``lower`` lies within tol/2 of the sub-curve's threshold, which this curve's is never below.
    problem.floor, problem.probe = (-_INF, None) if lower is None else (lower - 0.5 * tol, lower + 0.5 * tol)
    decide = problem.decide
    C = problem.points
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
