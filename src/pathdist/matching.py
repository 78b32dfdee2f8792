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
lone curve is the one-curve window.  All curves prepared together are keyed
in a few array passes: one sort gives every point an id by its bit pattern
and one every oriented segment, and each window numbers its ids in the
order its curves first meet them, so table rows keep the curves' order.
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

def _families(curves: Iterable[np.ndarray], h: EmbeddedGraph):
    """Yield ``(points, window, rows, cols)`` per curve; all but ``points`` are None below two points.

    Curves are taken in windows of consecutive curves whose distinct points
    (by bit pattern, so -0.0 and 0.0 stay apart) and distinct oriented
    segments fit ``_WINDOW_CELLS``; a curve alone may exceed it.  ``rows``
    and ``cols`` are the curve's point and segment ids in its window,
    numbered in the order the window first meets them.  All curves are
    keyed at once (see :class:`_Keys`); a window's tables are built when
    its first curve is taken.
    """
    curves = list(curves)
    geom = surface_geometry(h)
    # A window runs from its first curve of two or more points to the next window's.
    first = [i for i, points in enumerate(curves) if points.shape[0] > 1]
    keys = _Keys([curves[i] for i in first])
    w = 0
    for e in keys.windows(geom.n_segments, geom.joint_pos.shape[0]):
        lo = first[w] if w else 0
        hi = first[e] if e < len(first) else len(curves)
        yield from _window_families(geom, curves[lo:hi], *keys.window(w, e))
        w = e
    if not first:
        yield from _window_families(geom, curves, *keys.window(0, 0))


class _Keys:
    """Ids of the distinct points and oriented segments of curves, all of two or more points.

    The curves' points lie back to back in ``flat``, curve ``c``'s from
    ``offset[c]``; its segments are the pairs of consecutive points in it,
    curve ``c``'s from ``seg_offset[c]``, each at the row ``seg_at`` of its
    first point.  ``point_id`` and ``seg_id`` number them by bit pattern,
    and ``point_prev``, ``seg_prev`` give the curve of the last earlier item
    with the same id, or -1: an item is new to a window of curves from
    ``w`` on exactly when that curve is below ``w``.
    """

    def __init__(self, curves: list[np.ndarray]):
        sizes = np.array([points.shape[0] for points in curves], dtype=np.intp)
        self.offset = np.concatenate(([0], np.cumsum(sizes)))
        self.seg_offset = self.offset - np.arange(len(sizes) + 1)
        owner = np.repeat(np.arange(len(sizes)), sizes)
        self.flat = np.concatenate(curves).astype(float, copy=False) if curves else np.empty((0, 2))
        bits = np.ascontiguousarray(self.flat).view(np.uint64)
        order = np.lexsort((bits[:, 1], bits[:, 0]))
        repeat = np.zeros(len(order), dtype=bool)
        repeat[1:] = (bits[order[1:]] == bits[order[:-1]]).all(axis=1)
        self.point_id, self.point_prev = _numbered(order, repeat, owner)
        is_seg = np.ones(len(owner), dtype=bool)
        is_seg[self.offset[1:] - 1] = False
        self.seg_at = np.flatnonzero(is_seg)
        pairs = self.point_id[self.seg_at] * (len(order) + 1) + self.point_id[self.seg_at + 1]
        order = np.argsort(pairs, kind="stable")
        repeat = np.zeros(len(order), dtype=bool)
        repeat[1:] = pairs[order[1:]] == pairs[order[:-1]]
        self.seg_id, self.seg_prev = _numbered(order, repeat, owner[self.seg_at])
        self.local = np.empty(len(self.point_id), dtype=np.intp)

    def windows(self, S: int, J: int) -> Iterator[int]:
        """Yield the end of each window, in curves: the greedy cut of :func:`_families`.

        A window's cells after each curve are counted over a span of curves
        from its start, first all of them, then twice the last window's;
        the span doubles until the budget is crossed or the curves run out.
        """
        w, m = 0, len(self.offset) - 1
        span = m
        while w < m:
            e = min(m, w + span)
            cells = S * _fresh(self.point_prev, self.offset, w, e)
            cells += J * _fresh(self.seg_prev, self.seg_offset, w, e)
            # A window's first curve is taken however many cells it holds.
            cut = max(1, int(cells.searchsorted(_WINDOW_CELLS, side="right")))
            if cut >= e - w and e < m:
                span *= 2
                continue
            span = 2 * min(cut, e - w)
            w += min(cut, e - w)
            yield w

    def window(self, w: int, e: int):
        """``(rows, cols, table, starts, stops)`` of the window of curves ``w`` to ``e``.

        ``rows`` and ``cols`` list every point's and segment's id in the
        window, curve after curve; ``table`` holds its distinct points and
        ``starts``, ``stops`` the ends of its distinct segments, in id order.
        """
        a, b = self.offset[w], self.offset[e]
        rows, first = self._renumber(self.point_id[a:b], self.point_prev[a:b] < w)
        table = self.flat[a + first]
        a, b = self.seg_offset[w], self.seg_offset[e]
        cols, first = self._renumber(self.seg_id[a:b], self.seg_prev[a:b] < w)
        at = self.seg_at[a + first]
        return rows.tolist(), cols.tolist(), table, self.flat[at], self.flat[at + 1]

    def _renumber(self, ids: np.ndarray, new: np.ndarray):
        """``ids`` renumbered in the order they first occur (where ``new``), and those places."""
        (first,) = new.nonzero()
        self.local[ids[first]] = np.arange(len(first))
        return self.local[ids], first


def _fresh(prev: np.ndarray, offset: np.ndarray, w: int, e: int) -> np.ndarray:
    """Per curve from ``w`` to ``e``, the items new to a window from ``w`` up to that curve's end."""
    return (prev[offset[w] : offset[e]] < w).cumsum()[offset[w + 1 : e + 1] - offset[w] - 1]


def _numbered(order: np.ndarray, repeat: np.ndarray, owner: np.ndarray):
    """Ids of items sorted by ``order`` (``repeat``: same key as the one before), and each item's earlier owner.

    The ids count distinct keys in sorted order; the earlier owner is the
    ``owner`` of the last item before it, in item order, with its key, or -1.
    """
    ids = np.empty(len(order), dtype=np.intp)
    ids[order] = np.cumsum(~repeat) - 1
    prev = np.full(len(order), -1, dtype=np.intp)
    prev[order[1:][repeat[1:]]] = owner[order[:-1][repeat[1:]]]
    return ids, prev


def _window_families(geom, window: list, rows: list, cols: list, table, starts, stops):
    """:func:`_families` for one window: its curves, with the ids and tables of :meth:`_Keys.window`."""
    shared = _Window(geom, table, starts, stops) if len(table) else None
    p = s = 0
    for points in window:
        n = points.shape[0]
        if n < 2:
            yield points, None, None, None
            continue
        yield points, shared, rows[p : p + n], cols[s : s + n - 1]
        p, s = p + n, s + n - 1


class _Window:
    """The shared tables of one window of curves, and their lists at the last eps stepped.

    ``cv`` holds the window's distinct points x graph segments and ``jn``
    the joints x its distinct segments, as :class:`MatchProblem` describes
    them per curve.  A curve's share is its rows of ``cv`` and its columns
    of ``jn``.
    """

    __slots__ = ("geom", "cv_terms", "jn_terms", "cv", "jn", "cells", "asked", "spent", "eps", "free", "lo", "hi")

    def __init__(self, geom, table: np.ndarray, starts: np.ndarray, stops: np.ndarray):
        S, J = geom.n_segments, geom.joint_pos.shape[0]
        # Each table stacks its radius-free terms so that one gather takes a
        # curve's share: cv rows qb^2, -qb and |a-c|^2; jn rows qb^2, -qb and
        # |a-c|^2 of every joint, then 4*qa and 2*safe_qa.
        self.cv_terms = np.empty((3, len(table), S))
        self.cv = DiscQuadratic(table[:, None, :], geom.seg_a, geom.seg_b, geom.seg_terms, out=self.cv_terms)
        self.jn_terms = np.empty((3 * J + 2, len(starts)))
        self.jn = DiscQuadratic(
            geom.joint_pos[:, None, :], starts, stops, out=self.jn_terms[: 3 * J].reshape(3, J, len(starts))
        )
        self.jn_terms[3 * J], self.jn_terms[3 * J + 1] = self.jn.qa4, self.jn.den
        self.geom = geom
        self.cells = len(table) * S + J * len(starts)
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
    part).  Any ``lower`` but ``None`` or a finite number >= 0 raises
    :class:`InputError`; a finite one above the true value is not detected.
    The decisions go through the problem's monotone memo of the
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
    if lower is not None and not 0.0 <= lower < _INF:  # NaN fails too
        raise InputError(f"lower must be None or a finite number >= 0, got {lower!r}")
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
