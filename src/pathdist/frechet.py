"""Fréchet distance between planar polylines.

The decision procedure propagates monotone reachability over the free-space
diagram of the two curves; the distance itself is obtained by bisecting the
decision between analytic lower and upper bounds.  A classical
dynamic-programming discrete Fréchet distance is provided as an independent
upper bound and test oracle.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .geometry import PolyLine, collapsed_points, disc_segment_intervals, max_distance_to_point

__all__ = ["check_tolerance", "frechet_decision", "frechet_distance", "discrete_frechet"]

#: Default absolute tolerance (meters) for bisection searches.
DEFAULT_TOLERANCE = 1e-3

_INF = float("inf")


def check_tolerance(tol: float) -> None:
    """Raise :class:`InputError` unless ``0 < tol < inf`` (so NaN fails too)."""
    if not 0.0 < tol < _INF:
        raise InputError("tol must be positive and finite")


def bisect_decision(decide, lo: float, hi: float, tol: float) -> float:
    """Bisect a monotone decision, failing at ``lo`` and holding at ``hi``, down to ``tol``.

    Returns the midpoint of the final bracket, within ``tol / 2`` of the
    threshold where ``decide`` switches.  A ``tol`` below the float spacing
    of the bracket cannot be met: the search ends once the midpoint rounds
    to an end of the bracket, which then holds no float between its ends.
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if decide(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def frechet_decision(f: PolyLine, g: PolyLine, eps: float) -> bool:
    """Decide whether the Fréchet distance of ``f`` and ``g`` is <= ``eps``.

    Free-space cell boundary intervals are computed in closed form by
    segment-disc intersection; reachability is swept cell by cell.  Degenerate
    zero-length segments are collapsed before the sweep, and single-point
    curves are handled as constant paths.
    """
    if not eps >= 0:
        raise InputError("eps must be non-negative")
    fp = collapsed_points(f)
    gp = collapsed_points(g)

    if fp.shape[0] == 1 and gp.shape[0] == 1:
        return float(np.hypot(*(fp[0] - gp[0]))) <= eps
    if fp.shape[0] == 1:
        return max_distance_to_point(gp, fp[0]) <= eps
    if gp.shape[0] == 1:
        return max_distance_to_point(fp, gp[0]) <= eps

    m = fp.shape[0] - 1  # segments of f (horizontal axis)
    n = gp.shape[0] - 1  # segments of g (vertical axis)

    # left[i][j]: free sub-interval of g-segment j at f-vertex i.
    # bottom[i][j]: free sub-interval of f-segment i at g-vertex j.
    left_lo, left_hi = disc_segment_intervals(fp[:, None, :], eps, gp[:-1], gp[1:])
    bot_lo, bot_hi = disc_segment_intervals(gp[:, None, :], eps, fp[:-1], fp[1:])

    if not (left_lo[0, 0] <= 0.0 <= left_hi[0, 0]):
        return False  # start corner not free

    llo = left_lo.tolist()
    lhi = left_hi.tolist()
    blo = bot_lo.T.tolist()
    bhi = bot_hi.T.tolist()

    # lr[i][j] / br[i][j]: lowest reachable parameter on the left/bottom
    # boundary of cell (i, j), inf when unreachable.
    lr = [[_INF] * n for _ in range(m + 1)]
    br = [[_INF] * (n + 1) for _ in range(m)]
    lr[0][0] = 0.0
    br[0][0] = 0.0
    for j in range(1, n):  # climb the left column
        if lr[0][j - 1] != _INF and lhi[0][j - 1] == 1.0 and llo[0][j] == 0.0:
            lr[0][j] = 0.0
    for i in range(1, m):  # walk the bottom row
        if br[i - 1][0] != _INF and bhi[i - 1][0] == 1.0 and blo[i][0] == 0.0:
            br[i][0] = 0.0

    for i in range(m):
        for j in range(n):
            cl = lr[i][j]
            cb = br[i][j]
            if cl == _INF and cb == _INF:
                continue
            # right boundary of this cell = left boundary of cell (i+1, j)
            if i + 1 <= m and llo[i + 1][j] <= lhi[i + 1][j]:
                if cb != _INF:
                    cand = llo[i + 1][j]
                elif cl <= lhi[i + 1][j]:
                    cand = max(llo[i + 1][j], cl)
                else:
                    cand = _INF
                if cand < lr[i + 1][j]:
                    lr[i + 1][j] = cand
            # top boundary of this cell = bottom boundary of cell (i, j+1)
            if j + 1 <= n and blo[i][j + 1] <= bhi[i][j + 1]:
                if cl != _INF:
                    cand = blo[i][j + 1]
                elif cb <= bhi[i][j + 1]:
                    cand = max(blo[i][j + 1], cb)
                else:
                    cand = _INF
                if cand < br[i][j + 1]:
                    br[i][j + 1] = cand

    return (lr[m][n - 1] != _INF and lhi[m][n - 1] == 1.0) or (
        br[m - 1][n] != _INF and bhi[m - 1][n] == 1.0
    )


def frechet_distance(f: PolyLine, g: PolyLine, tol: float = DEFAULT_TOLERANCE) -> float:
    """Fréchet distance of two polylines to absolute tolerance ``tol``.

    Bisects :func:`frechet_decision` between the endpoint-distance lower
    bound and the maximum pairwise vertex distance.  The returned value d
    satisfies ``|d - true distance| <= tol``.
    """
    check_tolerance(tol)
    fp = collapsed_points(f)
    gp = collapsed_points(g)
    lo = max(float(np.hypot(*(fp[0] - gp[0]))), float(np.hypot(*(fp[-1] - gp[-1]))))
    if frechet_decision(f, g, lo):
        return lo
    diff = fp[:, None, :] - gp[None, :, :]
    hi = float(np.hypot(diff[..., 0], diff[..., 1]).max())
    if not frechet_decision(f, g, hi):
        # Guard against rounding at the analytic upper bound.
        hi *= 1.0 + 1e-9
    return bisect_decision(lambda eps: frechet_decision(f, g, eps), lo, hi, tol)


def discrete_frechet(f: PolyLine, g: PolyLine) -> float:
    """Discrete Fréchet distance over the two vertex sequences.

    Classical O(mn) dynamic program; upper-bounds the continuous distance,
    and on curves resampled with max spacing s it exceeds it by at most s.
    """
    fp = PolyLine(f).points if not isinstance(f, PolyLine) else f.points
    gp = PolyLine(g).points if not isinstance(g, PolyLine) else g.points
    diff = fp[:, None, :] - gp[None, :, :]
    d = np.hypot(diff[..., 0], diff[..., 1]).tolist()
    m = len(fp)
    n = len(gp)
    prev = [0.0] * n
    row = d[0]
    acc = row[0]
    for j in range(n):
        acc = max(acc, row[j])
        prev[j] = acc
    for i in range(1, m):
        cur = [0.0] * n
        row = d[i]
        cur[0] = max(prev[0], row[0])
        for j in range(1, n):
            best = prev[j]
            if prev[j - 1] < best:
                best = prev[j - 1]
            if cur[j - 1] < best:
                best = cur[j - 1]
            cur[j] = best if best > row[j] else row[j]
        prev = cur
    return float(prev[n - 1])
