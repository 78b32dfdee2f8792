"""Planar primitives: points, polylines, and segment/disc intersections.

All coordinates are planar offsets in meters (UTM-style frames); every
distance in the package is Euclidean in this frame.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

from .errors import InputError

__all__ = [
    "Point2D",
    "PolyLine",
    "DiscQuadratic",
    "disc_roots",
    "clamped_intervals",
    "disc_segment_intervals",
    "segment_terms",
    "project_onto_segments",
    "collapsed_points",
    "max_distance_to_point",
]

EMPTY_LO = np.inf
EMPTY_HI = -np.inf


class Point2D(NamedTuple):
    """A point in the planar meter frame."""

    x: float
    y: float


def _as_point_array(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1 and pts.shape == (2,):
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
        raise InputError(f"expected an (n, 2) point array, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise InputError("coordinates must be finite")
    return pts


class PolyLine:
    """An ordered point sequence; the geometric realization of edges and paths.

    A single-point polyline is a valid degenerate curve.  Consecutive
    duplicate points are permitted; :meth:`collapsed` removes them before
    numeric work that divides by segment lengths.
    """

    __slots__ = ("points",)

    def __init__(self, points: Iterable | np.ndarray):
        self.points = _as_point_array(points)
        self.points.setflags(write=False)

    def __len__(self) -> int:
        return self.points.shape[0]

    def __repr__(self) -> str:
        return f"PolyLine({self.points.tolist()!r})"

    def segment_lengths(self) -> np.ndarray:
        d = np.diff(self.points, axis=0)
        return np.hypot(d[:, 0], d[:, 1])

    def length(self) -> float:
        return float(self.segment_lengths().sum())

    def cumulative_lengths(self) -> np.ndarray:
        """Arc length at each point, starting at 0."""
        out = np.empty(len(self))
        out[0] = 0.0
        np.cumsum(self.segment_lengths(), out=out[1:])
        return out

    def reversed(self) -> "PolyLine":
        return PolyLine(self.points[::-1])

    def collapsed(self) -> "PolyLine":
        """Drop consecutive duplicate points (zero-length segments)."""
        if len(self) == 1:
            return self
        keep = np.empty(len(self), dtype=bool)
        keep[0] = True
        keep[1:] = self.segment_lengths() > 0.0
        if keep.all():
            return self
        return PolyLine(self.points[keep])

    def point_at(self, arc) -> np.ndarray:
        """Point at the given arc length, clamped to the curve; one row per arc of an array."""
        cum = self.cumulative_lengths()
        total = cum[-1]
        arc = np.clip(np.asarray(arc, dtype=float), 0.0, total)
        if total == 0.0:
            return np.broadcast_to(self.points[0], arc.shape + (2,)).copy()
        i = np.minimum(np.searchsorted(cum, arc, side="right") - 1, len(self) - 2)
        seg = cum[i + 1] - cum[i]
        u = np.where(seg == 0.0, 0.0, (arc - cum[i]) / np.where(seg == 0.0, 1.0, seg))
        return self.points[i] + u[..., None] * (self.points[i + 1] - self.points[i])

    def resampled(self, spacing: float) -> "PolyLine":
        """Insert points so consecutive spacing is at most ``spacing``.

        Original vertices are kept, so the geometric image is unchanged.
        """
        if spacing <= 0:
            raise InputError("spacing must be positive")
        pts = self.collapsed().points
        if pts.shape[0] == 1:
            return PolyLine(pts)
        out = [pts[0]]
        for a, b in zip(pts[:-1], pts[1:]):
            seg = float(np.hypot(*(b - a)))
            n = max(1, int(np.ceil(seg / spacing)))
            for j in range(1, n + 1):
                out.append(a + (j / n) * (b - a))
        return PolyLine(np.asarray(out))


def segment_terms(a, b):
    """The terms of the segment-disc quadratic that depend on segments ``a[i] -> b[i]`` alone.

    Returns ``(d, qa4, den, degenerate)``: the directions ``b - a``,
    ``4*qa`` and ``2*safe_qa`` for ``qa = |d|^2`` (1 stands in for 0 in
    ``safe_qa``), and the zero-length mask ``qa == 0``, or ``None`` when no
    segment has zero length.
    """
    d = np.asarray(b, dtype=float) - np.asarray(a, dtype=float)
    qa = np.einsum("...i,...i->...", d, d)
    degenerate = qa == 0.0
    if not degenerate.any():
        return d, 4.0 * qa, 2.0 * qa, None
    return d, 4.0 * qa, 2.0 * np.where(degenerate, 1.0, qa), degenerate


class DiscQuadratic:
    """``||a + u*(b-a) - center||^2 <= r^2`` for segments ``a[i] -> b[i]``, prepared for any r.

    The quadratic in ``u`` is ``qa*u^2 + qb*u + qc`` with ``qa = |b-a|^2``,
    ``qb = 2 (a-c).(b-a)`` and ``qc = |a-c|^2 - r^2``.  Construction computes
    every term that does not depend on the radius (``4*qa``, ``qb^2``,
    ``-qb``, ``|a-c|^2``, ``2*safe_qa`` and the zero-length mask); each
    radius then costs only the root step.  ``center`` may be a single point
    or an array broadcastable against the segment arrays.  ``segments``
    takes precomputed :func:`segment_terms` of ``a`` and ``b``.  ``out``,
    if given, is a float array of shape ``(3, *shape)`` that receives
    ``qb^2``, ``-qb`` and ``|a-c|^2`` in that order.
    """

    __slots__ = ("qa4", "qb2", "nqb", "ff", "den", "degenerate")

    def __init__(self, center, a, b, segments=None, out=None):
        a = np.asarray(a, dtype=float)
        d, self.qa4, self.den, self.degenerate = segment_terms(a, b) if segments is None else segments
        f = a - np.asarray(center, dtype=float)
        qb = 2.0 * np.einsum("...i,...i->...", f, d)
        if out is None:
            out = np.empty((3, *qb.shape))
        self.qb2 = np.multiply(qb, qb, out=out[0])
        self.nqb = np.negative(qb, out=out[1])
        self.ff = np.einsum("...i,...i->...", f, f, out=out[2])

    @classmethod
    def of_terms(cls, qa4, den, degenerate, qb2, nqb, ff) -> "DiscQuadratic":
        """A quadratic from radius-free terms taken out of a larger one, such as gathered rows."""
        q = cls.__new__(cls)
        q.qa4, q.den, q.degenerate, q.qb2, q.nqb, q.ff = qa4, den, degenerate, qb2, nqb, ff
        return q

    def _roots(self, radius: float):
        """The unclamped roots ``u1 <= u2`` and the empty mask at ``radius``; see :func:`disc_roots`."""
        return disc_roots(self.qb2, self.nqb, self.ff, self.qa4, self.den, self.degenerate, radius)

    def free(self, radius: float) -> np.ndarray:
        """True where a segment meets the disc of ``radius``."""
        return ~self._roots(radius)[2]

    def intervals(self, radius: float):
        """``(lo, hi)`` as for :func:`disc_segment_intervals`."""
        return clamped_intervals(*self._roots(radius), self.degenerate)


def disc_roots(qb2, nqb, ff, qa4, den, degenerate, radius):
    """The unclamped roots ``u1 <= u2`` and the empty mask of the radius-free terms at ``radius``.

    The terms are those :class:`DiscQuadratic` holds: ``qb^2``, ``-qb``,
    ``|a-c|^2``, ``4*qa`` and ``2*safe_qa``, and the zero-length mask or
    ``None``; ``qb^2``, ``-qb`` and ``|a-c|^2`` share the shape of the
    result, and the rest broadcast against it.  These are the float
    operations of the whole formula, in its order; only the radius-free
    terms were computed ahead.  Every temporary is written in place.
    """
    qc = ff - radius * radius
    disc = np.multiply(qa4, qc)
    np.subtract(qb2, disc, out=disc)
    sq = np.maximum(disc, 0.0)
    np.sqrt(sq, out=sq)
    u1 = np.subtract(nqb, sq)
    np.divide(u1, den, out=u1)
    u2 = np.add(nqb, sq, out=sq)
    np.divide(u2, den, out=u2)
    empty = np.less(disc, 0.0)
    flag = np.greater(u1, 1.0)
    empty |= flag
    empty |= np.less(u2, 0.0, out=flag)
    if degenerate is not None:
        # Zero-length segment: inside the disc iff its point is.
        np.copyto(empty, np.greater(qc, 0.0, out=flag), where=degenerate)
    return u1, u2, empty


def clamped_intervals(u1, u2, empty, degenerate):
    """``(lo, hi)`` as for :func:`disc_segment_intervals`, from :func:`disc_roots`, overwriting ``u1`` and ``u2``."""
    # np.clip to [0, 1]; with the bound first, a -0.0 root stays -0.0 as in np.clip.
    lo = np.minimum(1.0, np.maximum(0.0, u1, out=u1), out=u1)
    hi = np.minimum(1.0, np.maximum(0.0, u2, out=u2), out=u2)
    if degenerate is not None:
        np.copyto(lo, 0.0, where=degenerate)
        np.copyto(hi, 1.0, where=degenerate)
    np.copyto(lo, EMPTY_LO, where=empty)
    np.copyto(hi, EMPTY_HI, where=empty)
    return lo, hi


def disc_segment_intervals(center, radius: float, a, b):
    """Parameter intervals of segments ``a[i] -> b[i]`` inside a closed disc.

    Returns ``(lo, hi)`` arrays with the sub-interval of [0, 1] where
    ``||a + u*(b-a) - center|| <= radius``.  Empty intersections are encoded
    as ``lo = +inf, hi = -inf`` so that emptiness is simply ``lo > hi``.

    ``center`` may be a single point or an array broadcastable against the
    segment arrays.  One call prepares a :class:`DiscQuadratic` and steps it
    once; callers that ask for many radii keep the prepared quadratic.
    """
    return DiscQuadratic(center, a, b).intervals(radius)


def project_onto_segments(p, a: np.ndarray, d: np.ndarray):
    """Per-segment ``(distances, projected points, u)`` of ``p`` on ``a[i] -> a[i] + d[i]``.

    ``u`` in [0, 1] places each projection on its segment (0 on a zero-length one).
    """
    p = np.asarray(p, dtype=float)
    dd = np.einsum("ij,ij->i", d, d)
    u = np.einsum("ij,ij->i", p - a, d) / np.where(dd == 0.0, 1.0, dd)
    u = np.clip(u, 0.0, 1.0)
    proj = a + u[:, None] * d
    dists = np.hypot(proj[:, 0] - p[0], proj[:, 1] - p[1])
    return dists, proj, u


def collapsed_points(curve) -> np.ndarray:
    """Vertices of ``curve`` (a PolyLine or point sequence), consecutive duplicates removed."""
    if not isinstance(curve, PolyLine):
        curve = PolyLine(curve)
    return curve.collapsed().points


def max_distance_to_point(pts: np.ndarray, p) -> float:
    """Largest distance from the polyline through ``pts`` to the point ``p``.

    Distance to a fixed point is convex along each segment, so the maximum
    over a polyline is attained at a vertex.
    """
    return float(np.hypot(pts[:, 0] - p[0], pts[:, 1] - p[1]).max())
