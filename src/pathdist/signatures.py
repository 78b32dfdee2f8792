"""Local signature maps, their weighted CDF summaries, and exports.

The per-edge signature assigns each edge the worst map-matching distance of
the bounded-link-length paths through it; the weighted CDF reports, for a
threshold x, the fraction of total graph length whose signature is <= x
(closed threshold).  Heat-maps color edges from light yellow (similar) to
dark red (dissimilar).
"""

from __future__ import annotations

import csv
from bisect import bisect_right
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .errors import InputError, ParseError, StructuralError
from .graph import EmbeddedGraph, csv_rows, finite_numbers, linestring_collection, write_geojson
from .svgplot import CURVE_COLORS, PLOT_SIZE, SvgCanvas, ramp_color, world_transform

__all__ = [
    "SignatureMap",
    "CdfCurve",
    "cdf",
    "cdf_at",
    "export_heatmap",
    "export_cdf_plot",
    "write_signature_csv",
    "read_signature_csv",
]

#: Side of the square heat-map SVG.
_HEATMAP_SIZE = 800.0


@dataclass
class SignatureMap:
    """Per-edge or per-vertex signature values over a graph."""

    target: str  # "edge" or "vertex"
    k: int
    values: dict[Hashable, float]
    graph: EmbeddedGraph

    def __post_init__(self):
        if self.target not in ("edge", "vertex"):
            raise InputError(f"unknown signature target {self.target!r}")
        pool = self.graph.edges if self.target == "edge" else self.graph.vertices
        for key, val in self.values.items():
            if key not in pool:
                raise StructuralError(f"signature key {key!r} is not in the graph")
            if not (val >= 0.0):
                raise InputError(f"signature value for {key!r} must be >= 0")

    def edge_lengths(self) -> dict[Hashable, float]:
        if self.target != "edge":
            raise InputError("edge lengths are only defined for edge signatures")
        return {eid: self.graph.edges[eid].geometry.length() for eid in self.values}


@dataclass(frozen=True)
class CdfCurve:
    """Right-continuous step function given by its breakpoints.

    ``xs`` are the distinct signature values in ascending order; ``ys`` the
    cumulative length-weighted fractions, ending at 1 for full coverage.
    """

    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def value_at(self, x: float) -> float:
        i = bisect_right(self.xs, x)
        return self.ys[i - 1] if i else 0.0


def _cdf_from_pairs(pairs: Sequence[tuple[float, float]], total: float | None = None) -> CdfCurve:
    """Step curve from (value, weight) pairs.

    With ``total=None`` the denominator is the cumulative weight itself, so
    the final fraction is exactly 1.0 regardless of summation order.
    """
    if not pairs:
        raise InputError("cannot build a CDF from an empty signature")
    ordered = sorted(pairs, key=lambda p: p[0])
    cum = np.cumsum([w for _, w in ordered])
    if total is None:
        total = float(cum[-1])
    if total <= 0.0:
        raise InputError("total length must be positive")
    xs: list[float] = []
    ys: list[float] = []
    for (value, _), acc in zip(ordered, cum):
        if xs and xs[-1] == value:
            ys[-1] = float(acc) / total
        else:
            xs.append(value)
            ys.append(float(acc) / total)
    return CdfCurve(tuple(xs), tuple(ys))


def cdf(sig: SignatureMap) -> CdfCurve:
    """Length-weighted cumulative distribution of an edge signature.

    The denominator is the total graph length; when the signature covers
    every edge (the normal case) it is taken as the cumulative sum of the
    same per-edge lengths, which makes the final fraction exactly 1.0.
    """
    lengths = sig.edge_lengths()
    pairs = [(sig.values[eid], lengths[eid]) for eid in sig.values]
    full_coverage = len(sig.values) == len(sig.graph.edges)
    return _cdf_from_pairs(pairs, None if full_coverage else sig.graph.total_length())


def cdf_at(sig: SignatureMap, x: float) -> float:
    """Fraction of total graph length whose signature is <= x."""
    return cdf(sig).value_at(x)


def _ramp_values(sig: SignatureMap, ramp: str) -> dict[Hashable, float]:
    if ramp == "linear":
        top = max(sig.values.values(), default=0.0)
        if top <= 0.0:
            return {k: 0.0 for k in sig.values}
        return {k: v / top for k, v in sig.values.items()}
    if ramp == "quantile":
        if not sig.values:
            return {}  # no edge to colour, and no CDF to build
        curve = cdf(sig)
        return {k: curve.value_at(v) for k, v in sig.values.items()}
    raise InputError(f"unknown ramp {ramp!r} (expected 'linear' or 'quantile')")


def export_heatmap(
    sig: SignatureMap,
    path,
    fmt: str = "svg",
    ramp: str = "quantile",
) -> None:
    """Write an edge-signature heat-map as SVG or GeoJSON.

    The quantile ramp maps each value to its length-weighted CDF fraction,
    which keeps a few extreme edges from washing out the rest of the map;
    the linear ramp divides by the maximum value.  GeoJSON features carry
    ``edge_id``, ``signature_m``, and the ``ramp_value`` in [0, 1] so other
    tools can restyle them.
    """
    if sig.target != "edge":
        raise InputError("heat-maps are defined for edge signatures")
    rv = _ramp_values(sig, ramp)
    if fmt == "geojson":
        lines = (
            (
                sig.graph.edges[eid].geometry.points,
                {"edge_id": eid, "signature_m": float(value), "ramp_value": float(rv[eid])},
            )
            for eid, value in sig.values.items()
        )
        write_geojson(path, linestring_collection(lines))
        return
    if fmt != "svg":
        raise InputError(f"unsupported heat-map format {fmt!r}")

    xs = [p.x for p in sig.graph.vertices.values()]
    ys = [p.y for p in sig.graph.vertices.values()]
    for e in sig.graph.edges.values():
        xs.extend(e.geometry.points[:, 0])
        ys.extend(e.geometry.points[:, 1])
    if not xs:
        raise InputError("cannot draw an empty graph")
    tf = world_transform((min(xs), min(ys), max(xs), max(ys)), _HEATMAP_SIZE, _HEATMAP_SIZE)
    canvas = SvgCanvas(_HEATMAP_SIZE, _HEATMAP_SIZE)
    for eid, e in sig.graph.edges.items():
        pts = [tf(x, y) for x, y in e.geometry.points]
        if eid in sig.values:
            canvas.polyline(pts, stroke=ramp_color(rv[eid]), stroke_width=2.0)
        else:
            canvas.polyline(pts, stroke="#bbbbbb", stroke_width=1.0)
    canvas.write(path)


def export_cdf_plot(
    curves: Sequence[CdfCurve],
    labels: Sequence[str],
    path,
    *,
    reference_x: float = 20.0,
) -> None:
    """Step plot of one or more CDF curves with a vertical reference line."""
    if not curves:
        raise InputError("need at least one CDF curve to plot")
    if len(labels) != len(curves):
        raise InputError("labels must match curves one to one")
    if not np.isfinite(reference_x):
        raise InputError("the reference line needs a finite x")
    width, height = PLOT_SIZE
    margin = 50.0
    xmax = max(max(c.xs) for c in curves)
    xmax = max(xmax, reference_x) * 1.05 + 1e-9

    def px(x: float) -> float:
        return margin + (x / xmax) * (width - 2 * margin)

    def py(y: float) -> float:
        return height - margin - y * (height - 2 * margin)

    canvas = SvgCanvas(width, height)
    canvas.line(px(0), py(0), px(xmax), py(0), stroke="black")
    canvas.line(px(0), py(0), px(0), py(1), stroke="black")
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        canvas.line(px(0) - 4, py(frac), px(0), py(frac), stroke="black")
        canvas.text(px(0) - 7, py(frac) + 4, f"{frac:.2f}", anchor="end")
    for i in range(5):
        x = xmax * i / 4
        canvas.line(px(x), py(0), px(x), py(0) + 4, stroke="black")
        canvas.text(px(x), py(0) + 16, f"{x:.0f}", anchor="middle")
    canvas.text((px(0) + px(xmax)) / 2, height - 8, "signature (meters)", anchor="middle")
    canvas.text(14, py(0.5), "fraction of length", anchor="middle")
    canvas.line(px(reference_x), py(0), px(reference_x), py(1), stroke="#999999", dash="4,3")

    for idx, (curve, label) in enumerate(zip(curves, labels)):
        color = CURVE_COLORS[idx % len(CURVE_COLORS)]
        pts: list[tuple[float, float]] = [(px(0), py(0))]
        prev_y = 0.0
        for x, y in zip(curve.xs, curve.ys):
            pts.append((px(x), py(prev_y)))
            pts.append((px(x), py(y)))
            prev_y = y
        pts.append((px(xmax), py(prev_y)))
        canvas.polyline(pts, stroke=color, stroke_width=1.5)
        canvas.text(width - margin, margin + 14 * idx, label, anchor="end", fill=color)
    canvas.write(path)


def write_signature_csv(sig: SignatureMap, fh) -> None:
    """Rows of edge_id, length_m, signature_m (header included)."""
    lengths = sig.edge_lengths()
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(["edge_id", "length_m", "signature_m"])
    for eid, value in sig.values.items():
        w.writerow([eid, repr(lengths[eid]), repr(value)])


def read_signature_csv(fh) -> list[tuple[str, float, float]]:
    """(edge_id, length, signature) triples from a signature CSV.

    An ``edge_id`` header is optional (:func:`csv_rows`).  A malformed row,
    or a length or signature that is not a finite number >= 0, raises a
    :class:`ParseError` with its line number.
    """
    rows = []
    for lineno, row in csv_rows(fh, "edge_id"):
        if len(row) != 3:
            raise ParseError(f"signature row needs 3 fields, got {len(row)}", lineno)
        length, value = finite_numbers(row[1:], "signature row", lineno, 0.0)
        rows.append((row[0], length, value))
    return rows


def cdf_from_signature_rows(rows: Sequence[tuple[str, float, float]]) -> CdfCurve:
    """CDF from exported rows, weighting by the recorded edge lengths."""
    return _cdf_from_pairs([(value, length) for _, length, value in rows])
