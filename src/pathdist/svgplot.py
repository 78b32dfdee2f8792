"""Small deterministic SVG writer for heat-maps, CDF plots, and boxplots.

Output is plain hand-assembled SVG with fixed-precision coordinates so the
same inputs always produce byte-identical files (golden-file friendly).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from .atomic import atomic_write

__all__ = ["SvgCanvas", "world_transform", "ramp_color", "CURVE_COLORS", "PLOT_SIZE"]

# Light yellow through orange to dark red.
_RAMP_STOPS = (
    (255, 255, 178),
    (254, 217, 118),
    (254, 178, 76),
    (253, 141, 60),
    (240, 59, 32),
    (189, 0, 38),
)

CURVE_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

#: Width and height of the CDF plot and the study boxplot.
PLOT_SIZE = (640.0, 420.0)


def _f(x: float) -> str:
    return format(float(x), ".3f")


def ramp_color(t: float) -> str:
    """Hex color on the yellow-to-red ramp for t in [0, 1]."""
    t = min(max(float(t), 0.0), 1.0)
    pos = t * (len(_RAMP_STOPS) - 1)
    i = min(int(math.floor(pos)), len(_RAMP_STOPS) - 2)
    u = pos - i
    a, b = _RAMP_STOPS[i], _RAMP_STOPS[i + 1]
    rgb = tuple(round(a[c] + u * (b[c] - a[c])) for c in range(3))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def world_transform(
    bounds: tuple[float, float, float, float],
    width: float,
    height: float,
    margin: float = 10.0,
) -> Callable[[float, float], tuple[float, float]]:
    """Uniform-scale transform from world (y up) to SVG (y down) coordinates."""
    x0, y0, x1, y1 = bounds
    spanx = max(x1 - x0, 1e-12)
    spany = max(y1 - y0, 1e-12)
    scale = min((width - 2 * margin) / spanx, (height - 2 * margin) / spany)
    offx = margin + ((width - 2 * margin) - spanx * scale) / 2.0
    offy = margin + ((height - 2 * margin) - spany * scale) / 2.0

    def tf(x: float, y: float) -> tuple[float, float]:
        return (offx + (x - x0) * scale, height - (offy + (y - y0) * scale))

    return tf


class SvgCanvas:
    def __init__(self, width: float, height: float):
        self.width = width
        self.height = height
        self._parts: list[str] = []
        self.rect(0, 0, width, height, fill="white")

    def rect(self, x, y, w, h, fill="none", stroke="none", stroke_width=1.0):
        self._parts.append(
            f'<rect x="{_f(x)}" y="{_f(y)}" width="{_f(w)}" height="{_f(h)}" '
            f'fill="{fill}" stroke="{stroke}" stroke-width="{_f(stroke_width)}"/>'
        )

    def line(self, x1, y1, x2, y2, stroke="black", stroke_width=1.0, dash: str | None = None):
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        self._parts.append(
            f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}" '
            f'stroke="{stroke}" stroke-width="{_f(stroke_width)}"{extra}/>'
        )

    def polyline(self, points: Sequence[tuple[float, float]], stroke="black", stroke_width=1.0):
        pts = " ".join(f"{_f(x)},{_f(y)}" for x, y in points)
        self._parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
            f'stroke-width="{_f(stroke_width)}" stroke-linecap="round" '
            f'stroke-linejoin="round"/>'
        )

    def text(self, x, y, s, size=11.0, anchor="start", fill="black"):
        self._parts.append(
            f'<text x="{_f(x)}" y="{_f(y)}" font-size="{_f(size)}" '
            f'font-family="sans-serif" text-anchor="{anchor}" fill="{fill}">{s}</text>'
        )

    def to_string(self) -> str:
        body = "\n".join(self._parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(self.width)}" '
            f'height="{_f(self.height)}" viewBox="0 0 {_f(self.width)} {_f(self.height)}">\n'
            f"{body}\n</svg>\n"
        )

    def write(self, path) -> None:
        with atomic_write(path) as fh:
            fh.write(self.to_string())
