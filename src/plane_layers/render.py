"""Deterministic SVG rendering of point sets and layer sets."""

from __future__ import annotations

import math
from typing import Sequence

from .errors import UsageError
from .geometry import PointSet, Segment

PALETTE = [
    "#d62728",  # red
    "#1f77b4",  # blue
    "#2ca02c",
    "#ff7f0e",
    "#9467bd",
    "#8c564b",
    "#17becf",
    "#bcbd22",
]
WIDTH = 800  # the picture's side in pixels


def render_svg(
    ps: PointSet, layers: Sequence[Sequence[Segment]], cell_side: float | None = None
) -> str:
    """The points and each layer's edges in its palette colour, over the
    bucketing grid of side `cell_side` when one is given, on a square of
    WIDTH pixels.  A grid with more lines than the picture is wide in pixels
    is a usage error: it would draw nothing legible, and a tiny side would
    take unbounded time."""
    try:
        minx, miny, maxx, maxy = (float(v) for v in ps.bbox())
    except OverflowError:
        raise UsageError("a coordinate is too large for a float") from None
    span = max(maxx - minx, maxy - miny, 1e-9)
    if not math.isfinite(1.1 * span):
        raise UsageError("the points' extent is too large for a float")
    margin = 0.05 * span
    minx -= margin
    miny -= margin
    span += 2 * margin
    scale = WIDTH / span

    def tx(x: float) -> float:
        return (x - minx) * scale

    def ty(y: float) -> float:
        return WIDTH - (y - miny) * scale  # svg y axis points down

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{WIDTH}" '
        f'viewBox="0 0 {WIDTH} {WIDTH}">',
        f'<rect width="{WIDTH}" height="{WIDTH}" fill="white"/>',
    ]
    if cell_side is not None:
        if not span <= WIDTH * cell_side:
            raise UsageError(f"the grid's cell side {cell_side:.6g} draws more lines "
                             f"than the {WIDTH}-pixel picture is wide")
        # the x grid lines (vertical), then the y ones (horizontal)
        for lo, to_px, line in ((minx, tx, '<line x1="{0}" y1="0" x2="{0}" y2="{1}" '),
                                (miny, ty, '<line x1="0" y1="{0}" x2="{1}" y2="{0}" ')):
            for i in range(math.floor(lo / cell_side), math.ceil((lo + span) / cell_side) + 1):
                u = to_px(i * cell_side)
                if 0 <= u <= WIDTH:
                    parts.append(line.format(f"{u:.3f}", WIDTH)
                                 + 'stroke="#cccccc" stroke-width="0.5"/>')
    for li, layer in enumerate(layers):
        color = PALETTE[li % len(PALETTE)]
        for e in sorted(layer):
            x1, y1 = tx(float(ps.x(e.a))), ty(float(ps.y(e.a)))
            x2, y2 = tx(float(ps.x(e.b))), ty(float(ps.y(e.b)))
            parts.append(
                f'<line x1="{x1:.3f}" y1="{y1:.3f}" x2="{x2:.3f}" y2="{y2:.3f}" '
                f'stroke="{color}" stroke-width="1.2"/>'
            )
    for i in ps.ids:
        cx, cy = tx(float(ps.x(i))), ty(float(ps.y(i)))
        parts.append(f'<circle cx="{cx:.3f}" cy="{cy:.3f}" r="2.00" fill="#222222"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
