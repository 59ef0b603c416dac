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


def render_svg(
    ps: PointSet,
    layers: Sequence[Sequence[Segment]],
    cell_side: float | None = None,
    width: int = 800,
) -> str:
    """The points and each layer's edges in its palette colour, over the
    bucketing grid of side `cell_side` when one is given.  A grid with more
    lines than the picture is wide in pixels is a usage error: it would draw
    nothing legible, and a tiny side would take unbounded time."""
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
    scale = width / span

    def tx(x: float) -> float:
        return (x - minx) * scale

    def ty(y: float) -> float:
        return width - (y - miny) * scale  # svg y axis points down

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{width}" '
        f'viewBox="0 0 {width} {width}">',
        f'<rect width="{width}" height="{width}" fill="white"/>',
    ]
    if cell_side is not None:
        if not span <= width * cell_side:
            raise UsageError(f"the grid's cell side {cell_side:.6g} draws more lines "
                             f"than the {width}-pixel picture is wide")
        i0 = math.floor(minx / cell_side)
        i1 = math.ceil((minx + span) / cell_side)
        for i in range(i0, i1 + 1):
            u = tx(i * cell_side)
            if 0 <= u <= width:
                parts.append(
                    f'<line x1="{u:.3f}" y1="0" x2="{u:.3f}" y2="{width}" '
                    'stroke="#cccccc" stroke-width="0.5"/>'
                )
        j0 = math.floor(miny / cell_side)
        j1 = math.ceil((miny + span) / cell_side)
        for j in range(j0, j1 + 1):
            v = ty(j * cell_side)
            if 0 <= v <= width:
                parts.append(
                    f'<line x1="0" y1="{v:.3f}" x2="{width}" y2="{v:.3f}" '
                    'stroke="#cccccc" stroke-width="0.5"/>'
                )
    for li, layer in enumerate(layers):
        color = PALETTE[li % len(PALETTE)]
        for e in sorted(layer):
            x1, y1 = tx(float(ps.x(e.a))), ty(float(ps.y(e.a)))
            x2, y2 = tx(float(ps.x(e.b))), ty(float(ps.y(e.b)))
            parts.append(
                f'<line x1="{x1:.3f}" y1="{y1:.3f}" x2="{x2:.3f}" y2="{y2:.3f}" '
                f'stroke="{color}" stroke-width="1.2"/>'
            )
    r = max(2.0, width / 400)
    for i in ps.ids:
        cx, cy = tx(float(ps.x(i))), ty(float(ps.y(i)))
        parts.append(f'<circle cx="{cx:.3f}" cy="{cy:.3f}" r="{r:.2f}" fill="#222222"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
