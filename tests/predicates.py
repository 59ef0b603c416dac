"""Exact predicates that only the tests use, as oracles and as shorthand.

The package states each rule where it runs on the grid integers: the
two-tree build reads the side of a ray and the gaps around a vertex off one
cross product of grid offsets (`centralized._cw_angle_below_pi`,
`centralized._ring`), the planarity checks test crossings inside the sweep
`geometry._sweep` and its quadratic scan (`geometry._proper_cross_scaled`),
and `verify._overlapping_pairs` compares intervals along a shared line.
These helpers ask the same questions one pair or one triple at a time, on
the ids of a point set, through the sign of each cross product
(`cross_sign`), so the oracles share no code with what they check.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

from plane_layers import geometry
from plane_layers.errors import PreconditionError
from plane_layers.geometry import PointSet, Segment, angular_order


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def cross_sign(ax, ay, bx, by, cx, cy) -> int:
    """Sign of the cross product (b - a) x (c - a); works for int or Fraction."""
    return _sign((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))


def proper_cross_signs(ax, ay, bx, by, cx, cy, dx, dy) -> bool:
    """Whether the segments ab and cd properly cross, from the signs of the
    four orientations: c and d strictly on opposite sides of the line ab,
    and a and b strictly on opposite sides of the line cd."""
    if min(ax, bx) > max(cx, dx) or min(cx, dx) > max(ax, bx):
        return False
    if min(ay, by) > max(cy, dy) or min(cy, dy) > max(ay, by):
        return False
    d1 = cross_sign(ax, ay, bx, by, cx, cy)
    d2 = cross_sign(ax, ay, bx, by, dx, dy)
    if d1 * d2 >= 0:
        return False
    d3 = cross_sign(cx, cy, dx, dy, ax, ay)
    d4 = cross_sign(cx, cy, dx, dy, bx, by)
    return d3 * d4 < 0


def has_crossing(edges: Sequence[Segment], ps: PointSet) -> bool:
    """Whether some pair of `edges`, whose ids lie in 0..n-1, properly
    crosses, by the sweep `geometry._sweep`, looked up at each call so that
    `conftest.count_sweeps` counts it."""
    return geometry._sweep(edges, ps)


class Orientation(Enum):
    CLOCKWISE = -1
    COLLINEAR = 0
    COUNTERCLOCKWISE = 1


def orientation_ids(ps: PointSet, a: int, b: int, c: int) -> Orientation:
    ax, ay = ps.scaled(a)
    bx, by = ps.scaled(b)
    cx, cy = ps.scaled(c)
    return Orientation(cross_sign(ax, ay, bx, by, cx, cy))


def properly_cross(s1: Segment, s2: Segment, ps: PointSet) -> bool:
    """True iff the open segments meet in exactly one point and share no
    endpoint.  Collinear overlaps and endpoint contacts count as non-crossing."""
    for v in (s1.a, s1.b, s2.a, s2.b):
        if v not in ps.ids:
            raise PreconditionError(f"segment endpoint {v} not in point set")
    if s1.shares_endpoint(s2):
        return False
    ax, ay = ps.scaled(s1.a)
    bx, by = ps.scaled(s1.b)
    cx, cy = ps.scaled(s2.a)
    dx, dy = ps.scaled(s2.b)
    return proper_cross_signs(ax, ay, bx, by, cx, cy, dx, dy)


def collinear_overlap(s1: Segment, s2: Segment, ps: PointSet) -> bool:
    """True iff the segments are collinear and overlap in more than one point."""
    ax, ay = ps.scaled(s1.a)
    bx, by = ps.scaled(s1.b)
    cx, cy = ps.scaled(s2.a)
    dx, dy = ps.scaled(s2.b)
    if cross_sign(ax, ay, bx, by, cx, cy) or cross_sign(ax, ay, bx, by, dx, dy):
        return False
    # Project on the dominant axis of s1.
    if abs(bx - ax) >= abs(by - ay):
        lo1, hi1 = sorted((ax, bx))
        lo2, hi2 = sorted((cx, dx))
    else:
        lo1, hi1 = sorted((ay, by))
        lo2, hi2 = sorted((cy, dy))
    return max(lo1, lo2) < min(hi1, hi2)


def ccw_order_around(pivot: int, ids: Sequence[int], ps: PointSet) -> list[int]:
    """Ids sorted counterclockwise by angle from the positive x-axis at the
    point `pivot` of the set."""
    if pivot in ids:
        raise PreconditionError(f"pivot coincides with point {pivot}")
    vecs = ps.offsets(ids, *ps.scaled(pivot), ps.scale)
    return [ids[k] for k in angular_order(vecs)]
