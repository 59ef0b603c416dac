"""Exact predicates that only the tests use, as oracles and as shorthand.

The package states each rule where it runs on the grid integers: the
two-tree build reads the side of a ray and the gaps around a vertex off one
cross product of grid offsets (`centralized._cw_angle_below_pi`,
`centralized._ring`), the planarity checks test crossings inside the sweep
and its quadratic scan, and `verify._overlapping_pairs` compares intervals
along a shared line.  These helpers ask the same questions one pair or one
triple at a time, on the ids of a point set.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

from plane_layers.errors import PreconditionError
from plane_layers.geometry import PointSet, Segment, _proper_cross_scaled, angular_order, cross_sign


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
    return _proper_cross_scaled(ax, ay, bx, by, cx, cy, dx, dy)


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
