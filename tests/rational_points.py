"""The points of a set as exact rationals, and the orientation test on them.

The package computes every predicate on the grid integers of a point set
(`geometry.orientation_ids`, `cross_sign`).  These helpers read the points
back as `Fraction` pairs, so the tests can compare the grid with the
rationals it was built from and check the integer predicates against a
`Fraction` one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from plane_layers.geometry import Orientation, PointSet, cross_sign


@dataclass(frozen=True)
class Point:
    id: int
    x: Fraction
    y: Fraction


def exact_point(ps: PointSet, i: int) -> Point:
    return Point(i, ps.x(i), ps.y(i))


def exact_coords(ps: PointSet) -> list[tuple[Fraction, Fraction]]:
    """The exact coordinates of every point, in id order."""
    return [(ps.x(i), ps.y(i)) for i in ps.ids]


def orientation(p: Point, q: Point, r: Point) -> Orientation:
    """Exact orientation of the ordered triple (p, q, r)."""
    return Orientation(cross_sign(p.x, p.y, q.x, q.y, r.x, r.y))
