"""The per-box sector rules as they stood before the clockwise walk: the
oracle for `distributed._sector` and `distributed.layers_in_box`.

`sector_index` tests a direction against each sector in turn, on the
representatives' rays and then strictly inside; `index_star_layers` numbers
the in-box points clockwise, joins them to their representatives by index
range and attaches every other assigned point through `sector_index`.  The
clockwise order here comes from a comparator on exact `Fraction`
differences, not from `angular_order`.
"""

from __future__ import annotations

from functools import cmp_to_key

from plane_layers.distributed import BoxLayers, center_point
from plane_layers.errors import GeneralPositionError, InternalAssertionError
from plane_layers.geometry import Segment

from square_graph import same_ray


def sector_index(ps, center, reps, target) -> int:
    """Index of the clockwise sector containing the direction to `target`;
    boundary rays belong to the sector they anchor."""
    *dirs, d = ps.offsets([*reps, target], *center)
    for i in range(3):
        if same_ray(d, dirs[i]):
            return i
    for i in range(3):
        a, b = dirs[i], dirs[(i + 1) % 3]
        if strictly_inside_cw(a, b, d):
            return i
    raise InternalAssertionError("sector", f"direction of {target} escaped all three sectors")


def strictly_inside_cw(a, b, d) -> bool:
    """Strict membership of d in the sector swept clockwise from ray a to
    ray b (equivalently counterclockwise from b to a)."""
    c = b[0] * a[1] - b[1] * a[0]  # ccw span sign from b to a
    if c == 0:
        if a[0] * b[0] + a[1] * b[1] > 0:
            raise GeneralPositionError("sector boundary rays coincide")
        # opposite rays: the sector is the closed-left halfplane of b=(-a)
        return a[0] * d[1] - a[1] * d[0] < 0
    if c > 0:
        return (b[0] * d[1] - b[1] * d[0]) > 0 and (d[0] * a[1] - d[1] * a[0]) > 0
    return not ((a[0] * d[1] - a[1] * d[0]) >= 0 and (d[0] * b[1] - d[1] * b[0]) >= 0)


def clockwise_around(center, ids, ps) -> list[int]:
    """`ids` clockwise by angle from the positive x-axis at `center`, on
    exact Fraction differences; points on one ray by length, then id."""
    cx, cy = center
    dirs = {i: (ps.x(i) - cx, cy - ps.y(i)) for i in ids}  # mirrored: clockwise

    def half(d):
        return 0 if d[1] > 0 or (d[1] == 0 and d[0] > 0) else 1

    def cmp(i, j):
        di, dj = dirs[i], dirs[j]
        if half(di) != half(dj):
            return half(di) - half(dj)
        c = di[0] * dj[1] - di[1] * dj[0]
        if c:
            return -1 if c > 0 else 1
        li, lj = di[0] ** 2 + di[1] ** 2, dj[0] ** 2 + dj[1] ** 2
        return (li > lj) - (li < lj) or i - j

    return sorted(ids, key=cmp_to_key(cmp))


def index_star_layers(box, gi) -> BoxLayers:
    """Layer j's representatives are the in-box points j, floor(m/3)+j and
    floor(2m/3)+j of the clockwise numbering; in-box point t places after
    the first joins the first representative up to the second, the second
    up to the third, and the third after that; every other assigned point
    joins the representative of its `sector_index`."""
    ps = gi.ps
    members = list(gi.cells[box])
    m = len(members)
    assigned = gi.assigned_to(box)
    center = center_point(members, ps, ray_ids=assigned)
    order = clockwise_around(center, members, ps)
    in_box = set(members)
    sparse = [p for p in assigned if p not in in_box]
    third, two_thirds = m // 3, (2 * m) // 3
    all_reps, tree_edges, attach_edges = [], [], []
    for j in range(gi.k):
        reps = (order[j % m], order[(third + j) % m], order[(two_thirds + j) % m])
        all_reps.append(reps)
        edges = []
        for t in range(1, m):
            anchor = reps[0] if t <= third else reps[1] if t <= two_thirds else reps[2]
            edges.append(Segment(order[(j + t) % m], anchor))
        tree_edges.append(sorted(edges))
        attach_edges.append(sorted(
            Segment(q, reps[sector_index(ps, center, reps, q)]) for q in sparse))
    return BoxLayers(box, center, all_reps, tree_edges, attach_edges)
