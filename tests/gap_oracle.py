"""The per-vertex gap analysis written helper by helper, as a test oracle.

`ccw_ring` orders a vertex's neighbors counterclockwise, `gap_signs` gives
each consecutive gap's sign (+1 below pi, -1 above pi) and `big_angle_pair`
names the two rays bounding the gap above pi, with its own branch for
degree 2.  The package answers the same questions with one ring scan,
`centralized._ring`; the tests compare the two.  `ring_big_angle_pair` is
`big_angle_pair` read off that scan.
"""

from __future__ import annotations

from typing import Sequence

from plane_layers import centralized
from plane_layers.errors import GeneralPositionError, InternalAssertionError
from plane_layers.geometry import PointSet

from predicates import Orientation, ccw_order_around, orientation_ids


def ccw_ring(ps: PointSet, v: int, nbrs: Sequence[int]) -> list[int]:
    if len(nbrs) == 1:
        return list(nbrs)
    return ccw_order_around(v, list(nbrs), ps)


def gap_signs(ps: PointSet, v: int, ring: Sequence[int]) -> list[int]:
    """Sign of each consecutive ccw gap: +1 below pi, -1 above pi.

    An exact-pi gap (or two neighbors on one ray) violates general position.
    """
    vx, vy = ps.scaled(v)
    dirs = []
    for w in ring:
        wx, wy = ps.scaled(w)
        dirs.append((wx - vx, wy - vy))
    signs = []
    k = len(ring)
    for i in range(k):
        a = dirs[i]
        b = dirs[(i + 1) % k]
        c = a[0] * b[1] - a[1] * b[0]
        if c == 0:
            raise GeneralPositionError(
                f"neighbors {ring[i]} and {ring[(i + 1) % k]} of {v} are collinear with it"
            )
        signs.append(1 if c > 0 else -1)
    return signs


def big_angle_pair(ps: PointSet, v: int, nbrs: Sequence[int]) -> tuple[int, int] | None:
    """The two neighbor rays bounding the unique gap above pi at v, or None
    when every gap is below pi.  Degree-1 vertices trivially have one."""
    if len(nbrs) == 1:
        return (nbrs[0], nbrs[0])
    ring = ccw_ring(ps, v, nbrs)
    if len(ring) == 2:
        o = orientation_ids(ps, v, ring[0], ring[1])
        if o is Orientation.COLLINEAR:
            raise GeneralPositionError(f"neighbors of {v} are collinear with it")
        # the reflex side runs ccw from the later ray back to the earlier one
        return (ring[1], ring[0]) if o is Orientation.COUNTERCLOCKWISE else (ring[0], ring[1])
    signs = gap_signs(ps, v, ring)
    big = [i for i, s in enumerate(signs) if s < 0]
    if not big:
        return None
    if len(big) > 1:
        raise InternalAssertionError("gap-analysis", f"two gaps above pi at {v}")
    i = big[0]
    return (ring[i], ring[(i + 1) % len(ring)])


def ring_big_angle_pair(ps: PointSet, v: int, nbrs: Sequence[int]) -> tuple[int, int] | None:
    """The two neighbor rays bounding the unique gap above pi at v, in ccw
    order, or None when every gap is below pi, from `centralized._ring`.
    Degree-1 vertices trivially have one."""
    ring, i = centralized._ring(ps, v, nbrs)
    return None if i is None else (ring[i], ring[(i + 1) % len(ring)])
