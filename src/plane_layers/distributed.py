"""Grid-based construction of k edge-disjoint plane spanning layers.

The plane is bucketed into cells of side 6*k*beta; cells holding at least 3k
points are dense.  Every point is assigned to the nearest dense-cell center
within two cells.  Each dense box orders its assigned points clockwise
around a depth-n/3 center point of its in-box points, once, and reads each
of its k layers off one walk along that order: three in-box
representatives, rotating with the layer, cut three sectors, and every
other point joins the representative of its sector.  Adjacent dense boxes
are joined through mutually-contained representative pairs.

beta is typically the MST bottleneck, an irrational square root, yet every
predicate stays exact and integer-only.  With q = beta^2 = N/M and the point
set's integer grid of scale S, a cell index is an integer square root of a
ratio of integers, taken once per occupied grid line: the points are walked
in coordinate order, and the exact start of the next cell, another integer
square root, tells when a new index is due.  The nearer of two dense-cell
centers is the sign of A*sqrt(N*M) - B for integers A and B, decided by
comparing A^2*N*M with B^2.  Center points, the clockwise walk and sector
tests run on integer offsets from a rational center (`PointSet.offsets`).
Each candidate center a box's `center_point` tries costs one angular sort of
the box's assigned points, whose order gives the check that no two share a
ray from it, then the Tukey depth of its in-box points (`tukey_depth`, a
linear sweep over distinct rays) and, once accepted, the clockwise walk,
whose edges stay keys a*n + b until the layers' sort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from typing import Sequence

from .errors import InternalAssertionError, PreconditionError, UsageError
from .geometry import PointSet, Segment, angular_order, float_sqrt, read_number
from .mst import bottleneck_length, bottleneck_sq, build_emst, segments
from .verify import Guarantee, verify_layers

Cell = tuple[int, int]


def _cell_index(v: int, scale: int, sm: int, q: Fraction) -> int:
    """Exact floor(x / (sm * sqrt(q))) for the coordinate x = v / scale.

    (x / side)^2 = v^2 * M / (scale^2 * sm^2 * N) with q = N / M, so the
    index is an integer square root; a point on a cell boundary belongs to
    the higher-index cell, matching the floor convention."""
    num = v * v * q.denominator
    den = (scale * sm) ** 2 * q.numerator
    if v >= 0:
        return math.isqrt(num // den)
    return -(math.isqrt(-(-num // den) - 1) + 1)  # -ceil(sqrt(num / den))


class GridIndex:
    """The cell decomposition of one point set at side 6*k*sqrt(beta_sq):
    each point's cell, with one integer square root per occupied column and
    row (`_bucket`), each cell's points in id order, the dense cells (at
    least 3k points), every point's box, and each dense box's layers, built
    on first use with one angular sort per candidate center.

    A point in a dense cell belongs to that cell's box: a cell is the Voronoi
    region of its own center among all cell centers, so no dense center is
    nearer.  Any other point goes to the nearest dense center within
    Chebyshev distance 2."""

    def __init__(self, ps: PointSet, k: int, beta_sq: Fraction):
        self.ps = ps
        self.k = k
        self.beta_sq = beta_sq
        self.cell_of, self.cells, self.dense = _bucket(ps, k, beta_sq)
        if not self.dense:
            raise PreconditionError(
                "no dense box: beta is below the MST bottleneck or n is too small"
            )
        self.assignment = dict(self.cell_of)  # ascending ids
        self._assigned = {box: self.cells[box][:] for box in self.dense}
        for cell, members in self.cells.items():  # in order of their smallest ids
            if cell in self.dense:
                continue
            candidates = _dense_near(self.dense, cell)
            if not candidates:
                raise PreconditionError(
                    f"point {members[0]} has no dense box within two cells; "
                    "beta below the MST bottleneck breaks the adjacency guarantee"
                )
            for p in members:
                box = self.assignment[p] = _nearest_center(ps, p, candidates, 6 * k, beta_sq)
                self._assigned[box].append(p)
        for assigned in self._assigned.values():
            assigned.sort()
        self._layers: dict[Cell, BoxLayers] = {}

    def assigned_to(self, box: Cell) -> list[int]:
        """The points assigned to `box`, ascending: the grid's own list, so
        callers must not modify it.  All lie in the 5x5 cells around `box`,
        since no point is assigned farther than two cells from its own."""
        return self._assigned.get(box, [])

    def layers(self, box: Cell) -> BoxLayers:
        """`layers_in_box(box, self)`, computed once per box."""
        if box not in self._layers:
            self._layers[box] = layers_in_box(box, self)
        return self._layers[box]


def grid_cell_side(k: int, beta_sq: Fraction) -> float:
    """The grid's cell side 6*k*sqrt(beta_sq) as a float, for the CLI's
    `render --grid`.  A side beyond float range raises UsageError."""
    what = "the grid's cell side 6*k*sqrt(betaSq)"
    side = 6 * k * float_sqrt(beta_sq.numerator, beta_sq.denominator, what)
    if side == math.inf:
        raise UsageError(f"{what} is too large for a float")
    return side


def _as_beta_sq(beta, ps: PointSet) -> Fraction:
    """Normalize a beta argument to its exact square; None means the MST
    bottleneck of ps, the last join of the EMST join order kept on ps, and
    any other beta is read by `read_number`."""
    if beta is None:
        if len(ps) < 2:
            raise PreconditionError("beta default needs a point set with n >= 2")
        # the tree goes unused; the call stays while perfbench/test_perfbench.py
        # asserts it (test_call_counts_repeat), until ROADMAP item 7
        build_emst(ps)
        return bottleneck_sq(ps)
    beta = read_number(beta, "beta")
    if beta <= 0:
        raise PreconditionError("beta must be positive")
    return beta * beta


def _require_int(k) -> None:
    """Raise `UsageError` unless k is an int; a bool is not one, since it
    would be written as true."""
    if type(k) is not int:
        raise UsageError(f"k must be an int, got {k!r}")


def grid_partition(ps: PointSet, k: int, beta_sq: Fraction) -> GridIndex:
    """The `GridIndex` of ps at cell side 6*k*sqrt(beta_sq), once k, n and
    beta_sq meet the construction's preconditions.  k must be an int
    (`_require_int`), and beta_sq is read by `read_number`."""
    n = len(ps)
    _require_int(k)
    if k < 1:
        raise PreconditionError("k must be >= 1")
    if n < 12 * k - 3:
        raise PreconditionError(f"n={n} below the required 4*(3k-1)+1 = {12 * k - 3}")
    q = read_number(beta_sq, "beta_sq")
    if q <= 0:
        raise PreconditionError("beta^2 must be positive")
    return GridIndex(ps, k, q)


def _bucket(
    ps: PointSet, k: int, q: Fraction
) -> tuple[dict[int, Cell], dict[Cell, list[int]], frozenset[Cell]]:
    """Each point's cell, each cell's points in id order, and the dense
    cells: those holding at least 3k points."""
    xs, ys = ps.grid
    cols = _axis_cells(xs, ps.scale, 6 * k, q)
    rows = _axis_cells(ys, ps.scale, 6 * k, q)
    cell_of = dict(enumerate(zip(cols, rows)))
    cells: dict[Cell, list[int]] = {}
    for p, c in cell_of.items():
        cells.setdefault(c, []).append(p)
    return cell_of, cells, frozenset(c for c, members in cells.items() if len(members) >= 3 * k)


def _axis_cells(vs: Sequence[int], scale: int, sm: int, q: Fraction) -> list[int]:
    """`_cell_index` of every grid coordinate in `vs`, with one such square
    root per occupied cell: the walk visits the values in ascending order and
    takes a new index only where a value reaches the start of the next
    cell."""
    out = [0] * len(vs)
    start = -math.inf  # the first value opens a cell
    for p in sorted(range(len(vs)), key=vs.__getitem__):
        v = vs[p]
        if v >= start:
            index = _cell_index(v, scale, sm, q)
            start = _cell_start(index + 1, scale, sm, q)
        out[p] = index
    return out


def _cell_start(i: int, scale: int, sm: int, q: Fraction) -> int:
    """The least grid integer v with `_cell_index(v, scale, sm, q) >= i`.

    That index is floor(v / (scale * sm * sqrt(q))), so v must reach
    i * scale * sm * sqrt(q), whose square is r / M for r = i^2 * (scale *
    sm)^2 * N with q = N / M: v = ceil(sqrt(r / M)) for i > 0, and
    -floor(sqrt(r / M)) for i <= 0."""
    r = i * i * (scale * sm) ** 2 * q.numerator
    if i > 0:
        return math.isqrt(-(-r // q.denominator) - 1) + 1
    return -math.isqrt(r // q.denominator)


def _dense_near(dense: frozenset[Cell], cell: Cell) -> list[Cell]:
    """Dense cells within Chebyshev distance 2 of `cell`, ascending."""
    ci, cj = cell
    return [
        (ci + di, cj + dj)
        for di in range(-2, 3)
        for dj in range(-2, 3)
        if (ci + di, cj + dj) in dense
    ]


def _nearest_center(
    ps: PointSet, p: int, candidates: Sequence[Cell], sm: int, q: Fraction
) -> Cell:
    """The candidate cell whose center is nearest to p; an exact tie goes to
    the lexicographically smallest cell.

    Cell (i, j) has center (a, b) * sm * sqrt(q) / 2 with a = 2i+1, b = 2j+1.
    Against the current best (a', b'), the squared distance of the point
    (X, Y) / scale differs by a positive multiple of A*sqrt(N*M) - B, where
    q = N/M, A = sm * scale * ((a^2 + b^2) - (a'^2 + b'^2)) and
    B = 4*M*(X*(a - a') + Y*(b - b'))."""
    x, y = ps.scaled(p)
    f = sm * ps.scale
    m4 = 4 * q.denominator
    nm = q.numerator * q.denominator
    best: Cell | None = None
    for c in sorted(candidates):  # ascending, so a tie keeps the current best
        if best is None:
            best = c
            continue
        a, b = 2 * c[0] + 1, 2 * c[1] + 1
        a0, b0 = 2 * best[0] + 1, 2 * best[1] + 1
        big_a = f * (a * a + b * b - a0 * a0 - b0 * b0)
        big_b = m4 * (x * (a - a0) + y * (b - b0))
        if _sign_sqrt_diff(big_a, big_b, nm) < 0:
            best = c
    return best


def _sign_sqrt_diff(a: int, b: int, r: int) -> int:
    """Sign of a*sqrt(r) - b for integers a, b and r > 0."""
    if a >= 0 >= b:
        return 1 if a or b else 0
    if b >= 0 >= a:  # not both zero
        return -1
    c = a * a * r - b * b
    s = (c > 0) - (c < 0)
    return s if a > 0 else -s


# --- center points ----------------------------------------------------------


def tukey_depth(rays: Sequence[tuple[int, int]], stop_below: int) -> int:
    """Tukey depth of the origin among nonzero vectors on the distinct
    `rays`, one vector each, in counterclockwise `angular_order`.

    Just past ray a_t, the open halfplane left of the line holds L_t =
    #rays in (a_t, a_t + pi]: those after t up to a pointer that only moves
    forward; the one to its right holds m - L_t.  Every generic line
    direction is just past some a_t or a_t + pi, and the closed halfplane
    minimum is reached at a generic direction, so the depth is
    min_t min(L_t, m - L_t).  The sweep returns as soon as the depth is
    known to be below `stop_below`, with a value below it; a `stop_below` of
    0 gives the depth itself."""
    m = best = len(rays)
    twice = [*rays, *rays]
    end = 1
    for t in range(m):
        ux, uy = twice[t]
        if end <= t:
            end = t + 1
        while end < t + m:
            wx, wy = twice[end]
            c = ux * wy - uy * wx
            if c > 0 or (c == 0 and ux * wx + uy * wy < 0):
                end += 1
            else:
                break
        inside = end - t - 1
        if inside < best:
            best = inside
        if m - inside < best:
            best = m - inside
        if best < stop_below:
            break
    return best


def center_point(
    ids: Sequence[int], ps: PointSet, ray_ids: Sequence[int]
) -> tuple[tuple[Fraction, Fraction], list[tuple[int, int]], list[int]]:
    """A point of Tukey depth >= floor(m/3) among the m distinct `ids`,
    aiming for ceil(m/3), from which no two `ray_ids` points share a ray,
    with their integer offsets from it and the counterclockwise
    `angular_order` of those.  The ids must all be among the distinct
    `ray_ids`, as a box's points are among those assigned to it.
    Deterministic: for each target depth, the first of the mean, the
    coordinate-wise median, the m spread triples and the points of the exact
    depth region (`_region_points`) that qualifies.

    Each candidate sorts the offsets once, unless a zero offset rejects it.
    One pass over adjacent pairs of that order tells whether two share a ray
    (`_shares_ray`); only a candidate with none pays the depth sweep
    (`tukey_depth`) on the ids' offsets filtered out of the order, one per
    ray.  Either order of the two tests accepts the same candidate.  Points
    of the depth region are as deep as the target, so the depth test passes
    them unchanged.

    The ceiling depth (the classical centerpoint guarantee) makes every
    sector provably convex, so it is tried first.  It can be unachievable
    together with orderability: for four points with one inside the triangle
    of the others, the single ceiling-deep point IS the interior point, and a
    center coinciding with an input point cannot order it.  The floor bound
    then applies, and a sector may open beyond pi; the build's final layer
    check, `verify_layers`, sees any crossing behind it.
    """
    if len(ids) < 3:
        raise PreconditionError("center point needs at least 3 points")
    m = len(ids)
    if len(set(ray_ids)) < len(ray_ids):  # a repeated id shares a ray from every point
        raise PreconditionError("center point needs distinct ray ids")
    members = set(ids)
    inside = [p in members for p in ray_ids]
    if not len(members) == m == sum(inside):
        raise PreconditionError("center point needs distinct ids among the ray ids")
    for target in dict.fromkeys(((m + 2) // 3, m // 3)):  # ceiling, then floor
        for cx, cy in chain(_center_candidates(ids, ps), _region_points(ids, ps, target)):
            vecs = ps.offsets(ray_ids, cx, cy)
            if (0, 0) in vecs:
                continue
            order = angular_order(vecs)
            if _shares_ray(vecs, order):
                continue
            if tukey_depth([vecs[i] for i in order if inside[i]], target) >= target:
                return (cx, cy), vecs, order
    raise InternalAssertionError("center-point", "no candidate reached the depth bound")


def _center_candidates(ids, ps):
    """The mean, the coordinate-wise median, then for t = 0..m-1 the centroid
    of the points t, t + floor(m/3) and t + floor(2m/3) (indices mod m),
    which reaches deep points early.  Exact rationals, formed on the point
    set's integer grid."""
    m, sc, (gx, gy) = len(ids), ps.scale, ps.grid
    xs, ys = [gx[i] for i in ids], [gy[i] for i in ids]
    yield Fraction(sum(xs), m * sc), Fraction(sum(ys), m * sc)
    yield Fraction(sorted(xs)[(m - 1) // 2], sc), Fraction(sorted(ys)[(m - 1) // 2], sc)
    third, two_thirds = m // 3, (2 * m) // 3
    for t in range(m):
        j, l = (third + t) % m, (two_thirds + t) % m
        yield Fraction(xs[t] + xs[j] + xs[l], 3 * sc), Fraction(ys[t] + ys[j] + ys[l], 3 * sc)


def _region_points(ids, ps, target):
    """Points of the depth-`target` region of the `ids`, computed
    (`_depth_region`) only once the generator is advanced: the vertex
    centroid c, then c + s(u - c) + s^2(v - c), s = 1/2, 1/4, ..., for the
    first vertices u, v spanning a triangle with c.  Each lies inside that
    triangle (weights 1 - s - s^2, s, s^2), and the parabola meets each line
    through two points at most twice, so a caller that stops at the first
    point from which no two points share a ray stops.  Nothing when the
    region is empty, and only c when it is a point or a segment."""
    poly = _depth_region(ids, ps, target)
    if not poly:
        return
    cx = sum(x for x, _ in poly) / len(poly)
    cy = sum(y for _, y in poly) / len(poly)
    yield cx, cy
    for (ux, uy), (vx, vy) in combinations(poly, 2):
        ux, uy, vx, vy = ux - cx, uy - cy, vx - cx, vy - cy
        if ux * vy != uy * vx:
            break
    else:
        return
    s = Fraction(1, 2)
    while True:
        yield cx + s * ux + s * s * vx, cy + s * uy + s * s * vy
        s /= 2


def _depth_region(ids, ps, target):
    """Vertices of the depth-`target` region, a convex polygon; empty when
    no point reaches the depth.

    For every direction the center must not project beyond the target-th
    extreme point.  The binding boundary lines pass through two data points
    (where the order statistic transitions), and a pair line binds exactly
    when fewer than `target` points lie strictly beyond it; the constraints
    at directions between transitions rotate around a single point and are
    implied by the two adjacent pair lines.  Clipping a bounding box by all
    binding pair-supported halfplanes therefore yields the region exactly,
    in O(m^3).

    The work runs on the points' coordinates over their own least common
    denominator `den`, which is the unit of the bounding box's margin.
    """
    scaled = [ps.scaled(i) for i in ids]
    g = math.gcd(ps.scale, *(c for v in scaled for c in v))
    den = ps.scale // g
    ints = [(x // g, y // g) for x, y in scaled]
    m = len(ints)
    minx = min(p[0] for p in ints) - 1
    maxx = max(p[0] for p in ints) + 1
    miny = min(p[1] for p in ints) - 1
    maxy = max(p[1] for p in ints) + 1
    poly: list[tuple[Fraction, Fraction]] = [
        (Fraction(minx), Fraction(miny)),
        (Fraction(maxx), Fraction(miny)),
        (Fraction(maxx), Fraction(maxy)),
        (Fraction(minx), Fraction(maxy)),
    ]
    for i in range(m):
        ax, ay = ints[i]
        for j in range(i + 1, m):
            bx, by = ints[j]
            dx, dy = bx - ax, by - ay
            left = right = 0
            for px, py in ints:
                s = dx * (py - ay) - dy * (px - ax)
                if s > 0:
                    left += 1
                elif s < 0:
                    right += 1
            if right < target:
                poly = _clip_polygon(poly, ax, ay, dx, dy, keep_left=True)
            if left < target:
                poly = _clip_polygon(poly, ax, ay, dx, dy, keep_left=False)
            if not poly:
                return []
    return [(vx / den, vy / den) for vx, vy in poly]


def _clip_polygon(poly, ax, ay, dx, dy, keep_left):
    """Sutherland-Hodgman clip of a convex rational polygon against the
    closed halfplane left (or right) of the directed line through (ax, ay)
    with direction (dx, dy)."""
    sign = 1 if keep_left else -1

    def side(v):
        return sign * (dx * (v[1] - ay) - dy * (v[0] - ax))

    out = []
    n = len(poly)
    for idx in range(n):
        cur, nxt = poly[idx], poly[(idx + 1) % n]
        sc, sn = side(cur), side(nxt)
        if sc >= 0:
            out.append(cur)
        if (sc > 0 and sn < 0) or (sc < 0 and sn > 0):
            t = sc / (sc - sn)
            out.append(
                (cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1]))
            )
    return out


def _shares_ray(vecs: Sequence[tuple[int, int]], order: Sequence[int]) -> bool:
    """True when two of the nonzero vectors `vecs` share a ray from the
    origin, which breaks the clockwise circular order.  `order` is their
    `angular_order`, in which the vectors of one ray are adjacent, so one
    pass over adjacent pairs decides: two vectors share a ray iff their cross
    product is 0 and their dot product positive.

    Diametrically opposite pairs are allowed: for some inputs (four points in
    convex position, say) every point of sufficient depth lies on a chord, so
    demanding one point per full line would never converge.  A sector bounded
    by opposite rays spans exactly pi and is still convex.
    """
    for s, t in zip(order, order[1:]):
        (ax, ay), (bx, by) = vecs[s], vecs[t]
        if ax * by == ay * bx and ax * bx + ay * by > 0:
            return True
    return False


# --- per-box layers ---------------------------------------------------------


@dataclass
class BoxLayers:
    box: Cell
    center: tuple[Fraction, Fraction]
    reps: list[tuple[int, int, int]]  # per layer, the sector anchors clockwise
    layer_edges: list[list[int]]  # per layer, keys a*n + b (a < b) in walk order


def _sector(dirs: Sequence[tuple[int, int]], d: tuple[int, int]) -> int:
    """Index i of the clockwise sector from ray dirs[i] up to ray dirs[i + 1]
    (mod 3) that holds the direction d, for three directions on distinct
    rays in clockwise order; each boundary ray belongs to the sector it
    opens.  Exact on integer offsets: d lies before dirs[i + 1] in the
    clockwise turn from dirs[i] when it lies in an earlier half-turn, or in
    the same one and counterclockwise of it.  A zero d has no sector."""
    if d == (0, 0):
        raise InternalAssertionError("sector", "a direction from a box's center is zero")
    for i in range(2):
        a, b = dirs[i], dirs[i + 1]
        hd, hb = _cw_half(a, d), _cw_half(a, b)
        if hd < hb or (hd == hb and d[0] * b[1] - d[1] * b[0] < 0):
            return i
    return 2


def _cw_half(a: tuple[int, int], v: tuple[int, int]) -> int:
    """0 when v lies in the half-turn [0, pi) clockwise from ray a, else 1."""
    c = a[0] * v[1] - a[1] * v[0]
    return 0 if c < 0 or (c == 0 and a[0] * v[0] + a[1] * v[1] > 0) else 1


def layers_in_box(box: Cell, gi: GridIndex) -> BoxLayers:
    """Extract k rotated-sector layers for one dense box in one clockwise
    walk per layer around its center point.

    The clockwise order is the counterclockwise one `center_point`
    checked the accepted center with, read backwards from the +x ray, so a
    box sorts by angle once per candidate center.  Layer j's
    representatives are the in-box points of ranks j, floor(m/3)+j and
    floor(2m/3)+j in that order; each joins the slice after it up to and
    including the next (the third wrapping round): star, chain and
    attachment edges, each point in its sector exactly, as no two assigned
    points share a ray from the center.  Each layer is a list of keys
    a*n + b (a < b) in walk order.  Of the grid it reads only `ps`, `k`,
    `gi.cells[box]`, `gi.cell_of` and `gi.assigned_to(box)`."""
    ps, k, n = gi.ps, gi.k, len(gi.ps)
    members = gi.cells[box]
    m = len(members)
    if m < 3 * k:
        raise PreconditionError(f"box {box} holds {m} < 3k points")
    assigned = gi.assigned_to(box)
    center, offsets, ccw = center_point(members, ps, assigned)
    # clockwise from the +x ray: the counterclockwise order read backwards,
    # its first vector moved to the front when it lies on that ray
    order = ccw[::-1]
    first = offsets[ccw[0]]
    if first[1] == 0 and first[0] > 0:
        order = [ccw[0], *order[:-1]]
    ids = [assigned[i] for i in order]
    ranks = [t for t, p in enumerate(ids) if gi.cell_of[p] == box]
    all_reps: list[tuple[int, int, int]] = []
    layer_edges: list[list[int]] = []
    for j in range(k):
        r0, r1, r2 = ranks[j], ranks[m // 3 + j], ranks[(2 * m) // 3 + j]
        reps = ids[r0], ids[r1], ids[r2]
        keys = []
        for c, run in zip(reps, (ids[r0 + 1:r1 + 1], ids[r1 + 1:r2 + 1], ids[r2 + 1:] + ids[:r0])):
            cn = c * n
            keys += [p * n + c if p < c else cn + p for p in run]
        all_reps.append(reps)
        layer_edges.append(keys)
    return BoxLayers(box, center, all_reps, layer_edges)


# --- connectors -------------------------------------------------------------


def _connector_pairs(dense: frozenset[Cell]) -> list[tuple[Cell, Cell]]:
    """The box pairs the four connection rules select, sorted: each dense
    box joins the dense box below it and the one left of it, and the dense
    box diagonally below-left (above-left) of it when neither box between
    them is dense.  Each joined box is the smaller of its pair, so every
    pair is found once, from its larger box."""
    pairs = []
    for i, j in dense:
        below, left = (i, j - 1), (i - 1, j)
        joined = [below, left]
        if below not in dense and left not in dense:
            joined.append((i - 1, j - 1))
        if (i, j + 1) not in dense and left not in dense:
            joined.append((i - 1, j + 1))
        pairs += [(c, (i, j)) for c in joined if c in dense]
    return sorted(pairs)


def _pick_connector(ps: PointSet, la: BoxLayers, lb: BoxLayers, j: int) -> Segment:
    """Layer j's first mutually-contained representative pair in
    lexicographic scan order.

    Layers have disjoint representatives, so two layers of one box pair
    never pick the same edge."""
    ra, rb = la.reps[j], lb.reps[j]
    from_a = ps.offsets([*ra, *rb], *la.center)  # a's rays, then b's representatives
    from_b = ps.offsets([*rb, *ra], *lb.center)
    for ia in range(3):
        for ib in range(3):
            if (
                _sector(from_b[:3], from_b[3 + ia]) == ib
                and _sector(from_a[:3], from_a[3 + ib]) == ia
            ):
                return Segment(ra[ia], rb[ib])
    raise InternalAssertionError(
        "connector",
        f"no mutually-contained pair between boxes {la.box} and {lb.box}",
    )


def connect_boxes(gi: GridIndex) -> list[list[Segment]]:
    """Connector edges per layer for every box pair selected by the
    below/left/diagonal rules."""
    connectors: list[list[Segment]] = [[] for _ in range(gi.k)]
    for a, b in _connector_pairs(gi.dense):
        for j, e in enumerate(_pair_connectors(gi, a, b)):
            connectors[j].append(e)
    return [sorted(c) for c in connectors]


def _pair_connectors(gi: GridIndex, a: Cell, b: Cell) -> list[Segment]:
    """Each layer's connector between boxes a and b."""
    la, lb = gi.layers(a), gi.layers(b)
    return [_pick_connector(gi.ps, la, lb, j) for j in range(gi.k)]


# --- whole-construction entry points ----------------------------------------


@dataclass(frozen=True)
class LayerSet:
    """k edge lists over one point set, each meant to be plane and spanning.

    `longest_sq` holds each layer's exact longest squared edge length, from
    the build's final `verify_layers` report; the layers file leaves it
    out."""

    k: int
    beta: float
    beta_sq: Fraction
    layers: tuple[tuple[Segment, ...], ...]
    stats: tuple[dict, ...]
    longest_sq: tuple[Fraction, ...]

    def to_json_dict(self) -> dict:
        return {
            "kind": "distributed",
            "k": self.k,
            "beta": self.beta,
            "betaSq": f"{self.beta_sq.numerator}/{self.beta_sq.denominator}",
            "layers": [list(map(list, layer)) for layer in self.layers],
            "stats": list(self.stats),
        }


def build_k_layers(ps: PointSet, k: int, beta=None) -> LayerSet:
    """The full pipeline: grid, per-box layers, sparse attachment, box
    connectors.  Ends with one `verify_layers` call on `ps`, the check the
    CLI's `verify` runs, against the `Guarantee` of a distributed file: per
    layer the edge-length budget 12*sqrt(2)*k*beta, planarity and spanning,
    then pairwise edge-disjointness; the first breach raises at its stage
    (`_STAGES`).  It is the build's one check of each property: a crossing
    among a box's edges fails its layer's planarity, and dense boxes that
    are not 8-neighbour connected leave a layer that does not span.  None of
    these checks reads the MST bottleneck, and a build with an explicit
    `beta` reads it only once it has failed: a `beta` below the bottleneck
    breaks the construction's precondition, so that failure raises
    `PreconditionError` instead.  Every internal assertion on the way, these
    checks and those of the boxes' center points, sectors and connectors
    alike, carries a dump of the points, the mode, k and betaSq (and the
    layer, for the per-layer checks) that replays through `plane-layers
    build --mode distributed`."""
    beta_sq = _as_beta_sq(beta, ps)
    gi = grid_partition(ps, k, beta_sq)
    try:
        return _assemble(gi)
    except InternalAssertionError as err:
        _add_instance(err, gi)
        if beta is not None and beta_sq < bottleneck_sq(ps):
            raise PreconditionError(
                f"beta {beta} is below the MST bottleneck {bottleneck_length(ps):.6f}") from err
        raise


def _add_instance(err: InternalAssertionError, gi: GridIndex) -> None:
    """Put the instance of the grid `gi` in the dump of `err`: its points,
    the mode, k and betaSq, which a build replays from."""
    q = gi.beta_sq
    err.dump = {"points": gi.ps.to_text(), "mode": "distributed", "k": gi.k,
                "betaSq": f"{q.numerator}/{q.denominator}"} | err.dump


def _assemble(gi: GridIndex) -> LayerSet:
    """The layer set of the grid `gi`, after the checks `build_k_layers`
    lists."""
    ps, k, beta_sq, n = gi.ps, gi.k, gi.beta_sq, len(gi.ps)
    box_layers = [gi.layers(box) for box in sorted(gi.dense)]
    connectors = connect_boxes(gi)
    layers = [
        tuple(segments(sorted(chain(*(bl.layer_edges[j] for bl in box_layers),
                                    (a * n + b for a, b in connectors[j]))), n))
        for j in range(k)
    ]
    report = verify_layers(layers, ps, measure=False)
    breach = report.breach(Guarantee.k_layers(k, beta_sq))
    if breach is not None:
        prop, j, message = breach
        dump = {"layer": j}
        if prop == "planarity":
            dump["crossing"] = list(report.per_layer[j].crossings[0])
        raise InternalAssertionError(_STAGES[prop], message, dump)
    stats = tuple({"edges": l.edges, "bottleneck": l.bottleneck} for l in report.per_layer)
    beta = float_sqrt(beta_sq.numerator, beta_sq.denominator, "beta")
    return LayerSet(k=k, beta=beta, beta_sq=beta_sq, layers=tuple(layers),
                    stats=stats, longest_sq=tuple(l.longest_sq for l in report.per_layer))


# The stage of each property a k-layer guarantee checks.
_STAGES = {"length": "length-budget", "planarity": "layer-planarity",
           "spanning": "layer-spanning", "shared": "layer-disjointness"}


# --- locality certificate ---------------------------------------------------


@dataclass(frozen=True)
class LocalityCertificate:
    point: int
    cheby_cells: int
    euclid_radius: float
    layer_edges: tuple[tuple[Segment, ...], ...]
    ok: bool


def locality_certificate(
    ps: PointSet, k: int, point_id: int, layer_set: LayerSet
) -> LocalityCertificate:
    """Recompute every edge incident to `point_id` from local data only and
    compare with `layer_set`, built globally with k layers; a mismatch
    raises, since locality would be violated.  One point's `Certifier`; to
    certify many points of one layer set, make one `Certifier` and call
    `certify` on each.  k must be an int, as for `build_k_layers`."""
    _require_int(k)
    if k != layer_set.k:
        raise PreconditionError(f"layer_set has {layer_set.k} layers, not k={k}")
    return Certifier(ps, layer_set).certify(point_id)


class Certifier:
    """Replays, point by point, the computations that decide a point's
    incident edges, on a grid of its own over the whole point set, and
    compares them with one layer set built globally.

    Each deciding party (a point choosing its box, a box building its
    sectors) sees only the cells within Chebyshev distance 2 of itself; a
    representative's incident set therefore draws on its neighbors'
    2-neighborhoods as well, exactly like the per-node computation it
    models.  The replay runs on a `GridIndex` of its own (`grid_partition`),
    which shares the build's code and none of its state: every box choice
    and box layer set there is a function of data within distance 2 of its
    owner, since a cell's population and hence its density is intrinsic to
    the cell.
    """

    def __init__(self, ps: PointSet, layer_set: LayerSet):
        k = layer_set.k
        self.grid = grid_partition(ps, k, layer_set.beta_sq)
        self._incident = [_by_endpoint(layer) for layer in layer_set.layers]
        self._by_box: dict[Cell, list[dict[int, list[Segment]]]] = {}
        self._radius = 3 * 6 * k * layer_set.beta * math.sqrt(2)

    def certify(self, p: int) -> LocalityCertificate:
        """p's certificate: its incident edges in each layer, recomputed from
        local data; raises `[locality]` when they differ from the layer set's.
        That error, and any a replayed box raises, carries the points, the
        mode, k and betaSq in its dump, as the build's do."""
        n = len(self.grid.ps)
        if not 0 <= p < n:
            raise PreconditionError(f"point id {p} is out of range 0..{n - 1}")
        global_incident = tuple(tuple(sorted(by_end.get(p, ()))) for by_end in self._incident)
        try:
            local_incident = self._local_incident(p)
            if local_incident != global_incident:
                raise InternalAssertionError(
                    "locality",
                    f"incident edges of {p} differ between local and global builds",
                    {
                        "point": p,
                        "local": [[e.as_pair() for e in l] for l in local_incident],
                        "global": [[e.as_pair() for e in l] for l in global_incident],
                    },
                )
        except InternalAssertionError as err:
            _add_instance(err, self.grid)
            raise
        return LocalityCertificate(point=p, cheby_cells=2, euclid_radius=self._radius,
                                   layer_edges=global_incident, ok=True)

    def _box_index(self, box: Cell) -> list[dict[int, list[Segment]]]:
        """Per layer, the edges of `box`'s replayed layers by endpoint, as
        `Segment`s decoded from the box's keys, indexed once per box."""
        if box not in self._by_box:
            n = len(self.grid.ps)
            self._by_box[box] = [
                _by_endpoint(segments(keys, n)) for keys in self.grid.layers(box).layer_edges
            ]
        return self._by_box[box]

    def _local_incident(self, p: int) -> tuple[tuple[Segment, ...], ...]:
        gi = self.grid
        home = gi.assignment[p]
        home_layers = gi.layers(home)
        incident = [set(by_end.get(p, ())) for by_end in self._box_index(home)]
        if gi.cell_of[p] == home and any(p in reps for reps in home_layers.reps):
            # p is an in-box representative; connectors touch it only through
            # pairs involving its box, and the rules read the cells adjacent
            # to either box, all within two of p's
            for a, b in _connector_pairs(frozenset(_dense_near(gi.dense, home))):
                if home in (a, b):
                    for j, e in enumerate(_pair_connectors(gi, a, b)):
                        if e.touches(p):
                            incident[j].add(e)
        return tuple(tuple(sorted(s)) for s in incident)


def _by_endpoint(edges: Sequence[Segment]) -> dict[int, list[Segment]]:
    """Each endpoint's edges, in list order."""
    by_end: dict[int, list[Segment]] = {}
    for e in edges:
        by_end.setdefault(e.a, []).append(e)
        by_end.setdefault(e.b, []).append(e)
    return by_end
