"""Grid-based construction of k edge-disjoint plane spanning layers.

The plane is bucketed into cells of side 6*k*beta; cells holding at least 3k
points are dense.  Every point is assigned to the nearest dense-cell center,
each dense box extracts k layers by rotating three angular sectors around a
depth-n/3 center point of its in-box points, assigned outside points attach
to the representative of the sector containing them, and adjacent dense
boxes are joined through mutually-contained representative pairs.

beta is typically the MST bottleneck, an irrational square root, so all grid
arithmetic runs in the field extension Q[sqrt(q)] with q = beta^2 rational:
cell indices, center distances and tie-breaks are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .errors import (
    GeneralPositionError,
    InternalAssertionError,
    PreconditionError,
)
from .geometry import (
    Point,
    PointSet,
    Segment,
    convex_hull,
    crossing_pairs,
    cw_order_around,
    point_strictly_inside_polygon,
    properly_cross,
    same_ray,
)
from .mst import bottleneck, build_emst
from .unionfind import UnionFind

Cell = tuple[int, int]


@dataclass(frozen=True)
class QuadVal:
    """Exact number a + b*sqrt(q) with rational a, b and fixed rational q > 0."""

    a: Fraction
    b: Fraction
    q: Fraction

    def __add__(self, o: "QuadVal") -> "QuadVal":
        return QuadVal(self.a + o.a, self.b + o.b, self.q)

    def __sub__(self, o: "QuadVal") -> "QuadVal":
        return QuadVal(self.a - o.a, self.b - o.b, self.q)

    def __mul__(self, o: "QuadVal") -> "QuadVal":
        return QuadVal(
            self.a * o.a + self.b * o.b * self.q,
            self.a * o.b + self.b * o.a,
            self.q,
        )

    def sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with b^2*q
        lhs, rhs = a * a, b * b * self.q
        if a > 0:  # b < 0
            return (lhs > rhs) - (lhs < rhs)
        return (rhs > lhs) - (rhs < lhs)

    def __lt__(self, o: "QuadVal") -> bool:
        return (self - o).sign() < 0

    def __eq__(self, o: object) -> bool:
        return isinstance(o, QuadVal) and (self - o).a == 0 and (self - o).b == 0

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(float(self.q))


def _rat(x, q: Fraction) -> QuadVal:
    return QuadVal(Fraction(x), Fraction(0), q)


def _cell_index(x: Fraction, side_mult: int, q: Fraction) -> int:
    """Exact floor(x / (side_mult * sqrt(q))); boundary points stay in the
    higher-index cell, matching the floor convention."""
    est = float(x) / (side_mult * math.sqrt(float(q)))
    m = math.floor(est)
    ray = QuadVal(Fraction(x), Fraction(-side_mult) * (m + 1), q)
    while ray.sign() >= 0:  # x >= (m+1)*side
        m += 1
        ray = QuadVal(Fraction(x), Fraction(-side_mult) * (m + 1), q)
    low = QuadVal(Fraction(x), Fraction(-side_mult) * m, q)
    while low.sign() < 0:  # x < m*side
        m -= 1
        low = QuadVal(Fraction(x), Fraction(-side_mult) * m, q)
    return m


def _center_dist_sq(ps: PointSet, p: int, cell: Cell, side_mult: int, q: Fraction) -> QuadVal:
    """Exact squared distance from point p to the center of `cell`, whose
    coordinates are (i + 1/2, j + 1/2) times side_mult*sqrt(q)."""
    total = _rat(0, q)
    for coord, idx in ((ps.x(p), cell[0]), (ps.y(p), cell[1])):
        d = QuadVal(coord, -Fraction(2 * idx + 1, 2) * side_mult, q)
        total = total + d * d
    return total


@dataclass(frozen=True)
class GridIndex:
    """Cell decomposition with dense/sparse classification and the
    point-to-dense-box assignment."""

    k: int
    beta_sq: Fraction
    cells: dict[Cell, tuple[int, ...]]
    dense: frozenset[Cell]
    cell_of: dict[int, Cell]
    assignment: dict[int, Cell]

    @property
    def side_mult(self) -> int:
        return 6 * self.k

    @property
    def cell_side(self) -> float:
        return self.side_mult * math.sqrt(float(self.beta_sq))

    def assigned_to(self, box: Cell) -> list[int]:
        return sorted(p for p, b in self.assignment.items() if b == box)


def _as_beta_sq(beta, ps: PointSet | None = None) -> Fraction:
    """Normalize a beta argument to its exact square; None means the MST
    bottleneck of ps."""
    if beta is None:
        if ps is None or len(ps) < 2:
            raise PreconditionError("beta default needs a point set with n >= 2")
        return bottleneck(build_emst(ps), ps).length_sq
    if isinstance(beta, float):
        beta = Fraction(str(beta))
    beta = Fraction(beta)
    if beta <= 0:
        raise PreconditionError("beta must be positive")
    return beta * beta


def grid_partition(ps: PointSet, k: int, beta_sq: Fraction) -> GridIndex:
    """Bucket points into cells of side 6*k*sqrt(beta_sq), classify dense
    cells (>= 3k points), and assign every point to its nearest dense-cell
    center among the dense cells within Chebyshev distance 2."""
    n = len(ps)
    if k < 1:
        raise PreconditionError("k must be >= 1")
    if n < 12 * k - 3:
        raise PreconditionError(f"n={n} below the required 4*(3k-1)+1 = {12 * k - 3}")
    q = Fraction(beta_sq)
    if q <= 0:
        raise PreconditionError("beta^2 must be positive")
    sm = 6 * k
    cell_of: dict[int, Cell] = {}
    cells: dict[Cell, list[int]] = {}
    for p in ps.ids:
        c = (_cell_index(ps.x(p), sm, q), _cell_index(ps.y(p), sm, q))
        cell_of[p] = c
        cells.setdefault(c, []).append(p)
    dense = frozenset(c for c, members in cells.items() if len(members) >= 3 * k)
    if not dense:
        raise PreconditionError(
            "no dense box: beta is below the MST bottleneck or n is too small"
        )
    assignment: dict[int, Cell] = {}
    for p in ps.ids:
        ci, cj = cell_of[p]
        candidates = [
            c
            for c in dense
            if abs(c[0] - ci) <= 2 and abs(c[1] - cj) <= 2
        ]
        if not candidates:
            raise PreconditionError(
                f"point {p} has no dense box within two cells; "
                "beta below the MST bottleneck breaks the adjacency guarantee"
            )
        assignment[p] = _nearest_center(ps, p, candidates, cell_of[p], sm, q)
    gi = GridIndex(
        k=k,
        beta_sq=q,
        cells={c: tuple(sorted(m)) for c, m in cells.items()},
        dense=dense,
        cell_of=cell_of,
        assignment=assignment,
    )
    for p in ps.ids:  # points in a dense cell stay in it
        if cell_of[p] in dense and assignment[p] != cell_of[p]:
            raise InternalAssertionError(
                "grid", f"point {p} in dense cell {cell_of[p]} assigned to {assignment[p]}"
            )
    return gi


def _nearest_center(
    ps: PointSet, p: int, candidates: Sequence[Cell], own: Cell, sm: int, q: Fraction
) -> Cell:
    best: Cell | None = None
    best_d: QuadVal | None = None
    for c in sorted(candidates):
        d = _center_dist_sq(ps, p, c, sm, q)
        if best is None:
            best, best_d = c, d
            continue
        s = (d - best_d).sign()
        if s < 0:
            best, best_d = c, d
        elif s == 0:
            # exact tie: the point's own cell wins, then lexicographic order
            if c == own:
                best, best_d = c, d
            elif best != own and c < best:
                best, best_d = c, d
    return best


# --- center points ----------------------------------------------------------


class _ScaledPoints:
    """Points pre-scaled to a common integer grid; offsets from a rational
    query point are produced with integer multiplies only."""

    def __init__(self, pts: Sequence[tuple[Fraction, Fraction]]):
        den = 1
        for px, py in pts:
            den = den * px.denominator // math.gcd(den, px.denominator)
            den = den * py.denominator // math.gcd(den, py.denominator)
        self.den = den
        self.ints = [(int(px * den), int(py * den)) for px, py in pts]

    def offsets(self, cx: Fraction, cy: Fraction) -> list[tuple[int, int]]:
        cden = cx.denominator
        cden = cden * cy.denominator // math.gcd(cden, cy.denominator)
        full = self.den * cden // math.gcd(self.den, cden)
        f = full // self.den
        icx, icy = int(cx * full), int(cy * full)
        return [(px * f - icx, py * f - icy) for px, py in self.ints]


def tukey_depth(cx: Fraction, cy: Fraction, pts: Sequence[tuple[Fraction, Fraction]],
                stop_below: int | None = None,
                scaled: "_ScaledPoints | None" = None) -> int:
    """Exact Tukey depth of (cx, cy): the minimum number of points in a
    closed halfplane bounded by a line through it.

    Candidate lines pass through the input points; strictly-between lines are
    probed with exact direction sums.  `stop_below` allows early rejection.
    """
    vecs = (scaled or _ScaledPoints(pts)).offsets(cx, cy)
    seen: set[tuple[int, int]] = set()
    for dx, dy in vecs:
        if dx == 0 and dy == 0:
            continue
        if dy < 0 or (dy == 0 and dx < 0):
            dx, dy = -dx, -dy
        g = math.gcd(dx, dy)
        seen.add((dx // g, dy // g))  # canonical per line direction in [0, pi)
    if not seen:
        return len(pts)
    dirs = _sort_halfplane_dirs(list(seen))
    probes = list(dirs)
    for i in range(len(dirs) - 1):
        a, b = dirs[i], dirs[i + 1]
        probes.append((a[0] + b[0], a[1] + b[1]))
    if len(dirs) > 1:
        a, b = dirs[-1], dirs[0]
        probes.append((a[0] - b[0], a[1] - b[1]))  # between last and first+pi
    else:
        d = dirs[0]
        probes.append((-d[1], d[0]))  # a single critical line: probe across it
    depth = len(pts)
    for dx, dy in probes:
        left = right = on = 0
        for vx, vy in vecs:
            s = dx * vy - dy * vx
            if s > 0:
                left += 1
            elif s < 0:
                right += 1
            else:
                on += 1
        depth = min(depth, min(left, right) + on)
        if stop_below is not None and depth < stop_below:
            return depth
    return depth


def _sort_halfplane_dirs(dirs):
    """Sort direction vectors lying in the half-plane [0, pi) by angle,
    using exact cross-product comparisons."""
    res: list = []
    for d in dirs:
        lo, hi = 0, len(res)
        while lo < hi:
            mid = (lo + hi) // 2
            c = res[mid][0] * d[1] - res[mid][1] * d[0]
            if c > 0:
                lo = mid + 1
            else:
                hi = mid
        res.insert(lo, d)
    return res


def center_point(
    ids: Sequence[int],
    ps: PointSet,
    ray_ids: Sequence[int] | None = None,
) -> tuple[Fraction, Fraction]:
    """A point of Tukey depth >= floor(m/3), aiming for ceil(m/3), nudged so
    that no two `ray_ids` points (default: the ids) share a ray from it.
    Deterministic: first qualifying candidate in a fixed scan.

    The ceiling depth (the classical centerpoint guarantee) makes every
    sector provably convex, so it is tried first.  It can be unachievable
    together with orderability: for four points with one inside the triangle
    of the others, the single ceiling-deep point IS the interior point, and a
    center coinciding with an input point cannot order it.  The floor bound
    then applies and the box construction double-checks planarity wherever a
    sector opens beyond pi.
    """
    if len(ids) < 3:
        raise PreconditionError("center point needs at least 3 points")
    pts = [(ps.x(i), ps.y(i)) for i in ids]
    m = len(pts)
    ray_pts = [(ps.x(i), ps.y(i)) for i in (ray_ids if ray_ids is not None else ids)]
    scaled = _ScaledPoints(pts)
    rays_scaled = _ScaledPoints(ray_pts)
    for target in ((m + 2) // 3, m // 3):
        for cx, cy in _center_candidates(pts, target):
            if tukey_depth(cx, cy, pts, stop_below=target, scaled=scaled) >= target:
                nudged = _nudge_center(cx, cy, pts, target, ray_pts, scaled, rays_scaled)
                if nudged is not None:
                    return nudged
    raise InternalAssertionError("center-point", "no candidate reached the depth bound")


def _center_candidates(pts, target):
    """Deterministic candidate stream: cheap high-yield guesses, then the
    depth region itself (a convex polygon cut out by point-pair-supported
    halfplanes, O(m^3)), then triple centroids and pair-line intersections as
    a final fallback."""
    m = len(pts)
    sx = sum(p[0] for p in pts)
    sy = sum(p[1] for p in pts)
    yield (sx / m, sy / m)
    xs = sorted(p[0] for p in pts)
    ys = sorted(p[1] for p in pts)
    yield (xs[(m - 1) // 2], ys[(m - 1) // 2])
    for p in pts:
        yield p
    third, two_thirds = m // 3, (2 * m) // 3
    if third:
        for t in range(m):  # spread triples reach deep points early
            i, j, l = t % m, (third + t) % m, (two_thirds + t) % m
            if len({i, j, l}) == 3:
                yield (
                    (pts[i][0] + pts[j][0] + pts[l][0]) / 3,
                    (pts[i][1] + pts[j][1] + pts[l][1]) / 3,
                )
    yield from _depth_region_candidates(pts, target)
    for i, j, l in combinations(range(m), 3):
        yield (
            (pts[i][0] + pts[j][0] + pts[l][0]) / 3,
            (pts[i][1] + pts[j][1] + pts[l][1]) / 3,
        )
    lines = list(combinations(range(m), 2))
    for (i, j), (k, l) in combinations(lines, 2):
        hit = _line_intersection(pts[i], pts[j], pts[k], pts[l])
        if hit is not None:
            yield hit


def _depth_region_candidates(pts, target):
    """Interior point and vertices of the depth-`target` region.

    For every direction the center must not project beyond the target-th
    extreme point.  The binding boundary lines pass through two data points
    (where the order statistic transitions), and a pair line binds exactly
    when fewer than `target` points lie strictly beyond it; the constraints
    at directions between transitions rotate around a single point and are
    implied by the two adjacent pair lines.  Clipping a bounding box by all
    binding pair-supported halfplanes therefore yields the region exactly.
    """
    scaled = _ScaledPoints(pts)
    ints = scaled.ints
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
                return
    den = scaled.den
    cx = sum(v[0] for v in poly) / (len(poly) * den)
    cy = sum(v[1] for v in poly) / (len(poly) * den)
    yield (cx, cy)
    for vx, vy in poly:
        yield (vx / den, vy / den)


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


def _line_intersection(p1, p2, p3, p4):
    d1 = (p2[0] - p1[0], p2[1] - p1[1])
    d2 = (p4[0] - p3[0], p4[1] - p3[1])
    den = d1[0] * d2[1] - d1[1] * d2[0]
    if den == 0:
        return None
    t = ((p3[0] - p1[0]) * d2[1] - (p3[1] - p1[1]) * d2[0]) / den
    return (p1[0] + t * d1[0], p1[1] + t * d1[1])


def _rays_collide(offsets: Sequence[tuple[int, int]]) -> bool:
    """True when two of the offset vectors share a ray from the origin, or
    one is zero: either breaks the clockwise circular order.

    Diametrically opposite pairs are allowed: for some inputs (four points in
    convex position, say) every point of sufficient depth lies on a chord, so
    demanding one point per full line would never converge.  A sector bounded
    by opposite rays spans exactly pi and is still convex.
    """
    seen: set[tuple[int, int]] = set()
    for dx, dy in offsets:
        if dx == 0 and dy == 0:
            return True
        g = math.gcd(dx, dy)
        key = (dx // g, dy // g)  # canonical per ray, sign preserved
        if key in seen:
            return True
        seen.add(key)
    return False


def _nudge_center(cx, cy, pts, target, ray_pts, scaled=None, rays_scaled=None):
    """Move the candidate by tiny deterministic offsets until no ray
    collision remains and the depth bound still holds; None when this
    candidate cannot be salvaged (the caller tries the next one)."""
    scaled = scaled or _ScaledPoints(pts)
    rays_scaled = rays_scaled or _ScaledPoints(ray_pts)
    spread = max(
        max(p[0] for p in pts) - min(p[0] for p in pts),
        max(p[1] for p in pts) - min(p[1] for p in pts),
    )
    phi = Fraction(987, 1597)
    directions = [(1, phi), (-phi, 1), (-1, -phi), (phi, -1)]
    x, y = cx, cy
    for t in range(48):
        if not _rays_collide(rays_scaled.offsets(x, y)) and tukey_depth(
            x, y, pts, stop_below=target, scaled=scaled
        ) >= target:
            return (x, y)
        dx, dy = directions[t % 4]
        delta = spread / (1 << (14 + t // 4))
        x, y = cx + delta * dx, cy + delta * dy
    return None


# --- per-box layers ---------------------------------------------------------


@dataclass(frozen=True)
class SectorStructure:
    """One layer's three clockwise sectors at a box's center point; `reps`
    are the sector anchors in clockwise order."""

    box: Cell
    layer: int
    center: tuple[Fraction, Fraction]
    reps: tuple[int, int, int]


@dataclass
class BoxLayers:
    box: Cell
    center: tuple[Fraction, Fraction]
    order: tuple[int, ...]  # in-box points, clockwise around the center
    sectors: list[SectorStructure]
    tree_edges: list[list[Segment]]  # per layer, in-box star/chain edges
    attach_edges: list[list[Segment]]  # per layer, assigned outside points

    def layer_edges(self, j: int) -> list[Segment]:
        return self.tree_edges[j] + self.attach_edges[j]


def _sector_index(
    ps: PointSet, center: tuple[Fraction, Fraction], reps: Sequence[int], target: int
) -> int:
    """Index of the clockwise sector containing the direction to `target`;
    boundary rays belong to the sector they anchor."""
    cx, cy = center
    dirs = [(ps.x(r) - cx, ps.y(r) - cy) for r in reps]
    d = (ps.x(target) - cx, ps.y(target) - cy)
    for i in range(3):
        if same_ray(d, dirs[i]):
            return i
    for i in range(3):
        a, b = dirs[i], dirs[(i + 1) % 3]
        if _strictly_inside_cw(a, b, d):
            return i
    raise InternalAssertionError(
        "sector", f"direction of {target} escaped all three sectors"
    )


def _strictly_inside_cw(a, b, d) -> bool:
    """Strict membership of d in the sector swept clockwise from ray a to
    ray b (equivalently counterclockwise from b to a)."""
    c = b[0] * a[1] - b[1] * a[0]  # ccw span sign from b to a
    if c == 0:
        if a[0] * b[0] + a[1] * b[1] > 0:
            raise GeneralPositionError("sector boundary rays coincide")
        # opposite rays: the sector is the closed-left halfplane of b=(-a)
        return a[0] * d[1] - a[1] * d[0] < 0
    inside_convex = (
        lambda x: (b[0] * x[1] - b[1] * x[0]) > 0 and (x[0] * a[1] - x[1] * a[0]) > 0
    )
    if c > 0:
        return inside_convex(d)
    return not (
        (a[0] * d[1] - a[1] * d[0]) >= 0 and (d[0] * b[1] - d[1] * b[0]) >= 0
    )


def layers_in_box(
    box: Cell, gi: GridIndex, ps: PointSet, k: int
) -> BoxLayers:
    """Extract k rotated-sector layers for one dense box: in-box points are
    numbered clockwise around the center point; layer j uses representatives
    j, floor(m/3)+j, floor(2m/3)+j; everyone else joins its sector anchor."""
    members = list(gi.cells[box])
    m = len(members)
    if m < 3 * k:
        raise PreconditionError(f"box {box} holds {m} < 3k points")
    assigned = gi.assigned_to(box)
    center = center_point(members, ps, ray_ids=assigned)
    cx, cy = center
    order = cw_order_around(Point(-1, cx, cy), members, ps)
    member_set = set(members)
    sparse = [p for p in assigned if p not in member_set]
    sectors: list[SectorStructure] = []
    tree_edges: list[list[Segment]] = []
    attach_edges: list[list[Segment]] = []
    third, two_thirds = m // 3, (2 * m) // 3
    for j in range(k):
        reps = (
            order[j % m],
            order[(third + j) % m],
            order[(two_thirds + j) % m],
        )
        sectors.append(SectorStructure(box, j, center, reps))
        edges = []
        for t in range(1, m):
            p = order[(j + t) % m]
            if t <= third:
                anchor = reps[0]
            elif t <= two_thirds:
                anchor = reps[1]
            else:
                anchor = reps[2]
            edges.append(Segment(p, anchor))
        tree_edges.append(sorted(edges))
        attach = [
            Segment(qpt, reps[_sector_index(ps, center, reps, qpt)]) for qpt in sparse
        ]
        attach_edges.append(sorted(attach))
    bl = BoxLayers(box, center, tuple(order), sectors, tree_edges, attach_edges)
    _check_sector_convexity(ps, bl, k)
    return bl


def _sector_spans_reflex(ps: PointSet, sec: SectorStructure) -> bool:
    cx, cy = sec.center
    dirs = [(ps.x(r) - cx, ps.y(r) - cy) for r in sec.reps]
    for i in range(3):
        a, b = dirs[i], dirs[(i + 1) % 3]
        # clockwise span from a to b above pi <=> cross(a, b) > 0
        if a[0] * b[1] - a[1] * b[0] > 0:
            return True
    return False


def _check_sector_convexity(ps: PointSet, bl: BoxLayers, k: int) -> None:
    """Convex (<= pi) sectors make the per-box layers plane by construction.
    A ceiling-depth center guarantees that; when the floor-depth fallback
    leaves a sector open beyond pi, fall back to checking the layer's
    planarity outright."""
    for j in range(k):
        if not _sector_spans_reflex(ps, bl.sectors[j]):
            continue
        bad = crossing_pairs(bl.layer_edges(j), ps)
        if bad:
            raise InternalAssertionError(
                "box-planarity",
                f"box {bl.box} layer {j}: crossing pairs {bad[:3]} "
                "behind a sector spanning above pi",
            )


# --- connectors -------------------------------------------------------------


def _connector_pairs(dense: frozenset[Cell]) -> list[tuple[Cell, Cell]]:
    pairs: set[tuple[Cell, Cell]] = set()
    for i, j in sorted(dense):
        below = (i, j - 1)
        left = (i - 1, j)
        above = (i, j + 1)
        if below in dense:
            pairs.add(tuple(sorted(((i, j), below))))
        if left in dense:
            pairs.add(tuple(sorted(((i, j), left))))
        if below not in dense and left not in dense and (i - 1, j - 1) in dense:
            pairs.add(tuple(sorted(((i, j), (i - 1, j - 1)))))
        if above not in dense and left not in dense and (i - 1, j + 1) in dense:
            pairs.add(tuple(sorted(((i, j), (i - 1, j + 1)))))
    return sorted(pairs)


def _pick_connector(
    ps: PointSet,
    sa: SectorStructure,
    sb: SectorStructure,
    used: set[Segment],
) -> Segment:
    """First mutually-contained representative pair in lexicographic scan
    order, skipping edges already taken by earlier layers of this box pair."""
    for ia in range(3):
        p = sa.reps[ia]
        for ib in range(3):
            qpt = sb.reps[ib]
            e = Segment(p, qpt)
            if e in used:
                continue
            if (
                _sector_index(ps, sb.center, sb.reps, p) == ib
                and _sector_index(ps, sa.center, sa.reps, qpt) == ia
            ):
                return e
    raise InternalAssertionError(
        "connector",
        f"no unused mutually-contained pair between boxes {sa.box} and {sb.box}",
    )


def connect_boxes(
    gi: GridIndex, box_layers: dict[Cell, BoxLayers], ps: PointSet, k: int
) -> list[list[Segment]]:
    """Connector edges per layer for every box pair selected by the
    below/left/diagonal rules."""
    connectors: list[list[Segment]] = [[] for _ in range(k)]
    for a, b in _connector_pairs(gi.dense):
        used: set[Segment] = set()
        for j in range(k):
            e = _pick_connector(ps, box_layers[a].sectors[j], box_layers[b].sectors[j], used)
            used.add(e)
            connectors[j].append(e)
    return [sorted(c) for c in connectors]


# --- whole-construction entry points ----------------------------------------


@dataclass(frozen=True)
class LayerSet:
    """k edge lists over one point set, each meant to be plane and spanning."""

    k: int
    beta: float
    beta_sq: Fraction
    layers: tuple[tuple[Segment, ...], ...]
    stats: tuple[dict, ...]

    def to_json_dict(self) -> dict:
        return {
            "kind": "distributed",
            "k": self.k,
            "beta": self.beta,
            "betaSq": f"{self.beta_sq.numerator}/{self.beta_sq.denominator}",
            "layers": [[list(e.as_pair()) for e in layer] for layer in self.layers],
            "stats": list(self.stats),
        }


def build_k_layers(ps: PointSet, k: int, beta=None) -> LayerSet:
    """The full pipeline: grid, per-box layers, sparse attachment, box
    connectors; asserts hull disjointness, 8-neighbor connectivity, the
    edge-length budget 12*sqrt(2)*k*beta, and that every layer is plane."""
    beta_sq = _as_beta_sq(beta, ps)
    gi = grid_partition(ps, k, beta_sq)
    boxes = sorted(gi.dense)
    box_layers = {box: layers_in_box(box, gi, ps, k) for box in boxes}
    _assert_hulls_disjoint(ps, gi)
    _assert_eight_neighbor_connected(gi)
    connectors = connect_boxes(gi, box_layers, ps, k)
    layers: list[tuple[Segment, ...]] = []
    limit_sq = 288 * k * k * beta_sq  # (12*sqrt(2)*k*beta)^2
    for j in range(k):
        merged: list[Segment] = []
        for box in boxes:
            merged.extend(box_layers[box].layer_edges(j))
        merged.extend(connectors[j])
        merged.sort()
        for e in merged:
            if ps.seg_len_sq(e) > limit_sq:
                raise InternalAssertionError(
                    "length-budget", f"edge {e} exceeds 12*sqrt(2)*k*beta in layer {j}"
                )
        bad = crossing_pairs(merged, ps)
        if bad:
            a, b = bad[0]
            raise InternalAssertionError(
                "layer-planarity",
                f"layer {j}: edges {a} and {b} cross",
                {
                    "points": ps.to_text(),
                    "k": k,
                    "betaSq": f"{beta_sq.numerator}/{beta_sq.denominator}",
                    "layer": j,
                    "crossing": [a.as_pair(), b.as_pair()],
                },
            )
        layers.append(tuple(merged))
    seen: dict[Segment, int] = {}
    for j, layer in enumerate(layers):
        for e in layer:
            if e in seen:
                raise InternalAssertionError(
                    "layer-disjointness", f"edge {e} in layers {seen[e]} and {j}"
                )
            seen[e] = j
    beta_f = math.sqrt(float(beta_sq))
    stats = tuple(
        {
            "edges": len(layer),
            "bottleneck": (bottleneck(layer, ps).length if layer else 0.0),
        }
        for layer in layers
    )
    return LayerSet(k=k, beta=beta_f, beta_sq=beta_sq, layers=tuple(layers), stats=stats)


def _assert_hulls_disjoint(ps: PointSet, gi: GridIndex) -> None:
    hulls = {}
    for box in gi.dense:
        members = gi.assigned_to(box)
        hulls[box] = convex_hull(members, ps)
    for a, b in combinations(sorted(hulls), 2):
        if _convex_hulls_intersect(ps, hulls[a], hulls[b]):
            raise InternalAssertionError(
                "hull-disjointness", f"assigned hulls of {a} and {b} intersect"
            )


def _convex_hulls_intersect(ps: PointSet, ha: list[int], hb: list[int]) -> bool:
    ea = [Segment(ha[i], ha[(i + 1) % len(ha)]) for i in range(len(ha))] if len(ha) > 1 else []
    eb = [Segment(hb[i], hb[(i + 1) % len(hb)]) for i in range(len(hb))] if len(hb) > 1 else []
    for sa in ea:
        for sb in eb:
            if properly_cross(sa, sb, ps):
                return True
    for box_pts, other in ((ha, hb), (hb, ha)):
        if len(other) >= 3:
            for v in box_pts:
                if point_strictly_inside_polygon(other, ps, ps.x(v), ps.y(v)):
                    return True
    return False


def _assert_eight_neighbor_connected(gi: GridIndex) -> None:
    boxes = sorted(gi.dense)
    uf = UnionFind(boxes)
    for a in boxes:
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                b = (a[0] + dx, a[1] + dy)
                if b != a and b in gi.dense:
                    uf.union(a, b)
    if uf.component_count() != 1:
        raise InternalAssertionError(
            "eight-neighbor", "dense boxes are not 8-neighbor connected"
        )


# --- locality certificate ---------------------------------------------------


@dataclass(frozen=True)
class LocalityCertificate:
    point: int
    cheby_cells: int
    euclid_radius: float
    layer_edges: tuple[tuple[Segment, ...], ...]
    ok: bool


def locality_certificate(
    ps: PointSet,
    k: int,
    point_id: int,
    beta=None,
    layer_set: LayerSet | None = None,
) -> LocalityCertificate:
    """Recompute every edge incident to `point_id` from local data only and
    compare with the global build.

    Each deciding party (a point choosing its box, a box building its
    sectors) sees only the cells within Chebyshev distance 2 of itself; a
    representative's incident set therefore draws on its neighbors'
    2-neighborhoods as well, exactly like the per-node computation it models.
    A mismatch raises: locality would be violated.
    """
    beta_sq = _as_beta_sq(beta, ps)
    ls = layer_set or build_k_layers(ps, k, beta)
    if ls.beta_sq != beta_sq:
        raise PreconditionError("layer_set was built with a different beta")
    global_incident = tuple(
        tuple(sorted(e for e in layer if e.touches(point_id))) for layer in ls.layers
    )
    local_incident = _replay_incident(ps, k, beta_sq, point_id)
    if local_incident != global_incident:
        raise InternalAssertionError(
            "locality",
            f"incident edges of {point_id} differ between local and global builds",
            {
                "point": point_id,
                "local": [[e.as_pair() for e in l] for l in local_incident],
                "global": [[e.as_pair() for e in l] for l in global_incident],
            },
        )
    sm = 6 * k
    radius = 3 * sm * math.sqrt(float(beta_sq)) * math.sqrt(2)
    return LocalityCertificate(
        point=point_id,
        cheby_cells=2,
        euclid_radius=radius,
        layer_edges=global_incident,
        ok=True,
    )


class _LocalReplay:
    """Replays the per-point and per-box computations against restricted
    views, caching results so certifying many points stays affordable.

    Every cached value is a function of data within Chebyshev distance 2 of
    its owner (a point's cell for assignments, the box for sector builds): a
    cell's population and hence its density is intrinsic to the cell.
    """

    def __init__(self, ps: PointSet, k: int, q: Fraction):
        self.ps = ps
        self.k = k
        self.q = q
        self.sm = 6 * k
        self.cell_of: dict[int, Cell] = {
            p: (_cell_index(ps.x(p), self.sm, q), _cell_index(ps.y(p), self.sm, q))
            for p in ps.ids
        }
        self.members: dict[Cell, list[int]] = {}
        for p in ps.ids:
            self.members.setdefault(self.cell_of[p], []).append(p)
        self.dense = frozenset(
            c for c, m in self.members.items() if len(m) >= 3 * k
        )
        self._assign: dict[int, Cell] = {}
        self._boxes: dict[Cell, BoxLayers] = {}

    def dense_near(self, cell: Cell, radius: int = 2) -> list[Cell]:
        return sorted(
            c
            for c in self.dense
            if abs(c[0] - cell[0]) <= radius and abs(c[1] - cell[1]) <= radius
        )

    def assign(self, p: int) -> Cell:
        """p's box choice: nearest dense center among the dense cells within
        distance 2 of p's own cell."""
        if p not in self._assign:
            pc = self.cell_of[p]
            candidates = self.dense_near(pc)
            if not candidates:
                raise PreconditionError(f"point {p} finds no dense box within two cells")
            self._assign[p] = _nearest_center(self.ps, p, candidates, pc, self.sm, self.q)
        return self._assign[p]

    def box_layers(self, box: Cell) -> BoxLayers:
        """One box's sector structure: in-box members plus the points of the
        2-neighborhood whose own local assignment lands in this box."""
        if box not in self._boxes:
            near_ids = [
                p
                for c, members in self.members.items()
                if abs(c[0] - box[0]) <= 2 and abs(c[1] - box[1]) <= 2
                for p in members
            ]
            assigned = sorted(p for p in near_ids if self.assign(p) == box)
            sub = GridIndex(
                k=self.k,
                beta_sq=self.q,
                cells={box: tuple(sorted(self.members[box]))},
                dense=frozenset([box]),
                cell_of={p: self.cell_of[p] for p in near_ids},
                assignment={p: box for p in assigned},
            )
            self._boxes[box] = layers_in_box(box, sub, self.ps, self.k)
        return self._boxes[box]


_replay_contexts: dict[tuple[int, int, Fraction], _LocalReplay] = {}


def _replay_context(ps: PointSet, k: int, q: Fraction) -> _LocalReplay:
    key = (id(ps), k, q)
    ctx = _replay_contexts.get(key)
    if ctx is None or ctx.ps is not ps:
        ctx = _LocalReplay(ps, k, q)
        _replay_contexts.clear()
        _replay_contexts[key] = ctx
    return ctx


def _replay_incident(
    ps: PointSet, k: int, q: Fraction, p: int
) -> tuple[tuple[Segment, ...], ...]:
    ctx = _replay_context(ps, k, q)
    home = ctx.assign(p)
    pc = ctx.cell_of[p]
    incident: list[set[Segment]] = [set() for _ in range(k)]

    home_layers = ctx.box_layers(home)
    for j in range(k):
        for e in home_layers.layer_edges(j):
            if e.touches(p):
                incident[j].add(e)

    if pc == home:  # p is an in-box point; it may be a representative
        is_rep = any(p in home_layers.sectors[j].reps for j in range(k))
        if is_rep:
            # connectors touch p only through pairs involving p's box; the
            # rules need the density of the cells adjacent to either box
            for other in ctx.dense_near(pc, radius=1):
                if other == home:
                    continue
                pair = (home, other) if home < other else (other, home)
                if not _pair_selected(pair, frozenset(ctx.dense_near(pair[0]))):
                    continue
                la = ctx.box_layers(pair[0])
                lb = ctx.box_layers(pair[1])
                used: set[Segment] = set()
                for j in range(k):
                    e = _pick_connector(ps, la.sectors[j], lb.sectors[j], used)
                    used.add(e)
                    if e.touches(p):
                        incident[j].add(e)
    return tuple(tuple(sorted(s)) for s in incident)


def _pair_selected(pair: tuple[Cell, Cell], dense: frozenset[Cell]) -> bool:
    """Replay the four connection rules for a candidate box pair."""
    a, b = pair
    for box, other in ((a, b), (b, a)):
        i, j = box
        below = (i, j - 1)
        left = (i - 1, j)
        above = (i, j + 1)
        if other == below or other == left:
            return True
        if other == (i - 1, j - 1) and below not in dense and left not in dense:
            return True
        if other == (i - 1, j + 1) and above not in dense and left not in dense:
            return True
    return False
