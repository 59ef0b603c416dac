"""Euclidean MST construction, its bottleneck and its adjacency.

The EMST is one Kruskal over candidate edges that provably contain it, from
one of two sources:

- the grid's short pairs (`_grid_forest`), tried first: every pair no longer
  than a radius s set by the bounding box and n, found by bucketing the
  points into cells of side s, each holding about 2.5 points when the points
  are spread evenly, and checking each cell against itself and its
  neighbours.  On spread-out points, such as uniform sensor fields, these
  pairs number about 3.6 per point whatever n is, but often do not span:
  the longest tree edges lie near the boundary and grow with log n.  So a
  repair, the common path, checks each point outside the largest component
  of their forest against every point within twice the radius, and again
  within twice that while the forest does not span; the tree is exact
  whenever it spans.  The grid declines once its checks, each counted
  before the distance it leads to, the repair's included, pass a budget of
  O(log n) per point: on clustered input the cell counts alone pass it
  before any distance.  Uniform points take about 11 checks per point;
- the edges of an exact Delaunay triangulation (`_delaunay_forest`): always
  O(n) edges, found in O(n log n) on spread-out inputs.

Both run on the grid integers of the point set, so no rounding can change an
edge or an edge order, and both give exactly the tree that an O(n^2) Prim
scan over the complete graph returns (see `build_emst`); that scan is kept in
the tests as the reference.  On uniform points at n = 300 to 12800 the
grid's tree costs 0.15-0.4x the Delaunay one.

The kernels are flat integer loops over the two coordinate lists of
`PointSet.grid`: the triangulation keys each directed edge u->v by the int
u*n + v and writes its predicates out as integer arithmetic, and Kruskal
sorts one int per edge, len^2 * n^2 + a*n + b, which orders exactly like
(len^2, a, b) since a*n + b < n^2.  The insertion order stays lexicographic,
which keeps the flips linear on convex position (see `_triangulate`).

A point set keeps one value derived from its EMST, computed once by `_mst`
with the grid tried first: the tree edges a*n + b in Kruskal's join order.
The two-tree build colours those keys: `emst_adjacency` gives the tree's
neighbour lists straight from them, the build keeps every edge it colours
as such a key, and `segments` turns its two trees into `Segment` lists
once, in bulk, for their final check.  `build_emst` returns the tree as a
new sorted `Segment` list through the same helper.  `grid_bottleneck_sq`
reads the bottleneck beta off the last join, since Kruskal joins edges in
order of length (Kruskal 1956);
`verify`'s ratios, the k-layer build's default beta, and the CLI's `--beta`
check and `stats` read it with no `Segment` tree built.  So a build and its
`verify` share one computation, and the grid runs at most once per point set.

The join order stays exact, not merely consistent with the build: the grid
of a point set never changes, the tree is a function of that grid alone,
and only this module writes it, so every caller gets the true EMST and
bottleneck of the point set it holds, never a beta passed in by a caller.

`adjacency` gives the neighbour lists of edges keyed a*n + b; the two-tree
build computes the tree's once (`emst_adjacency`), and every coloring stage
reads them.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Sequence

from .errors import PreconditionError
from .geometry import PointSet, Segment, float_sqrt


@dataclass(frozen=True)
class BottleneckInfo:
    """Longest edge of a graph: float length for reporting, exact square for
    comparisons, and the lexicographically smallest witnessing edge."""

    length: float
    length_sq: Fraction
    edge: Segment


def _triangulate(xs: list[int], ys: list[int], order: list[int]) -> dict[int, int]:
    """The exact Delaunay triangulation of the grid points (xs[i], ys[i]) as
    a map from the directed edge u->v, keyed u*n + v, to the third vertex of
    its ccw triangle; {} when there are fewer than three points or all are
    collinear.  Its edges are the EMST candidates wherever the grid's short
    pairs decline (see `build_emst`).

    Points are inserted in `order`, their lexicographic (x, y) order, which
    the point set keeps (`PointSet.lex_order`), so each new point lies
    strictly outside the hull of the earlier ones and sees the previous
    point: the hull edges it sees are found by walking the ccw hull ring out
    from there, with no point location.  Lawson flips then restore the
    empty-circumcircle property, flipping only when the new point is
    strictly inside (incircle determinant > 0).  Both predicates are inlined
    as integer arithmetic.  The hull walks cost O(n) in all; the flips are
    O(n^2) in the worst case.  Measured per point: none on the parabola (i,
    i^2), 4.6 at uniform n=500 rising to 10 at n=51200 (about log n), and
    about 0.47*sqrt(n) on a full sqrt(n) x sqrt(n) lattice (38 at 80 x 80).

    The insertion stays lexicographic because of points in convex
    position.  A prototype that inserted by distance from a seed point
    (S-hull order, with an integer angle hash for the hull) built the
    uniform n=500 EMST about 20% faster and a 60x60 lattice in 63 ms
    instead of 305 ms, but made the flips quadratic on the parabola: about
    0.4*n flips per point, so 2000 points took 3.9 s instead of 26 ms."""
    n = len(xs)
    if n < 3:
        return {}
    x0, y0 = xs[order[0]], ys[order[0]]
    ux, uy = xs[order[1]] - x0, ys[order[1]] - y0
    k = 2
    while k < n and ux * (ys[order[k]] - y0) == uy * (xs[order[k]] - x0):
        k += 1
    if k >= n:
        return {}
    # The collinear run order[:k] has a single triangulation: the fan to the
    # first point off its line.
    apex = order[k]
    run = order[:k]
    if ux * (ys[apex] - y0) < uy * (xs[apex] - x0):
        run.reverse()
    # opp[a*n + b] = c for every ccw triangle abc; a ccw hull edge a->b has
    # only opp[a*n + b], an interior edge has both directions.
    opp: dict[int, int] = {}
    for a, b in zip(run, run[1:]):
        opp[a * n + b] = apex
        opp[b * n + apex] = a
        opp[apex * n + a] = b
    ring = run + [apex]
    nxt = [0] * n
    prv = [0] * n
    for a, b in zip(ring, ring[1:] + ring[:1]):
        nxt[a] = b
        prv[b] = a
    last = apex
    stack: list[int] = []
    for p in order[k + 1:]:
        px, py = xs[p], ys[p]
        pn = p * n
        # visible hull edges (p strictly to their right) run from b to a
        a = last
        ax, ay = px - xs[a], py - ys[a]
        while True:
            c = nxt[a]
            cx, cy = px - xs[c], py - ys[c]
            if ax * cy >= ay * cx:
                break
            a, ax, ay = c, cx, cy
        b = last
        bx, by = px - xs[b], py - ys[b]
        while True:
            c = prv[b]
            cx, cy = px - xs[c], py - ys[c]
            if cx * by >= cy * bx:
                break
            b, bx, by = c, cx, cy
        u = b
        while u != a:
            v = nxt[u]
            opp[u * n + p] = v
            opp[pn + v] = u
            opp[v * n + u] = p
            stack.append(u)
            stack.append(v)
            u = v
        nxt[b] = p
        prv[p] = b
        nxt[p] = a
        prv[a] = p
        # (u, v) on the stack: the ccw triangle (u, p, v) faces the
        # triangle (u, v, d) across uv; flip uv to pd if p is strictly
        # inside the circle through u, v, d (the incircle determinant of
        # u, v, d, p is > 0)
        while stack:
            v = stack.pop()
            u = stack.pop()
            uv = u * n + v
            d = opp.get(uv)
            if d is None:
                continue
            adx, ady = xs[u] - px, ys[u] - py
            bdx, bdy = xs[v] - px, ys[v] - py
            cdx, cdy = xs[d] - px, ys[d] - py
            ad = adx * adx + ady * ady
            bd = bdx * bdx + bdy * bdy
            cd = cdx * cdx + cdy * cdy
            if (adx * (bdy * cd - bd * cdy) - ady * (bdx * cd - bd * cdx)
                    + ad * (bdx * cdy - bdy * cdx)) <= 0:
                continue
            del opp[uv], opp[v * n + u]
            opp[pn + v] = d
            opp[v * n + d] = p
            opp[d * n + p] = v
            opp[pn + d] = u
            opp[d * n + u] = p
            opp[u * n + p] = d
            stack.append(d)
            stack.append(v)
            stack.append(u)
            stack.append(d)
        last = p
    return opp


def build_emst(ps: PointSet) -> list[Segment]:
    """Euclidean MST: one Kruskal over candidate edges that contain it, the
    grid's short pairs (`_grid_forest`) on spread-out points and the O(n)
    edges of the exact Delaunay triangulation (`_delaunay_forest`)
    wherever the grid declines.

    Edges are ordered by (squared length, min id, max id), a strict total
    order, so the tree is the unique MST under it and is returned sorted;
    Kruskal over any edge set that holds that tree returns it.  The grid's
    pairs hold it when they connect the points: each MST edge is then no
    longer than the longest edge of a spanning tree among them.  So do the
    repaired pairs when they connect them (see `_grid_forest`).  The Delaunay
    edges always hold it.  Each MST edge uv has an empty closed
    diametral disk: a point w in that disk has |uw|^2 + |wv|^2 <= |uv|^2, so
    uv would be strictly the longest edge of the cycle u-w-v and not in the
    tree.  Such an edge is in every Delaunay triangulation, so neither the
    insertion order nor ties among co-circular points can change the result.
    An all-collinear input has no triangles; its MST is the path through the
    points in lexicographic order.  The O(n^2) Prim scan over the complete
    graph is kept as the reference in the tests.

    The tree is the point set's kept join order (`_mst`), computed on the
    first call for a point set only; every call returns a new list, so a
    caller that edits its list changes no later result.
    """
    return segments(sorted(_mst(ps)), len(ps))


def segments(keys: Iterable[int], n: int) -> list[Segment]:
    """The edges a*n + b of `keys`, each with a < b, as `Segment`s in key
    order, made in bulk: each (a, b) is already in a Segment's order, so the
    tuples are made directly, with no per-edge check in `Segment.__new__`."""
    return list(map(tuple.__new__, repeat(Segment), map(divmod, keys, repeat(n))))


def _mst(ps: PointSet) -> tuple[int, ...]:
    """The EMST edges a*n + b (a < b) of `ps` in Kruskal's join order, by
    (squared length, a, b): the grid's forest when its short pairs span the
    points within budget, else the Delaunay one (see `build_emst`).
    Computed on the first call for a point set and kept on it."""
    joins = ps._mst
    if joins is None:
        xs, ys = ps.grid
        if not xs:
            raise PreconditionError("empty point set")
        forest = _grid_forest(xs, ys)
        if forest is None:
            forest = _delaunay_forest(xs, ys, ps.lex_order()[0])
        joins = ps._mst = tuple(forest)
    return joins


def _kruskal(keys: list[int], n: int, parent: list[int], tree: list[int]) -> None:
    """Grow the minimum spanning forest `tree` by the candidate edges `keys`.

    A candidate a-b with a < b is the one int len^2 * n^2 + a*n + b for its
    grid squared length: since a*n + b < n^2, these ints sort exactly like
    the tuples (len^2, a, b).  `tree` holds the a*n + b of the forest edges
    taken so far and `parent` their union-find, a list over the points; a
    later call with candidates all longer than the earlier ones continues
    the same Kruskal.  The forest spans the points iff it has n - 1 edges.
    """
    keys.sort()
    nn = n * n
    for key in keys:
        key %= nn
        ra = key // n
        rb = key - ra * n
        while parent[ra] != ra:
            parent[ra] = ra = parent[parent[ra]]
        while parent[rb] != rb:
            parent[rb] = rb = parent[parent[rb]]
        if ra != rb:
            parent[ra] = rb
            tree.append(key)
            if len(tree) == n - 1:
                break


def _find(parent: list[int], a: int) -> int:
    """The union-find root of a, halving the path on the way."""
    while parent[a] != a:
        parent[a] = a = parent[parent[a]]
    return a


def _delaunay_forest(xs: list[int], ys: list[int], order: list[int]) -> list[int]:
    """The EMST edges a*n + b of `_kruskal` on the n >= 1 grid points (xs[i],
    ys[i]) in join order, as Kruskal over the edges of `_triangulate`; when
    all points are collinear, over the path through `order`, their
    lexicographic order, which is then the tree."""
    n = len(xs)
    edges = _triangulate(xs, ys, order) or {a * n + b for a, b in zip(order, order[1:])}
    nn = n * n
    keys = []
    for key in edges:
        a = key // n
        b = key - a * n
        if a > b:  # an interior edge also has b->a; a hull or path edge only a->b
            key = b * n + a
            if key in edges:
                continue
        dx, dy = xs[a] - xs[b], ys[a] - ys[b]
        keys.append((dx * dx + dy * dy) * nn + key)
    tree: list[int] = []
    _kruskal(keys, n, list(range(n)), tree)
    return tree


# The grid's squared radius is at least area * GRID_CELL_POINTS / n, so a cell
# of uniform points holds about GRID_CELL_POINTS of them whatever n is.  The
# budget still follows ln n: the grid declines above GRID_CHECK_BUDGET * (ln n
# + GRID_LOG_SLACK) / pi checks per point, GRID_CHECK_BUDGET times the points
# expected within the longest MST edge of uniform points (Penrose 1997).
GRID_CELL_POINTS = 2.5
GRID_LOG_SLACK = 6
GRID_CHECK_BUDGET = 5
_FIXED_POINT = 1 << 20


def _grid_forest(xs: list[int], ys: list[int]) -> list[int] | None:
    """The EMST edges a*n + b of `_kruskal` on the n >= 1 grid points (xs[i],
    ys[i]) in join order, as Kruskal over every pair of squared length <= s2,
    repaired until the forest spans; None when the pairs, repair included,
    take more than GRID_CHECK_BUDGET * n * (ln n + GRID_LOG_SLACK) / pi
    checks to find.

    s2 is the squared side of a square holding GRID_CELL_POINTS of n points
    spread evenly over the w x h bounding box, computed in integers because
    grid integers can have hundreds of digits; it is at least (2 * max(w, h)
    // n + 1)^2, which covers thin sets such as the near-line instances.  s2
    sets only the speed and the chance of a decline, never the tree.  The
    points go into square cells of side ceil(sqrt(s2)), so a pair within
    sqrt(s2) lies in one cell or in two neighbouring ones; each cell is
    checked against itself and its four forward neighbours, about 11 checks
    per uniform point whatever n is.  The number of checks follows from the
    cell counts alone and is compared with the budget before any distance is
    computed, so clustered input, where these pairs are dense, declines after
    O(n) work.

    The repair is the common path.  The longest MST edges of uniform points
    lie near the boundary, where a point has half the neighbours, and for n
    of them in area A the longest edge has squared length about A * (ln n +
    O(1)) / (pi n) (Penrose 1997), which outgrows s2; so on most uniform
    sets some tree edges are longer than sqrt(s2).  A round of the repair
    with radius R = 2^k sqrt(s2), k = 1, 2, ..., checks each point outside
    the largest component of the forest against every point in its window,
    the cells up to 2^k away each way, and Kruskal continues over the pairs
    longer than R/2 and no longer than R, skipping those within one
    component; rounds go on while the forest does not span.  A tree edge
    longer than R/2 never joins two points of one component of the forest
    (it would be the longest edge of a cycle of pairs no longer than R/2),
    so one of its ends is outside the largest component and the round finds
    it if it is within R.  And once the forest spans, no tree edge is
    longer than the last round's R: by the cut property, the tree's edge
    across any cut is no longer than the forest's.

    The repair's work counts against the same budget, checked at each
    point.  Each point outside the largest component counts its window's
    cells before it reads them, then those cells or the points it reads
    there, whichever are more, before any distance.  So the grid declines
    within one window of the budget, and two far-apart uniform fields
    decline in the first round.  Finding the components costs O(n) a
    round, and the rounds stop once R passes the diameter, after O(log n)
    of them.  On uniform points the first round nearly always spans, after
    a few checks per point outside the largest component, which holds a
    small share of the points.
    """
    n = len(xs)
    xmin = min(xs)
    ymin = min(ys)
    w = max(xs) - xmin
    h = max(ys) - ymin
    budget = GRID_CHECK_BUDGET * n * round((math.log(n) + GRID_LOG_SLACK) / math.pi * _FIXED_POINT)
    per_cell = round(GRID_CELL_POINTS * _FIXED_POINT)
    s2 = max(-(-w * h * per_cell // (n * _FIXED_POINT)), (2 * max(w, h) // n + 1) ** 2)
    side = math.isqrt(s2 - 1) + 1
    # cell (cx, cy) is cx * rows + cy + 1; the row at either end of a column
    # is always empty, so a forward neighbour never wraps into the next column
    rows = h // side + 3
    forward = (rows - 1, rows, rows + 1, 1)
    cells: dict[int, list[int]] = {}
    where = []
    for i, (x, y) in enumerate(zip(xs, ys)):
        key = (x - xmin) // side * rows + (y - ymin) // side + 1
        where.append(key)
        cell = cells.get(key)
        if cell is None:
            cells[key] = [i]
        else:
            cell.append(i)
    # each point of a cell is checked against the points after it in the
    # cell's own list, then against all of its forward neighbours
    blocks = []
    checks = 0
    for key, cell in cells.items():
        near = cell[:]
        for step in forward:
            other = cells.get(key + step)
            if other is not None:
                near += other
        m = len(cell)
        checks += m * len(near) - m * (m + 1) // 2
        blocks.append((cell, near))
    if checks * _FIXED_POINT > budget:
        return None
    nn = n * n
    keys = []
    for cell, near in blocks:
        for k, i in enumerate(cell, 1):
            xi = xs[i]
            yi = ys[i]
            for j in near[k:]:
                dx = xi - xs[j]
                dy = yi - ys[j]
                d = dx * dx + dy * dy
                if d <= s2:
                    keys.append(d * nn + (i * n + j if i < j else j * n + i))
    parent = list(range(n))
    tree: list[int] = []
    _kruskal(keys, n, parent, tree)
    cols = w // side + 1
    top = h // side
    reach, lo = 1, s2
    while len(tree) < n - 1:
        reach *= 2
        hi = 4 * lo
        roots = [_find(parent, i) for i in range(n)]
        largest = Counter(roots).most_common(1)[0][0]
        keys = []
        for i, root in enumerate(roots):
            if root == largest:
                continue
            cx, cy = divmod(where[i] - 1, rows)
            x0, x1 = max(cx - reach, 0), min(cx + reach, cols - 1)
            y0, y1 = max(cy - reach, 0), min(cy + reach, top)
            # every cell and point read counts before the distances it leads to
            area = (x1 - x0 + 1) * (y1 - y0 + 1)
            if (checks + area) * _FIXED_POINT > budget:
                return None
            near = []
            for column in range(x0 * rows + y0 + 1, x1 * rows + rows, rows):
                for key in range(column, column + y1 - y0 + 1):
                    if key in cells:
                        near += cells[key]
            checks += max(area, len(near))
            if checks * _FIXED_POINT > budget:
                return None
            xi = xs[i]
            yi = ys[i]
            for j in near:
                dx = xi - xs[j]
                dy = yi - ys[j]
                d = dx * dx + dy * dy
                if lo < d <= hi:
                    keys.append(d * nn + (i * n + j if i < j else j * n + i))
        _kruskal(keys, n, parent, tree)
        lo = hi
    return tree


def grid_bottleneck_sq(ps: PointSet) -> int:
    """The squared length of the longest EMST edge of `ps` (n >= 2) in grid
    units, ps.scale**2 to the squared unit: Kruskal's last join in the kept
    join order (`_mst`), with no `Segment` tree built."""
    n = len(ps)
    if n < 2:
        raise PreconditionError("the MST bottleneck needs n >= 2")
    return ps.sdist_sq(*divmod(_mst(ps)[-1], n))


def bottleneck_sq(ps: PointSet) -> Fraction:
    """The exact squared EMST bottleneck of `ps` (n >= 2), from
    `grid_bottleneck_sq`."""
    return Fraction(grid_bottleneck_sq(ps), ps.scale * ps.scale)


def bottleneck_length(ps: PointSet) -> float:
    """The EMST bottleneck of `ps` (n >= 2) as a float, from
    `grid_bottleneck_sq`."""
    return float_sqrt(grid_bottleneck_sq(ps), ps.scale * ps.scale, "the MST bottleneck")


def bottleneck(edges: Sequence[Segment], ps: PointSet) -> BottleneckInfo:
    """Max edge length with a deterministic witnessing edge: `edges` as the
    one layer of `verify.count_layers`, so the longest squared grid length,
    ties to the smallest edge, and an id outside 0..n-1 raises
    `PreconditionError`."""
    from .verify import count_layers  # verify imports this module

    if not edges:
        raise PreconditionError("bottleneck of empty edge list")
    c = count_layers([edges], ps).per_layer[0]
    return BottleneckInfo(c.length, Fraction(c.longest_sq, ps.scale * ps.scale), c.longest)


def adjacency(keys: Iterable[int], n: int) -> dict[int, list[int]]:
    """Neighbour lists of the endpoints of the edges a*n + b in `keys`, in
    key order."""
    adj: dict[int, list[int]] = {}
    for key in keys:
        a, b = divmod(key, n)
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    return adj


def emst_adjacency(ps: PointSet) -> dict[int, list[int]]:
    """The neighbour lists of the EMST of `ps`, straight from its kept join
    order (`_mst`) with no `Segment` tree built: the keys in increasing
    order, so each list is ascending, as those of the sorted `build_emst`
    list are."""
    return adjacency(sorted(_mst(ps)), len(ps))
