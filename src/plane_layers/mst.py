"""Euclidean MST construction and rooted-leaf decoration.

The EMST is one Kruskal over candidate edges that provably contain it, from
one of two sources:

- the grid's short pairs (`_grid_tree`), tried first: every pair no longer
  than a radius s set by the bounding box and n, found by bucketing the
  points into cells of side about s and checking each cell against itself
  and its neighbours.  On spread-out points, such as uniform sensor fields,
  these pairs span with high probability and number about 5.6 per point at
  n = 500.  The grid declines when they do not span, or when the cell counts
  alone show more checks than a budget of O(log n) per point, as in
  clustered input;
- the edges of an exact Delaunay triangulation (`_delaunay_tree`): always
  O(n) edges, found in O(n log n) on spread-out inputs.

Both run on the grid integers of the point set, so no rounding can change an
edge or an edge order, and both give exactly the tree that an O(n^2) Prim
scan over the complete graph returns (see `build_emst`); that scan is kept in
the tests as the reference.  On uniform points at n = 300 to 12800 the
grid's tree, declines included, costs 0.3-0.5x the Delaunay one.

The kernels are flat integer loops over the two coordinate lists of
`PointSet.grid`: the triangulation keys each directed edge u->v by the int
u*n + v and writes its predicates out as integer arithmetic, and Kruskal
sorts one int per edge, len^2 * n^2 + a*n + b, which orders exactly like
(len^2, a, b) since a*n + b < n^2.  The insertion order stays lexicographic,
which keeps the flips linear on convex position (see `delaunay_triangles`).

The tree is computed once per point set: `build_emst` keeps it on the
`PointSet` and returns a copy on every call, so the build, `verify`, the
locality certificate and each CLI command share one tree.  This keeps
`verify` exact, not merely consistent with the build: the grid of a point set
never changes, the tree is a function of that grid alone, and only
`build_emst` writes the kept tree, so every caller gets the true EMST of the
point set it holds, never a beta passed in by a caller.

A rooted tree records levels, parents and grandparents for the two-tree
colorings.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import PreconditionError
from .geometry import PointSet, Segment


@dataclass(frozen=True)
class BottleneckInfo:
    """Longest edge of a graph: float length for reporting, exact square for
    comparisons, and the lexicographically smallest witnessing edge."""

    length: float
    length_sq: Fraction
    edge: Segment


def _triangulate(xs: list[int], ys: list[int]) -> dict[int, int]:
    """The exact Delaunay triangulation of the grid points (xs[i], ys[i]) as
    a map from the directed edge u->v, keyed u*n + v, to the third vertex of
    its ccw triangle; {} when there are fewer than three points or all are
    collinear.  See `delaunay_triangles`."""
    n = len(xs)
    if n < 3:
        return {}
    order = sorted(range(n), key=list(zip(xs, ys)).__getitem__)
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


def delaunay_triangles(ps: PointSet) -> list[tuple[int, int, int]]:
    """Exact Delaunay triangulation, as ccw id triples starting at their
    smallest id, sorted; [] when there are fewer than three points or all are
    collinear.  Its edges are the EMST candidates wherever the grid's short
    pairs decline (see `build_emst`).

    Points are inserted in lexicographic (x, y) order of their grid
    coordinates, so each new point lies strictly outside the hull of the
    earlier ones and sees the previous point: the hull edges it sees are
    found by walking the ccw hull ring out from there, with no point
    location.  Lawson flips then restore the empty-circumcircle property,
    flipping only when the new point is strictly inside (incircle
    determinant > 0).  The kernel reads the point set's two grid-integer
    lists (`PointSet.grid`), inlines both predicates as integer arithmetic
    and keys each directed edge u->v by the one int u*n + v.  The sort costs
    O(n log n) and the hull walks O(n) in all; the flips are O(n^2) in the
    worst case.  Measured per point: none on the parabola (i, i^2), 4.6 at
    uniform n=500 rising to 10 at n=51200 (about log n), and about
    0.47*sqrt(n) on a full sqrt(n) x sqrt(n) lattice (38 at 80 x 80).

    The insertion stays lexicographic because of points in convex
    position.  A prototype that inserted by distance from a seed point
    (S-hull order, with an integer angle hash for the hull) built the
    uniform n=500 EMST about 20% faster and a 60x60 lattice in 63 ms
    instead of 305 ms, but made the flips quadratic on the parabola: about
    0.4*n flips per point, so 2000 points took 3.9 s instead of 26 ms.
    """
    n = len(ps)
    tris = []
    for key, c in _triangulate(*ps.grid).items():
        a, b = divmod(key, n)
        if a < b and a < c:
            tris.append((a, b, c))
    return sorted(tris)


def build_emst(ps: PointSet) -> list[Segment]:
    """Euclidean MST: one Kruskal over candidate edges that contain it, the
    grid's short pairs (`_grid_tree`) on spread-out points and the O(n)
    edges of the exact Delaunay triangulation (`delaunay_triangles`)
    wherever the grid declines.

    Edges are ordered by (squared length, min id, max id), a strict total
    order, so the tree is the unique MST under it and is returned sorted;
    Kruskal over any edge set that holds that tree returns it.  The grid's
    pairs hold it when they connect the points: each MST edge is then no
    longer than the longest edge of a spanning tree among them.  The
    Delaunay edges always hold it.  Each MST edge uv has an empty closed
    diametral disk: a point w in that disk has |uw|^2 + |wv|^2 <= |uv|^2, so
    uv would be strictly the longest edge of the cycle u-w-v and not in the
    tree.  Such an edge is in every Delaunay triangulation, so neither the
    insertion order nor ties among co-circular points can change the result.
    An all-collinear input has no triangles; its MST is the path through the
    points in lexicographic order.  The O(n^2) Prim scan over the complete
    graph is kept as the reference in the tests.

    The tree is computed on the first call for a point set only and kept on
    it as a tuple; every call returns a new list, so a caller that edits its
    list changes no later result.  A point set's grid is immutable, so the
    kept tree is still exactly the EMST of the points `ps` holds.
    """
    tree = ps._emst
    if tree is None:
        tree = ps._emst = _compute_emst(ps)
    return list(tree)


def _compute_emst(ps: PointSet) -> tuple[Segment, ...]:
    """The sorted EMST edges of `ps`: the grid's tree when its short pairs
    span the points within budget, else the Delaunay tree; see `build_emst`."""
    xs, ys = ps.grid
    if not xs:
        raise PreconditionError("empty point set")
    tree = _grid_tree(xs, ys)
    return _delaunay_tree(xs, ys) if tree is None else tree


def _kruskal(keys: list[int], n: int) -> tuple[Segment, ...]:
    """The minimum spanning forest of the candidate edges `keys`, sorted.

    A candidate a-b with a < b is the one int len^2 * n^2 + a*n + b for its
    grid squared length: since a*n + b < n^2, these ints sort exactly like
    the tuples (len^2, a, b).  The union-find runs on a list, and only the
    forest edges become `Segment`s; the forest spans the points iff it has
    n - 1 edges.
    """
    keys.sort()
    nn = n * n
    parent = list(range(n))
    tree = []
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
    tree.sort()
    return tuple(Segment(*divmod(key, n)) for key in tree)


def _delaunay_tree(xs: list[int], ys: list[int]) -> tuple[Segment, ...]:
    """The sorted EMST of the n >= 1 grid points (xs[i], ys[i]): Kruskal
    over the edges of `_triangulate`, or the lexicographic path when all
    points are collinear."""
    n = len(xs)
    opp = _triangulate(xs, ys)
    if not opp:
        order = sorted(range(n), key=list(zip(xs, ys)).__getitem__)
        return tuple(sorted(Segment(a, b) for a, b in zip(order, order[1:])))
    nn = n * n
    keys = []
    for key in opp:
        a = key // n
        b = key - a * n
        if a > b:  # an interior edge also has b->a; a hull edge only a->b
            key = b * n + a
            if key in opp:
                continue
        dx, dy = xs[a] - xs[b], ys[a] - ys[b]
        keys.append((dx * dx + dy * dy) * nn + key)
    return _kruskal(keys, n)


# The grid's squared radius is at least area * (ln n + GRID_LOG_SLACK) / (pi n),
# so a cell of uniform points holds about (ln n + GRID_LOG_SLACK) / pi of them;
# the grid declines above GRID_CHECK_BUDGET times that many checks per point.
GRID_LOG_SLACK = 6
GRID_CHECK_BUDGET = 5
_FIXED_POINT = 1 << 20


def _grid_tree(xs: list[int], ys: list[int]) -> tuple[Segment, ...] | None:
    """The sorted EMST of the n >= 1 grid points (xs[i], ys[i]) as Kruskal
    over every pair of squared length <= s2, or None when those pairs do not
    span the points or take more than GRID_CHECK_BUDGET * n * (ln n +
    GRID_LOG_SLACK) / pi checks to find.

    For n uniform points in area A the longest MST edge has squared length
    about A * (ln n + O(1)) / (pi n) (Penrose 1997), so s2 is that with
    GRID_LOG_SLACK as the O(1), computed in integers because grid integers
    can have hundreds of digits; it is at least (2 * max(w, h) // n + 1)^2
    for the w x h bounding box, which covers thin sets such as the near-line
    instances.  s2 sets only the speed and the chance of a decline, never
    the tree.  The points go into square cells of side ceil(sqrt(s2)), so a
    pair within sqrt(s2) lies in one cell or in two neighbouring ones; each
    cell is checked against itself and its four forward neighbours.  The
    number of checks follows from the cell counts alone and is compared
    with the budget before any distance is computed, so clustered input,
    where these pairs are dense, declines after O(n) work.
    """
    n = len(xs)
    xmin = min(xs)
    ymin = min(ys)
    w = max(xs) - xmin
    h = max(ys) - ymin
    per_cell = round((math.log(n) + GRID_LOG_SLACK) / math.pi * _FIXED_POINT)
    s2 = max(-(-w * h * per_cell // (n * _FIXED_POINT)), (2 * max(w, h) // n + 1) ** 2)
    side = math.isqrt(s2 - 1) + 1
    # cell (cx, cy) is cx * rows + cy; row rows - 1 is always empty, so the
    # forward neighbour (cx + 1, cy - 1) of a cell in row 0 finds nothing
    rows = h // side + 2
    forward = (rows - 1, rows, rows + 1, 1)
    cells: dict[int, list[int]] = {}
    for i, (x, y) in enumerate(zip(xs, ys)):
        key = (x - xmin) // side * rows + (y - ymin) // side
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
    if checks * _FIXED_POINT > GRID_CHECK_BUDGET * n * per_cell:
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
    tree = _kruskal(keys, n)
    return tree if len(tree) == n - 1 else None


def bottleneck(edges: Sequence[Segment], ps: PointSet) -> BottleneckInfo:
    """Max edge length with a deterministic witnessing edge."""
    if not edges:
        raise PreconditionError("bottleneck of empty edge list")
    best = min(edges, key=lambda e: (-ps.sdist_sq(e.a, e.b), e.as_pair()))
    sq = ps.seg_len_sq(best)
    return BottleneckInfo(math.sqrt(sq), sq, best)


@dataclass(frozen=True)
class RootedMst:
    """A tree rooted at a leaf, decorated with levels, parents, grandparents.

    `vertices` may be a subset of the point set: the sub-tree constructions
    root hanging subtrees without re-indexing points.
    """

    ps: PointSet
    vertices: frozenset[int]
    edges: tuple[Segment, ...]
    root: int
    level: dict[int, int]
    parent: dict[int, int]
    grandparent: dict[int, int]
    adjacency: dict[int, tuple[int, ...]] = field(repr=False)

    @property
    def root_child(self) -> int:
        """The unique neighbor s of the leaf root."""
        return self.adjacency[self.root][0]


def adjacency(edges: Sequence[Segment]) -> dict[int, list[int]]:
    """Neighbour lists of the edge endpoints, in edge order."""
    adj: dict[int, list[int]] = {}
    for e in edges:
        adj.setdefault(e.a, []).append(e.b)
        adj.setdefault(e.b, []).append(e.a)
    return adj


def root_at_leaf(
    edges: Sequence[Segment],
    ps: PointSet,
    root: int,
    vertices: Sequence[int] | None = None,
) -> RootedMst:
    """Root a tree at a leaf and compute levels/parents/grandparents.

    Raises if the root is not a leaf or the edges do not form a tree on
    `vertices`.
    """
    verts = frozenset(vertices) if vertices is not None else frozenset(ps.ids)
    for e in edges:
        if e.a not in verts or e.b not in verts:
            raise PreconditionError(f"edge {e} leaves the vertex set")
    adj = adjacency(edges)
    if root not in verts:
        raise PreconditionError(f"root {root} not in vertex set")
    degree = len(adj.get(root, ()))
    if degree != 1:
        raise PreconditionError(f"root {root} has degree {degree}, not a leaf")
    if len(edges) != len(verts) - 1:
        raise PreconditionError("edge count does not match a spanning tree")
    level = {root: 0}
    parent: dict[int, int] = {}
    order = deque([root])
    while order:
        v = order.popleft()
        for w in adj[v]:
            if w not in level:
                level[w] = level[v] + 1
                parent[w] = v
                order.append(w)
    if len(level) != len(verts):
        raise PreconditionError("edges do not connect the vertex set")
    grandparent = {
        v: (parent[parent[v]] if level[v] >= 2 else root) for v in parent
    }
    return RootedMst(
        ps=ps,
        vertices=verts,
        edges=tuple(sorted(edges)),
        root=root,
        level=level,
        parent=parent,
        grandparent=grandparent,
        adjacency={v: tuple(sorted(adj.get(v, ()))) for v in verts},
    )
