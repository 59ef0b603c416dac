"""Euclidean MST construction and rooted-leaf decoration.

The EMST is Kruskal over the edges of an exact Delaunay triangulation: the
orientation and incircle predicates run on the grid integers of the point
set, so no rounding can change a triangle or an edge order.  It costs
O(n log n) on spread-out inputs, against the O(n^2) of a Prim scan over the
complete graph, and returns exactly the tree that scan returns (see
`build_emst`); that scan is kept in the tests as the reference.

Both steps are flat integer kernels over the two coordinate lists of
`PointSet.grid`: the triangulation keys each directed edge u->v by the int
u*n + v and writes its predicates out as integer arithmetic, and Kruskal
sorts one int per edge, len^2 * n^2 + a*n + b, which orders exactly like
(len^2, a, b) since a*n + b < n^2.  The insertion order stays lexicographic,
which keeps the flips linear on convex position (see `delaunay_triangles`).

The tree is computed once per point set: `build_emst` keeps it on the
`PointSet` and returns a copy on every call, so the build, `verify`, the
locality certificate and each CLI command share one triangulation.  This
keeps `verify` exact, not merely consistent with the build: the grid of a
point set never changes, the tree is a function of that grid alone, and
only `build_emst` writes the kept tree, so every caller gets the true EMST of the
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
    collinear.

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
    """Euclidean MST: Kruskal over the O(n) edges of the exact Delaunay
    triangulation (see `delaunay_triangles` for its cost).

    Edges are ordered by (squared length, min id, max id), a strict total
    order, so the tree is the unique MST under it and is returned sorted.
    Each of its edges uv has an empty closed diametral disk: a point w in
    that disk has |uw|^2 + |wv|^2 <= |uv|^2, so uv would be strictly the
    longest edge of the cycle u-w-v and not in the tree.  Such an edge is in
    every Delaunay triangulation, so neither the insertion order nor ties
    among co-circular points can change the result.  An all-collinear input
    has no triangles; its MST is the path through the points in
    lexicographic order.  The O(n^2) Prim scan over the complete graph that
    this replaces is kept as the reference in the tests.

    Kruskal sorts one int per edge, len^2 * n^2 + a*n + b for the grid
    squared length and the ids a < b: since a*n + b < n^2, these ints sort
    exactly like the tuples (len^2, a, b).  The union-find runs on a list,
    and only the n - 1 tree edges become `Segment`s.

    The tree is computed on the first call for a point set only and kept on
    it as a tuple; every call returns a new list, so a caller that edits its
    list changes no later result.  A point set's grid is immutable, so the
    kept tree is still exactly the EMST of the points `ps` holds.
    """
    tree = ps._emst
    if tree is None:
        tree = ps._emst = _delaunay_kruskal(ps)
    return list(tree)


def _delaunay_kruskal(ps: PointSet) -> tuple[Segment, ...]:
    """The sorted EMST edges of `ps`; see `build_emst`."""
    xs, ys = ps.grid
    n = len(xs)
    if n == 0:
        raise PreconditionError("empty point set")
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
    keys.sort()
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
