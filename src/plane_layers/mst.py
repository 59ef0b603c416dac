"""Euclidean MST construction and rooted-leaf decoration.

The EMST is Kruskal over the edges of an exact Delaunay triangulation: the
orientation and incircle predicates run on the scaled integer coordinates of
the point set, so no rounding can change a triangle or an edge order.  It
costs O(n log n) on spread-out inputs, against the O(n^2) of a Prim scan over
the complete graph, and returns exactly the tree that scan returns (see
`build_emst`); that scan is kept in the tests as the reference.

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
from .geometry import PointSet, Segment, ccw_order_around
from .unionfind import UnionFind


@dataclass(frozen=True)
class BottleneckInfo:
    """Longest edge of a graph: float length for reporting, exact square for
    comparisons, and the lexicographically smallest witnessing edge."""

    length: float
    length_sq: Fraction
    edge: Segment


def _orient(a: tuple[int, int], b: tuple[int, int], c: tuple[int, int]) -> int:
    """Twice the signed area of abc: > 0 ccw, < 0 cw, 0 collinear."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _incircle(a: tuple[int, int], b: tuple[int, int], c: tuple[int, int],
              d: tuple[int, int]) -> int:
    """> 0 iff d lies strictly inside the circle through the ccw triangle abc."""
    adx, ady = a[0] - d[0], a[1] - d[1]
    bdx, bdy = b[0] - d[0], b[1] - d[1]
    cdx, cdy = c[0] - d[0], c[1] - d[1]
    ad = adx * adx + ady * ady
    bd = bdx * bdx + bdy * bdy
    cd = cdx * cdx + cdy * cdy
    return (
        adx * (bdy * cd - bd * cdy)
        - ady * (bdx * cd - bd * cdx)
        + ad * (bdx * cdy - bdy * cdx)
    )


def delaunay_triangles(ps: PointSet) -> list[tuple[int, int, int]]:
    """Exact Delaunay triangulation, as ccw id triples starting at their
    smallest id, sorted; [] when there are fewer than three points or all are
    collinear.

    Points are inserted in lexicographic (x, y) order of their scaled
    coordinates, so each new point lies strictly outside the hull of the
    earlier ones and sees the previous point: the hull edges it sees are
    found by walking the ccw hull ring out from there, with no point
    location.  Lawson flips then restore the empty-circumcircle property,
    flipping only when the new point is strictly inside (`_incircle > 0`).
    Both predicates run on integers.  The sort costs O(n log n) and the hull
    walks O(n) in all; the flips are O(n^2) in the worst case, but grow
    linearly on uniform, near-line and parabola inputs.
    """
    n = len(ps)
    pts = [ps.scaled(i) for i in ps.ids]
    order = sorted(ps.ids, key=pts.__getitem__)
    k = 2
    while k < n and _orient(pts[order[0]], pts[order[1]], pts[order[k]]) == 0:
        k += 1
    if k >= n:
        return []
    # The collinear run order[:k] has a single triangulation: the fan to the
    # first point off its line.
    apex = order[k]
    run = order[:k]
    if _orient(pts[run[0]], pts[run[1]], pts[apex]) < 0:
        run.reverse()
    # opp[(a, b)] = c for every ccw triangle abc; a ccw hull edge a->b has
    # only opp[(a, b)], an interior edge has both directions.
    opp: dict[tuple[int, int], int] = {}
    for a, b in zip(run, run[1:]):
        opp[(a, b)] = apex
        opp[(b, apex)] = a
        opp[(apex, a)] = b
    ring = run + [apex]
    nxt = [0] * n
    prv = [0] * n
    for a, b in zip(ring, ring[1:] + ring[:1]):
        nxt[a] = b
        prv[b] = a
    last = apex
    for p in order[k + 1:]:
        pp = pts[p]
        # visible hull edges (p strictly to their right) run from b to a
        a = last
        while _orient(pts[a], pts[nxt[a]], pp) < 0:
            a = nxt[a]
        b = last
        while _orient(pts[prv[b]], pts[b], pp) < 0:
            b = prv[b]
        stack = []
        u = b
        while u != a:
            v = nxt[u]
            opp[(u, p)] = v
            opp[(p, v)] = u
            opp[(v, u)] = p
            stack.append((u, v))
            u = v
        nxt[b] = p
        prv[p] = b
        nxt[p] = a
        prv[a] = p
        # (u, v) on the stack: the ccw triangle (u, p, v) faces the
        # triangle (u, v, d) across uv; flip uv to pd if p is inside its circle
        while stack:
            u, v = stack.pop()
            d = opp.get((u, v))
            if d is None or _incircle(pts[u], pts[v], pts[d], pp) <= 0:
                continue
            del opp[(u, v)], opp[(v, u)]
            opp[(p, v)] = d
            opp[(v, d)] = p
            opp[(d, p)] = v
            opp[(p, d)] = u
            opp[(d, u)] = p
            opp[(u, p)] = d
            stack.append((d, v))
            stack.append((u, d))
        last = p
    return sorted((a, b, c) for (a, b), c in opp.items() if a < b and a < c)


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
    """
    n = len(ps)
    if n == 0:
        raise PreconditionError("empty point set")
    tris = delaunay_triangles(ps)
    if not tris:
        order = sorted(ps.ids, key=ps.scaled)
        return sorted(Segment(a, b) for a, b in zip(order, order[1:]))
    pairs = set()
    for a, b, c in tris:
        pairs.add((a, b) if a < b else (b, a))
        pairs.add((b, c) if b < c else (c, b))
        pairs.add((a, c) if a < c else (c, a))
    uf = UnionFind(ps.ids)
    edges = []
    for _, a, b in sorted((ps.sdist_sq(a, b), a, b) for a, b in pairs):
        if uf.union(a, b):
            edges.append(Segment(a, b))
            if len(edges) == n - 1:
                break
    return sorted(edges)


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
    children: dict[int, tuple[int, ...]]
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

    Children are ordered counterclockwise around each vertex.  Raises if the
    root is not a leaf or the edges do not form a tree on `vertices`.
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
    children: dict[int, tuple[int, ...]] = {}
    for v in verts:
        kids = [w for w in adj.get(v, ()) if parent.get(w) == v]
        if len(kids) > 1:
            kids = ccw_order_around(v, kids, ps)
        children[v] = tuple(kids)
    return RootedMst(
        ps=ps,
        vertices=verts,
        edges=tuple(sorted(Segment(e.a, e.b) for e in edges)),
        root=root,
        level=level,
        parent=parent,
        grandparent=grandparent,
        children=children,
        adjacency={v: tuple(sorted(adj.get(v, ()))) for v in verts},
    )
