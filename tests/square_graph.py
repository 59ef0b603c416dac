"""A tree rooted at a leaf, its square and the lemmas about it, as test
oracles.

`root_at_leaf` records each vertex's level, parent and grandparent, and
`root_edge_coloring` reads the paper's root-edge coloring off them, with
its side swaps; the tests compare it with `centralized.construction1`,
which colors the tree in one breadth-first pass.

The square of the tree joins all vertex pairs at tree distance at most two.
Tree edges are "short"; the distance-two pairs are "long", each with a unique
witness (the common tree neighbor) and a wedge bounded by the witness rays
through its endpoints.  `lemma_mst2_cross` is the combinatorial crossing
predicate for pairs of square-graph edges; the tests compare it with the
geometric one.  Also here: the empty-triangle, sixty-degree and wedge
properties of an MST, and a small text format for rooted trees.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations
from typing import Sequence

from plane_layers.centralized import Recoloring
from plane_layers.errors import GeneralPositionError, PreconditionError, UsageError
from plane_layers.geometry import (
    Orientation,
    PointSet,
    Segment,
    ccw_order_around,
    cross_sign,
    orientation_ids,
)
from plane_layers.mst import adjacency


@dataclass(frozen=True)
class RootedMst:
    """A tree rooted at a leaf, decorated with levels, parents, grandparents.

    `vertices` may be a subset of the point set.
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


# The sides of the directed root edge r->s that each recoloring swaps.
_SWAPPED_SIDES = {
    Recoloring.ORIGINAL: (),
    Recoloring.INVERTED: (Orientation.CLOCKWISE, Orientation.COUNTERCLOCKWISE),
    Recoloring.MINUS_INVERTED: (Orientation.CLOCKWISE,),
    Recoloring.PLUS_INVERTED: (Orientation.COUNTERCLOCKWISE,),
}


def root_edge_coloring(rm: RootedMst, variant: Recoloring) -> tuple[set[Segment], set[Segment]]:
    """The red and blue edges of the root-edge coloring of rm.

    A vertex at an odd level puts its parent edge in red and its
    grandparent edge in blue, one at an even level the opposite, so the root
    edge, s's parent and grandparent edge at once, is in both.  The side of
    a branch of s is the turn r, s, w at its top vertex w: clockwise is the
    minus side, counterclockwise the plus side; every vertex of a swapped
    side swaps both of its edges.  ORIGINAL swaps nothing and reads no side."""
    r, s = rm.root, rm.root_child
    swapped_sides = _SWAPPED_SIDES[variant]
    swapped = {}  # top vertex of each branch of s -> whether its side swaps
    for w in rm.adjacency[s]:
        if w != r and swapped_sides:
            turn = orientation_ids(rm.ps, r, s, w)
            if turn is Orientation.COLLINEAR:
                raise GeneralPositionError(f"{r}, {s}, {w} are collinear")
            swapped[w] = turn in swapped_sides
    red, blue = set(), set()
    for v in rm.vertices - {r}:
        top = v
        while rm.level[top] > 2:
            top = rm.parent[top]
        pe, ge = Segment(v, rm.parent[v]), Segment(v, rm.grandparent[v])
        if (rm.level[v] % 2 == 1) == swapped.get(top, False):
            pe, ge = ge, pe
        red.add(pe)
        blue.add(ge)
    return red, blue


def _other(e: Segment, v: int) -> int:
    """The endpoint of e that is not v."""
    if v == e.a:
        return e.b
    if v == e.b:
        return e.a
    raise ValueError(f"{v} is not an endpoint of {e}")


def same_ray(d1: tuple, d2: tuple) -> bool:
    """Both direction vectors point the same way from a shared apex."""
    return d1[0] * d2[1] == d1[1] * d2[0] and d1[0] * d2[0] + d1[1] * d2[1] > 0


def strictly_inside_cone(da: tuple, db: tuple, d: tuple) -> bool:
    """Strict membership of direction d in the convex (< pi) cone spanned by
    da and db.  Directions on a bounding ray are outside."""
    c = da[0] * db[1] - da[1] * db[0]
    if c == 0:
        raise GeneralPositionError("cone boundary rays are collinear")
    if c < 0:
        da, db = db, da
    return (da[0] * d[1] - da[1] * d[0]) > 0 and (d[0] * db[1] - d[1] * db[0]) > 0


def point_strictly_inside_triangle(
    ax, ay, bx, by, cx, cy, qx, qy
) -> bool:
    s1 = cross_sign(ax, ay, bx, by, qx, qy)
    s2 = cross_sign(bx, by, cx, cy, qx, qy)
    s3 = cross_sign(cx, cy, ax, ay, qx, qy)
    return s1 == s2 == s3 and s1 != 0


class Mst2Kind(Enum):
    SHORT = "short"
    LONG = "long"


@dataclass(frozen=True)
class Mst2Edge:
    """Edge of the tree square: SHORT tree edges, or LONG distance-two pairs
    carrying their witness and the wedge ray targets."""

    seg: Segment
    kind: Mst2Kind
    witness: int | None = None
    wedge: tuple[int, int] | None = None  # rays go witness -> wedge[0], wedge[1]


def mst_square(rm: RootedMst) -> list[Mst2Edge]:
    """All SHORT edges plus every LONG edge with witness and wedge."""
    out = [Mst2Edge(e, Mst2Kind.SHORT) for e in rm.edges]
    for v in sorted(rm.vertices):
        nbrs = rm.adjacency[v]
        for u, w in combinations(nbrs, 2):
            out.append(Mst2Edge(Segment(u, w), Mst2Kind.LONG, v, (u, w)))
    out.sort(key=lambda m: (m.kind.value, m.seg.as_pair()))
    return out


def _dir(ps: PointSet, frm: int, to: int) -> tuple[int, int]:
    fx, fy = ps.scaled(frm)
    tx, ty = ps.scaled(to)
    return (tx - fx, ty - fy)


def edge_lies_in_wedge(ps: PointSet, long_edge: Mst2Edge, other: Segment) -> bool:
    """True iff `other` is incident to the witness and points strictly into
    the wedge of `long_edge` (bounding rays excluded)."""
    v = long_edge.witness
    if v is None or not other.touches(v):
        return False
    da = _dir(ps, v, long_edge.wedge[0])
    db = _dir(ps, v, long_edge.wedge[1])
    d = _dir(ps, v, _other(other, v))
    return strictly_inside_cone(da, db, d)


def _wedge_dirs(ps: PointSet, e: Mst2Edge) -> tuple[tuple[int, int], tuple[int, int]]:
    v = e.witness
    da = _dir(ps, v, e.wedge[0])
    db = _dir(ps, v, e.wedge[1])
    if da[0] * db[1] - da[1] * db[0] < 0:
        da, db = db, da
    return da, db


def _cone_contained(inner, outer) -> bool:
    def on_or_inside(d) -> bool:
        if same_ray(d, outer[0]) or same_ray(d, outer[1]):
            return True
        return strictly_inside_cone(outer[0], outer[1], d)

    return on_or_inside(inner[0]) and on_or_inside(inner[1])


def lemma_mst2_cross(e: Mst2Edge, f: Mst2Edge, ps: PointSet) -> bool:
    """Combinatorial crossing predicate for two square-graph edges.

    They cross iff (1) one is LONG and the other edge hangs off its witness
    strictly inside its wedge, or (2) both are LONG with the same witness and
    their wedges overlap without containment.
    """
    if e.seg == f.seg:
        return False
    for long_e, other in ((e, f), (f, e)):
        if long_e.kind is Mst2Kind.LONG and edge_lies_in_wedge(ps, long_e, other.seg):
            return True
    if (
        e.kind is Mst2Kind.LONG
        and f.kind is Mst2Kind.LONG
        and e.witness == f.witness
    ):
        ce = _wedge_dirs(ps, e)
        cf = _wedge_dirs(ps, f)
        overlap = any(strictly_inside_cone(*ce, d) for d in cf) or any(
            strictly_inside_cone(*cf, d) for d in ce
        )
        if overlap and not _cone_contained(ce, cf) and not _cone_contained(cf, ce):
            return True
    return False


def lemma_triangle_empty(rm: RootedMst, u: int, v: int, w: int) -> bool:
    """Oracle for the empty-triangle property of two tree edges uv, vw."""
    es = frozenset(rm.edges)
    if Segment(u, v) not in es or Segment(v, w) not in es:
        raise PreconditionError(f"{u}-{v} and {v}-{w} must both be tree edges")
    ps = rm.ps
    ax, ay = ps.scaled(u)
    bx, by = ps.scaled(v)
    cx, cy = ps.scaled(w)
    for p in rm.vertices:
        if p in (u, v, w):
            continue
        px, py = ps.scaled(p)
        if point_strictly_inside_triangle(ax, ay, bx, by, cx, cy, px, py):
            return False
    return True


def adjacent_edges_at_least_sixty_degrees(rm: RootedMst) -> bool:
    """Tolerance-free check that tree edges sharing a vertex span >= pi/3.

    cos(angle) <= 1/2 is tested as dot <= 0 or 4*dot^2 <= |u|^2*|w|^2.
    """
    ps = rm.ps
    for v in rm.vertices:
        nbrs = rm.adjacency[v]
        for a, b in combinations(nbrs, 2):
            da = _dir(ps, v, a)
            db = _dir(ps, v, b)
            dot = da[0] * db[0] + da[1] * db[1]
            if dot <= 0:
                continue
            if 4 * dot * dot > (da[0] ** 2 + da[1] ** 2) * (db[0] ** 2 + db[1] ** 2):
                return False
    return True


def neighbors_stay_in_wedge(rm: RootedMst, v: int) -> bool:
    """For a vertex of degree >= 3: every tree neighbor of the i-th neighbor
    lies inside the wedge bounded by the rays to neighbors i-1 and i+1."""
    nbrs = rm.adjacency[v]
    if len(nbrs) < 3:
        raise PreconditionError("wedge property needs degree >= 3")
    ring = ccw_order_around(v, list(nbrs), rm.ps)
    k = len(ring)
    for i, vi in enumerate(ring):
        prv = ring[(i - 1) % k]
        nxt = ring[(i + 1) % k]
        da = _dir(rm.ps, v, prv)
        db = _dir(rm.ps, v, nxt)
        dm = _dir(rm.ps, v, vi)
        for u in rm.adjacency[vi]:
            if u == v:
                continue
            du = _dir(rm.ps, v, u)
            if not _inside_cone_through(da, db, dm, du):
                return False
    return True


def _inside_cone_through(da, db, dm, d) -> bool:
    """Membership of d in the cone bounded by rays da, db that contains dm
    (the cone may be reflex)."""
    c = da[0] * db[1] - da[1] * db[0]
    if c == 0:
        raise GeneralPositionError("cone boundary rays are collinear")
    if c < 0:
        da, db = db, da
    inside_convex = lambda x: (da[0] * x[1] - da[1] * x[0]) > 0 and (
        x[0] * db[1] - x[1] * db[0]
    ) > 0
    if inside_convex(dm):
        return inside_convex(d) or same_ray(d, dm)
    # dm sits in the reflex complement
    return not inside_convex(d)


# --- tree file format: `root <id>` then one `u v` edge per line ---

def format_tree(edges: Sequence[Segment], root: int) -> str:
    lines = [f"root {root}"] + [f"{e.a} {e.b}" for e in sorted(edges)]
    return "\n".join(lines) + "\n"


def parse_tree(text: str) -> tuple[list[Segment], int]:
    root: int | None = None
    edges: list[Segment] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "root":
            if root is not None:
                raise UsageError(f"line {lineno}: duplicate root line")
            root = int(parts[1])
        elif len(parts) == 2:
            edges.append(Segment(int(parts[0]), int(parts[1])))
        else:
            raise UsageError(f"line {lineno}: expected `root <id>` or `u v`")
    if root is None:
        raise UsageError("missing `root <id>` line")
    return edges, root
