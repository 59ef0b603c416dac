"""Two edge-disjoint plane spanning trees with bounded bottleneck.

Two stages: the root-edge coloring of the EMST rooted at a leaf, each
vertex's parent edge in one color and its grandparent edge in the other
(the two trees share exactly the root edge), with the four recolorings
that swap a side of the root edge; and the two full constructions that
remove the shared edge: one around a vertex whose incident-edge gaps are
all below pi (ratio 2), one around a four-vertex path when every vertex has
a gap above pi (ratio 3, with at most one edge above ratio 2).  Each
per-vertex question they ask (is a gap above pi, which neighbors bound it,
which neighbor follows which) is read off one ring scan of that vertex,
`_ring`.  One breadth-first pass over the MST adjacency,
`_subtree_contribution`, states the coloring: `construction1` runs it from
the root's neighbor, and the full constructions run it on each hanging
subtree.  `build_two_disjoint_trees` computes the MST adjacency once, from
the EMST keys the point set keeps (`mst.emst_adjacency`), and passes it to
each of its four stages, which all take `(ps, adj, ...)`:
`find_flat_vertex`, then `disjoint_trees_flat` or `select_P` and
`disjoint_trees_pointed`.

Inside a construction every edge is its int key a*n + b with a < b, the
form the EMST keeps: the subtree passes emit keys and `_Assembler` holds
them.  Each edge becomes a `Segment` once, in bulk (`mst.segments`), when
`_Assembler.finish` hands the pair to `verify_layers` and `TwoTrees`.

Every construction ends with one `verify_layers` call on the caller's
point set, the check the CLI's `verify` runs, against the `Guarantee` of a
two-tree file: plane spanning trees of n - 1 edges, the shared edges and
the length bound.  The first property the report breaks raises
InternalAssertionError with a reproducer payload: a crossing at the
assembly stage that added the later edge of the pair (the case analysis is
the likeliest defect site, so it fails loud), anything else at the
construction's final stage.  In case 1 blue is checked with the three-hop
edge v3v0 in it; only when every blue crossing involves v3v0 is that edge
repaired, and the pair verified again.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .errors import (
    GeneralPositionError,
    InternalAssertionError,
    PreconditionError,
)
from .geometry import (
    PointSet,
    Segment,
    angular_order,
    convex_hull,
    id_strictly_inside_polygon,
)
# build_emst is unused here; the import stays while perfbench/test_perfbench.py
# asserts this binding (test_originals_restored_and_every_binding_wrapped),
# until ROADMAP item 7
from .mst import adjacency, build_emst, emst_adjacency, segments  # noqa: F401
from .verify import Guarantee, verify_layers


class Recoloring(Enum):
    ORIGINAL = "original"
    INVERTED = "inverted"
    MINUS_INVERTED = "minus-inverted"
    PLUS_INVERTED = "plus-inverted"


@dataclass(frozen=True)
class TwoTrees:
    """A red and a blue spanning tree over one point set.

    `shared` is the unique common edge for the root-edge construction and
    None for the fully disjoint constructions.  Ratios are measured against
    the bottleneck of the fixed MST of the same point set; `bound` records
    the guarantee the producing construction promises (2 or 3).
    """

    red: tuple[Segment, ...]
    blue: tuple[Segment, ...]
    shared: Segment | None
    max_ratio_red: float
    max_ratio_blue: float
    bound: int

    def layers(self) -> list[list[Segment]]:
        return [list(self.red), list(self.blue)]

    def to_json_dict(self) -> dict:
        return {
            "kind": "two-tree",
            "k": 2,
            "red": list(map(list, self.red)),
            "blue": list(map(list, self.blue)),
            "shared": list(self.shared.as_pair()) if self.shared else None,
            "ratios": {"red": self.max_ratio_red, "blue": self.max_ratio_blue},
            "bound": self.bound,
        }


def construction1(ps: PointSet, root: int, variant: Recoloring) -> TwoTrees:
    """The root-edge construction on the EMST of `ps`, rooted at the leaf
    `root`: every other vertex puts its parent edge in one color and its
    grandparent edge in the other by the parity rule, each side of the
    directed root edge swapped as `variant` says, and the root edge is in
    both.  Both trees are plane and spanning and share exactly the root
    edge, as a final `verify_layers` checks.  The colors are the build's own
    subtree pass, `_subtree_contribution`, from the root's one neighbor."""
    adj = emst_adjacency(ps)
    if root not in ps.ids:
        raise PreconditionError(f"root {root} not in vertex set")
    degree = len(adj.get(root, ()))
    if degree != 1:
        raise PreconditionError(f"root {root} has degree {degree}, not a leaf")
    s = adj[root][0]
    asm = _Assembler(ps, f"root-edge construction at {root}")
    asm.red, asm.blue = _subtree_contribution(ps, adj, s, root, variant, {root})
    rs = _key(len(ps), root, s)
    asm.red.append(rs)
    asm.blue.append(rs)  # the one shared edge the guarantee allows
    return asm.finish(ps, Guarantee.two_tree(2, Segment(root, s)), "construction1", 2)


def _key(n: int, a: int, b: int) -> int:
    """The key of the edge a-b (a != b): a*n + b with the smaller id as a."""
    return a * n + b if a < b else b * n + a


def _component(adj: dict[int, list[int]], start: int) -> set[int]:
    """The vertices reachable from `start` along `adj`, found breadth first."""
    seen = {start}
    order = [start]
    for v in order:  # the loop also visits the vertices appended below
        for w in adj.get(v, ()):
            if w not in seen:
                seen.add(w)
                order.append(w)
    return seen


# --- gap analysis -----------------------------------------------------------


def _ring(ps: PointSet, v: int, nbrs: Sequence[int]) -> tuple[list[int], int | None]:
    """The neighbors of v in ccw order, and the index i of the gap above pi,
    the one from ring[i] ccw to ring[i + 1], or None when every gap is below
    pi.  The gaps sum to 2pi, so at most one is above pi; a single neighbor
    leaves one gap of 2pi.

    The neighbors' grid offsets from v are taken once: `angular_order`
    sorts them, and a gap is above pi when the cross product of its two
    offsets is negative.  A zero cross product, two neighbors on one ray or
    an exact-pi gap, violates general position."""
    if len(nbrs) == 1:
        return list(nbrs), 0
    offsets = ps.offsets(nbrs, *ps.scaled(v), ps.scale)
    order = angular_order(offsets)
    ring = [nbrs[k] for k in order]
    dirs = [offsets[k] for k in order]
    big = None
    for i, ((ax, ay), (bx, by)) in enumerate(zip(dirs, dirs[1:] + dirs[:1])):
        c = ax * by - ay * bx
        if c == 0:
            raise GeneralPositionError(
                f"neighbors {ring[i]} and {ring[(i + 1) % len(ring)]} of {v} are collinear with it"
            )
        if c < 0:
            big = i
    return ring, big


def find_flat_vertex(ps: PointSet, adj: dict[int, list[int]]) -> int | None:
    """Smallest-id vertex of the MST adjacency `adj` whose consecutive
    incident-edge gaps are all below pi, or None when every vertex has a gap
    above pi."""
    for v in sorted(adj):
        # one or two incident edges always leave a gap >= pi
        if len(adj[v]) >= 3 and _ring(ps, v, adj[v])[1] is None:
            return v
    return None


# --- assembly with planarity asserts ----------------------------------------


class _Assembler:
    """The red and blue edges of a construction as keys a*n + b (a < b), in
    insertion order, with the stage that added each."""

    def __init__(self, ps: PointSet, label: str):
        self.ps = ps
        self.label = label
        self.red: list[int] = []
        self.blue: list[int] = []
        # blue edge whose crossings are repaired after assembly (v3v0)
        self.deferred: int | None = None
        # the stage that added each edge; a crossing fails at its later edge's
        self._stage: dict[int, str] = {}

    def add(self, color: str, new_edges: Iterable[int], stage: str) -> None:
        edges = sorted(new_edges)
        (self.red if color == "red" else self.blue).extend(edges)
        self._stage.update(dict.fromkeys(edges, stage))

    def _layers(self) -> list[list[Segment]]:
        """Red and blue as `Segment` lists, in insertion order."""
        n = len(self.ps)
        return [segments(self.red, n), segments(self.blue, n)]

    def finish(self, ps: PointSet, guarantee: Guarantee, stage: str, bound: int,
               pv: dict[int, int] | None = None) -> TwoTrees:
        """The pair as TwoTrees, sharing `guarantee.shared`, once
        `verify_layers` on the caller's point set `ps` finds that it keeps
        `guarantee`.  When the deferred edge is in every blue crossing, it is
        repaired along the path `pv` and the pair verified again.

        A crossing fails where an edge-by-edge check in insertion order would
        have met it first: the pair whose later edge was added earliest, then
        that edge's earliest partner, at the later edge's stage (`stage` for
        an edge added outside `add`); the deferred edge's own crossings are
        left to its repair.  Any other breach fails at `stage`.  The
        message, the stage and the dump all read the `Segment` lists that
        were verified."""
        n = len(ps)
        layers = self._layers()
        report = verify_layers(layers, ps)
        deferred = None if self.deferred is None else divmod(self.deferred, n)
        crossed = report.per_layer[1].crossings
        if deferred is not None and crossed and all(deferred in p for p in crossed):
            _fix_three_hop_edge(self, self.ps, pv)
            deferred = None
            layers = self._layers()
            report = verify_layers(layers, ps)
        breach = report.breach(guarantee)
        if breach is not None:
            prop, j, message = breach
            if prop == "planarity":
                edges = layers[j]
                order = {e: i for i, e in enumerate(edges)}
                later, earlier = min((order[b], order[a]) for a, b in report.per_layer[j].crossings
                                     if deferred not in (a, b))
                e, f = edges[later], edges[earlier]
                message = f"{('red', 'blue')[j]} edges {e} and {f} cross"
                stage = self._stage.get(e[0] * n + e[1], stage)
            self._fail(stage, message, layers)
        red, blue = (l.ratio for l in report.per_layer)
        return TwoTrees(tuple(sorted(layers[0])), tuple(sorted(layers[1])), guarantee.shared,
                        red, blue, bound)

    def _fail(self, stage: str, message: str, layers: list[list[Segment]]) -> None:
        red, blue = layers
        raise InternalAssertionError(
            stage,
            f"{self.label}: {message}",
            _dump_payload(self.ps, red=red, blue=blue),
        )


def _dump_payload(ps: PointSet, **edge_sets) -> dict:
    payload = {"points": ps.to_text()}
    for name, edges in edge_sets.items():
        payload[name] = sorted(e.as_pair() for e in edges)
    return payload


def _subtree_contribution(
    ps: PointSet,
    mst_adj: dict[int, list[int]],
    anchor: int,
    root: int,
    variant: Recoloring,
    blocks: set[int],
) -> tuple[list[int], list[int]]:
    """The sorted red and blue edge keys that the component of `anchor`, cut at
    `blocks` (which hold `root`), adds when rooted at `root`: the root-edge
    coloring with the side inversion `variant`, less the doubled root edge.

    One breadth-first pass, level by level: a vertex y reached from x emits
    its parent edge yx and grandparent edge y parent(x).  The parity rule
    colors them: at an odd level the parent edge is red and the grandparent
    edge blue, at an even level the opposite, and a swapped side inverts
    both.  A one-sided inversion reads each child's side once, in sorted
    order, so a collinear child fails; ORIGINAL reads no side, and neither
    does INVERTED, which is ORIGINAL with red and blue exchanged."""
    kids = [w for w in mst_adj[anchor] if w not in blocks]
    if variant in (Recoloring.ORIGINAL, Recoloring.INVERTED):
        groups = [(kids, variant is Recoloring.INVERTED)]
    else:
        minus, plus = [], []
        for w in sorted(kids):
            # the side rule: w hangs on the minus side of the directed root
            # edge root->anchor when root, anchor, w turn clockwise, which is
            # when the clockwise angle at anchor from root to w is above pi
            (plus if _cw_angle_below_pi(ps, anchor, root, w) else minus).append(w)
        groups = [(minus, variant is Recoloring.MINUS_INVERTED),
                  (plus, variant is Recoloring.PLUS_INVERTED)]
    n = len(ps)
    red, blue = [], []
    for group, swapped in groups:
        level = 2  # the anchor is at level 1, its children below it
        layer = [(w, anchor, root) for w in group]  # (vertex, parent, grandparent)
        while layer:
            pe, ge = (red, blue) if (level % 2 == 1) != swapped else (blue, red)
            below = []
            for y, x, g in layer:
                pe.append(y * n + x if y < x else x * n + y)
                ge.append(y * n + g if y < g else g * n + y)
                for z in mst_adj[y]:
                    if z != x and z not in blocks:
                        below.append((z, y, x))
            layer = below
            level += 1
    return sorted(red), sorted(blue)


def disjoint_trees_flat(ps: PointSet, adj: dict[int, list[int]], v: int) -> TwoTrees:
    """Disjoint pair around a vertex v of the MST adjacency `adj` with no
    gap above pi: spoke/hull base trees on the neighbors of v, plus
    recolored subtree constructions."""
    nbrs = adj.get(v, [])
    if len(nbrs) < 3:
        raise PreconditionError(f"vertex {v} has degree {len(nbrs)} < 3")
    ring, big = _ring(ps, v, nbrs)
    if big is not None:
        raise PreconditionError(f"vertex {v} has a gap above pi")
    start = ring.index(min(ring))
    ring = ring[start:] + ring[:start]  # v1 = smallest-id neighbor, ccw labels
    k = len(ring)

    n = len(ps)
    asm = _Assembler(ps, f"flat construction at {v}")
    hull_edges = [_key(n, ring[i], ring[(i + 1) % k]) for i in range(k)]
    v1v2 = hull_edges[0]
    asm.add("red", [_key(n, v, ring[i]) for i in range(1, k)] + [v1v2], "flat-base")
    asm.add("blue", hull_edges[1:] + [_key(n, v, ring[0])], "flat-base")

    variants = [Recoloring.PLUS_INVERTED, Recoloring.MINUS_INVERTED] + [Recoloring.ORIGINAL] * k
    for i, (vi, variant) in enumerate(zip(ring, variants)):
        red, blue = _subtree_contribution(ps, adj, vi, v, variant, blocks={v})
        asm.add("red", red, f"flat-subtree-{i + 1}")
        asm.add("blue", blue, f"flat-subtree-{i + 1}")

    return asm.finish(ps, Guarantee.two_tree(2, None), "flat-final", 2)


# --- the all-pointed construction -------------------------------------------


@dataclass(frozen=True)
class PCase:
    """The selected four-vertex path and its geometric case tag.

    `mirrored` records that the point set was reflected to reach the
    canonical orientation; the construction re-runs on the reflected copy.
    """

    v3: int
    v2: int
    v1: int
    v0: int
    tag: str
    mirrored: bool


class _WlogViolation(Exception):
    """Selection ran against the canonical orientation; mirror and retry."""


def _cw_angle_below_pi(ps: PointSet, apex: int, frm: int, to: int) -> bool:
    """Clockwise angle from ray apex->frm to ray apex->to below pi: the
    cross product of the two rays' grid offsets is negative."""
    (px, py), (ax, ay), (bx, by) = ps.scaled(apex), ps.scaled(frm), ps.scaled(to)
    c = (ax - px) * (by - py) - (ay - py) * (bx - px)
    if c == 0:
        raise GeneralPositionError(f"{frm}, {apex}, {to} are collinear")
    return c < 0


def select_P(ps: PointSet, adj: dict[int, list[int]]) -> PCase:
    """Choose the path v3,v2,v1,v0 of the MST adjacency `adj` and its case
    tag for the all-pointed construction, mirroring the point set when the
    canonical clockwise conventions require it."""
    if len(ps) < 4:
        raise PreconditionError("the all-pointed construction needs n >= 4")
    try:
        v3, v2, v1, v0, tag = _select_oriented(ps, adj)
        return PCase(v3, v2, v1, v0, tag, mirrored=False)
    except _WlogViolation:
        pass
    try:
        v3, v2, v1, v0, tag = _select_oriented(ps.reflected(), adj)
        return PCase(v3, v2, v1, v0, tag, mirrored=True)
    except _WlogViolation:
        # mirroring must satisfy the clockwise conventions; reaching this is a bug
        raise InternalAssertionError(
            "select-p", "both orientations violate the clockwise conventions",
            _dump_payload(ps),
        )


def _select_oriented(ps: PointSet, adj: dict[int, list[int]]):
    leaves = sorted(u for u, ns in adj.items() if len(ns) == 1)
    if not leaves:
        raise InternalAssertionError("select-p", "tree without leaves")
    v3 = leaves[0]
    v2 = adj[v3][0]
    ring2, i2 = _ring(ps, v2, adj[v2])
    if i2 is None:
        raise PreconditionError(f"vertex {v2} has no gap above pi")
    big2 = {ring2[i2], ring2[(i2 + 1) % len(ring2)]}
    cw_of_v3 = ring2[ring2.index(v3) - 1]  # v3's clockwise successor at v2
    children2 = sorted(w for w in adj[v2] if w != v3)
    if not children2:
        raise PreconditionError("n >= 4 expected")
    C = [c for c in children2 if {v3, c} != big2]

    single_child = len(children2) == 1
    non_leaves = [c for c in C if len(adj[c]) > 1]
    if single_child or non_leaves:
        v1 = children2[0] if single_child else non_leaves[0]
        # at a degree-2 v2 the clockwise successor of v3 is its one child
        if cw_of_v3 != v1 or not _cw_angle_below_pi(ps, v2, v3, v1):
            raise _WlogViolation
        ring1, i1 = _ring(ps, v1, adj[v1])
        if i1 is None:
            raise PreconditionError(f"vertex {v1} has no gap above pi")
        big1 = {ring1[i1], ring1[(i1 + 1) % len(ring1)]}
        v0 = _choose_v0(adj, v1, v2, ring1, big1)
        t1 = v3 in big2
        t2 = _cw_angle_below_pi(ps, v1, v2, v0)
        if t2:
            tag = "1a" if t1 else "1d"
        else:
            t3 = v2 in big1
            tag = ("1b" if t3 else "1c") if t1 else ("1e" if t3 else "1f")
        return v3, v2, v1, v0, tag

    # all candidate children are leaves
    if len(children2) != 2:
        raise InternalAssertionError(
            "select-p", f"leaf-only candidates but degree {len(adj[v2])} at {v2}"
        )
    if cw_of_v3 not in C:
        raise _WlogViolation
    v1 = cw_of_v3
    v0 = next(c for c in children2 if c != v1)
    if _cw_angle_below_pi(ps, v2, v1, v0):
        if v3 not in big2:
            raise InternalAssertionError(
                "select-p", "case 2a tag contradicts the gap at v2"
            )
        return v3, v2, v1, v0, "2a"
    if len(ps) != 4:
        raise InternalAssertionError("select-p", "case 2b with n != 4")
    return v3, v2, v1, v0, "2b"


def _choose_v0(adj, v1: int, v2: int, ring1: list[int], big1: set[int]) -> int:
    """v1's child that serves as v0, given v1's ccw ring and the two
    neighbors bounding its gap above pi."""
    children1 = sorted(w for w in adj[v1] if w != v2)
    if not children1:
        raise InternalAssertionError("select-p", f"{v1} has no child to serve as v0")
    if len(children1) == 1:
        return children1[0]
    eligible = [c for c in children1 if {v2, c} != big1]
    if not eligible:
        raise InternalAssertionError("select-p", f"no eligible v0 under {v1}")
    if len(eligible) == 1:
        return eligible[0]
    return ring1[(ring1.index(v2) + 1) % len(ring1)]  # v2's ccw successor at v1


# Base colorings of the complete graph on P by hull layout, reconstructed
# from the proof's constraints: both colorings split the crossing diagonal
# pair, the blue tree carries the three-hop edge v3v0 in case 1, and the
# edges that subtree attachments may cross end up in the opposite color.
_BASE_COLORINGS: dict[str, tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]] = {
    # convex layout with hull order v3,v2,v1,v0 (diagonals v3v1 x v2v0)
    "v3 v2 v1 v0": (((3, 2), (1, 0), (3, 1)), ((2, 1), (2, 0), (3, 0))),
    # hull order v3,v2,v0,v1 (diagonals v2v1 x v3v0): red keeps the tree path
    "v3 v2 v0 v1": (((3, 2), (2, 1), (1, 0)), ((2, 0), (3, 1), (3, 0))),
    # star cases: every edge is a square-graph edge, no replacement needed
    "2a": (((2, 3), (1, 0), (3, 0)), ((2, 1), (2, 0), (3, 1))),
    "2b": (((2, 3), (2, 0), (3, 1)), ((2, 1), (3, 0), (1, 0))),
}


def _hull_layout(tag: str) -> str:
    """The `_BASE_COLORINGS` key of a case tag: case 1 splits on whether the
    clockwise angle at v1 from v2 to v0 is below pi (1a, 1d); each star case
    is its own."""
    if tag in ("1a", "1d"):
        return "v3 v2 v1 v0"
    return "v3 v2 v0 v1" if tag.startswith("1") else tag

# Subtree table per case tag: (anchor index, root index, coloring variant).
# T0 hangs below v0, T1 beside v1, T2 beside v2, each cut at the rest of P;
# roots and colorings follow the proof's per-case prescription.  In case 2b
# n == 4, so the base coloring is already complete.
_SUBTREES: dict[str, list[tuple[int, int, Recoloring]]] = {
    "1a": [(0, 1, Recoloring.ORIGINAL), (1, 0, Recoloring.INVERTED), (2, 1, Recoloring.ORIGINAL)],
    "1b": [(0, 1, Recoloring.ORIGINAL), (1, 0, Recoloring.INVERTED), (2, 1, Recoloring.ORIGINAL)],
    "1c": [(0, 1, Recoloring.ORIGINAL), (1, 2, Recoloring.ORIGINAL), (2, 1, Recoloring.ORIGINAL)],
    "1d": [(0, 1, Recoloring.ORIGINAL), (1, 0, Recoloring.INVERTED), (2, 3, Recoloring.INVERTED)],
    "1e": [(0, 1, Recoloring.ORIGINAL), (1, 0, Recoloring.INVERTED), (2, 3, Recoloring.INVERTED)],
    "1f": [(0, 1, Recoloring.ORIGINAL), (1, 2, Recoloring.ORIGINAL), (2, 3, Recoloring.INVERTED)],
    "2a": [(0, 2, Recoloring.INVERTED)],
    "2b": [],
}


def disjoint_trees_pointed(ps: PointSet, adj: dict[int, list[int]], pc: PCase) -> TwoTrees:
    """Disjoint pair when every vertex of the MST adjacency `adj` has a gap
    above pi: base coloring of the complete graph on P plus recolored
    subtree constructions, with the three-hop blue edge swapped for a
    hull-path edge when crossed.  The pair is verified on `ps` itself, also
    when `pc` is mirrored."""
    wps = ps.reflected() if pc.mirrored else ps
    pv = {3: pc.v3, 2: pc.v2, 1: pc.v1, 0: pc.v0}

    n = len(ps)
    red_pairs, blue_pairs = _BASE_COLORINGS[_hull_layout(pc.tag)]
    asm = _Assembler(wps, f"pointed construction, case {pc.tag}")
    asm.add("red", [_key(n, pv[a], pv[b]) for a, b in red_pairs], "pointed-base")
    asm.add("blue", [_key(n, pv[a], pv[b]) for a, b in blue_pairs], "pointed-base")

    if pc.tag.startswith("1"):
        asm.deferred = _key(n, pv[3], pv[0])  # repaired by _fix_three_hop_edge
    for i, root_idx, variant in _SUBTREES[pc.tag]:
        rest = {pv[j] for j in pv if j != i}
        red, blue = _subtree_contribution(wps, adj, pv[i], pv[root_idx], variant, rest)
        asm.add("red", red, f"pointed-T{i}")
        asm.add("blue", blue, f"pointed-T{i}")
    # the file records bound 3; case 2 keeps to ratio 2
    guarantee = Guarantee.two_tree(3 if pc.tag.startswith("1") else 2, None)
    return asm.finish(ps, guarantee, "pointed-final", 3, pv=pv)


def _fix_three_hop_edge(asm: _Assembler, ps: PointSet, pv: dict[int, int]) -> None:
    """Replace the blue v3v0 edge, which other blue edges cross, by a
    hull-path edge.  The replacement connects the two components of
    blue - v3v0 and is unique along the hull path through the points inside
    conv(P).  Only case 1 defers v3v0, and `_Assembler.finish` calls this
    once its verify has found v3v0 in every blue crossing."""
    n = len(ps)
    e30 = _key(n, pv[3], pv[0])
    asm.deferred = None
    p_ids = [pv[3], pv[2], pv[1], pv[0]]
    hull = convex_hull(p_ids, ps)
    inside = [
        q
        for q in ps.ids
        if q not in p_ids and id_strictly_inside_polygon(hull, ps, q)
    ]
    if not inside:
        asm._fail("pointed-replace", "v3v0 crossed but conv(P) holds no points", asm._layers())
    rep_hull = convex_hull(inside + [pv[0], pv[3]], ps)
    i0, i3 = rep_hull.index(pv[0]), rep_hull.index(pv[3])
    k = len(rep_hull)
    if (i0 + 1) % k != i3 and (i3 + 1) % k != i0:
        asm._fail("pointed-replace", "v0 and v3 are not hull-adjacent", asm._layers())
    if (i3 + 1) % k == i0:
        i0, i3 = i3, i0
    # now rep_hull[i3] directly follows rep_hull[i0]; the path through the
    # interior points walks the cycle the long way, from i3 back around to i0
    path = [rep_hull[(i3 + t) % k] for t in range(k)]
    side3 = _component(adjacency([f for f in asm.blue if f != e30], n), pv[3])
    joining = [
        _key(n, path[t], path[t + 1])
        for t in range(len(path) - 1)
        if (path[t] in side3) != (path[t + 1] in side3)
    ]
    if len(joining) != 1:
        asm._fail("pointed-replace", f"{len(joining)} hull-path edges join the components",
                  asm._layers())
    # `finish` verifies the pair again with the joining edge in it
    asm.blue.remove(e30)
    asm.add("blue", joining, "pointed-replace")


def build_two_disjoint_trees(ps: PointSet) -> TwoTrees:
    """Two fully edge-disjoint plane spanning trees, ratio <= 2 when some
    vertex has all gaps below pi, else ratio <= 3 with at most one edge above
    ratio 2.  Impossible for n < 4 by edge counting.  Every internal
    assertion raised on the way carries the points in its dump (the point
    set a stage worked on, when it recorded one) and the mode, so that it
    replays through `plane-layers build --mode two-tree`."""
    n = len(ps)
    if n < 4:
        raise PreconditionError(
            f"two disjoint spanning trees need 2(n-1) <= n(n-1)/2 edges; impossible for n={n}"
        )
    adj = emst_adjacency(ps)
    try:
        v = find_flat_vertex(ps, adj)
        if v is not None:
            return disjoint_trees_flat(ps, adj, v)
        return disjoint_trees_pointed(ps, adj, select_P(ps, adj))
    except InternalAssertionError as err:
        err.dump = {"points": ps.to_text(), "mode": "two-tree"} | err.dump
        raise
