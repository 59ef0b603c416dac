import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from plane_layers import centralized
from plane_layers.centralized import (
    Recoloring,
    build_two_disjoint_trees,
    construction1,
    disjoint_trees_flat,
    disjoint_trees_pointed,
    find_flat_vertex,
    select_P,
)
from plane_layers.cli import main
from plane_layers.errors import GeneralPositionError, InternalAssertionError, PreconditionError
from plane_layers.geometry import PointSet, Segment, convex_hull
from plane_layers.mst import adjacency, bottleneck, build_emst, emst_adjacency
from plane_layers.verify import Guarantee, gen_line_instance, verify_layers

import gap_oracle
from conftest import (
    acceptance_uniform_pool,
    count_emst_trees,
    count_mst_computations,
    count_sweeps,
    random_point_set,
)
from predicates import properly_cross
from rational_points import exact_coords
from square_graph import root_at_leaf, root_edge_coloring
from unionfind import UnionFind


def leaf_roots(ps):
    """The leaves of the EMST of ps, in id order."""
    degree = Counter(v for e in build_emst(ps) for v in e)
    return [v for v in ps.ids if degree[v] == 1]


def check_construction1_properties(tt, ps):
    """The three properties: plane spanning trees, ratio <= 2, shared == rs."""
    rep = verify_layers(tt.layers(), ps)
    assert rep.all_plane and rep.all_spanning
    assert rep.duplicate_edges == (tt.shared.as_pair(),)
    be_sq = bottleneck(build_emst(ps), ps).length_sq
    for e in list(tt.red) + list(tt.blue):
        assert ps.seg_len_sq(e) <= 4 * be_sq


def swapped_edges(tt, base):
    """The edges that tt colors otherwise than base."""
    return (set(tt.red) - set(base.red)) | (set(tt.blue) - set(base.blue))


def test_construction1_three_point_path():
    ps = PointSet([(0, 0), (1, 0), (2, "0.1")])
    tt = construction1(ps, 0, Recoloring.ORIGINAL)
    assert set(tt.red) == {Segment(0, 1), Segment(0, 2)}
    assert set(tt.blue) == {Segment(0, 1), Segment(1, 2)}
    assert tt.shared == Segment(0, 1)


def test_construction1_two_points():
    ps = PointSet([(0, 0), (1, 1)])
    tt = construction1(ps, 0, Recoloring.ORIGINAL)
    assert set(tt.red) == set(tt.blue) == {Segment(0, 1)}
    assert tt.shared == Segment(0, 1)


def test_construction1_properties_random(rng):
    for _ in range(50):
        ps = random_point_set(rng, rng.randint(4, 40))
        root = leaf_roots(ps)[0]
        tt = construction1(ps, root, Recoloring.ORIGINAL)
        check_construction1_properties(tt, ps)
        # every edge joins vertices of different levels
        rm = root_at_leaf(build_emst(ps), ps, root)
        for e in list(tt.red) + list(tt.blue):
            assert rm.level[e.a] != rm.level[e.b]


def test_construction1_rejects_a_root_that_is_no_leaf():
    ps = PointSet([(0, 0), (1, 0), (-1, "0.1"), (0, 1)])  # a star around 0
    with pytest.raises(PreconditionError, match=r"^root 0 has degree 3, not a leaf$"):
        construction1(ps, 0, Recoloring.ORIGINAL)
    for root in (-1, 4):
        with pytest.raises(PreconditionError, match=rf"^root {root} not in vertex set$"):
            construction1(ps, root, Recoloring.ORIGINAL)
    with pytest.raises(PreconditionError, match=r"^root 0 has degree 0, not a leaf$"):
        construction1(PointSet([(0, 0)]), 0, Recoloring.ORIGINAL)


def test_construction1_one_sided_variants():
    # the chain bends clockwise of the r->s ray: everything below s is minus
    ps = PointSet([(0, 0), (1, 0), (2, "-0.3"), (3, "-0.8")])
    base = construction1(ps, 0, Recoloring.ORIGINAL)
    below = (set(base.red) | set(base.blue)) - {base.shared}
    assert swapped_edges(construction1(ps, 0, Recoloring.PLUS_INVERTED), base) == set()
    assert swapped_edges(construction1(ps, 0, Recoloring.MINUS_INVERTED), base) == below
    assert swapped_edges(construction1(ps, 0, Recoloring.INVERTED), base) == below


def test_construction1_two_branch_variants():
    # s has one branch on each side of the r->s line: {4, 5} below, {2, 3} above
    ps = PointSet([(0, 0), (1, 0), (2, 1), (3, 2), (2, -1), (3, -2)])
    base = construction1(ps, 0, Recoloring.ORIGINAL)
    minus = swapped_edges(construction1(ps, 0, Recoloring.MINUS_INVERTED), base)
    plus = swapped_edges(construction1(ps, 0, Recoloring.PLUS_INVERTED), base)
    assert minus == {e for e in set(base.red) | set(base.blue) if {4, 5} & set(e)}
    assert plus == {e for e in set(base.red) | set(base.blue) if {2, 3} & set(e)}


def test_construction1_sides_partition_the_swap_random(rng):
    """The minus and plus inversions swap disjoint edge sets, which together
    are every edge but the root edge: the edges the full inversion swaps."""
    for _ in range(25):
        ps = random_point_set(rng, rng.randint(4, 30))
        root = leaf_roots(ps)[0]
        base = construction1(ps, root, Recoloring.ORIGINAL)
        minus, plus, both = (swapped_edges(construction1(ps, root, v), base) for v in (
            Recoloring.MINUS_INVERTED, Recoloring.PLUS_INVERTED, Recoloring.INVERTED))
        assert not minus & plus
        assert minus | plus == both == (set(base.red) | set(base.blue)) - {base.shared}


def test_construction1_variants_identity_and_swap(rng):
    ps = random_point_set(rng, 15)
    root = leaf_roots(ps)[0]
    tt = construction1(ps, root, Recoloring.ORIGINAL)
    inv = construction1(ps, root, Recoloring.INVERTED)
    assert set(inv.red) == set(tt.blue) and set(inv.blue) == set(tt.red)


def test_construction1_all_variants_keep_guarantees(rng):
    for _ in range(20):
        ps = random_point_set(rng, rng.randint(4, 30))
        root = leaf_roots(ps)[0]
        base = construction1(ps, root, Recoloring.ORIGINAL)
        pool = set(base.red) | set(base.blue)
        for variant in Recoloring:
            tt = construction1(ps, root, variant)
            check_construction1_properties(tt, ps)
            assert set(tt.red) | set(tt.blue) == pool  # recoloring only recolors


def test_construction1_matches_the_rooted_tree_coloring():
    """The breadth-first pass colors every edge as the coloring read off the
    levels of the rooted tree does, from two leaf roots of each set and with
    all four variants."""
    rng = random.Random(1919)
    both_sides = 0
    for _ in range(500):
        ps = random_point_set(rng, rng.randint(2, 40))
        edges = build_emst(ps)
        roots = leaf_roots(ps)
        for root in (roots[0], roots[-1]):
            rm = root_at_leaf(edges, ps, root)
            colorings = set()
            for variant in Recoloring:
                tt = construction1(ps, root, variant)
                assert (set(tt.red), set(tt.blue)) == root_edge_coloring(rm, variant)
                colorings.add((tt.red, tt.blue))
            both_sides += len(colorings) == 4
    assert both_sides > 250  # 310 of the 1000 roots: s has branches on both sides


def test_construction1_original_and_inverted_read_no_side():
    # the child 2 of s = 1 lies on the line of the root edge 0->1; INVERTED
    # is ORIGINAL with red and blue exchanged, so only a one-sided inversion
    # reads its side
    ps = PointSet([(0, 0), (1, 0), (2, 0), (2, 1)])
    plain = [(0, 1), (0, 2), (2, 3)], [(0, 1), (1, 2), (1, 3)]
    for variant, (red, blue) in ((Recoloring.ORIGINAL, plain),
                                 (Recoloring.INVERTED, plain[::-1])):
        tt = construction1(ps, 0, variant)
        assert ([e.as_pair() for e in tt.red], [e.as_pair() for e in tt.blue]) == (red, blue)
    for variant in (Recoloring.MINUS_INVERTED, Recoloring.PLUS_INVERTED):
        with pytest.raises(GeneralPositionError, match=r"^0, 1, 2 are collinear$"):
            construction1(ps, 0, variant)


def test_find_flat_vertex_plus_shape():
    ps = PointSet([(0, 0), (1, 0), (0, 1), (-1, "0.1"), ("0.1", -1)])
    assert find_flat_vertex(ps, emst_adjacency(ps)) == 0


def test_find_flat_vertex_absent_on_line():
    ps = gen_line_instance(7, "0.001")
    assert find_flat_vertex(ps, emst_adjacency(ps)) is None


def test_find_flat_vertex_gaps_below_pi(rng):
    """The vertex found is the smallest-id one of degree >= 3 whose gaps the
    oracle finds all below pi."""
    found = 0
    for _ in range(20):
        ps = random_point_set(rng, 40)
        adj = emst_adjacency(ps)
        flat = [
            v for v in sorted(adj)
            if len(adj[v]) >= 3
            and all(s > 0 for s in gap_oracle.gap_signs(ps, v, gap_oracle.ccw_ring(ps, v, adj[v])))
        ]
        v = find_flat_vertex(ps, emst_adjacency(ps))
        assert v == (flat[0] if flat else None)
        found += v is not None
    assert found > 0


def test_flat_vertex_neighbors_are_in_convex_position():
    """The paper's lemma behind the flat base trees, which the build no
    longer checks: the MST neighbours of a vertex with no gap above pi are
    the vertices of their convex hull, in the ccw order of `_ring`.  Checked
    at every such vertex, the one `find_flat_vertex` returns first."""
    rng = random.Random(9)
    pool = acceptance_uniform_pool() + [random_point_set(rng, rng.randint(100, 400))
                                        for _ in range(20)]
    returned = wide = 0
    for ps in pool:
        adj = emst_adjacency(ps)
        flat = [v for v in sorted(adj)
                if len(adj[v]) >= 3 and centralized._ring(ps, v, adj[v])[1] is None]
        assert find_flat_vertex(ps, adj) == (flat[0] if flat else None)
        returned += bool(flat)
        for v in flat:
            ring = centralized._ring(ps, v, adj[v])[0]
            hull = convex_hull(ring, ps)
            start = hull.index(ring[0]) if ring[0] in hull else 0
            assert hull[start:] + hull[:start] == ring, (exact_coords(ps), v)
            wide += len(ring) > 3  # three neighbours around v always are
    assert returned > 450 and wide > 120


def _oracle_ring(ps, v, nbrs):
    """`_ring` from the oracle's ring and gap signs."""
    ring = gap_oracle.ccw_ring(ps, v, nbrs)
    if len(ring) == 1:
        return ring, 0
    big = [i for i, s in enumerate(gap_oracle.gap_signs(ps, v, ring)) if s < 0]
    assert len(big) <= 1
    return ring, (big[0] if big else None)


def _outcome(f, *args):
    try:
        return f(*args)
    except GeneralPositionError:
        return GeneralPositionError


def test_ring_matches_oracle(rng):
    """`_ring` and the pair read off it agree with the helper-by-helper
    oracle on random stars of degree 1-8, on both turns of degree 2 and on
    neighbors on one ray or on opposite rays, which raise."""
    stars = [
        [(0, 0), (3, 1), (-1, 2)],  # degree 2, the gap from the first ray below pi
        [(0, 0), (1, 1), (1, -1)],  # degree 2, the gap from the first ray above pi
        [(0, 0), (1, 1), (2, 2)],  # one ray
        [(0, 0), (1, 1), (-3, -3)],  # opposite rays
        [(0, 0), (1, 0), (0, 1), (-2, 0)],  # opposite rays among three
        [(0, 0), (2, 1), (-1, 1), (4, 2)],  # one ray among three
    ]
    for _ in range(1500):
        extent = rng.choice([3, 1000])
        pts = {(0, 0)}
        size = rng.randint(2, 9)
        while len(pts) < size:
            pts.add((rng.randint(-extent, extent), rng.randint(-extent, extent)))
        cx, cy = rng.randint(-50, 50), rng.randint(-50, 50)
        pts.discard((0, 0))
        stars.append([(cx, cy)] + [(cx + x, cy + y) for x, y in sorted(pts)])
    seen = {"raise": 0, "flat": 0, "deg1": 0, "deg2-first-below": 0, "deg2-first-above": 0,
            "pointed": 0}
    for coords in stars:
        ps = PointSet(coords)
        nbrs = list(range(1, len(coords)))
        rng.shuffle(nbrs)
        expected = _outcome(_oracle_ring, ps, 0, nbrs)
        assert _outcome(centralized._ring, ps, 0, nbrs) == expected
        assert _outcome(gap_oracle.ring_big_angle_pair, ps, 0, nbrs) == _outcome(
            gap_oracle.big_angle_pair, ps, 0, nbrs
        )
        if expected is GeneralPositionError:
            seen["raise"] += 1
        elif len(nbrs) == 1:
            seen["deg1"] += 1
        elif len(nbrs) == 2:
            seen["deg2-first-below" if expected[1] == 1 else "deg2-first-above"] += 1
        else:
            seen["flat" if expected[1] is None else "pointed"] += 1
    assert min(seen.values()) > 20, seen


def test_component_matches_unionfind(rng):
    """`_component` is the set a `UnionFind` over the edges joins to the
    start, on random forests."""
    isolated = 0
    for _ in range(500):
        n = rng.randint(1, 30)
        edges = [Segment(v, rng.randrange(v)) for v in range(1, n) if rng.random() < 0.8]
        start = rng.randrange(n)
        uf = UnionFind(range(n))
        for e in edges:
            uf.union(e.a, e.b)
        expected = {u for u in range(n) if uf.connected(u, start)}
        adj = adjacency([a * n + b for a, b in edges], n)
        assert centralized._component(adj, start) == expected
        isolated += expected == {start}
    assert 0 < isolated < 250


def check_disjoint(tt, ps, max_ratio):
    rep = verify_layers(tt.layers(), ps)
    assert rep.all_plane and rep.all_spanning and rep.pairwise_disjoint
    be_sq = bottleneck(build_emst(ps), ps).length_sq
    over2 = 0
    for e in list(tt.red) + list(tt.blue):
        sq = ps.seg_len_sq(e)
        assert sq <= max_ratio * max_ratio * be_sq
        if sq > 4 * be_sq:
            over2 += 1
    assert over2 <= (0 if max_ratio == 2 else 1)


def test_disjoint_flat_star():
    # center with four leaves in convex position: red keeps three spokes plus
    # one hull edge, blue takes the other hull edges plus the remaining spoke
    ps = PointSet([(0, 0), (1, 0), (0, 1), (-1, "0.1"), ("0.1", -1)])
    tt = disjoint_trees_flat(ps, emst_adjacency(ps), 0)
    spokes = {e for e in tt.red if e.touches(0)}
    assert len(spokes) == 3
    assert len([e for e in tt.blue if e.touches(0)]) == 1
    check_disjoint(tt, ps, 2)


def test_disjoint_flat_star_with_chain():
    ps = PointSet(
        [
            (0, 0),
            (1, 0),
            (0, 1),
            (-1, "0.1"),
            ("0.1", -1),
            (-2, "0.4"),
            ("-2.9", "0.6"),
            ("-3.7", "0.9"),
        ]
    )
    edges = build_emst(ps)
    assert Segment(3, 5) in edges  # the chain hangs off a spoke end
    tt = disjoint_trees_flat(ps, emst_adjacency(ps), 0)
    check_disjoint(tt, ps, 2)


def test_disjoint_flat_random(rng):
    done = 0
    while done < 40:
        ps = random_point_set(rng, rng.randint(6, 40))
        v = find_flat_vertex(ps, emst_adjacency(ps))
        if v is None:
            continue
        tt = disjoint_trees_flat(ps, emst_adjacency(ps), v)
        check_disjoint(tt, ps, 2)
        done += 1


def test_disjoint_flat_rejects_pointed_vertex():
    ps = gen_line_instance(6, "0.001")
    with pytest.raises(PreconditionError):
        disjoint_trees_flat(ps, emst_adjacency(ps), 2)


def test_select_p_perturbed_line():
    ps = gen_line_instance(5, "0.001")
    pc = select_P(ps, emst_adjacency(ps))
    assert (pc.v3, pc.v2, pc.v1, pc.v0) == (0, 1, 2, 3)
    assert pc.tag.startswith("1")


def test_select_p_case_2b():
    # degree-3 hub, both non-path children are leaves, gap above pi between them
    ps = PointSet(
        [
            (0, 1),
            (0, 0),
            ("0.9063", "0.4226"),
            ("-0.9063", "0.4226"),
        ]
    )
    edges = build_emst(ps)
    assert len(edges) == 3 and all(e.touches(1) for e in edges)
    pc = select_P(ps, emst_adjacency(ps))
    assert pc.tag == "2b"
    assert pc.v3 == 0 and pc.v2 == 1
    assert {pc.v1, pc.v0} == {2, 3}
    tt = disjoint_trees_pointed(ps, emst_adjacency(ps), pc)
    check_disjoint(tt, ps, 2)


def test_select_p_case_2a():
    # degree-3 hub whose gap above pi is adjacent to the path edge; the
    # non-candidate child continues with a subtree
    ps = PointSet(
        [
            (0, 1),
            (0, 0),
            ("0.9063", "0.4226"),
            ("0.766", "-0.6428"),
            ("1.4", "-1.2"),
        ]
    )
    edges = build_emst(ps)
    assert Segment(3, 4) in edges
    pc = select_P(ps, emst_adjacency(ps))
    assert pc.tag == "2a"
    assert pc.v1 == 2 and pc.v0 == 3
    tt = disjoint_trees_pointed(ps, emst_adjacency(ps), pc)
    check_disjoint(tt, ps, 3)


def test_select_p_tag_predicates_recomputed(rng):
    from plane_layers.centralized import _cw_angle_below_pi

    done = 0
    trials = 0
    while done < 25 and trials < 4000:
        trials += 1
        ps = random_point_set(rng, rng.randint(4, 12))
        if find_flat_vertex(ps, emst_adjacency(ps)) is not None:
            continue
        pc = select_P(ps, emst_adjacency(ps))
        wps = ps.reflected() if pc.mirrored else ps
        adj = emst_adjacency(ps)
        # the canonical conventions hold in the working orientation
        assert _cw_angle_below_pi(wps, pc.v2, pc.v3, pc.v1)
        if pc.tag.startswith("1"):
            t1 = pc.v3 in gap_oracle.ring_big_angle_pair(wps, pc.v2, adj[pc.v2])
            assert t1 == (pc.tag in ("1a", "1b", "1c"))
            t2 = _cw_angle_below_pi(wps, pc.v1, pc.v2, pc.v0)
            assert t2 == (pc.tag in ("1a", "1d"))
        else:
            t2a = _cw_angle_below_pi(wps, pc.v2, pc.v1, pc.v0)
            assert t2a == (pc.tag == "2a")
        done += 1
    assert done == 25


def test_disjoint_pointed_perturbed_lines():
    for n in range(4, 20):
        ps = gen_line_instance(n, "0.001")
        pc = select_P(ps, emst_adjacency(ps))
        tt = disjoint_trees_pointed(ps, emst_adjacency(ps), pc)
        check_disjoint(tt, ps, 3)


# hand-built so a deep blue subtree edge crosses the three-hop blue edge:
# the construction must swap v3v0 for the hull-path edge through the
# interior points
REPAIR_COORDS = [
    ("0", "0"),
    ("1", "-0.22"),
    ("1.0985", "-0.2026"),
    ("1.0811", "-0.1041"),
    ("1.03", "-0.115"),
    ("1.025", "-0.107"),
    ("1.025", "-0.085"),
]


def test_disjoint_pointed_replacement_instance():
    ps = PointSet(REPAIR_COORDS)
    edges = build_emst(ps)
    assert {e.as_pair() for e in edges} == {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)}
    assert find_flat_vertex(ps, emst_adjacency(ps)) is None
    pc = select_P(ps, emst_adjacency(ps))
    assert pc.tag == "1a" and (pc.v3, pc.v2, pc.v1, pc.v0) == (0, 1, 2, 3)
    tt = disjoint_trees_pointed(ps, emst_adjacency(ps), pc)
    all_edges = set(tt.red) | set(tt.blue)
    assert Segment(0, 3) not in all_edges  # v3v0 was replaced
    assert Segment(0, 4) in tt.blue  # by the hull-path edge through X
    check_disjoint(tt, ps, 3)


def _star_key(a, b):
    """The `_Assembler` key a*n + b (a < b) of the edge a-b of the seven
    points of the repair tests below."""
    return a * 7 + b


def test_three_hop_repair_joins_mid_path():
    """The replacement is the one hull-path pair with exactly one end on
    v3's side of blue - v3v0, here the middle pair a-b: v3's side holds
    the first interior point a as well."""
    # v3, v2, v1, v0, then a and b inside conv(P), and c below v3v0
    ps = PointSet([(0, 0), (0, 10), (10, 10), (10, 0), (3, 2), (7, 2), (5, -3)])
    asm = centralized._Assembler(ps, "repair")
    e30 = _star_key(0, 3)
    asm.add("blue", [e30] + [_star_key(a, b) for a, b in ((0, 4), (1, 4), (1, 2), (3, 5),
                                                           (5, 6))],
            "pointed-base")  # 5-6 crosses v3v0
    centralized._fix_three_hop_edge(asm, {3: 0, 2: 1, 1: 2, 0: 3})
    assert e30 not in asm.blue and _star_key(4, 5) in asm.blue


def _repair_star(*extra):
    """The blue edges of the repair test above, v3v0 = 0-3 among them (a
    `finish` given the path defers it), with the edges `extra`, id pairs,
    added at a later stage, beside a plane red spanning tree."""
    ps = PointSet([(0, 0), (0, 10), (10, 10), (10, 0), (3, 2), (7, 2), (5, -3)])
    asm = centralized._Assembler(ps, "sweep")
    asm.add("red", [_star_key(a, b) for a, b in ((0, 1), (0, 6), (3, 6), (2, 3), (2, 5),
                                                 (4, 6))], "pointed-base")
    asm.add("blue", [_star_key(a, b) for a, b in ((0, 3), (0, 4), (1, 4), (1, 2), (3, 5))],
            "pointed-base")
    asm.add("blue", [_star_key(a, b) for a, b in extra], "extra")
    return asm


def test_final_check_repairs_a_crossed_three_hop_edge(monkeypatch):
    """The final verify finds v3v0 in every blue crossing, so it is repaired,
    with no search for its crossers, and the pair verified again: four
    layer sweeps, and the result keeps the guarantee.  A crossing between
    two other blue edges fails at the stage that added its later edge, even
    beside a crossed v3v0, and nothing is repaired."""
    sweeps = count_sweeps(monkeypatch)
    pv = {3: 0, 2: 1, 1: 2, 0: 3}
    guarantee = Guarantee.two_tree(3, shared=None)
    asm = _repair_star((5, 6))  # 5-6 crosses v3v0
    tt = asm.finish(asm.ps, guarantee, "pointed-final", 3, pv=pv)
    assert Segment(0, 3) not in tt.blue and Segment(4, 5) in tt.blue
    assert len(sweeps) == 4
    assert verify_layers(tt.layers(), asm.ps).breach(guarantee) is None
    assert not hasattr(centralized, "properly_cross")

    asm = _repair_star((5, 6), (0, 2))  # 0-2 crosses 1-4
    with pytest.raises(InternalAssertionError) as err:
        asm.finish(asm.ps, guarantee, "pointed-final", 3, pv=pv)
    assert err.value.stage == "extra"
    assert str(err.value).endswith(
        "sweep: blue edges Segment(a=0, b=2) and Segment(a=1, b=4) cross")
    assert _star_key(0, 3) in asm.blue


# One fault per check of `_fix_three_hop_edge` on the repair instance above,
# where case 1a's v3v0 = 0-3 is crossed and conv(P) holds points 4 and 5:
# the module name patched, its stand-in and the check's message.
REPAIR_FAULTS = {
    "nothing-inside": ("id_strictly_inside_polygon", lambda hull, ps, q: False,
                       "v3v0 crossed but conv(P) holds no points"),
    # a hull of 4, 5, v0 and v3 that keeps the interior 5, between v3 and v0
    "apart-on-hull": ("convex_hull", lambda ids, ps: [4, 3, 5, 0] if 5 in ids
                      else convex_hull(ids, ps), "v0 and v3 are not hull-adjacent"),
    "no-joining-edge": ("_component", lambda adj, start: set(),
                        "0 hull-path edges join the components"),
}


@pytest.mark.parametrize("fault", list(REPAIR_FAULTS))
def test_three_hop_repair_dumps_reproduce(monkeypatch, fault):
    """Each check of the three-hop repair raises at `pointed-replace` with
    the points and the mode in its dump, and a build from the dump fails at
    the same stage."""
    name, stand_in, message = REPAIR_FAULTS[fault]
    monkeypatch.setattr(centralized, name, stand_in)
    ps = PointSet(REPAIR_COORDS)
    with pytest.raises(InternalAssertionError) as info:
        build_two_disjoint_trees(ps)
    dump = info.value.dump
    assert info.value.stage == dump["stage"] == "pointed-replace"
    assert str(info.value) == f"[pointed-replace] pointed construction, case 1a: {message}"
    assert dump["mode"] == "two-tree"
    replay = PointSet.from_text(dump["points"])
    assert exact_coords(replay) == exact_coords(ps)
    with pytest.raises(InternalAssertionError) as again:
        build_two_disjoint_trees(replay)
    assert again.value.stage == "pointed-replace"


@pytest.mark.parametrize("n", [4, 40, 200, 501])
def test_case_one_line_build_sweeps_each_tree_once(monkeypatch, n):
    """On the near-line family (case 1b) blue is plane with v3v0 in it, and
    the build decides that in one sweep of each tree, with no repair."""
    ps = gen_line_instance(n, "0.001")
    assert find_flat_vertex(ps, emst_adjacency(ps)) is None
    pc = select_P(ps, emst_adjacency(ps))
    assert pc.tag == "1b"
    sweeps = count_sweeps(monkeypatch)
    tt = build_two_disjoint_trees(ps)
    assert Segment(pc.v3, pc.v0) in tt.blue
    assert sweeps == [n - 1, n - 1]


def test_build_two_disjoint_trees_square():
    ps = PointSet([(0, 0), (1, 0), (1, 1), (0, 1)])
    tt = build_two_disjoint_trees(ps)
    check_disjoint(tt, ps, 3)


def test_build_two_disjoint_trees_small_n_rejected():
    with pytest.raises(PreconditionError):
        build_two_disjoint_trees(PointSet([(0, 0), (1, 0), (0, 1)]))
    with pytest.raises(PreconditionError):
        build_two_disjoint_trees(PointSet([(0, 0), (1, 0)]))


def test_build_two_disjoint_trees_random(rng):
    for _ in range(60):
        ps = random_point_set(rng, rng.randint(4, 48))
        tt = build_two_disjoint_trees(ps)
        check_disjoint(tt, ps, 3)


def test_two_trees_are_equivariant_under_translation_scaling_and_quarter_turns():
    """Exact arithmetic makes the construction depend on the points only up
    to these motions: a rational translation, a positive rational scaling
    and each quarter turn leave the red and blue id lists as they are.  A
    quarter turn reorders the sweep's lexicographic events, so every
    turned build also checks its layers on another event order.  Perturbed
    near-line sets take the pointed branch, the uniform ones the flat."""
    rng = random.Random(20261106)
    branches = Counter()
    for s in range(48):
        n = rng.randint(40, 160)
        ps = gen_line_instance(n, "0.001") if s % 4 == 3 else random_point_set(rng, n)
        trees = build_two_disjoint_trees(ps)
        expected = (trees.red, trees.blue)
        branches[trees.bound] += 1
        pts = exact_coords(ps)
        dx = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 999))
        dy = Fraction(rng.randint(-10**6, 10**6), 7)
        factor = Fraction(rng.randint(1, 10**4), rng.randint(1, 10**4))
        moved = [[(x + dx, y + dy) for x, y in pts], [(x * factor, y * factor) for x, y in pts]]
        turned = pts
        for _ in range(3):
            turned = [(-y, x) for x, y in turned]
            moved.append(turned)
        for coords in moved:
            image = build_two_disjoint_trees(PointSet(coords))
            assert (image.red, image.blue) == expected
    assert branches[2] >= 30 and branches[3] >= 10


@pytest.mark.parametrize("make, bound", [(lambda rng: random_point_set(rng, 90), 2),
                                         (lambda rng: gen_line_instance(40, "0.001"), 3)],
                         ids=["flat", "pointed"])
def test_one_tree_computation_per_build_and_verify(monkeypatch, rng, make, bound):
    """The build and its verify compute the MST once: the build colours the
    join order the point set keeps, with no `Segment` tree built, and the
    verify reads the bottleneck off the same join order."""
    computations = count_mst_computations(monkeypatch)
    emst_trees = count_emst_trees(monkeypatch)
    ps = make(rng)
    trees = build_two_disjoint_trees(ps)
    assert trees.bound == bound
    report = verify_layers(trees.layers(), ps)
    assert report.breach(Guarantee.two_tree(bound, shared=None)) is None
    assert (computations, emst_trees) == ([len(ps)], [])


def test_outputs_stay_in_mst_square(rng):
    """Every output edge joins vertices at tree distance <= 2, except at most
    one distance-3 edge in the pointed case."""
    cases = [random_point_set(rng, rng.randint(4, 30)) for _ in range(10)]
    cases += [gen_line_instance(n, "0.001") for n in (5, 9, 13)]
    for ps in cases:
        edges = build_emst(ps)
        adj = {v: set() for v in ps.ids}
        for e in edges:
            adj[e.a].add(e.b)
            adj[e.b].add(e.a)

        def tree_dist(a, b, cap=4):
            frontier = {a}
            seen = {a}
            for d in range(1, cap + 1):
                frontier = {w for v in frontier for w in adj[v]} - seen
                if b in frontier:
                    return d
                seen |= frontier
            return cap + 1

        tt = build_two_disjoint_trees(ps)
        deep = [
            e for e in list(tt.red) + list(tt.blue) if tree_dist(e.a, e.b) > 2
        ]
        assert len(deep) <= 1
        assert all(tree_dist(e.a, e.b) == 3 for e in deep)


def test_line_family_ratio_bounds():
    """On near-collinear lines the pointed construction approaches the factor
    3 worst case and never exceeds it."""
    for n in (5, 9, 17, 33):
        ps = gen_line_instance(n, "0.001")
        tt = build_two_disjoint_trees(ps)
        worst = max(tt.max_ratio_red, tt.max_ratio_blue)
        assert worst <= 3 + 1e-9
        assert worst >= 2 - 1e-2


# Stage and message the former edge-by-edge check in _Assembler.add gave for
# the same injections: one caught in the stage that adds the crossing edge, one
# only when a later subtree adds the first edge it crosses.
@pytest.mark.parametrize(
    "seed, stage, message",
    [
        (2, "flat-subtree-2", "flat construction at 5: red edges Segment(a=3, b=11) "
         "and Segment(a=5, b=10) cross"),
        (7, "flat-subtree-3", "flat construction at 1: red edges Segment(a=12, b=17) "
         "and Segment(a=14, b=22) cross"),
    ],
)
def test_injected_crossing_names_first_crossing_stage(monkeypatch, seed, stage, message):
    ps = random_point_set(random.Random(seed), 30)
    good = build_two_disjoint_trees(ps)
    used = set(good.red) | set(good.blue)
    by_length = sorted((ps.sdist_sq(a, b), Segment(a, b)) for a, b in combinations(ps.ids, 2))
    inject = next(e for _, e in by_length if e not in used
                  and sum(properly_cross(e, r, ps) for r in good.red) >= 2)
    original = centralized._subtree_contribution
    calls = []

    def with_injection(*args, **kwargs):
        red, blue = original(*args, **kwargs)
        calls.append(None)
        return (red + [inject.a * len(ps) + inject.b] if len(calls) == 2 else red), blue

    monkeypatch.setattr(centralized, "_subtree_contribution", with_injection)
    with pytest.raises(InternalAssertionError) as info:
        build_two_disjoint_trees(ps)
    assert info.value.stage == stage
    assert str(info.value) == f"[{stage}] {message}"


# --- the final self-check, each fault injected into the verified pair ---


def _swap_across_cut(ps, edges, pool):
    """`edges`, a spanning tree, with one edge replaced by the first pair of
    `pool` that joins the two parts its removal leaves: still spanning."""
    for i, e in enumerate(edges):
        uf = UnionFind(ps.ids)
        for f in edges[:i] + edges[i + 1:]:
            uf.union(f.a, f.b)
        for s in pool:
            if s != e and not uf.connected(s.a, s.b):
                return edges[:i] + [s] + edges[i + 1:]
    raise AssertionError("no pool pair joins the parts")


def _fault(kind, ps, red, blue, be_grid, bound):
    """The faulty red list of one injection and the message it must raise.
    Only the planarity fault brings in an edge that crosses red, and only
    the length fault one longer than the bound."""
    n = len(ps)
    pairs = [s for _, s in sorted((ps.sdist_sq(a, b), Segment(a, b))
                                  for a, b in combinations(ps.ids, 2))]

    def plane(s, edges):
        return not any(properly_cross(s, r, ps) for r in edges)

    unused = [s for s in pairs if s not in red and s not in blue]
    fresh = [s for s in unused if plane(s, red)]
    if kind == "planarity":
        cross = next(s for s in unused if not plane(s, red)
                     and ps.sdist_sq(s.a, s.b) <= bound * bound * be_grid)
        partner = next(r for r in red if properly_cross(cross, r, ps))
        return red + [cross], f"red edges {cross} and {partner} cross"
    if kind == "count":
        return red + fresh[:1], f"layer 0 has {n} edges, expected {n - 1}"
    if kind == "spanning":
        uf = UnionFind(ps.ids)
        for f in red[1:]:
            uf.union(f.a, f.b)
        cycle = next(s for s in fresh if uf.connected(s.a, s.b))
        return red[1:] + [cycle], "layer 0 has 2 components"
    if kind == "share":
        faulty = _swap_across_cut(ps, red, [s for s in blue if plane(s, red)])
        (shared,) = set(faulty) - set(red)
        return faulty, f"edge {shared} in layers 0 and 1"
    if kind == "over":
        over = [s for s in unused if ps.sdist_sq(s.a, s.b) > bound * bound * be_grid]
        faulty = _swap_across_cut(ps, red, over)
        (long,) = set(faulty) - set(red)
        return faulty, f"edge {long} in layer 0 exceeds the length limit"
    # "twice": two more edges above twice the bottleneck, none above the bound
    between = [s for s in fresh if 4 * be_grid < ps.sdist_sq(s.a, s.b) <= 9 * be_grid]
    faulty = red
    for _ in range(2):
        faulty = _swap_across_cut(ps, faulty, [s for s in between if plane(s, faulty)])
    over2 = sum(ps.sdist_sq(e.a, e.b) > 4 * be_grid for e in faulty + blue)
    assert over2 >= 2
    return faulty, f"{over2} edges exceed twice the bottleneck"


# With bound 2 the length limit is twice the bottleneck, so the flat branch
# cannot reach the over-twice count without failing the length check first.
# The injected crossing edge was added by no stage, so it fails at the final
# one.
@pytest.mark.parametrize(
    "branch, kind",
    [("flat", k) for k in ("planarity", "count", "spanning", "share", "over")]
    + [("pointed", k) for k in ("planarity", "count", "spanning", "share", "over", "twice")],
)
def test_final_self_check_faults(monkeypatch, branch, kind):
    """One rule, two callers: the build's final verify raises the fault at
    its stage, and `verify_layers` on the same layers fails the guarantee
    of the two-tree file the build would write."""
    if branch == "flat":
        ps = random_point_set(random.Random(2), 30)
        stage, label, bound = "flat-final", "flat construction at 5", 2
    else:
        ps = gen_line_instance(12, "0.001")
        stage, label, bound = "pointed-final", "pointed construction, case 1b", 3
    be = bottleneck(build_emst(ps), ps)
    be_grid = ps.sdist_sq(be.edge.a, be.edge.b)
    injected = []

    def inject_then_verify(layers, ps):
        red, blue = layers
        faulty, message = _fault(kind, ps, red, blue, be_grid, bound)
        red[:] = faulty
        injected.append(([list(red), list(blue)], message))
        return verify_layers(layers, ps)

    monkeypatch.setattr(centralized, "verify_layers", inject_then_verify)
    with pytest.raises(InternalAssertionError) as info:
        build_two_disjoint_trees(ps)
    ((layers, message),) = injected
    assert info.value.stage == stage
    assert str(info.value) == f"[{stage}] {label}: {message}"
    assert verify_layers(layers, ps).breach(Guarantee.two_tree(bound, shared=None)) is not None


def test_two_tree_dump_replays_through_the_cli(monkeypatch, tmp_path):
    """An internal assertion of the two-tree build dumps the points and the
    mode, also one raised without them, as the select-p checks are: here
    the case 2a hub, with every clockwise turn read as above pi, looks like
    case 2b on five points.  A build from the dump through the CLI fails
    with the same dump."""
    ps = PointSet([(0, 1), (0, 0), ("0.9063", "0.4226"), ("0.766", "-0.6428"), ("1.4", "-1.2")])
    monkeypatch.setattr(centralized, "_cw_angle_below_pi", lambda *args: False)
    with pytest.raises(InternalAssertionError) as info:
        build_two_disjoint_trees(ps)
    dump = info.value.dump
    assert str(info.value) == "[select-p] case 2b with n != 4"
    assert (dump["points"], dump["mode"]) == (ps.to_text(), "two-tree")
    points = tmp_path / "points.txt"
    points.write_text(dump["points"])
    monkeypatch.setenv("PLANE_LAYERS_DUMP_DIR", str(tmp_path / "dumps"))
    argv = ["build", str(points), "--mode", dump["mode"], "--out", str(tmp_path / "t.json")]
    assert main(argv) == 5
    (replayed,) = (tmp_path / "dumps").iterdir()
    assert json.loads(replayed.read_text()) == dump

# One pinned instance per hull layout of P: both layouts of case 1 and the
# two star cases.  Their outputs pin the base coloring each tag gets.
@pytest.mark.parametrize(
    "coords, tag, red, blue",
    [
        (REPAIR_COORDS, "1a",
         [(0, 1), (0, 2), (2, 3), (2, 4), (4, 5), (4, 6)],
         [(0, 4), (1, 2), (1, 3), (3, 4), (3, 5), (5, 6)]),
        (exact_coords(gen_line_instance(6, "0.001")), "1b",
         [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5)], [(0, 2), (0, 3), (1, 3), (3, 4), (3, 5)]),
        ([(0, 1), (0, 0), ("0.9063", "0.4226"), ("0.766", "-0.6428"), ("1.4", "-1.2")], "2a",
         [(0, 1), (0, 3), (2, 3), (3, 4)], [(0, 2), (1, 2), (1, 3), (1, 4)]),
        ([(0, 1), (0, 0), ("0.9063", "0.4226"), ("-0.9063", "0.4226")], "2b",
         [(0, 1), (0, 2), (1, 3)], [(0, 3), (1, 2), (2, 3)]),
    ],
)
def test_pointed_output_per_hull_layout(coords, tag, red, blue):
    ps = PointSet(coords)
    pc = select_P(ps, emst_adjacency(ps))
    assert pc.tag == tag and (pc.v3, pc.v2, pc.v1, pc.v0) == (0, 1, 2, 3)
    tt = disjoint_trees_pointed(ps, emst_adjacency(ps), pc)
    assert [e.as_pair() for e in tt.red] == red
    assert [e.as_pair() for e in tt.blue] == blue


# One seeded instance per branch the hull-layout goldens above leave out:
# cases 1c-1f, and every tag on the mirrored side (a mirrored 2b cannot
# occur).  Each was found by scanning seeded sets of 4-14 distinct points on
# 10 x 10, 100 x 100 and 1000 x 1000 integer grids (the seed is named per
# case); each pins the path, the mirroring and both finished trees.
BRANCH_GOLDENS = [
    # seed 1096
    ("1a", True, (12, 11, 8, 6),
        [
         (10, 38), (12, 34), (13, 76), (14, 11), (15, 53), (19, 49), (26, 87), (34, 0),
         (52, 68), (56, 27), (59, 25), (61, 70), (64, 93), (83, 2),
        ],
        [
         (0, 5), (1, 3), (1, 5), (1, 7), (2, 4), (2, 5), (2, 8), (6, 8), (7, 9), (7, 10),
         (8, 12), (10, 13), (11, 12),
        ],
        [
         (0, 1), (0, 3), (0, 4), (2, 6), (3, 7), (3, 9), (4, 5), (4, 6), (6, 11), (6, 12),
         (8, 11), (9, 10), (9, 13),
        ]),
    # seed 38
    ("1b", True, (0, 1, 2, 3),
        [
         (8, 46), (21, 75), (28, 78), (34, 90), (42, 79), (44, 41), (47, 5), (54, 96),
         (60, 97), (74, 51), (77, 85), (89, 59), (92, 13), (93, 39),
        ],
        [
         (0, 1), (1, 2), (2, 3), (2, 4), (4, 7), (4, 8), (5, 6), (5, 11), (8, 10), (8, 11),
         (9, 11), (11, 12), (11, 13),
        ],
        [
         (0, 2), (0, 3), (1, 3), (3, 4), (3, 7), (5, 9), (6, 9), (7, 8), (7, 10), (9, 10),
         (10, 11), (10, 13), (12, 13),
        ]),
    # seed 22210
    ("1c", False, (3, 5, 6, 7),
        [
         (73, 669), (88, 828), (158, 591), (168, 439), (223, 755), (255, 465), (274, 549),
         (315, 532), (342, 905), (591, 650), (599, 611), (614, 435), (722, 81), (869, 307),
        ],
        [
         (0, 2), (1, 2), (1, 4), (1, 8), (2, 5), (3, 5), (5, 6), (6, 7), (6, 10), (9, 10),
         (10, 11), (10, 13), (12, 13),
        ],
        [
         (0, 1), (0, 4), (0, 6), (2, 6), (3, 6), (3, 7), (4, 8), (5, 7), (7, 9), (7, 10),
         (7, 11), (11, 12), (11, 13),
        ]),
    # seed 13867
    ("1c", True, (5, 2, 1, 0),
        [
         (65, 154), (97, 354), (188, 321), (226, 751), (244, 37), (288, 305), (508, 128),
         (534, 799), (610, 824), (642, 128), (827, 277), (900, 457), (916, 352), (927, 284),
        ],
        [
         (0, 1), (1, 2), (1, 4), (2, 3), (2, 5), (3, 7), (3, 8), (4, 6), (4, 9), (9, 10),
         (9, 13), (11, 13), (12, 13),
        ],
        [
         (0, 2), (0, 4), (0, 5), (0, 6), (1, 3), (1, 5), (1, 7), (6, 9), (6, 10), (7, 8),
         (10, 12), (10, 13), (11, 12),
        ]),
    # seed 6770
    ("1d", False, (7, 1, 0, 2),
        [
         (0, 1), (0, 3), (1, 0), (1, 6), (2, 0), (2, 7), (3, 0), (3, 3), (3, 7), (4, 0),
         (5, 0), (7, 1), (8, 0), (9, 0),
        ],
        [
         (0, 2), (0, 4), (0, 7), (1, 3), (1, 5), (1, 7), (4, 6), (4, 9), (5, 8), (9, 10),
         (9, 11), (11, 12), (11, 13),
        ],
        [
         (0, 1), (1, 2), (2, 4), (2, 6), (2, 7), (3, 5), (3, 7), (3, 8), (6, 9), (6, 10),
         (10, 11), (10, 12), (12, 13),
        ]),
    # seed 7887
    ("1d", True, (3, 0, 1, 4),
        [
         (17, 50), (24, 75), (26, 33), (39, 51), (39, 88), (44, 82), (51, 93), (54, 25),
         (59, 2), (64, 83), (68, 60), (77, 57), (85, 44), (91, 20),
        ],
        [
         (0, 2), (0, 3), (0, 7), (1, 3), (1, 4), (1, 5), (1, 6), (6, 9), (6, 10), (7, 8),
         (10, 11), (10, 12), (12, 13),
        ],
        [
         (0, 1), (0, 4), (2, 3), (2, 7), (2, 8), (3, 4), (4, 5), (4, 6), (4, 9), (9, 10),
         (9, 11), (11, 12), (11, 13),
        ]),
    # seed 2315
    ("1e", False, (0, 3, 1, 2),
        [
         (3, 17), (10, 48), (14, 70), (21, 28), (25, 90), (27, 7), (55, 6), (57, 16),
         (59, 59), (61, 46), (63, 78), (68, 6), (68, 78), (95, 23),
        ],
        [
         (0, 3), (1, 2), (1, 3), (1, 4), (3, 5), (3, 6), (6, 7), (6, 9), (6, 11), (6, 13),
         (8, 9), (9, 10), (10, 12),
        ],
        [
         (0, 1), (0, 2), (0, 5), (2, 3), (2, 4), (5, 6), (5, 7), (5, 11), (7, 8), (7, 9),
         (8, 10), (8, 12), (11, 13),
        ]),
    # seed 5882
    ("1e", True, (5, 6, 0, 1),
        [
         (156, 586), (234, 107), (255, 77), (371, 56), (566, 60), (584, 915), (615, 770),
         (679, 115), (730, 869), (792, 674), (908, 810), (972, 569), (993, 722), (998, 700),
        ],
        [
         (0, 1), (0, 2), (0, 6), (2, 3), (2, 4), (4, 7), (5, 6), (6, 8), (6, 10), (9, 10),
         (10, 12), (10, 13), (11, 13),
        ],
        [
         (0, 5), (1, 2), (1, 3), (1, 5), (1, 6), (3, 4), (3, 7), (5, 8), (8, 9), (8, 10),
         (8, 12), (11, 12), (12, 13),
        ]),
    # seed 132364
    ("1f", False, (0, 2, 4, 5),
        [
         (144, 737), (222, 368), (400, 495), (609, 901), (727, 804), (983, 352),
        ],
        [
         (0, 2), (1, 2), (2, 3), (2, 4), (4, 5),
        ],
        [
         (0, 1), (0, 4), (0, 5), (2, 5), (3, 4),
        ]),
    # seed 67450
    ("1f", True, (0, 3, 2, 6),
        [
         (0, 559), (76, 159), (284, 67), (320, 340), (362, 738), (426, 917), (497, 127),
         (537, 124), (660, 863), (959, 612), (980, 651),
        ],
        [
         (0, 3), (1, 3), (2, 3), (2, 6), (2, 7), (3, 4), (3, 5), (5, 8), (5, 10), (9, 10),
        ],
        [
         (0, 2), (0, 4), (0, 6), (1, 2), (3, 6), (4, 5), (4, 8), (6, 7), (8, 9), (8, 10),
        ]),
    # seed 16192
    ("2a", True, (0, 1, 2, 3),
        [
         (4, 35), (7, 41), (15, 34), (35, 68), (50, 54), (54, 9), (57, 68), (72, 69),
         (78, 37), (78, 38), (81, 1), (83, 14), (95, 65), (99, 84),
        ],
        [
         (0, 1), (0, 3), (2, 3), (3, 4), (3, 6), (5, 11), (6, 7), (6, 9), (6, 12), (8, 9),
         (9, 11), (10, 11), (12, 13),
        ],
        [
         (0, 2), (1, 2), (1, 3), (1, 4), (4, 6), (4, 7), (5, 10), (7, 8), (7, 9), (7, 12),
         (7, 13), (8, 10), (8, 11),
        ]),
]


@pytest.mark.parametrize(
    "tag, mirrored, path, coords, red, blue",
    BRANCH_GOLDENS,
    ids=[f"{g[0]}{'-mirrored' if g[1] else ''}" for g in BRANCH_GOLDENS],
)
def test_pointed_output_per_branch(tag, mirrored, path, coords, red, blue):
    """The build's output on each branch, which its stages give too when
    called one by one on the MST adjacency."""
    ps = PointSet(coords)
    adj = emst_adjacency(ps)
    assert find_flat_vertex(ps, adj) is None
    pc = select_P(ps, adj)
    assert (pc.tag, pc.mirrored, (pc.v3, pc.v2, pc.v1, pc.v0)) == (tag, mirrored, path)
    tt = build_two_disjoint_trees(ps)
    assert disjoint_trees_pointed(ps, adj, pc) == tt
    assert [e.as_pair() for e in tt.red] == red
    assert [e.as_pair() for e in tt.blue] == blue


# A flat instance, 40 points on a 1000 x 1000 integer grid (seed 64), whose
# side-inverted subtrees hang on both sides of their root edge.
FLAT_GOLDEN_COORDS = [
    (17, 208), (25, 85), (30, 788), (51, 1), (81, 882), (90, 834), (140, 562), (164, 218),
    (178, 107), (203, 738), (224, 57), (236, 476), (270, 224), (275, 721), (302, 760),
    (412, 695), (413, 549), (426, 450), (437, 367), (469, 406), (487, 127), (521, 314),
    (531, 183), (552, 201), (600, 46), (645, 627), (647, 822), (656, 287), (704, 498),
    (715, 839), (765, 372), (782, 206), (796, 668), (913, 218), (933, 5), (934, 823),
    (942, 703), (949, 65), (972, 603), (998, 150),
]
FLAT_GOLDEN_RED = [
    (0, 7), (1, 3), (1, 7), (2, 9), (4, 5), (5, 9), (5, 13), (6, 9), (7, 8), (7, 10),
    (7, 18), (9, 11), (12, 18), (13, 14), (13, 15), (15, 16), (15, 17), (17, 18), (17, 19),
    (18, 21), (18, 23), (20, 23), (20, 24), (22, 23), (23, 27), (23, 30), (23, 31),
    (25, 29), (25, 30), (25, 32), (25, 36), (26, 29), (28, 30), (31, 33), (31, 39),
    (34, 39), (35, 36), (36, 38), (37, 39),
]
FLAT_GOLDEN_BLUE = [
    (0, 1), (0, 3), (0, 12), (2, 4), (2, 5), (4, 9), (5, 6), (6, 11), (7, 12), (8, 10),
    (8, 12), (9, 13), (9, 14), (12, 19), (14, 15), (14, 16), (16, 17), (16, 19), (18, 19),
    (19, 21), (20, 22), (21, 22), (21, 23), (21, 27), (22, 24), (25, 28), (26, 32),
    (27, 28), (27, 30), (27, 31), (27, 33), (28, 32), (29, 32), (32, 35), (32, 36),
    (32, 38), (33, 37), (33, 39), (34, 37),
]


def test_flat_output_pinned():
    """The build's flat output, which its stages give too when called one
    by one on the MST adjacency."""
    ps = PointSet(FLAT_GOLDEN_COORDS)
    adj = emst_adjacency(ps)
    assert find_flat_vertex(ps, adj) == 5
    tt = build_two_disjoint_trees(ps)
    assert disjoint_trees_flat(ps, adj, 5) == tt
    assert [e.as_pair() for e in tt.red] == FLAT_GOLDEN_RED
    assert [e.as_pair() for e in tt.blue] == FLAT_GOLDEN_BLUE


# A side inversion meets a child collinear with its root edge, in the flat
# branch (a minus or plus inversion) and in case 2a (the full inversion of
# T0, also on the mirror image).  Found in the scan of the branch goldens
# (seeds 23 and 2720).
FLAT_COLLINEAR = [(0, 9), (1, 1), (3, 4), (3, 9), (4, 6), (5, 2), (6, 8), (7, 0)]
CASE_2A_COLLINEAR = [(1, 2), (3, 3), (4, 0), (6, 3), (7, 3), (7, 5), (8, 5)]


def test_side_inversion_rejects_a_collinear_child():
    with pytest.raises(GeneralPositionError) as info:
        build_two_disjoint_trees(PointSet(FLAT_COLLINEAR))
    assert str(info.value) == "2, 5, 7 are collinear"


@pytest.mark.parametrize("mirror", [False, True], ids=["2a", "2a-mirror"])
def test_full_inversion_reads_no_side(mirror):
    """The full inversion is the plain coloring with red and blue exchanged,
    so a child collinear with its root edge builds: the same trees on the
    set and on its mirror image, within ratio 1.61."""
    ps = PointSet(CASE_2A_COLLINEAR).reflected() if mirror else PointSet(CASE_2A_COLLINEAR)
    pc = select_P(ps, emst_adjacency(ps))
    assert (pc.tag, pc.mirrored, (pc.v3, pc.v2, pc.v1, pc.v0)) == ("2a", not mirror, (0, 1, 2, 3))
    tt = build_two_disjoint_trees(ps)
    assert [e.as_pair() for e in tt.red] == [(0, 1), (0, 3), (2, 3), (3, 4), (3, 5), (5, 6)]
    assert [e.as_pair() for e in tt.blue] == [(0, 2), (1, 2), (1, 3), (1, 4), (4, 5), (4, 6)]
    report = verify_layers(tt.layers(), ps)
    assert report.breach(Guarantee.two_tree(tt.bound, shared=None)) is None
    assert round(report.overall_max_ratio, 2) == 1.61


# The base colorings as a table keyed by case tag, before it was keyed by
# hull layout: 1a = 1d and 1b = 1c = 1e = 1f.
BASE_COLORINGS_BY_TAG = {
    "1a": (((3, 2), (1, 0), (3, 1)), ((2, 1), (2, 0), (3, 0))),
    "1d": (((3, 2), (1, 0), (3, 1)), ((2, 1), (2, 0), (3, 0))),
    "1b": (((3, 2), (2, 1), (1, 0)), ((2, 0), (3, 1), (3, 0))),
    "1c": (((3, 2), (2, 1), (1, 0)), ((2, 0), (3, 1), (3, 0))),
    "1e": (((3, 2), (2, 1), (1, 0)), ((2, 0), (3, 1), (3, 0))),
    "1f": (((3, 2), (2, 1), (1, 0)), ((2, 0), (3, 1), (3, 0))),
    "2a": (((2, 3), (1, 0), (3, 0)), ((2, 1), (2, 0), (3, 1))),
    "2b": (((2, 3), (2, 0), (3, 1)), ((2, 1), (3, 0), (1, 0))),
}


def test_base_coloring_of_each_tag_unchanged():
    for tag, coloring in BASE_COLORINGS_BY_TAG.items():
        assert centralized._BASE_COLORINGS[centralized._hull_layout(tag)] == coloring
    assert len(centralized._BASE_COLORINGS) == len(set(BASE_COLORINGS_BY_TAG.values()))
