import random
from itertools import combinations

import pytest

from plane_layers import centralized
from plane_layers.centralized import (
    Recoloring,
    big_angle_pair,
    build_two_disjoint_trees,
    construction1,
    disjoint_trees_flat,
    disjoint_trees_pointed,
    find_flat_vertex,
    recolor,
    select_P,
    side_split,
)
from plane_layers.errors import GeneralPositionError, InternalAssertionError, PreconditionError
from plane_layers.geometry import PointSet, Segment, properly_cross
from plane_layers.mst import adjacency, bottleneck, build_emst, root_at_leaf
from plane_layers.unionfind import UnionFind
from plane_layers.verify import gen_line_instance, verify_layers

import gap_oracle
from conftest import count_tree_computations, random_point_set


def rooted_mst(ps, root=None):
    edges = build_emst(ps)
    if root is None:
        root = min(v for v in ps.ids if sum(1 for e in edges if e.touches(v)) == 1)
    return root_at_leaf(edges, ps, root)


def check_construction1_properties(tt, ps):
    """The three properties: plane spanning trees, ratio <= 2, shared == rs."""
    rep = verify_layers(tt.layers(), ps)
    assert rep.all_plane and rep.all_spanning
    assert rep.duplicate_edges == (tt.shared.as_pair(),)
    be_sq = bottleneck(build_emst(ps), ps).length_sq
    for e in list(tt.red) + list(tt.blue):
        assert ps.seg_len_sq(e) <= 4 * be_sq


def test_construction1_three_point_path():
    ps = PointSet([(0, 0), (1, 0), (2, "0.1")])
    tt = construction1(rooted_mst(ps, 0))
    assert set(tt.red) == {Segment(0, 1), Segment(0, 2)}
    assert set(tt.blue) == {Segment(0, 1), Segment(1, 2)}
    assert tt.shared == Segment(0, 1)


def test_construction1_two_points():
    ps = PointSet([(0, 0), (1, 1)])
    tt = construction1(rooted_mst(ps, 0))
    assert set(tt.red) == set(tt.blue) == {Segment(0, 1)}
    assert tt.shared == Segment(0, 1)


def test_construction1_properties_random(rng):
    for _ in range(50):
        ps = random_point_set(rng, rng.randint(4, 40))
        tt = construction1(rooted_mst(ps))
        check_construction1_properties(tt, ps)
        # every edge joins vertices of different levels
        rm = rooted_mst(ps)
        for e in list(tt.red) + list(tt.blue):
            assert rm.level[e.a] != rm.level[e.b]


def test_side_split_one_sided():
    # chain bends consistently clockwise of the r->s ray: everything minus
    ps = PointSet([(0, 0), (1, 0), (2, "-0.3"), (3, "-0.8")])
    rm = rooted_mst(ps, 0)
    tt = construction1(rm)
    sp = side_split(rm, tt)
    assert sp.s_plus == {0, 1}
    assert sp.s_minus == set(ps.ids)
    assert not sp.e_r_plus and not sp.e_b_plus
    assert sp.e_r_minus | sp.e_b_minus == (set(tt.red) | set(tt.blue)) - {tt.shared}


def test_side_split_two_branches():
    # s has one branch on each side of the r->s line
    ps = PointSet([(0, 0), (1, 0), (2, 1), (3, 2), (2, -1), (3, -2)])
    rm = rooted_mst(ps, 0)
    tt = construction1(rm)
    sp = side_split(rm, tt)
    assert sp.s_minus & sp.s_plus == {0, 1}
    assert sp.s_minus | sp.s_plus == set(ps.ids)
    assert {4, 5} <= sp.s_minus and {2, 3} <= sp.s_plus


def test_side_split_invariant_random(rng):
    for _ in range(25):
        ps = random_point_set(rng, rng.randint(4, 30))
        rm = rooted_mst(ps)
        sp = side_split(rm, construction1(rm))
        assert sp.s_minus & sp.s_plus == {rm.root, rm.root_child}
        assert sp.s_minus | sp.s_plus == set(ps.ids)


def test_recolor_identity_and_swap(rng):
    ps = random_point_set(rng, 15)
    rm = rooted_mst(ps)
    tt = construction1(rm)
    sp = side_split(rm, tt)
    orig = recolor(sp, Recoloring.ORIGINAL)
    assert set(orig.red) == set(tt.red) and set(orig.blue) == set(tt.blue)
    inv = recolor(sp, Recoloring.INVERTED)
    assert set(inv.red) == set(tt.blue) and set(inv.blue) == set(tt.red)


def test_recolor_all_variants_keep_guarantees(rng):
    for _ in range(20):
        ps = random_point_set(rng, rng.randint(4, 30))
        rm = rooted_mst(ps)
        base = construction1(rm)
        pool = set(base.red) | set(base.blue)
        sp = side_split(rm, base)
        for variant in Recoloring:
            tt = recolor(sp, variant)
            check_construction1_properties(tt, ps)
            assert set(tt.red) | set(tt.blue) == pool  # recoloring only recolors


def test_find_flat_vertex_plus_shape():
    ps = PointSet([(0, 0), (1, 0), (0, 1), (-1, "0.1"), ("0.1", -1)])
    edges = build_emst(ps)
    assert find_flat_vertex(edges, ps) == 0


def test_find_flat_vertex_absent_on_line():
    ps = gen_line_instance(7, "0.001")
    assert find_flat_vertex(build_emst(ps), ps) is None


def test_find_flat_vertex_gaps_below_pi(rng):
    """The vertex found is the smallest-id one of degree >= 3 whose gaps the
    oracle finds all below pi."""
    found = 0
    for _ in range(20):
        ps = random_point_set(rng, 40)
        edges = build_emst(ps)
        adj = adjacency(edges)
        flat = [
            v for v in sorted(adj)
            if len(adj[v]) >= 3
            and all(s > 0 for s in gap_oracle.gap_signs(ps, v, gap_oracle.ccw_ring(ps, v, adj[v])))
        ]
        v = find_flat_vertex(edges, ps)
        assert v == (flat[0] if flat else None)
        found += v is not None
    assert found > 0


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
    """`_ring` and `big_angle_pair` agree with the helper-by-helper oracle on
    random stars of degree 1-8, on both turns of degree 2 and on neighbors
    on one ray or on opposite rays, which raise."""
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
        assert _outcome(big_angle_pair, ps, 0, nbrs) == _outcome(
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
    """`_component` is the set a `UnionFind` over the unblocked edges joins
    to the start, on random forests with blocked vertices."""
    isolated = 0
    for _ in range(500):
        n = rng.randint(1, 30)
        edges = [Segment(v, rng.randrange(v)) for v in range(1, n) if rng.random() < 0.8]
        blocks = set(rng.sample(range(n), rng.randint(0, n // 3)))
        start = rng.choice([v for v in range(n) if v not in blocks])
        uf = UnionFind(range(n))
        for e in edges:
            if e.a not in blocks and e.b not in blocks:
                uf.union(e.a, e.b)
        expected = {u for u in range(n) if u not in blocks and uf.connected(u, start)}
        assert centralized._component(adjacency(edges), start, blocks) == expected
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
    edges = build_emst(ps)
    tt = disjoint_trees_flat(ps, edges, 0)
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
    tt = disjoint_trees_flat(ps, edges, 0)
    check_disjoint(tt, ps, 2)


def test_disjoint_flat_random(rng):
    done = 0
    while done < 40:
        ps = random_point_set(rng, rng.randint(6, 40))
        edges = build_emst(ps)
        v = find_flat_vertex(edges, ps)
        if v is None:
            continue
        tt = disjoint_trees_flat(ps, edges, v)
        check_disjoint(tt, ps, 2)
        done += 1


def test_disjoint_flat_rejects_pointed_vertex():
    ps = gen_line_instance(6, "0.001")
    edges = build_emst(ps)
    with pytest.raises(PreconditionError):
        disjoint_trees_flat(ps, edges, 2)


def test_select_p_perturbed_line():
    ps = gen_line_instance(5, "0.001")
    pc = select_P(ps, build_emst(ps))
    assert pc.path == (0, 1, 2, 3)
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
    pc = select_P(ps, edges)
    assert pc.tag == "2b"
    assert pc.v3 == 0 and pc.v2 == 1
    assert {pc.v1, pc.v0} == {2, 3}
    tt = disjoint_trees_pointed(ps, edges, pc)
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
    pc = select_P(ps, edges)
    assert pc.tag == "2a"
    assert pc.v1 == 2 and pc.v0 == 3
    tt = disjoint_trees_pointed(ps, edges, pc)
    check_disjoint(tt, ps, 3)


def test_select_p_tag_predicates_recomputed(rng):
    from plane_layers.centralized import _cw_angle_below_pi

    done = 0
    trials = 0
    while done < 25 and trials < 4000:
        trials += 1
        ps = random_point_set(rng, rng.randint(4, 12))
        edges = build_emst(ps)
        if find_flat_vertex(edges, ps) is not None:
            continue
        pc = select_P(ps, edges)
        wps = ps.reflected() if pc.mirrored else ps
        adj = adjacency(edges)
        # the canonical conventions hold in the working orientation
        assert _cw_angle_below_pi(wps, pc.v2, pc.v3, pc.v1)
        if pc.tag.startswith("1"):
            t1 = pc.v3 in big_angle_pair(wps, pc.v2, adj[pc.v2])
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
        edges = build_emst(ps)
        pc = select_P(ps, edges)
        tt = disjoint_trees_pointed(ps, edges, pc)
        check_disjoint(tt, ps, 3)


def test_disjoint_pointed_replacement_instance():
    # hand-built so a deep blue subtree edge crosses the three-hop blue edge:
    # the construction must swap v3v0 for the hull-path edge through the
    # interior points
    coords = [
        ("0", "0"),
        ("1", "-0.22"),
        ("1.0985", "-0.2026"),
        ("1.0811", "-0.1041"),
        ("1.03", "-0.115"),
        ("1.025", "-0.107"),
        ("1.025", "-0.085"),
    ]
    ps = PointSet(coords)
    edges = build_emst(ps)
    assert {e.as_pair() for e in edges} == {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)}
    assert find_flat_vertex(edges, ps) is None
    pc = select_P(ps, edges)
    assert pc.tag == "1a" and pc.path == (0, 1, 2, 3)
    tt = disjoint_trees_pointed(ps, edges, pc)
    all_edges = set(tt.red) | set(tt.blue)
    assert Segment(0, 3) not in all_edges  # v3v0 was replaced
    assert Segment(0, 4) in tt.blue  # by the hull-path edge through X
    check_disjoint(tt, ps, 3)


def test_three_hop_repair_joins_mid_path():
    """The replacement is the one hull-path pair with exactly one end on
    v3's side of blue - v3v0, here the middle pair a-b: v3's side holds
    the first interior point a as well."""
    # v3, v2, v1, v0, then a and b inside conv(P), and c below v3v0
    ps = PointSet([(0, 0), (0, 10), (10, 10), (10, 0), (3, 2), (7, 2), (5, -3)])
    asm = centralized._Assembler(ps, "repair")
    e30 = asm.deferred = Segment(0, 3)
    asm.add("blue", [e30, Segment(0, 4), Segment(1, 4), Segment(1, 2), Segment(3, 5),
                     Segment(5, 6)], "pointed-base")  # 5-6 crosses v3v0
    centralized._fix_three_hop_edge(asm, ps, {3: 0, 2: 1, 1: 2, 0: 3})
    assert e30 not in asm.blue and Segment(4, 5) in asm.blue
    assert asm.deferred is None


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


@pytest.mark.parametrize("make, bound", [(lambda rng: random_point_set(rng, 90), 2),
                                         (lambda rng: gen_line_instance(40, "0.001"), 3)],
                         ids=["flat", "pointed"])
def test_one_tree_computation_per_build_and_verify(monkeypatch, rng, make, bound):
    calls = count_tree_computations(monkeypatch)
    ps = make(rng)
    trees = build_two_disjoint_trees(ps)
    assert trees.bound == bound
    report = verify_layers(trees.layers(), ps)
    assert report.ok(max_len_sq=bound * bound * report.beta_sq)
    assert calls == [len(ps)]


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
        return (red + [inject] if len(calls) == 2 else red), blue

    monkeypatch.setattr(centralized, "_subtree_contribution", with_injection)
    with pytest.raises(InternalAssertionError) as info:
        build_two_disjoint_trees(ps)
    assert info.value.stage == stage
    assert str(info.value) == f"[{stage}] {message}"


# --- the final self-checks, each fault injected after the planarity check ---


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
    """The faulty red list of one injection and the message it must raise."""
    n = len(ps)
    pairs = [s for _, s in sorted((ps.sdist_sq(a, b), Segment(a, b))
                                  for a, b in combinations(ps.ids, 2))]
    fresh = [s for s in pairs if s not in red and s not in blue]
    if kind == "count":
        return red + fresh[:1], f"red has {n} edges, expected {n - 1}"
    if kind == "spanning":
        uf = UnionFind(ps.ids)
        for f in red[1:]:
            uf.union(f.a, f.b)
        cycle = next(s for s in fresh if uf.connected(s.a, s.b))
        return red[1:] + [cycle], "red is not spanning"
    if kind == "share":
        return _swap_across_cut(ps, red, blue), "red and blue share an edge"
    if kind == "over":
        over = [s for s in fresh if ps.sdist_sq(s.a, s.b) > bound * bound * be_grid]
        faulty = _swap_across_cut(ps, red, over)
        (long,) = set(faulty) - set(red)
        return faulty, f"edge {long} exceeds {bound}x bottleneck"
    # "twice": two more edges above twice the bottleneck, none above the bound
    between = [s for s in fresh if 4 * be_grid < ps.sdist_sq(s.a, s.b) <= 9 * be_grid]
    faulty = _swap_across_cut(ps, _swap_across_cut(ps, red, between), between)
    over2 = sum(ps.sdist_sq(e.a, e.b) > 4 * be_grid for e in faulty + blue)
    assert over2 >= 2
    return faulty, f"{over2} edges exceed twice the bottleneck"


# With bound 2 the length limit is twice the bottleneck, so the flat branch
# cannot reach the over-twice count without failing the length check first.
@pytest.mark.parametrize(
    "branch, kind",
    [("flat", k) for k in ("count", "spanning", "share", "over")]
    + [("pointed", k) for k in ("count", "spanning", "share", "over", "twice")],
)
def test_final_self_check_faults(monkeypatch, branch, kind):
    if branch == "flat":
        ps = random_point_set(random.Random(2), 30)
        stage, label, bound = "flat-final", "flat construction at 5", 2
    else:
        ps = gen_line_instance(12, "0.001")
        stage, label, bound = "pointed-final", "pointed construction, case 1b", 3
    be = bottleneck(build_emst(ps), ps)
    be_grid = ps.sdist_sq(be.edge.a, be.edge.b)
    expected = []
    original = centralized._Assembler.check_plane

    def check_then_inject(asm):
        original(asm)
        faulty, message = _fault(kind, asm.ps, asm.red, asm.blue, be_grid, bound)
        asm.red[:] = faulty
        expected.append(message)

    monkeypatch.setattr(centralized._Assembler, "check_plane", check_then_inject)
    with pytest.raises(InternalAssertionError) as info:
        build_two_disjoint_trees(ps)
    assert info.value.stage == stage
    assert str(info.value) == f"[{stage}] {label}: {expected[0]}"


# One pinned instance per hull layout of P: both layouts of case 1 and the
# two star cases.  Their outputs pin the base coloring each tag gets.
@pytest.mark.parametrize(
    "coords, tag, red, blue",
    [
        ([("0", "0"), ("1", "-0.22"), ("1.0985", "-0.2026"), ("1.0811", "-0.1041"),
          ("1.03", "-0.115"), ("1.025", "-0.107"), ("1.025", "-0.085")], "1a",
         [(0, 1), (0, 2), (2, 3), (2, 4), (4, 5), (4, 6)],
         [(0, 4), (1, 2), (1, 3), (3, 4), (3, 5), (5, 6)]),
        (gen_line_instance(6, "0.001").coords(), "1b",
         [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5)], [(0, 2), (0, 3), (1, 3), (3, 4), (3, 5)]),
        ([(0, 1), (0, 0), ("0.9063", "0.4226"), ("0.766", "-0.6428"), ("1.4", "-1.2")], "2a",
         [(0, 1), (0, 3), (2, 3), (3, 4)], [(0, 2), (1, 2), (1, 3), (1, 4)]),
        ([(0, 1), (0, 0), ("0.9063", "0.4226"), ("-0.9063", "0.4226")], "2b",
         [(0, 1), (0, 2), (1, 3)], [(0, 3), (1, 2), (2, 3)]),
    ],
)
def test_pointed_output_per_hull_layout(coords, tag, red, blue):
    ps = PointSet(coords)
    edges = build_emst(ps)
    pc = select_P(ps, edges)
    assert pc.tag == tag and pc.path == (0, 1, 2, 3)
    tt = disjoint_trees_pointed(ps, edges, pc)
    assert [e.as_pair() for e in tt.red] == red
    assert [e.as_pair() for e in tt.blue] == blue


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
