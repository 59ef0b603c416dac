import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from plane_layers import mst
from plane_layers.centralized import build_two_disjoint_trees
from plane_layers.distributed import build_k_layers
from plane_layers.errors import PreconditionError
from plane_layers.geometry import PointSet, Segment, convex_hull
from plane_layers.mst import bottleneck, build_emst
from plane_layers.verify import Guarantee, gen_line_instance, verify_layers

from conftest import (
    acceptance_line_pool,
    acceptance_uniform_pool,
    count_emst_trees,
    count_mst_computations,
    grid_check_budget,
    grid_checks,
    grid_repair_rounds,
    grid_repaired,
    random_point_set,
)
from predicates import properly_cross
from square_graph import (
    Mst2Kind,
    adjacent_edges_at_least_sixty_degrees,
    format_tree,
    lemma_mst2_cross,
    lemma_triangle_empty,
    mst_square,
    neighbors_stay_in_wedge,
    parse_tree,
    root_at_leaf,
)
from unionfind import UnionFind


def delaunay_triangles(ps):
    """The exact Delaunay triangulation of `mst._triangulate`, as ccw id
    triples starting at their smallest id, sorted; [] when there are fewer
    than three points or all are collinear."""
    n = len(ps)
    return sorted((a, b, c) for key, c in mst._triangulate(*ps.grid, ps.lex_order()[0]).items()
                  for a, b in [divmod(key, n)] if a < b and a < c)


def prim_emst(ps):
    """Reference EMST: Prim over the complete graph, O(n^2).

    Equal-weight candidates tie-break on the (min id, max id) edge key, so
    this is the unique MST under the (squared length, min id, max id) order;
    `build_emst` must return exactly its edges.
    """
    n = len(ps)
    if n == 1:
        return []
    best_d = [None] * n
    best_edge = [None] * n
    in_tree = [False] * n
    in_tree[0] = True
    for w in range(1, n):
        best_d[w] = ps.sdist_sq(0, w)
        best_edge[w] = (0, w)
    edges = []
    for _ in range(n - 1):
        pick = -1
        for w in range(n):
            if in_tree[w]:
                continue
            if pick < 0 or (best_d[w], best_edge[w]) < (best_d[pick], best_edge[pick]):
                pick = w
        edges.append(Segment(*best_edge[pick]))
        in_tree[pick] = True
        for w in range(n):
            if in_tree[w]:
                continue
            nd = ps.sdist_sq(pick, w)
            key = (min(pick, w), max(pick, w))
            if nd < best_d[w] or (nd == best_d[w] and key < best_edge[w]):
                best_d[w] = nd
                best_edge[w] = key
    return sorted(edges)


def _orient(a, b, c):
    """Twice the signed area of abc: > 0 ccw, < 0 cw, 0 collinear."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _incircle(a, b, c, d):
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


def tuple_delaunay_triangles(ps):
    """Reference triangulation: the same lexicographic insertion, hull walk
    and flips as `delaunay_triangles`, written with coordinate tuples, a
    tuple-keyed edge map and predicate calls.  Both must return the same
    list, co-circular ties included."""
    n = len(ps)
    pts = [ps.scaled(i) for i in ps.ids]
    order = sorted(ps.ids, key=pts.__getitem__)
    k = 2
    while k < n and _orient(pts[order[0]], pts[order[1]], pts[order[k]]) == 0:
        k += 1
    if k >= n:
        return []
    apex = order[k]
    run = order[:k]
    if _orient(pts[run[0]], pts[run[1]], pts[apex]) < 0:
        run.reverse()
    opp = {}
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


def kruskal_weight(ps):
    """Independent oracle: exact total weight of a minimum spanning tree."""
    pairs = sorted(
        ((ps.seg_len_sq(Segment(i, j)), i, j) for i, j in combinations(ps.ids, 2)),
    )
    uf = UnionFind(ps.ids)
    total = Fraction(0)
    for d, i, j in pairs:
        if uf.union(i, j):
            total += d
    return total


def test_emst_three_point_path():
    ps = PointSet([(0, 0), (1, 0), (2, "0.1")])
    assert build_emst(ps) == [Segment(0, 1), Segment(1, 2)]


def test_emst_single_point():
    assert build_emst(PointSet([(3, 4)])) == []


def test_emst_weight_matches_kruskal(rng):
    for _ in range(15):
        ps = random_point_set(rng, 12, extent=50)
        edges = build_emst(ps)
        assert len(edges) == 11
        got = sum(ps.seg_len_sq(e) for e in edges)
        assert got == kruskal_weight(ps)


def _shuffled(rng, coords):
    """A point set whose ids are a random permutation of `coords`."""
    coords = list(coords)
    rng.shuffle(coords)
    return PointSet(coords)


def each_source_is_prim(ps) -> bool:
    """Assert that `build_emst`, the Delaunay source and the grid source (when
    it accepts) each give exactly `prim_emst`, the sources in Kruskal's join
    order, and that the bottleneck is its longest edge; True iff the grid
    accepted."""
    want = prim_emst(ps)
    xs, ys = ps.grid
    assert joined_tree(ps, mst._delaunay_forest(xs, ys, ps.lex_order()[0])) == want
    grid = mst._grid_forest(xs, ys)
    assert grid is None or joined_tree(ps, grid) == want
    if len(ps) > 1:
        assert mst.grid_bottleneck_sq(ps) == max(ps.sdist_sq(*e) for e in want)
    assert build_emst(ps) == want
    return grid is not None


def joined_tree(ps, joins) -> list[Segment]:
    """The sorted tree of the EMST edges a*n + b `joins` of `ps`, once they
    are asserted to be in Kruskal's join order, by (squared length, a, b),
    whose last join `mst.grid_bottleneck_sq` reads as the bottleneck."""
    n = len(ps)
    assert joins == sorted(joins, key=lambda key: (ps.sdist_sq(*divmod(key, n)), key))
    return sorted(Segment(*divmod(key, n)) for key in joins)


def test_emst_equals_prim_on_acceptance_pools():
    pool = acceptance_uniform_pool()
    accepted = [each_source_is_prim(ps) for ps in pool]
    # at n = 4-64 the boundary holds the longest edges: the repair completes
    # the grid's tree on more than half of the uniform sets (286 of 500),
    # and two still decline, so both sources and the repair run
    assert 0 < sum(accepted) < len(accepted)
    assert 0 < sum(map(grid_repaired, pool)) < sum(accepted)
    assert all(each_source_is_prim(ps) for ps in acceptance_line_pool())


def _small_integer_grids():
    """300 point sets with many collinear triples, equal lengths and
    co-circular quadruples."""
    rng = random.Random(71)
    for _ in range(300):
        side = rng.randint(2, 8)
        cells = [(x, y) for x in range(side) for y in range(side)]
        yield _shuffled(rng, rng.sample(cells, rng.randint(1, min(30, len(cells)))))


def test_emst_equals_prim_on_small_integer_grids():
    assert all(each_source_is_prim(ps) for ps in _small_integer_grids())
    repaired = [grid_repaired(ps) for ps in _small_integer_grids()]
    assert 0 < sum(repaired) < len(repaired)


@pytest.mark.parametrize("k", range(1, 9))
def test_emst_equals_prim_on_full_lattices(k):
    assert each_source_is_prim(PointSet([(x, y) for x in range(k) for y in range(k)]))


def test_emst_of_collinear_sets_is_the_path():
    rng = random.Random(72)
    repaired = []
    for n in (2, 3, 4, 9, 40):
        for make in (lambda t: (t, 5), lambda t: (-3, t)):
            ps = _shuffled(rng, [make(t) for t in rng.sample(range(-50, 50), n)])
            order = sorted(ps.ids, key=ps.scaled)
            path = sorted(Segment(a, b) for a, b in zip(order, order[1:]))
            assert delaunay_triangles(ps) == []
            assert each_source_is_prim(ps)
            repaired.append(grid_repaired(ps))
            assert build_emst(ps) == path
    assert 0 < sum(repaired) < len(repaired)


def test_emst_of_one_two_three_points():
    with pytest.raises(PreconditionError):
        build_emst(PointSet([]))
    sets = [PointSet(coords)
            for coords in ([(3, 4)], [(3, 4), (0, 0)], [(0, 0), (2, 0), (1, 0)],
                           [(0, 0), (2, 0), (1, 1)], [(2, 0), (0, 0), (1, -3)])]
    assert all(each_source_is_prim(ps) for ps in sets)
    # the grid's squared radius for the last is (2 * 3 // 3 + 1)^2 = 9, and
    # (1, -3) is at squared distance 10 from both other points: the repair
    # finds it within twice the radius
    assert [grid_repaired(ps) for ps in sets] == [False, False, False, False, True]


@pytest.mark.parametrize("n", [5, 17, 100, 501])
def test_emst_equals_prim_on_line_instances(n):
    assert each_source_is_prim(gen_line_instance(n, "0.001"))


def _jittered_lattices():
    """22 x 22 lattices, spacing 10, each coordinate moved by up to +-3."""
    for seed in range(5):
        rng = random.Random(seed)
        yield PointSet([
            (f"{i * 10 + rng.uniform(-3, 3):.6f}", f"{j * 10 + rng.uniform(-3, 3):.6f}")
            for i in range(22)
            for j in range(22)
        ])


def test_emst_equals_prim_on_jittered_lattices():
    assert all(each_source_is_prim(ps) for ps in _jittered_lattices())


@pytest.mark.parametrize("k", range(2, 13))
def test_emst_equals_prim_on_lattices_with_shuffled_ids(k):
    """Equal lengths everywhere, so the (min id, max id) tie-break decides."""
    ps = _shuffled(random.Random(k), [(x, y) for x in range(k) for y in range(k)])
    assert each_source_is_prim(ps)


def _circle_points(r):
    """The integer points of the circle of radius r about the origin."""
    pts = []
    for x in range(-r, r + 1):
        y = math.isqrt(r * r - x * x)
        if y * y + x * x == r * r:
            pts += [(x, y), (x, -y)] if y else [(x, 0)]
    return pts


def test_emst_equals_prim_on_circle_points():
    """Co-circular everywhere, with many equal chords."""
    assert each_source_is_prim(_shuffled(random.Random(75), _circle_points(5525)))


def _clusters(rng, n, clusters=3, sigma=30):
    """Gaussian clusters about centers uniform in [0,1000]^2, 6 decimals, as
    `plane-layers gen --kind clusters` draws them."""
    centers = [(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(clusters)]
    pts = set()
    while len(pts) < n:
        cx, cy = rng.choice(centers)
        pts.add((f"{rng.gauss(cx, sigma):.6f}", f"{rng.gauss(cy, sigma):.6f}"))
    return PointSet(sorted(pts))


def test_grid_declines_clusters_and_gapped_sets_and_accepts_uniform(rng):
    for _ in range(5):
        ps = _clusters(rng, 300)
        assert each_source_is_prim(ps) is False
        assert grid_checks(ps) == 0  # over budget, declined before any distance
    # two uniform bands 100 apart, wider than the grid radius of about 71
    # that a 1000 x 1000 bounding box gives n = 500
    pts = set()
    while len(pts) < 500:
        x, y = rng.uniform(0, 1000), rng.uniform(0, 900)
        pts.add((f"{x:.6f}", f"{y if y < 450 else y + 100:.6f}"))
    ps = PointSet(sorted(pts))
    assert bottleneck(prim_emst(ps), ps).length_sq >= 100**2
    assert each_source_is_prim(ps) is False
    # the pairs within the radius keep to the budget but do not span, and
    # the repair, every point of one band against its 25 cells, would
    # exceed it
    assert 0 < grid_checks(ps) <= grid_check_budget(500)
    accepted = []
    for _ in range(10):
        ps = random_point_set(rng, 500)
        grid = mst._grid_forest(*ps.grid)
        if grid is not None:
            assert grid == mst._delaunay_forest(*ps.grid, ps.lex_order()[0])
            accepted.append(ps)
    assert len(accepted) == 10
    assert each_source_is_prim(accepted[0])


def _spot_lattice():
    """Six uniform points in a 2 x 2 square about each point of a 6 x 6
    lattice, 100 apart, under two grid radii."""
    rng = random.Random(78)
    return PointSet([(f"{100 * i + rng.uniform(0, 2):.6f}", f"{100 * j + rng.uniform(0, 2):.6f}")
                     for i in range(6) for j in range(6) for _ in range(6)])


def test_grid_equals_delaunay_on_a_uniform_set_at_scale():
    """At n = 12800, with about 2.5 points per cell, the repair runs and
    the grid's join order equals the Delaunay one."""
    ps = random_point_set(random.Random(12800), 12800)
    xs, ys = ps.grid
    grid = mst._grid_forest(xs, ys)
    assert grid is not None and grid_repaired(ps)
    assert grid == mst._delaunay_forest(xs, ys, ps.lex_order()[0])


# two groups whose closest pair is longer than twice the grid radius
GAP_BEYOND_TWICE_THE_RADIUS = [(45, 19), (48, 29), (57, 1), (66, 10), (68, 7), (75, 16),
                               (78, 29), (156, 2), (181, 19), (187, 16), (192, 29)]


def test_grid_repair_bridges_a_gap_beyond_twice_the_radius():
    """Each repair round doubles the radius, so the pairs across the gap,
    beyond the first round's two radii, join the groups in the second round,
    and with the second group 100 further off, in the third; both trees are
    Prim's.  A repair that took pairs up to three radii within its two-cell
    window joined the groups here by a longer pair than the tree's."""
    gapped = PointSet(GAP_BEYOND_TWICE_THE_RADIUS)
    wider = PointSet([(x + 100 if x > 100 else x, y) for x, y in GAP_BEYOND_TWICE_THE_RADIUS])
    assert [grid_repair_rounds(ps) for ps in (gapped, wider)] == [2, 3]
    assert each_source_is_prim(gapped) and each_source_is_prim(wider)


def test_grid_runs_once_per_point_set(monkeypatch, rng):
    """Where the grid declines, by its budget on clustered points and by its
    repair's on the spot lattice, a cold verify, the tree and a two-tree
    build of one point set try the grid once between them: the Delaunay
    join order taken on the decline is kept for both the bottleneck and the
    tree."""
    clustered, spots = _clusters(rng, 300), _spot_lattice()
    for ps in (clustered, spots):
        assert mst._grid_forest(*ps.grid) is None
    # the budget declines before any distance, the repair's after some
    assert grid_checks(clustered) == 0 < grid_checks(spots)
    grid_forest = mst._grid_forest
    calls = []

    def counted(xs, ys):
        calls.append(len(xs))
        return grid_forest(xs, ys)

    monkeypatch.setattr(mst, "_grid_forest", counted)
    for ps in (clustered, spots):
        calls.clear()
        star = [Segment(0, i) for i in range(1, len(ps))]
        want = prim_emst(ps)
        assert verify_layers([star], ps).beta_sq == bottleneck(want, ps).length_sq
        assert build_emst(ps) == want
        assert verify_layers(build_two_disjoint_trees(ps).layers(), ps).breach(Guarantee()) is None
        assert calls == [len(ps)]


def test_emst_of_300_digit_coordinates():
    """The grid radius is computed in integers: the grid's area here is
    about 10^600, past any float."""
    rng = random.Random(76)
    digits = 10**300

    def coord():
        v = rng.randrange(digits // 10, digits)
        return f"{v // 10**297}.{v % 10**297:0297d}"

    ps = PointSet([(coord(), coord()) for _ in range(200)])
    xs, ys = ps.grid
    with pytest.raises(OverflowError):
        float((max(xs) - min(xs)) * (max(ys) - min(ys)))
    grid = mst._grid_forest(xs, ys)
    assert grid is not None
    assert grid == mst._delaunay_forest(xs, ys, ps.lex_order()[0])


def test_emst_far_from_the_origin_with_negative_coordinates():
    rng = random.Random(77)
    ps = PointSet(sorted({
        (f"{-10**12 + rng.uniform(0, 1000):.6f}", f"{-5 * 10**11 - rng.uniform(0, 1000):.6f}")
        for _ in range(300)
    }))
    xs, ys = ps.grid
    assert max(xs) < 0 and max(ys) < 0
    grid = mst._grid_forest(xs, ys)
    assert grid is not None
    assert grid == mst._delaunay_forest(xs, ys, ps.lex_order()[0])


@pytest.mark.parametrize("family", ["pools", "small-grids", "lattices", "line", "jittered",
                                    "parabola", "circle"])
def test_delaunay_triangles_equal_tuple_reference(family):
    if family == "pools":
        sets = acceptance_uniform_pool() + acceptance_line_pool()
    elif family == "small-grids":
        sets = _small_integer_grids()
    elif family == "lattices":
        sets = (PointSet([(x, y) for x in range(k) for y in range(k)]) for k in range(1, 21))
    elif family == "line":
        sets = (gen_line_instance(n, "0.001") for n in range(5, 502))
    elif family == "jittered":
        sets = _jittered_lattices()
    elif family == "parabola":
        sets = [PointSet([(i, i * i) for i in range(600)])]
    else:
        circle = _circle_points(5525)
        assert len(circle) == 180
        sets = [_shuffled(random.Random(75), circle)]
    for ps in sets:
        assert delaunay_triangles(ps) == tuple_delaunay_triangles(ps)


def _strictly_in_circumcircle(ps, tri, p):
    """Exact circumcenter test with rationals, independent of the incircle
    determinant."""
    (ax, ay), (bx, by), (cx, cy) = (ps.scaled(i) for i in tri)
    px, py = ps.scaled(p)
    d = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    a2, b2, c2 = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    ux = Fraction(a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by), d)
    uy = Fraction(a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax), d)
    return (px - ux) ** 2 + (py - uy) ** 2 < (ax - ux) ** 2 + (ay - uy) ** 2


def test_delaunay_triangles_have_empty_circumcircles():
    rng = random.Random(73)
    for trial in range(120):
        if trial % 2:
            ps = random_point_set(rng, rng.randint(3, 25), extent=20)
        else:
            side = rng.randint(2, 6)
            cells = [(x, y) for x in range(side) for y in range(side)]
            ps = _shuffled(rng, rng.sample(cells, rng.randint(3, len(cells))))
        tris = delaunay_triangles(ps)
        area2 = 0
        for tri in tris:
            (ax, ay), (bx, by), (cx, cy) = (ps.scaled(i) for i in tri)
            twice = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            assert twice > 0, tri  # strictly ccw
            area2 += twice
            for p in ps.ids:
                assert not _strictly_in_circumcircle(ps, tri, p), (tri, p)
        # the triangles cover the convex hull once and use every point
        hull = [ps.scaled(i) for i in convex_hull(list(ps.ids), ps)]
        hull_area2 = sum(x0 * y1 - x1 * y0
                         for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1]))
        assert area2 == hull_area2
        if tris:
            assert {v for tri in tris for v in tri} == set(ps.ids)


def test_bottleneck_without_a_tree_equals_the_trees(rng):
    """`grid_bottleneck_sq` on a point set with nothing kept, read off the
    last join with no `Segment` tree built, equals the longest edge of
    `build_emst` and of the Prim reference: on uniform sets whose short
    pairs span and those that need the repair; on clustered sets, where the
    grid declines to the Delaunay edges; on near-line sets, jittered and
    exact lattices (ties), all-collinear sets, and every set of n = 2 to 5
    points."""
    def check(ps):
        want = max(ps.sdist_sq(*e) for e in prim_emst(ps))
        assert mst.grid_bottleneck_sq(ps) == want
        assert ps.sdist_sq(*bottleneck(build_emst(ps), ps).edge) == want

    repaired = []
    for ps in acceptance_uniform_pool()[:200]:
        if mst._grid_forest(*ps.grid) is not None:
            repaired.append(grid_repaired(ps))
        check(ps)
    assert set(repaired) == {False, True}
    for _ in range(3):
        check(_clusters(rng, 300))
    for n in (2, 3, 4, 5, 60, 501):
        check(gen_line_instance(n, "0.001"))
    for ps in _jittered_lattices():
        check(ps)
    for k in (2, 5, 9):
        check(_shuffled(random.Random(k), [(x, y) for x in range(k) for y in range(k)]))
    for n in (2, 3, 7, 40):
        check(_shuffled(rng, [(t, 3 * t - 1) for t in rng.sample(range(-50, 50), n)]))
    for n in range(2, 6):
        for _ in range(40):
            cells = rng.sample([(x, y) for x in range(4) for y in range(4)], n)
            check(PointSet(cells))


def test_bottleneck_kept_per_point_set_and_reset_on_a_mirror(monkeypatch, rng):
    """One MST computation per point set, whose join order gives both the
    bottleneck and the tree; a mirror image computes its own."""
    computations = count_mst_computations(monkeypatch)
    trees = count_emst_trees(monkeypatch)
    ps = random_point_set(rng, 60)
    be = mst.grid_bottleneck_sq(ps)
    assert mst.grid_bottleneck_sq(ps) == be and (computations, trees) == ([60], [])
    mst.build_emst(ps)
    mirror = ps.reflected()
    mst.build_emst(mirror)
    assert mst.grid_bottleneck_sq(mirror) == be
    assert (computations, trees) == ([60, 60], [60, 60])
    with pytest.raises(PreconditionError):
        mst.grid_bottleneck_sq(PointSet([(1, 2)]))


def test_emst_kept_per_point_set_and_returned_as_a_new_list(monkeypatch, rng):
    calls = count_mst_computations(monkeypatch)
    ps = random_point_set(rng, 60)
    edges = build_emst(ps)
    want = list(edges)
    assert want == prim_emst(ps)
    edges.clear()
    again = build_emst(ps)
    assert again == want and again is not edges
    again.append(Segment(0, 1))
    again.reverse()
    assert build_emst(ps) == want
    layers = [want[: len(want) // 2], want[len(want) // 2:]]
    assert verify_layers(layers, ps).beta_sq == bottleneck(want, ps).length_sq
    assert calls == [60]


def test_segments_made_in_bulk_equal_checked_segments(rng):
    """`mst.segments` makes, without `Segment.__new__`'s check, the edges the
    check makes from the same keys: equal element by element, with the same
    ends and repr, and each of type `Segment`, in key order.  `build_emst`
    returns them, and `emst_adjacency` gives the neighbour lists of its
    list, in the same order."""
    cases = [(n, sorted(mst._mst(ps)), ps)
             for n in (2, 3, 60, 500) for ps in [random_point_set(rng, n)]]
    keys = [a * 50 + b for a, b in combinations(range(50), 2)]
    rng.shuffle(keys)
    cases.append((50, keys, None))
    for n, keys, ps in cases:
        made = mst.segments(keys, n)
        want = [Segment(*divmod(key, n)) for key in keys]
        assert len(made) == len(want)
        for e, f in zip(made, want):
            assert type(e) is Segment
            assert e == f and (e.a, e.b) == (f.a, f.b) and repr(e) == repr(f)
        if ps is not None:
            assert build_emst(ps) == want
            adj = {}
            for e in want:
                adj.setdefault(e.a, []).append(e.b)
                adj.setdefault(e.b, []).append(e.a)
            assert list(mst.emst_adjacency(ps).items()) == list(adj.items())
            assert all(nbrs == sorted(nbrs) for nbrs in adj.values())


def test_perturbed_and_reflected_sets_get_their_own_emst(monkeypatch):
    calls = count_mst_computations(monkeypatch)
    # a full lattice: every MST edge ties in length, so the perturbation
    # breaks the ties in another order than the ids do
    ps = PointSet([(x, y) for x in range(6) for y in range(6)])
    tree = build_emst(ps)
    moved = ps.perturbed(None)
    assert build_emst(moved) == prim_emst(moved) != tree
    skew = PointSet([(0, 0), (3, 1), (4, 5), (9, 2), (7, 7), (2, 8)])
    build_emst(skew)
    mirror = skew.reflected()
    assert build_emst(mirror) == prim_emst(mirror) == build_emst(skew)
    assert calls == [36, 36, 6, 6]


def test_verify_reports_the_mst_beta_after_a_build_with_a_large_beta(rng):
    ps = random_point_set(rng, 70)
    ls = build_k_layers(ps, 1, beta=10**4)
    assert ls.beta_sq == 10**8
    report = verify_layers([list(layer) for layer in ls.layers], ps)
    assert report.beta_sq == bottleneck(prim_emst(ps), ps).length_sq < 10**8


def test_bottleneck_unit_line():
    ps = PointSet([(i, 0) for i in range(5)])
    edges = build_emst(ps)
    info = bottleneck(edges, ps)
    assert info.length_sq == 1
    assert info.length == 1.0
    # four edges tie for the longest: the smallest one witnesses, in any order
    for order in (edges, edges[::-1], edges[2:] + edges[:2]):
        assert bottleneck(order, ps).edge == Segment(0, 1)


def test_bottleneck_single_edge():
    ps = PointSet([(0, 0), (3, 4)])
    info = bottleneck([Segment(0, 1)], ps)
    assert info.length == 5.0
    with pytest.raises(PreconditionError):
        bottleneck([], ps)


def test_bottleneck_matches_recomputation(rng):
    ps = random_point_set(rng, 25)
    edges = build_emst(ps)
    info = bottleneck(edges, ps)
    assert info.length_sq == max(ps.seg_len_sq(e) for e in edges)
    assert info.edge in edges


def test_root_at_leaf_path():
    ps = PointSet([(0, 0), (1, 0), (2, "0.1")])
    rm = root_at_leaf(build_emst(ps), ps, 0)
    assert rm.level == {0: 0, 1: 1, 2: 2}
    assert rm.parent == {1: 0, 2: 1}
    assert rm.grandparent == {1: 0, 2: 0}
    assert rm.root_child == 1


def test_root_at_leaf_rejects_non_leaf():
    ps = PointSet([(0, 0), (1, 0), (-1, "0.1"), (0, 1)])
    edges = [Segment(0, 1), Segment(0, 2), Segment(0, 3)]
    with pytest.raises(PreconditionError):
        root_at_leaf(edges, ps, 0)
    with pytest.raises(PreconditionError):
        root_at_leaf(edges[:2], ps, 1)  # disconnected


def test_root_at_leaf_levels_match_bfs(rng):
    ps = random_point_set(rng, 20)
    edges = build_emst(ps)
    adj = {}
    for e in edges:
        adj.setdefault(e.a, []).append(e.b)
        adj.setdefault(e.b, []).append(e.a)
    root = min(v for v in adj if len(adj[v]) == 1)
    rm = root_at_leaf(edges, ps, root)
    level = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in level:
                    level[w] = level[v] + 1
                    nxt.append(w)
        frontier = nxt
    assert rm.level == level
    for v, p in rm.parent.items():
        assert rm.level[v] == rm.level[p] + 1
        g = rm.grandparent[v]
        assert g == (rm.parent[p] if rm.level[v] >= 2 else root)


def test_mst_square_path_and_star():
    ps = PointSet([(0, 0), (1, 0), (2, "0.1")])
    sq = mst_square(root_at_leaf(build_emst(ps), ps, 0))
    longs = [m for m in sq if m.kind is Mst2Kind.LONG]
    shorts = [m for m in sq if m.kind is Mst2Kind.SHORT]
    assert {m.seg for m in shorts} == {Segment(0, 1), Segment(1, 2)}
    assert len(longs) == 1 and longs[0].seg == Segment(0, 2) and longs[0].witness == 1

    star = PointSet([(0, 0), (1, 0), (0, 1), (-1, "-0.1")])
    edges = [Segment(0, 1), Segment(0, 2), Segment(0, 3)]
    rm = root_at_leaf(edges, star, 1)
    sq = mst_square(rm)
    longs = [m for m in sq if m.kind is Mst2Kind.LONG]
    assert len(longs) == 3
    assert all(m.witness == 0 for m in longs)
    assert len([m for m in sq if m.kind is Mst2Kind.SHORT]) == 3


def test_mst_square_matches_bfs_distance(rng):
    ps = random_point_set(rng, 15)
    edges = build_emst(ps)
    root = min(
        v for v in ps.ids if sum(1 for e in edges if e.touches(v)) == 1
    )
    rm = root_at_leaf(edges, ps, root)
    adj = {v: set() for v in ps.ids}
    for e in edges:
        adj[e.a].add(e.b)
        adj[e.b].add(e.a)
    expect_long = set()
    for v in ps.ids:
        for a in adj[v]:
            for b in adj[v]:
                if a < b and b not in adj[a]:
                    expect_long.add(Segment(a, b))
    got_long = {m.seg for m in mst_square(rm) if m.kind is Mst2Kind.LONG}
    assert got_long == expect_long


def test_lemma_triangle_empty_on_msts(rng):
    for _ in range(10):
        ps = random_point_set(rng, 18)
        edges = build_emst(ps)
        root = min(v for v in ps.ids if sum(1 for e in edges if e.touches(v)) == 1)
        rm = root_at_leaf(edges, ps, root)
        for v in ps.ids:
            for a, b in combinations(rm.adjacency[v], 2):
                assert lemma_triangle_empty(rm, a, v, b)


def test_lemma_triangle_empty_contrived_false():
    # a non-MST tree with a point inside the triangle of two adjacent edges
    ps = PointSet([(0, 0), (4, 0), (0, 4), (1, 1)])
    edges = [Segment(0, 1), Segment(0, 2), Segment(2, 3)]
    rm = root_at_leaf(edges, ps, 1)
    assert not lemma_triangle_empty(rm, 1, 0, 2)
    assert lemma_triangle_empty(rm, 0, 2, 3)
    with pytest.raises(PreconditionError):
        lemma_triangle_empty(rm, 0, 1, 2)  # 1-2 is not a tree edge


def test_lemma_mst2_cross_bounding_ray_excluded():
    ps = PointSet([(0, 0), (1, 0), (2, "0.1")])
    rm = root_at_leaf(build_emst(ps), ps, 0)
    sq = {m.seg: m for m in mst_square(rm)}
    long_ac = sq[Segment(0, 2)]
    short_ab = sq[Segment(0, 1)]
    assert not lemma_mst2_cross(long_ac, short_ab, ps)


def test_lemma_mst2_cross_condition_one():
    # star: spoke 0-2 lies inside the wedge of the long edge 1-3, witness 0
    ps = PointSet([(0, 0), (1, 0), (1, 1), (0, 1), ("-0.2", "-1.1")])
    edges = [Segment(0, 1), Segment(0, 2), Segment(0, 3), Segment(0, 4)]
    rm = root_at_leaf(edges, ps, 1)
    sq = {m.seg: m for m in mst_square(rm)}
    assert lemma_mst2_cross(sq[Segment(1, 3)], sq[Segment(0, 2)], ps)
    assert properly_cross(Segment(1, 3), Segment(0, 2), ps)


def test_lemma_mst2_cross_equals_geometry(rng):
    for _ in range(20):
        ps = random_point_set(rng, 16)
        edges = build_emst(ps)
        root = min(v for v in ps.ids if sum(1 for e in edges if e.touches(v)) == 1)
        sq = mst_square(root_at_leaf(edges, ps, root))
        for e, f in combinations(sq, 2):
            assert lemma_mst2_cross(e, f, ps) == properly_cross(e.seg, f.seg, ps)


def test_long_edges_at_most_twice_bottleneck(rng):
    ps = random_point_set(rng, 30)
    edges = build_emst(ps)
    be_sq = bottleneck(edges, ps).length_sq
    root = min(v for v in ps.ids if sum(1 for e in edges if e.touches(v)) == 1)
    for m in mst_square(root_at_leaf(edges, ps, root)):
        assert ps.seg_len_sq(m.seg) <= 4 * be_sq


def test_adjacent_edge_angles_and_wedges(rng):
    for _ in range(10):
        ps = random_point_set(rng, 22)
        edges = build_emst(ps)
        root = min(v for v in ps.ids if sum(1 for e in edges if e.touches(v)) == 1)
        rm = root_at_leaf(edges, ps, root)
        assert adjacent_edges_at_least_sixty_degrees(rm)
        for v in ps.ids:
            if len(rm.adjacency[v]) >= 3:
                assert neighbors_stay_in_wedge(rm, v)


def test_tree_format_roundtrip():
    edges = [Segment(0, 1), Segment(1, 2)]
    text = format_tree(edges, 0)
    parsed_edges, root = parse_tree(text)
    assert parsed_edges == edges and root == 0
