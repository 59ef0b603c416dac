import math
import random
from fractions import Fraction
from functools import cmp_to_key
from itertools import chain, combinations

import pytest

from plane_layers import distributed
from plane_layers.distributed import (
    QuadVal,
    _cell_index,
    _center_dist_sq,
    build_k_layers,
    center_point,
    connect_boxes,
    grid_partition,
    layers_in_box,
    locality_certificate,
    tukey_depth,
)
from plane_layers.errors import InternalAssertionError, PreconditionError
from plane_layers.geometry import PointSet, Segment, crossing_pairs, properly_cross
from plane_layers.mst import bottleneck, build_emst
from plane_layers.unionfind import UnionFind
from plane_layers.verify import verify_layers

from conftest import random_point_set


def cluster(rng, n, x0, y0, w=4.0):
    pts = set()
    while len(pts) < n:
        pts.add((f"{rng.uniform(x0, x0 + w):.6f}", f"{rng.uniform(y0, y0 + w):.6f}"))
    return sorted(pts)


def test_quadval_sign_and_order():
    q = Fraction(2)
    a = QuadVal(Fraction(-7), Fraction(5), q)  # 5*sqrt(2) - 7 > 0
    assert a.sign() == 1
    b = QuadVal(Fraction(7), Fraction(-5), q)
    assert b.sign() == -1
    assert b < a
    assert QuadVal(Fraction(3), Fraction(0), q).sign() == 1
    assert QuadVal(Fraction(0), Fraction(0), q).sign() == 0


def test_cell_index_floor_convention():
    # k=1, beta=1 -> side 6; boundary multiples stay in the higher cell
    assert _cell_index(Fraction(7), 6, Fraction(1)) == 1
    assert _cell_index(Fraction(6), 6, Fraction(1)) == 1
    assert _cell_index(Fraction(0), 6, Fraction(1)) == 0
    assert _cell_index(Fraction(-1), 6, Fraction(1)) == -1
    # irrational side: 6*sqrt(2) ~ 8.485
    assert _cell_index(Fraction(8), 6, Fraction(2)) == 0
    assert _cell_index(Fraction(9), 6, Fraction(2)) == 1


def test_grid_partition_single_dense_box(rng):
    k = 2
    n = 12 * k - 3
    ps = PointSet(cluster(rng, n, 1.0, 1.0))
    gi = grid_partition(ps, k, Fraction(1))
    assert len(gi.dense) == 1
    box = next(iter(gi.dense))
    assert all(gi.assignment[p] == box for p in ps.ids)


def test_grid_partition_preconditions(rng):
    ps = PointSet(cluster(rng, 8, 0, 0))
    with pytest.raises(PreconditionError):
        grid_partition(ps, 1, Fraction(1, 10**12))  # no dense box possible
    with pytest.raises(PreconditionError):
        grid_partition(ps, 2, Fraction(1))  # n below 12k-3


def test_grid_assignment_matches_global_scan(rng):
    # two dense clusters in vertically adjacent cells plus stragglers between
    k = 1
    rows = cluster(rng, 3 * k, 1.0, 1.0) + cluster(rng, 3 * k, 1.0, 7.0)
    rows += [("5.5", "3.1"), ("4.2", "8.3"), ("0.3", "11.5")]
    ps = PointSet(rows)
    gi = grid_partition(ps, k, Fraction(1))
    assert gi.dense == {(0, 0), (0, 1)}
    for p in ps.ids:
        best = None
        best_d = None
        for c in sorted(gi.dense):
            d = _center_dist_sq(ps, p, c, 6, Fraction(1))
            if best is None or (d - best_d).sign() < 0:
                best, best_d = c, d
            elif (d - best_d).sign() == 0 and c == gi.cell_of[p]:
                best, best_d = c, d
        assert gi.assignment[p] == best


def test_grid_dense_cell_keeps_own_points(rng):
    for seed in range(5):
        r = random.Random(seed)
        ps = random_point_set(r, 70)
        gi = grid_partition(ps, 2, bottleneck(build_emst(ps), ps).length_sq)
        for p in ps.ids:
            if gi.cell_of[p] in gi.dense:
                assert gi.assignment[p] == gi.cell_of[p]


def brute_depth(cx, cy, pts):
    """Independent exact oracle: closed-halfplane counts through the candidate
    over all point-pair and candidate-to-point directions, and over one
    direction strictly between each pair of angular neighbours.

    Everything is scaled to integers by the common denominator of the
    candidate and the points; directions are gcd-normalised into the upper
    half-plane and sorted exactly by cross products."""
    cx, cy = Fraction(cx), Fraction(cy)
    scale = math.lcm(*(Fraction(v).denominator for v in (cx, cy, *chain(*pts))))
    ox, oy = int(cx * scale), int(cy * scale)
    rel = [(int(Fraction(px) * scale) - ox, int(Fraction(py) * scale) - oy) for px, py in pts]
    canon = set()
    for (ax, ay), (bx, by) in combinations([(0, 0), *rel], 2):
        dx, dy = bx - ax, by - ay
        if dx == dy == 0:
            continue
        g = math.gcd(dx, dy)
        dx, dy = dx // g, dy // g
        if dy < 0 or (dy == 0 and dx < 0):
            dx, dy = -dx, -dy
        canon.add((dx, dy))
    # counterclockwise from the positive x-axis, all within [0, pi)
    ordered = sorted(canon, key=cmp_to_key(lambda a, b: a[1] * b[0] - a[0] * b[1]))
    probes = list(ordered)
    for a, b in zip(ordered, ordered[1:]):
        probes.append((a[0] + b[0], a[1] + b[1]))
    if len(ordered) > 1:
        probes.append((ordered[-1][0] - ordered[0][0], ordered[-1][1] - ordered[0][1]))
    best = len(pts)
    for dx, dy in probes:
        sides = [dx * qy - dy * qx for qx, qy in rel]
        left = sum(1 for v in sides if v > 0)
        right = sum(1 for v in sides if v < 0)
        best = min(best, min(left, right) + len(sides) - left - right)
    return best


def test_center_point_triangle_and_hexagon():
    tri = PointSet([(0, 0), (4, 0), (0, 4)])
    cx, cy = center_point([0, 1, 2], tri)
    assert tukey_depth(cx, cy, tri.coords()) >= 1
    hexa = PointSet(
        [(2, 0), (1, 2), (-1, 2), (-2, 0), (-1, -2), (1, -2)]
    )
    cx, cy = center_point(list(hexa.ids), hexa)
    assert tukey_depth(cx, cy, hexa.coords()) >= 2


def test_center_point_random_oracle(rng):
    for _ in range(10):
        ps = random_point_set(rng, 30, extent=50)
        cx, cy = center_point(list(ps.ids), ps)
        assert brute_depth(cx, cy, ps.coords()) >= 10


def test_center_point_no_two_points_per_ray(rng):
    ps = PointSet([(0, 0), (2, 0), (4, 0), (0, 2), (0, 4), (2, 2), (4, 4), (2, 4), (4, 2)])
    cx, cy = center_point(list(ps.ids), ps)
    seen = set()
    for i in ps.ids:
        dx, dy = ps.x(i) - cx, ps.y(i) - cy
        if dy < 0 or (dy == 0 and dx < 0):
            dx, dy = -dx, -dy
        key = (dx / dy, 1) if dy else (1, 0)
        assert key not in seen  # no line through c holds two points
        seen.add(key)


def hand_grid(ps, k, box=(0, 0)):
    """GridIndex with every point in one dense box; lets the per-box tests
    run below the full pipeline's n >= 12k-3 gate."""
    from plane_layers.distributed import GridIndex

    return GridIndex(
        k=k,
        beta_sq=Fraction(1),
        cells={box: tuple(ps.ids)},
        dense=frozenset([box]),
        cell_of={p: box for p in ps.ids},
        assignment={p: box for p in ps.ids},
    )


def test_layers_in_box_minimal():
    ps = PointSet([(1, 1), (2, "1.1"), ("1.4", "2.2")])
    gi = hand_grid(ps, 1)
    bl = layers_in_box((0, 0), gi, ps, 1)
    assert len(bl.tree_edges[0]) == 2  # a two-edge path over three points
    rep = verify_layers([bl.layer_edges(0)], ps)
    assert rep.per_layer[0].plane


def test_layers_in_box_hexagon_two_layers():
    pts = [(4, 1), (5, 3), (4, 5), (2, 5), (1, 3), (2, 1)]
    ps = PointSet(pts)
    gi = hand_grid(ps, 2)
    bl = layers_in_box((0, 0), gi, ps, 2)  # needs m >= 6
    e0 = set(bl.layer_edges(0))
    e1 = set(bl.layer_edges(1))
    assert not (e0 & e1)
    reps0 = set(bl.sectors[0].reps)
    reps1 = set(bl.sectors[1].reps)
    assert not (reps0 & reps1)
    for layer in (e0, e1):
        uf = UnionFind(ps.ids)
        for e in layer:
            uf.union(e.a, e.b)
        assert uf.component_count() == 1
        assert not crossing_pairs(sorted(layer), ps)


def test_layers_in_box_random_dense(rng):
    pts = cluster(rng, 40, 0.5, 0.5, w=5.0)
    ps = PointSet(pts)
    gi = grid_partition(ps, 3, Fraction(1))
    box = next(iter(gi.dense))
    assert gi.dense == {box}
    bl = layers_in_box(box, gi, ps, 3)
    seen = set()
    for j in range(3):
        edges = bl.layer_edges(j)
        assert not crossing_pairs(edges, ps)
        uf = UnionFind(ps.ids)
        for e in edges:
            uf.union(e.a, e.b)
        assert uf.component_count() == 1
        for e in edges:
            assert e not in seen
            seen.add(e)


def test_connect_boxes_horizontal_pair(rng):
    k = 1
    rows = cluster(rng, 5, 1.0, 1.0) + cluster(rng, 5, 7.5, 1.0)
    ps = PointSet(rows)
    gi = grid_partition(ps, k, Fraction(1))
    assert gi.dense == {(0, 0), (1, 0)}
    from plane_layers.distributed import layers_in_box as lib

    box_layers = {b: lib(b, gi, ps, k) for b in gi.dense}
    connectors = connect_boxes(gi, box_layers, ps, k)
    assert len(connectors[0]) == 1
    e = connectors[0][0]
    reps_a = set(box_layers[(0, 0)].sectors[0].reps)
    reps_b = set(box_layers[(1, 0)].sectors[0].reps)
    assert (e.a in reps_a and e.b in reps_b) or (e.a in reps_b and e.b in reps_a)


def test_connect_boxes_diagonal_rule(rng):
    # only two diagonally adjacent dense boxes: the below-left rule fires once
    k = 1
    rows = cluster(rng, 4, 1.0, 1.0) + cluster(rng, 4, 7.5, 7.5)
    rows += [("7.2", "1.3")]  # sparse neighbor, keeps assignments interesting
    ps = PointSet(rows)
    gi = grid_partition(ps, k, Fraction(1))
    assert gi.dense == {(0, 0), (1, 1)}
    from plane_layers.distributed import layers_in_box as lib

    box_layers = {b: lib(b, gi, ps, k) for b in gi.dense}
    connectors = connect_boxes(gi, box_layers, ps, k)
    assert len(connectors[0]) == 1


def test_connect_boxes_three_by_three(rng):
    k = 1
    rows = []
    for i in range(3):
        for j in range(3):
            rows += cluster(rng, 3, 6 * i + 1.2, 6 * j + 1.2, w=3.0)
    ps = PointSet(rows)
    gi = grid_partition(ps, k, Fraction(1))
    assert len(gi.dense) == 9
    from plane_layers.distributed import layers_in_box as lib

    box_layers = {b: lib(b, gi, ps, k) for b in gi.dense}
    connectors = connect_boxes(gi, box_layers, ps, k)
    # below/left rules produce 12 adjacent pairs on a 3x3 block, no diagonals
    assert len(connectors[0]) == 12
    uf = UnionFind(gi.dense)
    for e in connectors[0]:
        uf.union(gi.assignment[e.a], gi.assignment[e.b])
    assert uf.component_count() == 1  # the connector multigraph joins all boxes


def test_build_k_layers_single_box(rng):
    ps = PointSet(cluster(rng, 9, 1.0, 1.0))
    ls = build_k_layers(ps, 1, beta=1)
    assert ls.k == 1
    rep = verify_layers([list(l) for l in ls.layers], ps)
    assert rep.all_plane and rep.all_spanning
    limit = 288 * 1 * 1 * Fraction(1)
    for e in ls.layers[0]:
        assert ps.seg_len_sq(e) <= limit


def test_build_k_layers_uniform_hundred(rng):
    ps = random_point_set(rng, 100)
    ls = build_k_layers(ps, 2)
    rep = verify_layers([list(l) for l in ls.layers], ps)
    assert rep.all_plane and rep.all_spanning and rep.pairwise_disjoint
    limit = 288 * 4 * ls.beta_sq
    for layer in ls.layers:
        for e in layer:
            assert ps.seg_len_sq(e) <= limit


def test_build_k_layers_asserts_plane_layers(monkeypatch):
    ps = random_point_set(random.Random(3), 100)
    layer = build_k_layers(ps, 1).layers[0]
    by_length = sorted((ps.sdist_sq(a, b), Segment(a, b)) for a, b in combinations(ps.ids, 2))
    inject = next(e for _, e in by_length
                  if e not in layer and any(properly_cross(e, f, ps) for f in layer))
    original = distributed.connect_boxes

    def with_crossing_connector(*args):
        connectors = original(*args)
        connectors[0].append(inject)
        return connectors

    monkeypatch.setattr(distributed, "connect_boxes", with_crossing_connector)
    with pytest.raises(InternalAssertionError) as info:
        build_k_layers(ps, 1)
    dump = info.value.dump
    assert info.value.stage == dump["stage"] == "layer-planarity"
    first = crossing_pairs(sorted([*layer, inject]), ps)[0]
    assert dump["crossing"] == [first[0].as_pair(), first[1].as_pair()]
    assert (dump["k"], dump["layer"]) == (1, 0)
    # the dump alone reproduces the crossing
    replay = PointSet.from_text(dump["points"])
    assert replay.coords() == ps.coords()
    assert Fraction(dump["betaSq"]) == bottleneck(build_emst(replay), replay).length_sq
    assert properly_cross(Segment(*dump["crossing"][0]), Segment(*dump["crossing"][1]), replay)


def test_build_k_layers_rejects_small_n(rng):
    ps = random_point_set(rng, 20)
    with pytest.raises(PreconditionError):
        build_k_layers(ps, 9)


def test_locality_certificate_all_points(rng):
    ps = random_point_set(rng, 60)
    ls = build_k_layers(ps, 2)
    for p in ps.ids:
        cert = locality_certificate(ps, 2, p, layer_set=ls)
        assert cert.ok and cert.cheby_cells == 2
        incident = tuple(
            tuple(sorted(e for e in layer if e.touches(p))) for layer in ls.layers
        )
        assert cert.layer_edges == incident


def test_locality_certificate_multibox(rng):
    rows = cluster(rng, 6, 1.0, 1.0) + cluster(rng, 6, 7.5, 1.0)
    rows += [("13.4", "2.0")]  # sparse point hanging off the right box
    ps = PointSet(rows)
    ls = build_k_layers(ps, 1, beta=1)
    for p in ps.ids:
        assert locality_certificate(ps, 1, p, beta=1, layer_set=ls).ok
