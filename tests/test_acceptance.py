"""Acceptance suite: one test per criterion, each printing its pass line.

Shared instance pools are session-scoped so the two-tree criteria reuse the
same 500 instances.  All tolerances are pinned here: ratio bounds allow 1e-9
relative slack (the underlying comparisons are exact, so the slack is never
consumed); everything else is exact.
"""

import random
import time

import pytest

from plane_layers.centralized import Recoloring, build_two_disjoint_trees, construction1
from plane_layers.distributed import Certifier, build_k_layers, center_point
from plane_layers.geometry import Segment, properly_cross
from plane_layers.mst import build_emst
from plane_layers.verify import (
    Guarantee,
    counting_lower_bound,
    gen_line_instance,
    verify_layers,
)

from conftest import (
    acceptance_k_layer_instances,
    acceptance_line_pool,
    acceptance_uniform_pool,
    random_edge_mutation,
    random_point_set,
)
from rational_points import exact_coords
from square_graph import lemma_mst2_cross, mst_square, root_at_leaf
from test_distributed import brute_depth

RATIO_SLACK = 1 + 1e-9


def _leaf_root(edges):
    deg = {}
    for e in edges:
        deg[e.a] = deg.get(e.a, 0) + 1
        deg[e.b] = deg.get(e.b, 0) + 1
    return min(v for v, d in deg.items() if d == 1)


@pytest.fixture(scope="module")
def uniform_pool():
    return acceptance_uniform_pool()


@pytest.fixture(scope="module")
def line_pool():
    return acceptance_line_pool()


def test_criterion_1_construction1_suite(uniform_pool):
    t0 = time.time()
    for ps in uniform_pool:
        edges = build_emst(ps)
        root = _leaf_root(edges)
        tt = construction1(ps, root)
        rep = verify_layers(tt.layers(), ps)
        assert rep.all_plane
        assert rep.all_spanning
        (s,) = {e.a + e.b - root for e in edges if e.touches(root)}
        rs = Segment(root, s)
        assert tt.shared == rs
        assert set(tt.red) & set(tt.blue) == {rs}
        assert rep.duplicate_edges == (rs.as_pair(),)
        assert rep.overall_max_ratio <= 2 * RATIO_SLACK
    elapsed = time.time() - t0
    assert elapsed < 60, f"criterion 1 took {elapsed:.1f}s"
    print(f"\nPASS criterion 1: construction-1 suite, 500 instances in {elapsed:.1f}s")


def test_criterion_2_disjoint_two_tree_suite(uniform_pool, line_pool):
    t0 = time.time()
    for ps in uniform_pool + line_pool:
        tt = build_two_disjoint_trees(ps)  # internal assertions must not fire
        rep = verify_layers(tt.layers(), ps)
        assert rep.all_plane and rep.all_spanning
        assert rep.pairwise_disjoint
        assert rep.overall_max_ratio <= 3 * RATIO_SLACK
        assert rep.over_twice_bottleneck <= 1
    elapsed = time.time() - t0
    print(
        f"\nPASS criterion 2: disjoint two-tree suite, "
        f"{len(uniform_pool) + len(line_pool)} instances in {elapsed:.1f}s"
    )


def test_criterion_3_recoloring_suite():
    rng = random.Random(512)
    for _ in range(100):
        ps = random_point_set(rng, rng.randint(4, 40))
        root = _leaf_root(build_emst(ps))
        for variant in Recoloring:
            tt = construction1(ps, root, variant)
            rep = verify_layers(tt.layers(), ps)
            assert rep.all_plane and rep.all_spanning
            assert rep.duplicate_edges == (tt.shared.as_pair(),)
            assert rep.overall_max_ratio <= 2 * RATIO_SLACK
    print("\nPASS criterion 3: all four recolorings on 100 instances")


def test_criterion_4_mst2_crossing_oracle():
    rng = random.Random(513)
    disagreements = 0
    pairs = 0
    for _ in range(200):
        ps = random_point_set(rng, rng.randint(4, 30))
        edges = build_emst(ps)
        rm = root_at_leaf(edges, ps, _leaf_root(edges))
        sq = mst_square(rm)
        for i in range(len(sq)):
            for j in range(i + 1, len(sq)):
                pairs += 1
                if lemma_mst2_cross(sq[i], sq[j], ps) != properly_cross(
                    sq[i].seg, sq[j].seg, ps
                ):
                    disagreements += 1
    assert disagreements == 0
    print(f"\nPASS criterion 4: crossing oracle agrees on {pairs} square-graph pairs")


def test_criterion_5_counting_lower_bound():
    for n in range(4, 101):
        assert counting_lower_bound(n, 1).feasible
        for k in range(2, 11):
            assert not counting_lower_bound(n, k).feasible
    print("\nPASS criterion 5: counting bound infeasible for 2<=k<=10, 4<=n<=100")


def test_criterion_6_distributed_suite():
    rng = random.Random(514)
    t0 = time.time()
    for k in (1, 2, 3):
        floor_n = max(12 * k - 3, 60)
        for _ in range(100):
            ps = random_point_set(rng, rng.randint(floor_n, floor_n + 30))
            ls = build_k_layers(ps, k)  # hull/8-neighbor assertions must not fire
            rep = verify_layers([list(l) for l in ls.layers], ps)
            assert len(ls.layers) == k
            assert rep.all_plane and rep.all_spanning and rep.pairwise_disjoint
            limit_sq = 288 * k * k * ls.beta_sq  # (12*sqrt(2)*k*beta)^2, exact
            for layer in ls.layers:
                for e in layer:
                    assert ps.seg_len_sq(e) <= limit_sq
    elapsed = time.time() - t0
    assert elapsed < 120, f"criterion 6 took {elapsed:.1f}s"
    print(f"\nPASS criterion 6: distributed suite, 300 builds in {elapsed:.1f}s")


def test_criterion_7_locality_certificates():
    t0 = time.time()
    builds = 0
    points = 0
    for ps, k in acceptance_k_layer_instances():
        certifier = Certifier(ps, build_k_layers(ps, k))
        for p in ps.ids:
            cert = certifier.certify(p)
            assert cert.ok and cert.cheby_cells == 2
            points += 1
        builds += 1
    elapsed = time.time() - t0
    print(
        f"\nPASS criterion 7: locality certificates for {points} points "
        f"across {builds} builds in {elapsed:.1f}s"
    )


def test_criterion_8_center_point_oracle():
    rng = random.Random(516)
    for _ in range(100):
        m = rng.randint(4, 60)
        ps = random_point_set(rng, m, extent=100)
        cx, cy = center_point(list(ps.ids), ps)
        assert brute_depth(cx, cy, exact_coords(ps)) >= m // 3
    print("\nPASS criterion 8: 100 center points pass the independent depth check")


def test_criterion_9_mutation_sensitivity():
    rng = random.Random(517)
    goldens = [gen_line_instance(33, "0.001"), gen_line_instance(64, "0.001")]
    for ps in goldens:
        tt = build_two_disjoint_trees(ps)
        base = tt.layers()
        guarantee = Guarantee.two_tree(tt.bound, shared=False)
        tripped = 0
        for _ in range(100):
            mutated = random_edge_mutation(base, ps, rng)
            if not verify_layers(mutated, ps).ok(guarantee):
                tripped += 1
        assert tripped >= 99
    print("\nPASS criterion 9: >=99/100 mutations tripped on each golden instance")


def test_criterion_10_determinism(tmp_path):
    from plane_layers.cli import main

    outputs = []
    for round_dir in ("one", "two"):
        d = tmp_path / round_dir
        d.mkdir()
        pts = d / "pts.txt"
        assert main(["gen", "--kind", "uniform", "--n", "80", "--seed", "99",
                     "--out", str(pts)]) == 0
        tt = d / "tt.json"
        assert main(["build", str(pts), "--mode", "two-tree", "--out", str(tt)]) == 0
        dist = d / "dist.json"
        assert main(["build", str(pts), "--mode", "distributed", "--k", "2",
                     "--out", str(dist)]) == 0
        svg = d / "plot.svg"
        assert main(["render", str(pts), str(dist), "--grid", "--out", str(svg)]) == 0
        rpt = d / "report.json"
        assert main(["verify", str(pts), str(dist), "--out", str(rpt)]) == 0
        outputs.append(
            tuple((f.name, f.read_bytes()) for f in sorted(d.iterdir()))
        )
    assert outputs[0] == outputs[1]
    print("\nPASS criterion 10: byte-identical outputs across repeated runs")
