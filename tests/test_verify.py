import math
import random
from fractions import Fraction

import pytest

from plane_layers.centralized import Recoloring, build_two_disjoint_trees, construction1
from plane_layers.distributed import build_k_layers
from plane_layers.errors import PreconditionError, UsageError
from plane_layers.geometry import (
    PHI,
    PointSet,
    Segment,
    _all_crossing_pairs,
    crossing_pairs,
)
from plane_layers.mst import bottleneck, build_emst
from plane_layers.verify import (
    Guarantee,
    LayerCount,
    LayerCounts,
    count_layers,
    counting_lower_bound,
    gen_line_instance,
    verify_layers,
)

from conftest import collinear_triple, random_edge_mutation, random_point_set
from predicates import collinear_overlap, has_crossing
from rational_points import exact_coords
from unionfind import UnionFind


def test_verify_construction1_output(rng):
    for _ in range(10):
        ps = random_point_set(rng, rng.randint(4, 25))
        edges = build_emst(ps)
        root = min(v for v in ps.ids if sum(1 for e in edges if e.touches(v)) == 1)
        tt = construction1(ps, root, Recoloring.ORIGINAL)
        rep = verify_layers(tt.layers(), ps)
        assert rep.all_plane and rep.all_spanning
        assert rep.duplicate_edges == (tt.shared.as_pair(),)
        assert rep.breach(Guarantee.two_tree(2, shared=tt.shared)) is None


def test_verify_detects_corruption(rng):
    ps = random_point_set(rng, 20)
    tt = build_two_disjoint_trees(ps)
    layers = tt.layers()
    # duplicating another edge in place of the first one drops a tree edge,
    # so some vertex loses its only connection
    layers[0][0] = Segment(layers[0][1].a, layers[0][1].b)
    rep = verify_layers(layers, ps)
    assert not rep.per_layer[0].spanning


def test_verify_empty_layer_single_point():
    ps = PointSet([(0, 0)])
    rep = verify_layers([[]], ps)
    assert rep.per_layer[0].plane and rep.per_layer[0].spanning
    assert rep.overall_max_ratio == 0.0


def test_verify_rejects_ids_outside_the_point_set():
    """An id outside 0..n-1 is a precondition error naming the first such
    edge, not a read of another point (-1 is the last one) or an IndexError:
    in `verify_layers` and `count_layers` with its layer, in `mst.bottleneck`
    as that of its one layer, in `crossing_pairs` without one."""
    ps = PointSet([(0, 0), (4, 0), (0, 4), (4, 4)])
    tree = [Segment(0, 1), Segment(1, 2), Segment(2, 3)]
    for check in (verify_layers, count_layers):
        with pytest.raises(PreconditionError, match=r"^layer 0: edge \(-1, 0\) has an id outside 0\.\.3$"):
            check([[Segment(-1, 0), Segment(0, 1), Segment(1, 2)]], ps)
        with pytest.raises(PreconditionError, match=r"^layer 0: edge \(0, 7\) has an id outside 0\.\.3$"):
            check([[Segment(0, 7)]], ps)
        with pytest.raises(PreconditionError, match=r"^layer 1: edge \(0, 7\) has an id outside 0\.\.3$"):
            check([tree, [Segment(1, 2), Segment(0, 7), Segment(-1, 9)]], ps)
    for bad in ((-1, 1), (0, 4)):
        with pytest.raises(PreconditionError,
                           match=rf"^layer 0: edge \({bad[0]}, {bad[1]}\) has an id outside 0\.\.3$"):
            bottleneck([*tree, Segment(*bad)], ps)
    with pytest.raises(PreconditionError, match=r"^edge \(-1, 0\) has an id outside 0\.\.3$"):
        crossing_pairs([Segment(-1, 0), Segment(1, 2)], ps)
    with pytest.raises(PreconditionError, match=r"^edge \(0, 7\) has an id outside 0\.\.3$"):
        crossing_pairs([Segment(0, 7)], ps)
    assert verify_layers([tree], ps).per_layer[0].spanning
    assert count_layers([tree], ps).per_layer[0].components == 1
    assert bottleneck(tree, ps).length_sq == 32  # edge (1, 2), the diagonal


def test_verify_flags_overlaps_only_on_request():
    # points 0-(2,0) and 2-(3,0) give segments (0,1) and (2,3) overlapping on
    # the x axis
    ps = PointSet([(0, 0), (2, 0), (1, 0), (3, 0), (0, 1)])
    layer = [Segment(0, 1), Segment(2, 3), Segment(0, 4)]
    silent = verify_layers([layer], ps)
    assert silent.per_layer[0].plane and not silent.per_layer[0].overlaps
    flagged = verify_layers([layer], ps, flag_overlaps=True)
    assert flagged.per_layer[0].plane  # overlaps are still non-crossings
    assert flagged.per_layer[0].overlaps == (((0, 1), (2, 3)),)


def test_counting_lower_bound_examples():
    got = counting_lower_bound(5, 2)
    assert (got.short_edges, got.needed, got.feasible) == (7, 8, False)
    got = counting_lower_bound(10, 1)
    assert (got.short_edges, got.needed, got.feasible) == (9, 9, True)


def test_counting_lower_bound_sweep():
    for n in range(4, 101):
        assert counting_lower_bound(n, 1).feasible
        for k in range(2, 11):
            assert not counting_lower_bound(n, k).feasible


def test_counting_lower_bound_closed_form():
    # for n > k the deficit is k*(k-1)/2, independent of n
    for n in range(12, 40):
        for k in range(2, 8):
            got = counting_lower_bound(n, k)
            assert got.needed - got.short_edges == k * (k - 1) // 2


def test_gen_line_instance_shape():
    ps = gen_line_instance(5, "0.001")
    assert [ps.x(i) for i in ps.ids] == [0, 1, 2, 3, 4]
    edges = build_emst(ps)
    assert {e.as_pair() for e in edges} == {(0, 1), (1, 2), (2, 3), (3, 4)}
    # the golden-ratio folds repeat their increment on wrap-free stretches,
    # so arithmetic-progression triples like (3,4,5) stay collinear; the
    # constructions never orient exactly those triples (verified at scale in
    # the acceptance suite)
    assert collinear_triple(gen_line_instance(8, "0.001")) is not None
    for n, epsilon in [(4, 0), (4, "0"), (4, "-0.001"), (4, -0.5), (4, Fraction(-1, 3)),
                       (1, "0.001"), (0, "0.001"), (-3, "0.001")]:
        with pytest.raises(PreconditionError):
            gen_line_instance(n, epsilon)


def test_gen_line_instance_rejects_a_non_int_n_and_a_malformed_eps():
    for n, epsilon, message in [(2.5, "0.001", "n must be an int, got 2.5"),
                                ("4", "0.001", "n must be an int, got '4'"),
                                (True, "0.001", "n must be an int, got True"),
                                (4, "abc", "epsilon must be a number, got 'abc'"),
                                (4, "1/0", "epsilon must be a number, got '1/0'"),
                                (4, None, "epsilon must be a number, got None")]:
        with pytest.raises(UsageError) as info:
            gen_line_instance(n, epsilon)
        assert str(info.value) == message


def phi_formula_line_instance(n, epsilon):
    """The near-line adversary by its defining formula, (i, eps*((i*PHI)
    mod 1 - 1/2)) in Fractions: the oracle for `gen_line_instance`."""
    eps = Fraction(str(epsilon)) if isinstance(epsilon, float) else Fraction(epsilon)
    return PointSet([(Fraction(i), eps * ((i * PHI) % 1 - Fraction(1, 2))) for i in range(n)])


@pytest.mark.parametrize("epsilon", ["0.001", "1/3", "7", "2.5e-9", 0.001, Fraction(1, 10**30)])
def test_gen_line_instance_matches_the_phi_formula(epsilon):
    for n in [*range(2, 65), 500, 1000]:
        got, want = gen_line_instance(n, epsilon), phi_formula_line_instance(n, epsilon)
        assert got.to_text() == want.to_text(), n
        assert (got.scale, got.grid) == (want.scale, want.grid), n


def test_mutations_trip_checks(rng):
    """On the adversarial line family every endpoint swap violates planarity,
    spanning-ness, disjointness, the ratio bound, or the single-long-edge
    budget; looser instances admit swaps that form other valid solutions."""
    ps = gen_line_instance(33, "0.001")
    tt = build_two_disjoint_trees(ps)
    base = tt.layers()
    guarantee = Guarantee.two_tree(tt.bound, shared=None)
    assert verify_layers(base, ps).breach(guarantee) is None
    tripped = 0
    for _ in range(100):
        mutated = random_edge_mutation(base, ps, rng)
        if verify_layers(mutated, ps).breach(guarantee) is not None:
            tripped += 1
    assert tripped >= 99


def test_sweep_matches_all_pairs_on_mutated_layers(rng):
    """Criterion-9-style endpoint swaps on built two-tree and k-layer layers."""
    built = []
    for ps in (gen_line_instance(33, "0.001"), random_point_set(rng, 60)):
        built.append((ps, build_two_disjoint_trees(ps).layers()))
    ps = random_point_set(rng, 120)
    built.append((ps, [list(layer) for layer in build_k_layers(ps, 2).layers]))
    crossing = 0
    for ps, layers in built:
        for layer in layers:
            assert not has_crossing(layer, ps) and not _all_crossing_pairs(layer, ps)
        for _ in range(150):
            for layer in random_edge_mutation(layers, ps, rng):
                expected = bool(_all_crossing_pairs(layer, ps))
                assert has_crossing(layer, ps) == expected
                crossing += expected
    assert crossing >= 150


# each map of the plane with the factor it scales lengths by
SIMILARITIES = {
    "quarter turn": (lambda x, y: (-y, x), 1),
    "mirror image": (lambda x, y: (-x, y), 1),
    "translation": (lambda x, y: (x + Fraction(7, 3), y - Fraction(5, 11)), 1),
    "scaling": (lambda x, y: (x * Fraction(3, 7), y * Fraction(3, 7)), Fraction(3, 7)),
}


def test_verify_reports_are_invariant_under_rigid_motions_and_scaling():
    """verify decides on exact grid integers, so a quarter turn, a mirror
    image or a rational translation of the points leaves its report as it
    is, and a positive rational scaling changes only the absolute longest
    edge lengths, whose exact squares scale by the factor squared.  A turn
    or a mirror changes the sweep's event order and which segments become
    status neighbours, so this checks the sweep's probe and its y-extent
    reject, on built two-tree and k-layer layers and on mutated copies of
    them whose crossings verify lists, with no all-pairs scan."""
    rng = random.Random(2026)
    cases = [(ps := gen_line_instance(60, "0.001"), build_two_disjoint_trees(ps).layers())]
    for n in (60, 120):
        ps = random_point_set(rng, n)
        cases.append((ps, build_two_disjoint_trees(ps).layers()))
        cases += [(ps, [list(l) for l in build_k_layers(ps, k).layers]) for k in (1, 2, 3)]
    crossed = 0
    for ps, layers in cases:
        coords = exact_coords(ps)
        images = [(name, PointSet([f(x, y) for x, y in coords]), factor)
                  for name, (f, factor) in SIMILARITIES.items()]
        for listed in [layers] + [random_edge_mutation(layers, ps, rng) for _ in range(3)]:
            report = verify_layers(listed, ps)
            crossed += not report.all_plane
            for name, image, factor in images:
                moved = verify_layers(listed, image)
                got, want = moved.to_json_dict(), report.to_json_dict()
                if factor != 1:
                    assert moved.beta_sq == factor**2 * report.beta_sq
                    for a, b in zip(moved.per_layer, report.per_layer):
                        assert a.longest_sq == factor**2 * b.longest_sq
                    for d in (got, want):
                        for layer in d["layers"]:
                            del layer["bottleneck"]
                assert got == want, name
    assert crossed >= 12


def test_count_layers_counts_repeats_and_longest_edges():
    ps = PointSet([(0, 0), (1, 0), (0, 1), (1, 1), (3, 0)])
    layers = [
        [Segment(2, 3), Segment(0, 1), Segment(0, 2)],
        [Segment(0, 2), Segment(1, 4), Segment(1, 4)],
        [],
    ]
    counts = count_layers(layers, ps)
    assert [(c.edges, c.components) for c in counts.per_layer] == [(3, 2), (3, 3), (0, 5)]
    # equal lengths: the lexicographically smallest edge witnesses the longest
    assert [(c.longest_sq, c.longest) for c in counts.per_layer] == [
        (1, Segment(0, 1)), (4, Segment(1, 4)), (0, None)]
    assert counts.repeats == ((Segment(0, 2), 0, 1), (Segment(1, 4), 1, 1))
    assert counts.longer_than(1) == 1 and counts.longer_than(0) == 4


def count_layers_oracle(layers, ps):
    """`count_layers` written with a `UnionFind` per layer and
    `PointSet.sdist_sq`: the reference for its flat union-find."""
    first, lengths, repeats, per_layer = {}, [], [], []
    for j, layer in enumerate(layers):
        uf = UnionFind(ps.ids)
        top, longest = 0, None
        for e in layer:
            sq = ps.sdist_sq(e.a, e.b)
            if e in first:
                repeats.append((e, first[e], j))
            else:
                first[e] = j
                lengths.append(sq)
            uf.union(e.a, e.b)
            if sq > top or (sq == top and e < longest):
                top, longest = sq, e
        length = math.sqrt(top / (ps.scale * ps.scale))
        per_layer.append(LayerCount(len(layer), uf.component_count(), top, longest, length))
    return LayerCounts(tuple(per_layer), tuple(repeats), tuple(lengths))


def random_layer(rng, ps):
    """An empty layer, a spanning tree, a forest, or edges drawn with
    repetition (each with the chance of an extra copy of one edge)."""
    n = len(ps)
    kind = rng.choice(["empty", "tree", "forest", "any"]) if n >= 2 else "empty"
    if kind == "empty":
        return []
    order = rng.sample(range(n), n)
    tree = [Segment(v, order[rng.randrange(i)]) for i, v in enumerate(order) if i]
    if kind == "tree":
        layer = tree
    elif kind == "forest":
        layer = rng.sample(tree, rng.randint(0, len(tree) - 1))
    else:
        layer = [Segment(*rng.sample(range(n), 2)) for _ in range(rng.randint(1, 2 * n))]
    if layer and rng.random() < 0.5:
        layer.append(rng.choice(layer))
    rng.shuffle(layer)
    return layer


def test_count_layers_matches_union_find_oracle(rng):
    """Random layer lists, sharing edges across layers, on point sets whose
    grid coordinates tie some lengths; n = 1 and empty layers included."""
    kinds = set()
    for trial in range(400):
        n = 1 if trial % 25 == 0 else rng.randint(2, 24)
        side = rng.choice([5, 8, 1000])
        ps = PointSet([divmod(c, side) for c in rng.sample(range(side * side), n)])
        layers = [random_layer(rng, ps) for _ in range(rng.randint(0, 4))]
        if len(layers) >= 2 and rng.random() < 0.3:
            layers[1] = layers[1] + rng.sample(layers[0], min(2, len(layers[0])))
        expected = count_layers_oracle(layers, ps)
        assert count_layers(layers, ps) == expected
        for c in expected.per_layer:
            kinds.add("empty" if not c.edges else "spanning" if c.components == 1 else "split")
        if expected.repeats:
            kinds.add("repeats")
        if n == 1 and layers:
            kinds.add("n=1")
    assert kinds == {"empty", "spanning", "split", "repeats", "n=1"}


def overlapping_pairs_oracle(layer, ps):
    """The O(m^2) scan over every pair of the layer's edges."""
    edges = list(layer)
    return tuple(
        (edges[i].as_pair(), edges[j].as_pair())
        for i in range(len(edges))
        for j in range(i + 1, len(edges))
        if collinear_overlap(edges[i], edges[j], ps)
    )


def test_flag_overlaps_matches_pair_scan(rng):
    """Random layers on shuffled full grids (scaled by a random denominator),
    with collinear chains of overlapping and touching edges."""
    overlapping = 0
    for _ in range(300):
        side = rng.randint(2, 6)
        den = rng.choice([1, 3, 10])
        coords = [(Fraction(x, den), Fraction(y, den)) for x in range(side) for y in range(side)]
        rng.shuffle(coords)  # edges then run both ways along a line
        ps = PointSet(coords)
        index = {c: i for i, c in enumerate(coords)}
        layer = []
        for _ in range(rng.randint(0, 12)):
            a, b = rng.sample(range(len(ps)), 2)
            layer.append(Segment(a, b))
        for _ in range(rng.randint(0, 3)):  # a chain along one grid line
            dx, dy = rng.choice([(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, -1)])
            x, y = rng.randrange(side), rng.randrange(side)
            line = []
            while 0 <= x < side and 0 <= y < side:
                line.append(index[(Fraction(x, den), Fraction(y, den))])
                x, y = x + dx, y + dy
            for _ in range(rng.randint(0, 4) if len(line) > 1 else 0):
                a, b = rng.sample(line, 2)
                layer.append(Segment(a, b))
        rng.shuffle(layer)
        expected = overlapping_pairs_oracle(layer, ps)
        overlapping += bool(expected)
        assert verify_layers([layer], ps, flag_overlaps=True).per_layer[0].overlaps == expected
    assert overlapping >= 100
