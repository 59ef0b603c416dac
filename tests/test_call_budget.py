"""Regression guards: edges stay C-level int pairs in the two-tree build and
verify, and the EMST of uniform points keeps to the grid's check budget.

`Segment` is a tuple, so sorting, hashing and comparing edges run in C, and
`count_layers` counts components with a list union-find over the point ids.
A build plus a verify then calls no Python-level `Segment` comparison, hash
or initialiser, no `UnionFind` from `count_layers`, and the ring scan
`centralized._ring` only for the few vertices the construction fans around,
whatever n is.  A
per-edge Python dunder or a per-vertex angular sort creeping back shows up
here as a count above zero or one that grows with n.

On uniform points the grid's short pairs give the EMST, repaired where the
longest tree edges lie beyond the grid's radius: its pair checks, the
repair's included, stay within their budget and at a constant per point,
counted from the kernel rather than timed, no Delaunay triangulation runs,
and a point set computes its tree once however many builds and verifies
read it.

The two-tree build computes the MST's adjacency once, and colors the
subtrees hanging off the flat vertex in passes that read each vertex's
neighbours once; the package has no rooted copy of the tree to fall back
on.

The grid takes one `_cell_index` square root per occupied column and row,
and each dense box sorts its assigned points by angle once per candidate
center it tries: the accepted candidate's sort serves the depth test, the
ray-distinctness test and the clockwise walk.

`angular_order` sorts on a float key in C and certifies the result with one
pass of its exact comparator over adjacent pairs, so across a k-layer build
and a certificate the comparator runs at most once per sorted vector; a
comparator sort would run it about log m times per vector.

A distributed build through the CLI counts its layers once, in the build's
final check, and prints its maxRatio from that count.

A `PointSet` of plain decimal strings goes onto its grid in one pass, as a
plain point file does, with no `read_coord` call per coordinate.

The planarity sweep tests each pair of status neighbours, and on a tree
layer nearly every such pair either shares an endpoint or has its y-range
apart from the other's; both are rejected before any orientation product,
so the sign products, counted from the kernel, stay far below one per edge.
It handles all the segments at an event point at once, so the orientations
it forms, counted the same way, stay below three per edge.

The library's builds, verify and certificates leave no cyclic garbage: with
the collector off, everything they allocate is freed by reference counting.
"""

import cProfile
import gc
import pstats
import random
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

from plane_layers import centralized, cli, distributed, geometry, mst, verify
from plane_layers.centralized import build_two_disjoint_trees, find_flat_vertex
from plane_layers.cli import main
from plane_layers.distributed import build_k_layers, locality_certificate
from plane_layers.geometry import PointSet, Segment
from plane_layers.verify import Guarantee, verify_layers

from conftest import (
    count_mst_computations,
    grid_check_budget,
    grid_checks,
    grid_repaired,
    random_point_set,
    sweep_arithmetic,
)

SEGMENT_DUNDERS = (
    "__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__ne__", "__hash__",
    "__init__", "__post_init__",
)
CCW_BUDGET = 8


def python_method_keys(cls: type, names) -> set:
    """cProfile keys (file, first line, name) of the methods of `cls` among
    `names` that are Python functions; C slots have no code object."""
    codes = (getattr(getattr(cls, name, None), "__code__", None) for name in names)
    return {(c.co_filename, c.co_firstlineno, c.co_name) for c in codes if c is not None}


@pytest.mark.parametrize("n", [100, 400, 1600])
def test_library_build_and_verify_keep_edges_in_c(n):
    ps = random_point_set(random.Random(n), n)
    trees = []

    def build_and_verify():
        trees.append(build_two_disjoint_trees(ps))
        assert verify_layers(trees[0].layers(), ps).breach(Guarantee()) is None

    prof = cProfile.Profile()
    prof.runcall(build_and_verify)
    stats = pstats.Stats(prof).stats
    assert trees[0].bound == 2  # uniform points take the flat branch

    dunders = python_method_keys(Segment, SEGMENT_DUNDERS)
    assert sum(stats[key][1] for key in dunders if key in stats) == 0
    from_count_layers = [
        name
        for (file, _, name), (*_, callers) in stats.items()
        if Path(file).name == "unionfind.py"
        and any(caller[2] == "count_layers" for caller in callers)
    ]
    assert from_count_layers == []
    ccw = sum(
        calls
        for (file, _, name), (_, calls, *_) in stats.items()
        if Path(file).name == "centralized.py" and name == "_ring"
    )
    assert ccw <= CCW_BUDGET


class CountingAdjacency(dict):
    """An adjacency dict that counts, per vertex, the reads of its list."""

    def __init__(self, adj, reads: Counter):
        super().__init__(adj)
        self.reads = reads

    def __getitem__(self, v):
        self.reads[v] += 1
        return super().__getitem__(v)

    def get(self, v, default=None):
        self.reads[v] += 1
        return super().get(v, default)


@pytest.mark.parametrize("n", [100, 400, 1600])
def test_flat_build_reads_each_subtree_vertex_once(monkeypatch, n):
    ps = random_point_set(random.Random(n), n)
    v = find_flat_vertex(ps, mst.emst_adjacency(ps))
    assert v is not None
    reads = Counter()
    contribution = centralized._subtree_contribution

    def counted(ps, mst_adj, *args, **kwargs):
        return contribution(ps, CountingAdjacency(mst_adj, reads), *args, **kwargs)

    monkeypatch.setattr(centralized, "_subtree_contribution", counted)
    prof = cProfile.Profile()
    trees = prof.runcall(build_two_disjoint_trees, ps)
    assert trees.bound == 2
    calls = {
        name: stats[1]
        for (file, _, name), stats in pstats.Stats(prof).stats.items()
        if Path(file).name == "mst.py"
    }
    assert not hasattr(mst, "root_at_leaf")
    assert calls["emst_adjacency"] == 1
    # the subtrees hang off v and partition the other vertices
    assert sorted(reads) == [u for u in ps.ids if u != v]
    assert set(reads.values()) == {1}


@pytest.mark.parametrize("n", [100, 400, 1600])
def test_uniform_emst_keeps_to_the_grid_budget(monkeypatch, n):
    ps = random_point_set(random.Random(n), n)
    checks = grid_checks(ps)
    assert 0 < checks <= grid_check_budget(n)
    accepted = mst._grid_forest(*ps.grid) is not None
    triangulations = []
    triangulate = mst._triangulate

    def counted(xs, ys, order):
        triangulations.append(len(xs))
        return triangulate(xs, ys, order)

    monkeypatch.setattr(mst, "_triangulate", counted)
    computations = count_mst_computations(monkeypatch)
    assert verify_layers(build_two_disjoint_trees(ps).layers(), ps).breach(Guarantee()) is None
    layers = [list(layer) for layer in build_k_layers(ps, 1).layers]
    assert verify_layers(layers, ps).breach(Guarantee()) is None
    assert computations == [n]
    assert accepted
    assert triangulations == []
    # at about 2.5 points per cell some points of each set lie outside the
    # largest component of the short pairs, and the repair joins them
    assert grid_repaired(ps)


@pytest.mark.parametrize("n", [400, 1600, 6400])
def test_uniform_grid_checks_per_point_stay_constant(n):
    """O(1) pair checks per point, the repair's included: a point meets
    about half of its own cell and all of four neighbouring cells at about
    2.5 points each, 11.25 checks in all, whatever n is."""
    ps = random_point_set(random.Random(n), n)
    assert grid_checks(ps) < 12 * n


def _bytecodes(f, *args) -> int:
    """The bytecodes that f(*args) executes, counted by a trace function;
    a tracer set before, such as a coverage tool's, is put back after."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "opcode"
        return local

    def start(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(start)
    try:
        f(*args)
    finally:
        sys.settrace(previous)
    return count


@pytest.mark.parametrize("n", [800, 1600])
def test_grid_declines_two_far_fields_within_its_budget(monkeypatch, n):
    """Two uniform fields of n/2 points, a field's width apart.  The short
    pairs keep to the budget and leave one field outside the largest
    component; the repair counts the window cells it reads or the points
    there, whichever are more, and declines in its first round, so the
    kernel runs fewer than 150 bytecodes per check of the budget (about 60
    here), where a repair that read windows without counting them would
    run its rounds until they cross the gap."""
    rng = random.Random(n)
    pts = set()
    while len(pts) < n:
        x = rng.uniform(0, 1000) + 2000 * (len(pts) % 2)
        pts.add((f"{x:.6f}", f"{rng.uniform(0, 1000):.6f}"))
    ps = PointSet(sorted(pts))
    assert 0 < grid_checks(ps) <= grid_check_budget(n)
    kruskal = mst._kruskal
    passes = []

    def counted(*args):
        passes.append(None)
        return kruskal(*args)

    monkeypatch.setattr(mst, "_kruskal", counted)
    assert mst._grid_forest(*ps.grid) is None
    assert len(passes) == 1
    assert _bytecodes(mst._grid_forest, *ps.grid) < 150 * grid_check_budget(n)


@pytest.mark.parametrize("n", [400, 1600])
def test_tree_layer_sweeps_reject_pairs_before_the_products(n):
    """At most m/10 orientation sign products per layer of m edges.  The
    sweep without the y-extent reject formed about two per edge on these
    layers (787 and 808 at n = 400, 3421 and 3459 at n = 1600); with it,
    6 and 9, and 14 and 31; with one block step per event point, 6 and 5,
    and 12 and 20."""
    ps = random_point_set(random.Random(n), n)
    for layer in build_two_disjoint_trees(ps).layers():
        _, products = sweep_arithmetic(layer, ps)
        assert products <= len(layer) / 10


@pytest.mark.parametrize("n", [400, 1600])
def test_tree_layer_sweeps_form_at_most_three_orientations_per_edge(n):
    """At most 3m orientations per layer of m edges.  A sweep that inserts
    each segment by its own binary search formed 3.8 per edge at n = 400
    and 4.7 at n = 1600, growing with the status; one block step per event
    point forms 2.2 to 2.6: a search, or two side tests that find no
    neighbour through the point, and the order of the segments starting
    there."""
    ps = random_point_set(random.Random(n), n)
    for layer in build_two_disjoint_trees(ps).layers():
        orientations, _ = sweep_arithmetic(layer, ps)
        assert orientations <= 3 * len(layer)


def test_angular_order_compares_at_most_once_per_vector(monkeypatch):
    ps = random_point_set(random.Random(600), 600)
    angular_order = geometry.angular_order
    (cmp,) = (c for c in angular_order.__code__.co_consts
              if isinstance(c, types.CodeType) and c.co_name == "cmp")
    sorted_vectors = []

    def counted(vecs):
        sorted_vectors.append(len(vecs))
        return angular_order(vecs)

    monkeypatch.setattr(geometry, "angular_order", counted)
    monkeypatch.setattr(distributed, "angular_order", counted)

    def build_and_certify():
        locality_certificate(ps, 1, 0, layer_set=build_k_layers(ps, 1))

    prof = cProfile.Profile()
    prof.runcall(build_and_certify)
    stats = pstats.Stats(prof).stats
    comparisons = stats.get((cmp.co_filename, cmp.co_firstlineno, "cmp"), (0, 0))[1]
    assert sum(sorted_vectors) > 500
    assert 0 < comparisons <= sum(sorted_vectors)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [300, 2000])
def test_bucket_takes_one_cell_index_per_occupied_line(monkeypatch, n, k):
    ps = random_point_set(random.Random(n + k), n)
    q = mst.bottleneck(mst.build_emst(ps), ps).length_sq
    calls = []
    cell_index = distributed._cell_index

    def counted(v, *args):
        calls.append(v)
        return cell_index(v, *args)

    monkeypatch.setattr(distributed, "_cell_index", counted)
    cell_of, _, _ = distributed._bucket(ps, k, q)
    columns, rows = ({c[axis] for c in cell_of.values()} for axis in (0, 1))
    assert len(calls) == len(columns) + len(rows) < n


def clusters_point_set(tmp_path, n, seed):
    path = tmp_path / f"clusters-{n}-{seed}.txt"
    assert main(["gen", "--kind", "clusters", "--n", str(n), "--seed", str(seed),
                 "--out", str(path)]) == 0
    return geometry.PointSet.from_text(path.read_text())


@pytest.mark.parametrize("kind, k", [("uniform", 1), ("uniform", 2), ("clusters", 3)])
def test_box_sorts_once_per_tried_candidate(monkeypatch, tmp_path, kind, k):
    """Each box's layers cost one `angular_order` call per center candidate
    it tries, and none beyond: the walk reuses the accepted center's sort."""
    if kind == "uniform":
        ps = random_point_set(random.Random(300), 300)
    else:  # one box of 300 points, with many failing candidates
        ps = clusters_point_set(tmp_path, 300, 1)
    gi = distributed.grid_partition(ps, k, mst.bottleneck(mst.build_emst(ps), ps).length_sq)
    sorts, tried = [], []
    angular_order, candidates = distributed.angular_order, distributed._center_candidates

    def counted_sort(vecs):
        sorts.append(len(vecs))
        return angular_order(vecs)

    def counted_candidates(ids, ps):
        for c in candidates(ids, ps):
            tried.append(c)
            yield c

    def no_region(ids, ps, target):
        raise AssertionError("a box reached its depth region")

    monkeypatch.setattr(distributed, "angular_order", counted_sort)
    monkeypatch.setattr(distributed, "_center_candidates", counted_candidates)
    monkeypatch.setattr(distributed, "_depth_region", no_region)  # every box finds a candidate
    for box in sorted(gi.dense):
        sorts.clear()
        tried.clear()
        distributed.layers_in_box(box, gi)
        assert 1 <= len(sorts) <= len(tried)
        assert set(sorts) == {len(gi.assigned_to(box))}


@pytest.mark.parametrize("k, beta", [(1, None), (2, None), (1, "120")])
def test_distributed_cli_build_counts_its_layers_once(monkeypatch, tmp_path, capsys, k, beta):
    """The build's final `verify_layers` counts the layers; the console
    line's maxRatio reads the longest lengths that report found, kept on
    the `LayerSet`, instead of counting every layer again."""
    points = tmp_path / "p.txt"
    assert main(["gen", "--kind", "uniform", "--n", "300", "--seed", "4",
                 "--out", str(points)]) == 0
    counted = []
    count_layers = verify.count_layers

    def counting(layers, ps):
        counted.append(len(layers))
        return count_layers(layers, ps)

    monkeypatch.setattr(verify, "count_layers", counting)
    monkeypatch.setattr(cli, "count_layers", counting)
    capsys.readouterr()
    extra = [] if beta is None else ["--beta", beta]  # the MST bottleneck is 90.27
    assert main(["build", "--mode", "distributed", "--k", str(k), *extra, str(points),
                 "--out", str(tmp_path / "l.json")]) == 0
    assert counted == [k]
    assert capsys.readouterr().out.startswith(f"layers={k} maxRatio=")


def test_plain_decimal_strings_take_no_per_coordinate_reads(monkeypatch):
    """1600 pairs of plain decimals call `read_coord` 0 times; one `p/q`
    coordinate among them sends every coordinate through it."""
    rng = random.Random(1600)
    pts = [(f"{rng.uniform(-1000, 1000):.6f}", f"{rng.uniform(0, 1000):.{i % 7}f}")
           for i in range(1600)]
    reads = []
    read_coord = geometry.read_coord

    def counted(text):
        reads.append(text)
        return read_coord(text)

    monkeypatch.setattr(geometry, "read_coord", counted)
    assert len(geometry.PointSet(pts)) == 1600
    assert reads == []
    pts[0] = ("1/3", pts[0][1])
    assert len(geometry.PointSet(pts)) == 1600
    assert len(reads) == 3200


def test_library_calls_leave_no_cyclic_garbage():
    """A two-tree build and its verify at n=500, then a k=1 build, its
    verify and a certificate at n=300, all with the collector off: a
    collection afterwards finds nothing unreachable."""
    two_tree = random_point_set(random.Random(500), 500)
    k_layer = random_point_set(random.Random(300), 300)
    gc.collect()
    gc.disable()
    try:
        trees = build_two_disjoint_trees(two_tree)
        assert verify_layers(trees.layers(), two_tree).breach(
            Guarantee.two_tree(trees.bound, None)) is None
        ls = build_k_layers(k_layer, 1)
        assert verify_layers([list(layer) for layer in ls.layers], k_layer).breach(
            Guarantee.k_layers(1, ls.beta_sq)) is None
        assert locality_certificate(k_layer, 1, 0, ls).ok
        assert gc.collect() == 0
    finally:
        gc.enable()
