"""Regression guards: edges stay C-level int pairs in the two-tree build and
verify, and the EMST of uniform points keeps to the grid's check budget.

`Segment` is a tuple, so sorting, hashing and comparing edges run in C, and
`count_layers` counts components with a list union-find over the point ids.
A build plus a verify then calls no Python-level `Segment` comparison, hash
or initialiser, no `UnionFind` from `count_layers`, and `ccw_order_around`
only for the few vertices the construction fans around, whatever n is.  A
per-edge Python dunder or a per-vertex angular sort creeping back shows up
here as a count above zero or one that grows with n.

On uniform points the grid's short pairs give the EMST: its pair checks stay
within their budget, counted from the kernel rather than timed, no Delaunay
triangulation runs when the grid accepts, and a point set computes its tree
once however many builds and verifies read it.

`angular_order` sorts on a float key in C and certifies the result with one
pass of its exact comparator over adjacent pairs, so across a k-layer build
and a certificate the comparator runs at most once per sorted vector; a
comparator sort would run it about log m times per vector.
"""

import cProfile
import pstats
import random
import types
from pathlib import Path

import pytest

from plane_layers import distributed, geometry, mst
from plane_layers.centralized import build_two_disjoint_trees
from plane_layers.distributed import build_k_layers, locality_certificate
from plane_layers.geometry import Segment
from plane_layers.verify import verify_layers

from conftest import count_tree_computations, grid_check_budget, grid_checks, random_point_set

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
        assert verify_layers(trees[0].layers(), ps).ok()

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
        if Path(file).name == "geometry.py" and name == "ccw_order_around"
    )
    assert ccw <= CCW_BUDGET


@pytest.mark.parametrize("n", [100, 400, 1600])
def test_uniform_emst_keeps_to_the_grid_budget(monkeypatch, n):
    ps = random_point_set(random.Random(n), n)
    checks = grid_checks(ps)
    assert 0 < checks <= grid_check_budget(n)
    accepted = mst._grid_tree(*ps.grid) is not None
    triangulations = []
    triangulate = mst._triangulate

    def counted(xs, ys):
        triangulations.append(len(xs))
        return triangulate(xs, ys)

    monkeypatch.setattr(mst, "_triangulate", counted)
    trees = count_tree_computations(monkeypatch)
    assert verify_layers(build_two_disjoint_trees(ps).layers(), ps).ok()
    assert verify_layers([list(layer) for layer in build_k_layers(ps, 1).layers], ps).ok()
    assert trees == [n]
    # the uniform set at n = 400 has its longest MST edge at the boundary,
    # beyond the grid radius, and takes the Delaunay edges
    assert accepted == (n != 400)
    assert triangulations == ([] if accepted else [n])


def test_angular_order_compares_at_most_once_per_vector(monkeypatch):
    ps = random_point_set(random.Random(300), 300)
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
