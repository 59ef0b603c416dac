import math
import random
import types

import pytest

from plane_layers import centralized, distributed, geometry, mst
from plane_layers.errors import PreconditionError
from plane_layers.geometry import PointSet, Segment
from plane_layers.verify import gen_line_instance


def random_point_set(rng: random.Random, n: int, extent: float = 1000.0) -> PointSet:
    """Uniform points with 6 decimal places, distinct by construction."""
    pts = set()
    while len(pts) < n:
        pts.add((f"{rng.uniform(0, extent):.6f}", f"{rng.uniform(0, extent):.6f}"))
    return PointSet(sorted(pts))


def acceptance_uniform_pool() -> list[PointSet]:
    """The 500 uniform instances of acceptance criteria 1 and 2."""
    rng = random.Random(510)
    return [random_point_set(rng, rng.randint(4, 64)) for _ in range(500)]


def acceptance_line_pool() -> list[PointSet]:
    """The 100 near-line instances of acceptance criterion 2."""
    rng = random.Random(511)
    return [gen_line_instance(rng.randint(4, 64), "0.001") for _ in range(100)]


def acceptance_k_layer_instances() -> list[tuple[PointSet, int]]:
    """The 20 (points, k) builds of acceptance criterion 7, k cycling 1-3."""
    rng = random.Random(515)
    out = []
    for build in range(20):
        k = 1 + build % 3
        n = rng.randint(max(12 * k - 3, 60), 90)
        out.append((random_point_set(rng, n), k))
    return out


def jittered_lattice(seed: int, index: int) -> PointSet:
    """Instance `index` of `seed` of the benchmark's jittered lattice: 22 x
    22 points, spacing 10, each coordinate moved by up to +-3, as
    `perfbench/workloads.py` draws it with `lattice_points(_instance_rng(seed,
    index), 22, 10, 3)`."""
    rng = random.Random(seed * 1_000_003 + index)
    return PointSet([(f"{i * 10 + rng.uniform(-3, 3):.6f}", f"{j * 10 + rng.uniform(-3, 3):.6f}")
                     for i in range(22) for j in range(22)])


def count_mst_computations(monkeypatch) -> list[int]:
    """Record the point count each time `mst._mst` computes a point set's
    EMST join order, which it keeps, so only on the first call for a point
    set (grid pairs or Delaunay edges).  `mst.build_emst` and
    `mst.grid_bottleneck_sq` both read that join order."""
    calls: list[int] = []
    compute = mst._mst

    def counted(ps):
        if ps._mst is None:
            calls.append(len(ps))
        return compute(ps)

    monkeypatch.setattr(mst, "_mst", counted)
    return calls


def count_emst_trees(monkeypatch) -> list[int]:
    """Record the point count of every `Segment` tree that `mst.build_emst`
    returns, through the binding of each module that calls it."""
    trees: list[int] = []
    build = mst.build_emst

    def counted(ps):
        trees.append(len(ps))
        return build(ps)

    for module in (mst, centralized, distributed):
        monkeypatch.setattr(module, "build_emst", counted)
    return trees


def count_sweeps(monkeypatch) -> list[int]:
    """Patch the planarity sweep `geometry._sweep`, which `crossing_pairs`,
    `verify_layers` and the tests' `predicates.has_crossing` run on every
    edge list they check, to record the edge count of each call."""
    sweeps: list[int] = []
    sweep = geometry._sweep

    def counted(edges, ps):
        sweeps.append(len(edges))
        return sweep(edges, ps)

    monkeypatch.setattr(geometry, "_sweep", counted)
    return sweeps


def grid_checks(ps) -> int:
    """The number of pair checks `mst._grid_forest` makes on `ps`, counted
    from the kernel: each check subtracts two x coordinates once, and the
    kernel subtracts x otherwise only to measure the width and to bucket the
    points, n + 1 times.  The x coordinates go in as an int subclass that
    counts the subtractions it is the left side of."""
    subtractions = 0

    class Counted(int):
        __slots__ = ()

        def __sub__(self, other):
            nonlocal subtractions
            subtractions += 1
            return int(self) - other

    xs, ys = ps.grid
    assert mst._grid_forest([Counted(x) for x in xs], ys) == mst._grid_forest(xs, ys)
    return subtractions - len(ps) - 1


def sweep_arithmetic(edges, ps) -> tuple[int, int]:
    """The orientations and the orientation sign products that the
    planarity sweep `geometry._sweep` forms on `edges`, counted from the
    kernel.

    An orientation is a difference of two products of coordinate
    differences: the side tests of a search, of the widening of a block
    over the neighbours through an event point or of a block's order, and
    the four of a pair test.  A pair test that gets past the
    shared-endpoint and y-extent rejects multiplies two orientations, and
    does so a second time when the first product is negative; no other step
    multiplies two.  The grid coordinates go in as an int subclass that
    records how deep in that arithmetic each value is: a coordinate (0), a
    difference of two (1), a product of differences (2), an orientation, a
    difference of products (3).  The sweep reads the point set's own
    lexicographic order, so the stand-in lends it."""
    orientations = products = 0

    class Term(int):
        def __new__(cls, value, depth):
            term = int.__new__(cls, value)
            term.depth = depth
            return term

        def __sub__(self, other):
            nonlocal orientations
            orientations += self.depth == 2
            return Term(int(self) - int(other), self.depth + 1)

        def __mul__(self, other):
            nonlocal products
            if self.depth == 3:
                products += 1
                return int(self) * int(other)
            return Term(int(self) * int(other), self.depth + 1)

    xs, ys = ps.grid
    grid = types.SimpleNamespace(grid=([Term(x, 0) for x in xs], [Term(y, 0) for y in ys]),
                                 lex_order=ps.lex_order)
    assert geometry._sweep(edges, grid) == geometry._sweep(edges, ps)
    return orientations, products


def grid_repair_rounds(ps) -> int | None:
    """The repair rounds `mst._grid_forest` takes to span `ps`, or None when
    it declines: each round runs Kruskal again, over the pairs it finds, so
    the rounds are the calls to `mst._kruskal` after the first."""
    passes = []
    kruskal = mst._kruskal

    def counted(*args):
        passes.append(None)
        return kruskal(*args)

    mst._kruskal = counted
    try:
        tree = mst._grid_forest(*ps.grid)
    finally:
        mst._kruskal = kruskal
    return None if tree is None else len(passes) - 1


def grid_repaired(ps) -> bool:
    return bool(grid_repair_rounds(ps))


def grid_check_budget(n: int) -> float:
    """The most pair checks the grid source may make on n points."""
    return mst.GRID_CHECK_BUDGET * n * (math.log(n) + mst.GRID_LOG_SLACK) / math.pi


def collinear_triple(ps: PointSet) -> tuple[int, int, int] | None:
    """Some collinear id triple, or None.  O(n^2) per anchor point."""
    n = len(ps)
    for i in range(n):
        xi, yi = ps.scaled(i)
        buckets: dict[tuple[int, int], int] = {}
        for j in range(n):
            if j == i:
                continue
            xj, yj = ps.scaled(j)
            dx, dy = xj - xi, yj - yi
            g = math.gcd(dx, dy)
            dx //= g
            dy //= g
            if dy < 0 or (dy == 0 and dx < 0):
                dx, dy = -dx, -dy
            if (dx, dy) in buckets:
                return (i, buckets[(dx, dy)], j)
            buckets[(dx, dy)] = j
    return None


def random_edge_mutation(layers, ps: PointSet, rng: random.Random) -> list[list[Segment]]:
    """Replace one endpoint of one random edge with a random other vertex,
    avoiding exact duplicates within the layer.  Used for mutation-sensitivity
    testing of verify_layers."""
    out = [list(layer) for layer in layers]
    nonempty = [i for i, l in enumerate(out) if l]
    if not nonempty or len(ps) < 3:
        raise PreconditionError("nothing to mutate")
    for _ in range(1000):
        li = rng.choice(nonempty)
        ei = rng.randrange(len(out[li]))
        edge = out[li][ei]
        keep = rng.choice([edge.a, edge.b])
        swap = rng.randrange(len(ps))
        if swap == edge.a or swap == edge.b:
            continue
        candidate = Segment(keep, swap)
        if candidate in out[li]:
            continue
        out[li][ei] = candidate
        return out
    raise PreconditionError("failed to generate a mutation")


@pytest.fixture
def rng():
    return random.Random(20240813)
