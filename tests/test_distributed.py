import gc
import hashlib
import json
import math
import random
import re
import weakref
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cmp_to_key
from itertools import chain, combinations, islice

import pytest

from plane_layers import distributed
from plane_layers.cli import main
from plane_layers.distributed import (
    Certifier,
    GridIndex,
    _cell_index,
    _connector_pairs,
    _dense_near,
    _nearest_center,
    _pair_selected,
    build_k_layers,
    center_point,
    connect_boxes,
    grid_partition,
    layers_in_box,
    locality_certificate,
    tukey_depth,
)
from plane_layers.errors import InternalAssertionError, PreconditionError, UsageError
from plane_layers.geometry import (
    PointSet,
    Segment,
    angular_order,
    convex_hull,
    crossing_pairs,
    id_strictly_inside_polygon,
)
from plane_layers.mst import bottleneck, build_emst
from plane_layers.verify import Guarantee, gen_line_instance, verify_layers

from conftest import (
    acceptance_k_layer_instances,
    count_emst_trees,
    count_mst_computations,
    count_sweeps,
    jittered_lattice,
    random_point_set,
)
from predicates import properly_cross
from rational_points import exact_coords
from sector_oracle import (
    clockwise_around,
    index_star_layers,
    sector_index,
    segment_walk,
    strictly_inside_cw,
)
from unionfind import UnionFind


def cluster(rng, n, x0, y0, w=4.0):
    pts = set()
    while len(pts) < n:
        pts.add((f"{rng.uniform(x0, x0 + w):.6f}", f"{rng.uniform(y0, y0 + w):.6f}"))
    return sorted(pts)


# --- exact oracles: the grid and depth arithmetic in Q[sqrt(q)] and on
# Fractions that the integer predicates replaced ---------------------------


@dataclass(frozen=True)
class QuadVal:
    """Exact number a + b*sqrt(q) with rational a, b and fixed rational q > 0."""

    a: Fraction
    b: Fraction
    q: Fraction

    def __add__(self, o):
        return QuadVal(self.a + o.a, self.b + o.b, self.q)

    def __sub__(self, o):
        return QuadVal(self.a - o.a, self.b - o.b, self.q)

    def __mul__(self, o):
        return QuadVal(self.a * o.a + self.b * o.b * self.q, self.a * o.b + self.b * o.a, self.q)

    def sign(self):
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        lhs, rhs = a * a, b * b * self.q  # opposite signs: compare a^2 with b^2*q
        if a > 0:
            return (lhs > rhs) - (lhs < rhs)
        return (rhs > lhs) - (rhs < lhs)

    def __lt__(self, o):
        return (self - o).sign() < 0


def cell_index_oracle(x, side_mult, q):
    """floor(x / (side_mult*sqrt(q))) from a float guess corrected in Q[sqrt(q)]."""
    m = math.floor(float(x) / (side_mult * math.sqrt(float(q))))
    while QuadVal(Fraction(x), Fraction(-side_mult) * (m + 1), q).sign() >= 0:
        m += 1
    while QuadVal(Fraction(x), Fraction(-side_mult) * m, q).sign() < 0:
        m -= 1
    return m


def center_dist_sq(ps, p, cell, side_mult, q):
    """Squared distance from point p to the center of `cell`, in Q[sqrt(q)]."""
    total = QuadVal(Fraction(0), Fraction(0), q)
    for coord, idx in ((ps.x(p), cell[0]), (ps.y(p), cell[1])):
        d = QuadVal(coord, -Fraction(2 * idx + 1, 2) * side_mult, q)
        total = total + d * d
    return total


def nearest_center_oracle(ps, p, candidates, sm, q, own=None):
    """The candidate with the nearest center; an exact tie goes to `own`,
    then to the lexicographically smallest cell."""
    best = best_d = None
    for c in sorted(candidates):
        d = center_dist_sq(ps, p, c, sm, q)
        if best is None:
            best, best_d = c, d
            continue
        s = (d - best_d).sign()
        if s < 0 or (s == 0 and (c == own or (best != own and c < best))):
            best, best_d = c, d
    return best


def probe_depth(cx, cy, pts, stop_below=None):
    """Tukey depth by probing every critical line direction through (cx, cy)
    and one direction between each pair of angular neighbours: O(m^2)."""
    den = math.lcm(cx.denominator, cy.denominator, *(v.denominator for v in chain(*pts)))
    ox, oy = int(cx * den), int(cy * den)
    vecs = [(int(px * den) - ox, int(py * den) - oy) for px, py in pts]
    seen = set()
    for dx, dy in vecs:
        if dx == 0 and dy == 0:
            continue
        if dy < 0 or (dy == 0 and dx < 0):
            dx, dy = -dx, -dy
        g = math.gcd(dx, dy)
        seen.add((dx // g, dy // g))
    if not seen:
        return len(pts)
    dirs = sorted(seen, key=cmp_to_key(lambda a, b: a[1] * b[0] - a[0] * b[1]))
    probes = list(dirs)
    probes += [(a[0] + b[0], a[1] + b[1]) for a, b in zip(dirs, dirs[1:])]
    if len(dirs) > 1:
        probes.append((dirs[-1][0] - dirs[0][0], dirs[-1][1] - dirs[0][1]))
    else:
        probes.append((-dirs[0][1], dirs[0][0]))
    depth = len(pts)
    for dx, dy in probes:
        sides = [dx * vy - dy * vx for vx, vy in vecs]
        left = sum(1 for v in sides if v > 0)
        right = sum(1 for v in sides if v < 0)
        depth = min(depth, min(left, right) + len(sides) - left - right)
        if stop_below is not None and depth < stop_below:
            return depth
    return depth


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
    assert _cell_index(7, 1, 6, Fraction(1)) == 1
    assert _cell_index(6, 1, 6, Fraction(1)) == 1
    assert _cell_index(0, 1, 6, Fraction(1)) == 0
    assert _cell_index(-1, 1, 6, Fraction(1)) == -1
    assert _cell_index(-6, 1, 6, Fraction(1)) == -1
    assert _cell_index(-60001, 10**4, 6, Fraction(1)) == -2
    # irrational side: 6*sqrt(2) ~ 8.485
    assert _cell_index(8, 1, 6, Fraction(2)) == 0
    assert _cell_index(9, 1, 6, Fraction(2)) == 1
    assert _cell_index(-9, 1, 6, Fraction(2)) == -2


def test_cell_index_matches_quadval_oracle():
    rng = random.Random(41)
    cases = 0
    # perfect squares, with cell boundaries landing on the integer grid
    for u, w in ((1, 1), (2, 1), (3, 2), (1, 7), (5, 3), (10**6 + 3, 10**3)):
        q = Fraction(u * u, w * w)
        for sm in (6, 12):
            for scale in (w, 10 * w, 7 * w):
                step = sm * u * scale // w  # one cell side on the scaled grid
                for t in range(-4, 5):
                    for v in (t * step - 1, t * step, t * step + 1):
                        assert _cell_index(v, scale, sm, q) == cell_index_oracle(
                            Fraction(v, scale), sm, q
                        ), (v, scale, sm, q)
                        cases += 1
    # irrational sides and random coordinates of both signs
    for _ in range(3000):
        q = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**4))
        sm = 6 * rng.randint(1, 3)
        scale = rng.choice((1, 10, 10**6, 3 * 10**4))
        v = rng.randint(-(10**9), 10**9) if rng.random() < 0.5 else rng.randint(-50, 50)
        assert _cell_index(v, scale, sm, q) == cell_index_oracle(Fraction(v, scale), sm, q)
        cases += 1
    assert cases > 3000


def bucket_oracle(ps, k, q):
    """`_bucket` from one `_cell_index` per coordinate."""
    cell_of = {p: (_cell_index(x, ps.scale, 6 * k, q), _cell_index(y, ps.scale, 6 * k, q))
               for p, (x, y) in enumerate(zip(*ps.grid))}
    cells = {}
    for p, c in cell_of.items():
        cells.setdefault(c, []).append(p)
    return cell_of, cells, frozenset(c for c, members in cells.items() if len(members) >= 3 * k)


def test_bucket_matches_the_per_coordinate_cell_index():
    """The bucketing walk takes a square root only where a coordinate
    reaches the next cell's start; that start is exact on random rational
    sets of both signs, on points exactly on and beside cell boundaries, and
    at a beta so small that every point has a column of its own."""
    rng = random.Random(23)
    cases = []
    for _ in range(40):
        den = rng.choice((1, 3, 7, 10**6))
        pts = {(Fraction(rng.randint(-300 * den, 300 * den), den),
                Fraction(rng.randint(-300 * den, 300 * den), den))
               for _ in range(rng.randint(1, 80))}
        q = Fraction(rng.randint(1, 10**4), rng.randint(1, 10**3))
        cases += [(PointSet(sorted(pts)), k, q) for k in (1, 2, 3)]
    for u, w in ((1, 1), (3, 2), (7, 5)):  # beta = u / w, a cell side of 6k * u / w
        q = Fraction(u * u, w * w)
        for k in (1, 2, 3):
            side = Fraction(6 * k * u, w)
            pts = {(t * side + e, s * side + f)
                   for t in range(-3, 4) for s in range(-3, 4)
                   for e, f in ((0, 0), (Fraction(-1, 10**6), 0), (0, Fraction(1, 10**6)))}
            cases.append((PointSet(sorted(pts)), k, q))
    alone = 0
    for q in (Fraction(1, 10**12), Fraction(1, 10**4)):
        ps = random_point_set(rng, 300)
        for k in (1, 2, 3):
            cases.append((ps, k, q))
            alone += len({x for x, _ in bucket_oracle(ps, k, q)[0].values()}) == len(ps)
    assert alone >= 3  # beta^2 = 10^-12: every point alone in its column
    for ps, k, q in cases:
        assert distributed._bucket(ps, k, q) == bucket_oracle(ps, k, q), (k, q)
        for i in range(-4, 5):  # each start is the least value of its cell
            v = distributed._cell_start(i, ps.scale, 6 * k, q)
            assert _cell_index(v - 1, ps.scale, 6 * k, q) < i <= _cell_index(v, ps.scale, 6 * k, q)


def k_layer_outcome(ps, k):
    """The id lists of the k-layer build of ps, with the breach `verify`
    reports on them against the build's guarantee, or the stage of the
    error the build raises."""
    try:
        ls = build_k_layers(ps, k)
    except (PreconditionError, InternalAssertionError) as err:
        return type(err).__name__, getattr(err, "stage", None)
    report = verify_layers([list(layer) for layer in ls.layers], ps)
    return (ls.layers, report.breach(Guarantee()) is None,
            report.breach(Guarantee.k_layers(k, ls.beta_sq)))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_k_layers_are_equivariant_under_positive_scaling(k):
    """Exact arithmetic makes the grid, the center points and the sectors
    scale with the points: a positive rational scaling leaves every id list,
    and verify's verdict, as they are."""
    rng = random.Random(700 + k)
    sets = [random_point_set(rng, 150),
            PointSet(cluster(rng, 60, 0.0, 0.0, w=60.0) + cluster(rng, 60, 150.0, 40.0, w=60.0))]
    built = 0
    for ps in sets:
        expected = k_layer_outcome(ps, k)
        built += len(expected) == 3
        for factor in (Fraction(3, 7), Fraction(10**6)):
            scaled = PointSet([(x * factor, y * factor) for x, y in exact_coords(ps)])
            assert k_layer_outcome(scaled, k) == expected, factor
    assert built == len(sets)


def test_nearest_center_matches_distance_oracle():
    rng = random.Random(42)
    # q = 1, sm = 6: centers sit at odd multiples of 3, so half-integer
    # points on the bisectors between centers are exactly equidistant
    for q in (Fraction(1), Fraction(9, 4), Fraction(2)):
        sm = 6
        ps = PointSet([(Fraction(i, 2), Fraction(j, 2)) for i in range(-18, 19, 3)
                       for j in range(-18, 19, 3)])
        ties = 0
        for p in ps.ids:
            x, y = ps.scaled(p)
            own = (_cell_index(x, ps.scale, sm, q), _cell_index(y, ps.scale, sm, q))
            near = [(own[0] + a, own[1] + b) for a in range(-2, 3) for b in range(-2, 3)]
            for _ in range(2):
                cands = rng.sample(near, rng.randint(1, 9))
                got = _nearest_center(ps, p, cands, sm, q)
                assert got == nearest_center_oracle(ps, p, cands, sm, q), (p, cands, q)
                dists = [center_dist_sq(ps, p, c, sm, q) for c in cands]
                ties += sum(1 for d in dists if (d - min(dists)).sign() == 0) > 1
        if q == 1:
            assert ties > 20  # the tie rules ran
    for _ in range(40):
        ps = random_point_set(rng, 4, extent=40)
        q = Fraction(rng.randint(1, 400), rng.randint(1, 30))
        for p in ps.ids:
            x, y = ps.scaled(p)
            own = (_cell_index(x, ps.scale, 6, q), _cell_index(y, ps.scale, 6, q))
            cands = [(own[0] + a, own[1] + b) for a in range(-2, 3) for b in range(-2, 3)]
            assert _nearest_center(ps, p, cands, 6, q) == nearest_center_oracle(ps, p, cands, 6, q)


def test_grid_partition_single_dense_box(rng):
    k = 2
    n = 12 * k - 3
    ps = PointSet(cluster(rng, n, 1.0, 1.0))
    gi = grid_partition(ps, k, Fraction(1))
    assert len(gi.dense) == 1
    box = next(iter(gi.dense))
    assert all(gi.assignment[p] == box for p in ps.ids)


def test_grid_partition_preconditions(rng):
    """Too few points for k, each case with its message; then 12k - 3
    points with a beta so small that no cell holds 3k of them."""
    rows = cluster(rng, 9, 0, 0)
    few = PointSet(rows[:8])
    for k, need in ((1, 9), (2, 21)):
        with pytest.raises(PreconditionError,
                           match=rf"^n=8 below the required 4\*\(3k-1\)\+1 = {need}$"):
            grid_partition(few, k, Fraction(1))
    with pytest.raises(PreconditionError, match=r"^no dense box: beta is below the MST "
                       r"bottleneck or n is too small$"):
        grid_partition(PointSet(rows), 1, Fraction(1, 10**12))


def test_k_and_beta_of_the_wrong_type_are_usage_errors(rng):
    """k must be an int, and beta or betaSq a number that `read_number`
    reads; a k below 1 stays a precondition failure."""
    ps = PointSet(cluster(rng, 30, 0, 0))
    for k, beta, message in [(1.5, None, "k must be an int, got 1.5"),
                             ("2", None, "k must be an int, got '2'"),
                             (True, None, "k must be an int, got True"),
                             (1, "abc", "beta must be a number, got 'abc'"),
                             (1, "1/0", "beta must be a number, got '1/0'"),
                             (1, [1], "beta must be a number, got [1]")]:
        with pytest.raises(UsageError) as info:
            build_k_layers(ps, k, beta)
        assert str(info.value) == message
    for beta_sq in ("abc", "1/0", None):
        with pytest.raises(UsageError) as info:
            grid_partition(ps, 1, beta_sq)
        assert str(info.value) == f"beta_sq must be a number, got {beta_sq!r}"
    for beta_sq in ("1/4", 0.25, Fraction(1, 4)):
        assert grid_partition(ps, 1, beta_sq).beta_sq == Fraction(1, 4)
    with pytest.raises(PreconditionError, match=r"^k must be >= 1$"):
        build_k_layers(ps, 0)


def test_locality_certificate_checks_the_type_of_k(rng):
    """`locality_certificate` reads k as `build_k_layers` does: a k that is
    not an int, a bool included, is a usage error, and only an int k other
    than the layer set's is a precondition failure."""
    ps = PointSet(cluster(rng, 30, 0, 0))
    ls = build_k_layers(ps, 1)
    for k in (1.5, True, "1"):
        with pytest.raises(UsageError) as info:
            locality_certificate(ps, k, 0, ls)
        assert str(info.value) == f"k must be an int, got {k!r}"
    with pytest.raises(PreconditionError, match=r"^layer_set has 1 layers, not k=2$"):
        locality_certificate(ps, 2, 0, ls)
    assert locality_certificate(ps, 1, 0, ls).ok


def clustered_point_set(rng, n, extent=100.0):
    """Four Gaussian clusters over a uniform background, 6 decimals."""
    centers = [(rng.uniform(0, extent), rng.uniform(0, extent)) for _ in range(4)]
    pts = set()
    while len(pts) < n:
        if rng.random() < 0.6:
            cx, cy = rng.choice(centers)
            x, y = rng.gauss(cx, extent / 8), rng.gauss(cy, extent / 8)
        else:
            x, y = rng.uniform(0, extent), rng.uniform(0, extent)
        pts.add((f"{x:.6f}", f"{y:.6f}"))
    return PointSet(sorted(pts))


def assignment_oracle(ps, gi):
    """Every point's nearest dense center by a scan over all dense cells
    within the rule's reach of two cells, in Q[sqrt(q)]; an exact tie goes
    to the point's own cell, then to the lexicographically smallest cell.
    Below the MST bottleneck the nearest dense center overall can lie three
    cells away, past what a point may look at."""
    out = {}
    for p in ps.ids:
        own = gi.cell_of[p]
        reach = [c for c in gi.dense if max(abs(c[0] - own[0]), abs(c[1] - own[1])) <= 2]
        out[p] = nearest_center_oracle(ps, p, reach, 6 * gi.k, gi.beta_sq, own)
    return out


def test_grid_assignment_matches_global_scan(rng):
    """Dense-cell points stay in their own cell, every other point joins its
    nearest dense center, and `assigned_to` returns each box's points."""
    # two dense clusters in vertically adjacent cells plus stragglers between
    rows = cluster(rng, 3, 1.0, 1.0) + cluster(rng, 3, 1.0, 7.0)
    rows += [("5.5", "3.1"), ("4.2", "8.3"), ("0.3", "11.5")]
    ps = PointSet(rows)
    assert grid_partition(ps, 1, Fraction(1)).dense == {(0, 0), (0, 1)}
    cases = [(ps, 1, Fraction(1))]
    # seeded sets with beta = 5/k: cells of side 30, dense and sparse mixed
    for seed in range(4):
        for k in (1, 2):
            cases.append((random_point_set(random.Random(seed), 200, extent=100.0),
                          k, Fraction(25, k * k)))
            cases.append((clustered_point_set(random.Random(seed), 200), k, Fraction(25, k * k)))
    sparse = 0
    for ps, k, q in cases:
        gi = grid_partition(ps, k, q)
        assert gi.assignment == assignment_oracle(ps, gi)
        for box in gi.dense:
            assert gi.assigned_to(box) == [p for p in ps.ids if gi.assignment[p] == box]
        sparse += sum(gi.cell_of[p] not in gi.dense for p in ps.ids)
    assert sparse > 100


def test_nearest_center_runs_once_per_sparse_point_per_grid(monkeypatch):
    """A build and a certifier of every point each search the nearest dense
    center for the sparse-cell points only, once per point."""
    ps = random_point_set(random.Random(1), 120)
    calls = []

    def counted(ps, p, *args):
        calls.append(p)
        return nearest(ps, p, *args)

    nearest = distributed._nearest_center
    monkeypatch.setattr(distributed, "_nearest_center", counted)
    ls = build_k_layers(ps, 1)
    certifier = Certifier(ps, ls)
    for p in ps.ids:
        assert certifier.certify(p).ok
    gi = certifier.grid
    sparse = [p for p in ps.ids if gi.cell_of[p] not in gi.dense]
    assert sparse and sorted(calls) == sorted(sparse * 2)


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
    elif ordered:  # the candidate and all points on one line: probe across it
        probes.append((-ordered[0][1], ordered[0][0]))
    best = len(pts)
    for dx, dy in probes:
        sides = [dx * qy - dy * qx for qx, qy in rel]
        left = sum(1 for v in sides if v > 0)
        right = sum(1 for v in sides if v < 0)
        best = min(best, min(left, right) + len(sides) - left - right)
    return best


def distinct_rays(vecs):
    """Whether no two of the nonzero integer vectors `vecs` lie on one ray
    from the origin, told apart by gcd-reduced direction: the rays a box
    passes to `tukey_depth`."""
    return len({(x // math.gcd(x, y), y // math.gcd(x, y)) for x, y in vecs}) == len(vecs)


def test_tukey_depth_matches_oracles():
    """The sweep against the probe scan and `brute_depth` on small integer
    sets full of collinear runs and points on the center.  Where no two
    nonzero offsets share a ray, the sweep runs on them in counterclockwise
    order, with its early exit; where some do (a box never passes such
    rays), the two oracles are checked against each other on every set."""
    rng = random.Random(43)
    grid = [(x, y) for x in range(-3, 4) for y in range(-3, 4)]
    kinds = Counter()
    for trial in range(3000):
        m = rng.randint(1, 12)
        if trial % 5 == 0:  # collinear set
            a, b = rng.choice(((1, 0), (0, 1), (1, 1), (2, -1)))
            pts = [(a * t, b * t) for t in rng.sample(range(-6, 7), m)]
        else:
            pts = rng.sample(grid, m)
        ps = PointSet(pts)
        ids = list(ps.ids)
        if trial % 3 == 0:  # the center is an input point
            cx, cy = ps.x(rng.randrange(m)), ps.y(rng.randrange(m))
        else:
            cx = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
            cy = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        coords = exact_coords(ps)
        depth = probe_depth(cx, cy, coords)
        vecs = [v for v in ps.offsets(ids, cx, cy) if v != (0, 0)]
        stop = rng.randint(0, len(vecs) + 1)
        if not distinct_rays(vecs):
            kinds["shared"] += 1
            assert depth == brute_depth(cx, cy, coords)
            continue
        kinds["distinct"] += 1
        if trial % 4 == 0:
            assert depth == brute_depth(cx, cy, coords)
        # points on the center lie in every closed halfplane, so they add to
        # the depth among the nonzero offsets
        ccw = [vecs[i] for i in angular_order(vecs)]
        around = depth - (m - len(vecs))
        assert tukey_depth(ccw, 0) == around, (pts, cx, cy)
        early = tukey_depth(ccw, stop)
        if around >= stop:
            assert early == around
        else:
            assert around <= early < stop
    assert min(kinds.values()) > 500, kinds


def test_tukey_depth_on_rays_matches_oracles():
    """The sweep on distinct rays in counterclockwise order, as a box passes
    them, against `probe_depth` and `brute_depth`, also with centers on an
    input point, whose points on the center add to the depth of the others;
    on shared rays the two oracles against each other."""
    rng = random.Random(544)
    grid = [(x, y) for x in range(-4, 5) for y in range(-4, 5)]
    kinds = Counter()
    for trial in range(2000):
        ps = PointSet(rng.sample(grid, rng.randint(1, 14)))
        ids, coords = list(ps.ids), exact_coords(ps)
        if trial % 3 == 0:
            cx, cy = coords[rng.randrange(len(ids))]
        else:
            cx = Fraction(rng.randint(-12, 12), rng.randint(1, 3))
            cy = Fraction(rng.randint(-12, 12), rng.randint(1, 3))
        vecs = [v for v in ps.offsets(ids, cx, cy) if v != (0, 0)]
        depth = probe_depth(cx, cy, coords)
        assert depth == brute_depth(cx, cy, coords)
        if not distinct_rays(vecs):
            kinds["shared"] += 1
            continue
        kinds["on a point" if len(vecs) < len(ids) else "distinct"] += 1
        ccw = [vecs[i] for i in angular_order(vecs)]
        assert len(ids) - len(vecs) + tukey_depth(ccw, 0) == depth
    assert min(kinds.values()) > 200, kinds


def test_depth_region_above_the_deepest_point_is_empty():
    """No point of m has Tukey depth above ceil(m/2): a generic line through
    it leaves at most floor(m/2) points, or floor((m-1)/2) besides itself,
    in its smaller open side.  A target one above that clips the region
    away, and `_region_points` yields nothing, on the in-box points of each
    dense box of a build and on a hexagon, whose center has depth 3."""
    hexa = PointSet([(2, 0), (1, 2), (-1, 2), (-2, 0), (-1, -2), (1, -2)])
    cases = [(list(hexa.ids), hexa)]
    ps = clustered_point_set(random.Random(7), 200)
    gi = grid_partition(ps, 1, bottleneck(build_emst(ps), ps).length_sq)
    cases += [(gi.cells[box], ps) for box in sorted(gi.dense)]
    assert len(cases) == 6
    for ids, points in cases:
        target = (len(ids) + 1) // 2 + 1
        assert distributed._depth_region(ids, points, target) == []
        assert list(distributed._region_points(ids, points, target)) == []
    # the hexagon's depth-3 region is its center alone
    assert set(distributed._depth_region(list(hexa.ids), hexa, 3)) == {(0, 0)}


def test_region_points_past_the_centroid(rng):
    """Past the region's vertex centroid, `_region_points` walks a parabola
    s -> c + s(u - c) + s^2(v - c), s = 1/2, 1/4, ...: each point lies
    strictly inside the depth region and reaches the target depth, no two
    coincide, and no line through two data points holds three of them."""
    for m in (7, 12, 20):
        ps = random_point_set(rng, m, extent=50)
        ids, coords = list(ps.ids), exact_coords(ps)
        target = (m + 2) // 3
        poly = distributed._depth_region(ids, ps, target)
        points = list(islice(distributed._region_points(ids, ps, target), 8))
        assert len(points) == 8 and len(set(points)) == 8
        # the clipped polygon keeps the bounding box's counterclockwise turn
        for x, y in points:
            assert all((bx - ax) * (y - ay) - (by - ay) * (x - ax) > 0
                       for (ax, ay), (bx, by) in zip(poly, poly[1:] + poly[:1]))
            assert probe_depth(x, y, coords) >= target
        for (ax, ay), (bx, by) in combinations(coords, 2):
            on_line = sum((bx - ax) * (y - ay) == (by - ay) * (x - ax) for x, y in points)
            assert on_line <= 2


def test_center_point_triangle_and_hexagon():
    tri = PointSet([(0, 0), (4, 0), (0, 4)])
    cx, cy = center_point([0, 1, 2], tri, [0, 1, 2])[0]
    assert probe_depth(cx, cy, exact_coords(tri)) >= 1
    hexa = PointSet(
        [(2, 0), (1, 2), (-1, 2), (-2, 0), (-1, -2), (1, -2)]
    )
    cx, cy = center_point(list(hexa.ids), hexa, list(hexa.ids))[0]
    assert probe_depth(cx, cy, exact_coords(hexa)) >= 2


def test_center_point_rejects_repeated_ray_ids():
    """A repeated id shares a ray from every point, so no center exists."""
    ps = PointSet([(0, 0), (4, 0), (0, 4), (4, 4)])
    with pytest.raises(PreconditionError, match="distinct ray ids"):
        center_point([0, 1, 2, 0], ps, [0, 1, 2, 0])
    with pytest.raises(PreconditionError, match="distinct ray ids"):
        center_point([0, 1, 2, 3], ps, [0, 1, 1])


def test_center_point_random_oracle(rng):
    for _ in range(10):
        ps = random_point_set(rng, 30, extent=50)
        cx, cy = center_point(list(ps.ids), ps, list(ps.ids))[0]
        assert brute_depth(cx, cy, exact_coords(ps)) >= 10
        # depth ids among more ray ids, as a box's points among those assigned to it
        ids, ray_ids = list(ps.ids)[:24], list(ps.ids)[::-1]
        (cx, cy), _, _ = center_point(ids, ps, ray_ids)
        assert brute_depth(cx, cy, exact_coords(ps)[:24]) >= 8
        assert distinct_rays(ps.offsets(ray_ids, cx, cy))
        # an id outside the ray ids, or a repeated one
        for bad_ids, bad_rays in ((ids, ids[12:]), (ids, ids[:-1]), ([*ids, 0], list(ps.ids))):
            with pytest.raises(PreconditionError, match="distinct ids among the ray ids"):
                center_point(bad_ids, ps, bad_rays)


def test_center_point_no_two_points_per_ray(rng):
    ps = PointSet([(0, 0), (2, 0), (4, 0), (0, 2), (0, 4), (2, 2), (4, 4), (2, 4), (4, 2)])
    cx, cy = center_point(list(ps.ids), ps, list(ps.ids))[0]
    seen = set()
    for i in ps.ids:
        dx, dy = ps.x(i) - cx, ps.y(i) - cy
        if dy < 0 or (dy == 0 and dx < 0):
            dx, dy = -dx, -dy
        key = (dx / dy, 1) if dy else (1, 0)
        assert key not in seen  # no line through c holds two points
        seen.add(key)
    # the region's centroid (2, 2) is an input point, so this is a point on
    # the curve inside the depth-3 region
    assert probe_depth(cx, cy, exact_coords(ps)) >= 3


def test_center_point_depth_calls_on_a_dense_cluster_box(tmp_path, monkeypatch):
    """The 828-point box of `gen --kind clusters --n 1000 --seed 6` at k=2
    tries at most m + 2 candidates, each with one ray check (`_shares_ray`)
    on its sorted offsets, and takes at most one depth sweep
    (`tukey_depth`) per candidate that passes it; trying every input
    point before the spread triples took 834 sweeps."""
    path = tmp_path / "clusters.txt"
    assert main(["gen", "--kind", "clusters", "--n", "1000", "--seed", "6",
                 "--out", str(path)]) == 0
    ps = PointSet.from_text(path.read_text())
    gi = grid_partition(ps, 2, bottleneck(build_emst(ps), ps).length_sq)
    box = max(gi.dense, key=lambda b: len(gi.cells[b]))
    members = list(gi.cells[box])
    assert len(members) == 828
    checks, sweeps = [], []
    shares_ray, sweep = distributed._shares_ray, distributed.tukey_depth

    def counted_check(vecs, order):
        checks.append(shares_ray(vecs, order))
        return checks[-1]

    def counted_sweep(rays, stop_below):
        sweeps.append(len(rays))
        return sweep(rays, stop_below)

    monkeypatch.setattr(distributed, "_shares_ray", counted_check)
    monkeypatch.setattr(distributed, "tukey_depth", counted_sweep)
    (cx, cy), _, _ = center_point(members, ps, gi.assigned_to(box))
    assert 0 < len(checks) <= len(members) + 2
    assert 0 < len(sweeps) == checks.count(False) and set(sweeps) == {len(members)}
    coords = exact_coords(ps)
    assert probe_depth(cx, cy, [coords[p] for p in members]) >= 276  # ceil(828 / 3)


def test_build_runs_center_point_and_tukey_depth(monkeypatch):
    """A build finds each box's center with the module's `center_point`, and
    that with its `tukey_depth`: wrapping those attributes sees both run, as
    a trace of the build's stages does."""
    calls = Counter()

    def counted(name):
        fn = getattr(distributed, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    ps = random_point_set(random.Random(3), 120)
    for name in ("center_point", "tukey_depth"):
        monkeypatch.setattr(distributed, name, counted(name))
    build_k_layers(ps, 1)
    assert calls["center_point"] > 0 and calls["tukey_depth"] >= calls["center_point"], calls


def hand_grid(ps, k):
    """GridIndex of a few points inside cell (0, 0) at beta = 1, all in one
    dense box; lets the per-box tests run below the full pipeline's
    n >= 12k-3 gate."""
    gi = GridIndex(ps, k, Fraction(1))
    assert gi.dense == {(0, 0)} and gi.assigned_to((0, 0)) == list(ps.ids)
    return gi


def box_segments(bl, n):
    """Each layer of the `BoxLayers` bl as `Segment`s, decoded from its keys
    a*n + b, each with a < b, in the keys' order."""
    layers = []
    for keys in bl.layer_edges:
        pairs = [divmod(key, n) for key in keys]
        assert all(a < b for a, b in pairs), pairs
        layers.append([Segment(a, b) for a, b in pairs])
    return layers


def test_layers_in_box_minimal():
    ps = PointSet([(1, 1), (2, "1.1"), ("1.4", "2.2")])
    gi = hand_grid(ps, 1)
    (edges,) = box_segments(layers_in_box((0, 0), gi), len(ps))
    assert len(edges) == 2  # a two-edge path over three points
    rep = verify_layers([edges], ps)
    assert rep.per_layer[0].plane


def test_layers_in_box_hexagon_two_layers():
    pts = [(4, 1), (5, 3), (4, 5), (2, 5), (1, 3), (2, 1)]
    ps = PointSet(pts)
    gi = hand_grid(ps, 2)
    bl = layers_in_box((0, 0), gi)  # needs m >= 6
    e0, e1 = map(set, box_segments(bl, len(ps)))
    assert not (e0 & e1)
    reps0 = set(bl.reps[0])
    reps1 = set(bl.reps[1])
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
    layers = box_segments(layers_in_box(box, gi), len(ps))
    seen = set()
    for edges in layers:
        assert not crossing_pairs(edges, ps)
        uf = UnionFind(ps.ids)
        for e in edges:
            uf.union(e.a, e.b)
        assert uf.component_count() == 1
        for e in edges:
            assert e not in seen
            seen.add(e)


def test_sector_matches_the_per_sector_oracle():
    """`_sector` agrees with `sector_index` on random representative triples
    around rational centers: convex triples, a reflex sector, opposite rays,
    directions on a representative's ray or opposite it, and the center
    itself, which both rules reject with `[sector]`."""
    rng = random.Random(1717)
    kinds = Counter()
    for _ in range(1000):
        c = (Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 7))),
             Fraction(rng.randint(-30, 30), rng.choice((1, 4, 5))))
        coords = [(Fraction(rng.randint(-40, 40)), Fraction(rng.randint(-40, 40)))
                  for _ in range(3)]
        if rng.random() < 0.25:  # the second representative opposite the first
            coords[1] = tuple(2 * ci - a for ci, a in zip(c, coords[0]))
        for a in coords[:3]:
            for s in (Fraction(1, 2), 3, -1, Fraction(-5, 2)):  # on a ray, or opposite
                coords.append(tuple(ci + s * (ai - ci) for ci, ai in zip(c, a)))
        coords += [c] + [(Fraction(rng.randint(-40, 40)), Fraction(rng.randint(-40, 40)))
                         for _ in range(8)]
        coords = list(dict.fromkeys(coords))
        if len(coords) < 4 or c in coords[:3]:
            continue
        ps = PointSet(coords)
        reps = clockwise_around(c, [0, 1, 2], ps)
        dirs = ps.offsets(reps, *c)
        if distributed._shares_ray(dirs, angular_order(dirs)):
            continue
        sectors = list(zip(dirs, dirs[1:] + dirs[:1]))
        # a sector spans beyond pi when the ray opposite its first one lies inside it
        reflex = any(strictly_inside_cw(a, b, (-a[0], -a[1])) for a, b in sectors)
        opposite = any(a[0] * b[1] == a[1] * b[0] for a, b in sectors)
        kinds["reflex" if reflex else "opposite" if opposite else "convex"] += 1
        for t in ps.ids:
            d = ps.offsets([t], *c)[0]
            if d == (0, 0):
                kinds["zero"] += 1
                for rule in (lambda: distributed._sector(dirs, d),
                             lambda: sector_index(ps, c, reps, t)):
                    with pytest.raises(InternalAssertionError) as info:
                        rule()
                    assert info.value.stage == "sector"
                continue
            on_ray = any(a[0] * d[1] == a[1] * d[0] for a in dirs)
            kinds["on a ray or opposite" if on_ray else "inside"] += 1
            assert distributed._sector(dirs, d) == sector_index(ps, c, reps, t)
    assert min(kinds.values()) > 100, kinds


@pytest.mark.parametrize("k", [1, 2, 3])
def test_box_walk_matches_the_index_star(k):
    """Every box of clustered sets, with its points outside the box: the
    walk's keys give the index-based star and the per-point attachments,
    each layer's edges in any order, and decoded, they are the edges of the
    walk on `Segment`s (`segment_walk`) in its order."""
    rng = random.Random(90 + k)
    sparse = 0
    for _ in range(15):
        ps = clustered_point_set(rng, 200)
        gi = grid_partition(ps, k, bottleneck(build_emst(ps), ps).length_sq)
        for box in sorted(gi.dense):
            walked, star = layers_in_box(box, gi), index_star_layers(box, gi)
            assert (walked.box, walked.center, walked.reps) == (star.box, star.center, star.reps)
            assert [sorted(keys) for keys in walked.layer_edges] == star.layer_edges
            assert box_segments(walked, len(ps)) == segment_walk(box, gi)
            sparse += len(gi.assigned_to(box)) - len(gi.cells[box])
    assert sparse >= 15


def test_builds_with_depth_region_centers_match_pinned_digest(monkeypatch):
    """k=1 builds of the clustered sets of the k=1 walk test, where nine
    boxes take their center from the depth region: their layers files hash
    to a pinned digest, so a change of the region path's output shows."""
    regions = []
    depth_region = distributed._depth_region

    def counted(*args):
        regions.append(args)
        return depth_region(*args)

    monkeypatch.setattr(distributed, "_depth_region", counted)
    rng = random.Random(91)
    digest = hashlib.sha256()
    for _ in range(15):
        ls = build_k_layers(clustered_point_set(rng, 200), 1)
        digest.update(json.dumps(ls.to_json_dict(), sort_keys=True).encode())
    assert len(regions) == 9
    assert digest.hexdigest() == (
        "3826e7118624b5c054c59a9d4155a3ed5d549f26a1d35228b578b3eaaedcbd4d")


def test_connect_boxes_horizontal_pair(rng):
    k = 1
    rows = cluster(rng, 5, 1.0, 1.0) + cluster(rng, 5, 7.5, 1.0)
    ps = PointSet(rows)
    gi = grid_partition(ps, k, Fraction(1))
    assert gi.dense == {(0, 0), (1, 0)}
    connectors = connect_boxes(gi)
    assert len(connectors[0]) == 1
    e = connectors[0][0]
    reps_a = set(gi.layers((0, 0)).reps[0])
    reps_b = set(gi.layers((1, 0)).reps[0])
    assert (e.a in reps_a and e.b in reps_b) or (e.a in reps_b and e.b in reps_a)


def test_connect_boxes_diagonal_rule(rng):
    # only two diagonally adjacent dense boxes: the below-left rule fires once
    k = 1
    rows = cluster(rng, 4, 1.0, 1.0) + cluster(rng, 4, 7.5, 7.5)
    rows += [("7.2", "1.3")]  # sparse neighbor, keeps assignments interesting
    ps = PointSet(rows)
    gi = grid_partition(ps, k, Fraction(1))
    assert gi.dense == {(0, 0), (1, 1)}
    connectors = connect_boxes(gi)
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
    connectors = connect_boxes(gi)
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
    assert exact_coords(replay) == exact_coords(ps)
    assert Fraction(dump["betaSq"]) == bottleneck(build_emst(replay), replay).length_sq
    assert properly_cross(Segment(*dump["crossing"][0]), Segment(*dump["crossing"][1]), replay)


def test_build_k_layers_rejects_small_n(rng):
    ps = random_point_set(rng, 20)
    with pytest.raises(PreconditionError):
        build_k_layers(ps, 9)


def test_locality_certificate_all_points(rng):
    ps = random_point_set(rng, 60)
    ls = build_k_layers(ps, 2)
    certifier = Certifier(ps, ls)
    for p in ps.ids:
        cert = certifier.certify(p)
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
    certifier = Certifier(ps, ls)
    for p in ps.ids:
        assert certifier.certify(p).ok
    assert locality_certificate(ps, 1, len(ps) - 1, layer_set=ls).ok


def test_certifier_sees_a_point_two_cells_from_its_box(rng):
    """Cells have side 6 at k=1, beta=1: the last point lies in cell (2, 0)
    and joins box (0, 0), the farthest a box's view reaches; a point in
    cell (3, 0) has no box within reach."""
    rows = cluster(rng, 8, 1.0, 1.0)
    ps = PointSet(rows + [("12.5", "2.0")])
    ls = build_k_layers(ps, 1, beta=1)
    certifier = Certifier(ps, ls)
    assert certifier.grid.assigned_to((0, 0)) == list(ps.ids)
    for p in ps.ids:
        assert certifier.certify(p).ok
    with pytest.raises(PreconditionError, match="no dense box within two cells"):
        build_k_layers(PointSet(rows + [("18.5", "2.0")]), 1, beta=1)


@pytest.mark.parametrize("far", [100, -100])
def test_stranded_point_message_names_the_smallest_id(rng, far):
    """Cells have side 6 at k=1, beta=1.  Point 1 lies in a stranded cell
    beyond the dense cell (0, 0), points 2 and 11 in one mirrored through
    it, so a scan in cell order would meet point 2 first for one sign of
    `far`: the build names point 1, the smallest stranded id, in the exact
    message."""
    near = cluster(rng, 9, 1.0, 1.0)
    ps = PointSet([near[0], (far, far), (-far, -far), *near[1:], (1 - far, -far)])
    cell_of, cells, dense = distributed._bucket(ps, 1, Fraction(1))
    assert dense == {(0, 0)} and len(cells) == 3 and cell_of[2] == cell_of[11]
    assert (cell_of[1] < cell_of[2]) == (far < 0)
    with pytest.raises(PreconditionError) as info:
        build_k_layers(ps, 1, beta=1)
    assert str(info.value) == (
        "point 1 has no dense box within two cells; "
        "beta below the MST bottleneck breaks the adjacency guarantee"
    )


def test_locality_certificate_rejects_a_different_k(rng):
    ps = random_point_set(rng, 60)
    ls = build_k_layers(ps, 1)
    with pytest.raises(PreconditionError, match="not k=2"):
        locality_certificate(ps, 2, 0, layer_set=ls)


def test_certificate_rejects_an_out_of_range_point(rng):
    ps = random_point_set(rng, 40)
    ls = build_k_layers(ps, 1)
    certifier = Certifier(ps, ls)
    for p in (-1, len(ps)):
        message = re.escape(f"point id {p} is out of range 0..{len(ps) - 1}")
        with pytest.raises(PreconditionError, match=message):
            certifier.certify(p)
        with pytest.raises(PreconditionError, match=message):
            locality_certificate(ps, 1, p, layer_set=ls)


def test_certifier_raises_on_an_edge_the_replay_does_not_make(rng):
    ps = random_point_set(rng, 60)
    ls = build_k_layers(ps, 1)
    e = ls.layers[0][0]
    tampered = replace(ls, layers=(tuple(f for f in ls.layers[0] if f != e),))
    with pytest.raises(InternalAssertionError) as exc:
        Certifier(ps, tampered).certify(e.a)
    assert exc.value.stage == "locality"
    assert exc.value.dump["point"] == e.a
    assert e.as_pair() in exc.value.dump["local"][0]


def test_certifier_buckets_once_and_builds_each_box_once(monkeypatch, rng):
    ps = random_point_set(rng, 400)
    ls = build_k_layers(ps, 1)
    buckets, boxes = [], []

    def counted_bucket(*args):
        buckets.append(args)
        return bucket(*args)

    def counted_layers_in_box(box, *args):
        boxes.append(box)
        return lib(box, *args)

    bucket, lib = distributed._bucket, distributed.layers_in_box
    monkeypatch.setattr(distributed, "_bucket", counted_bucket)
    monkeypatch.setattr(distributed, "layers_in_box", counted_layers_in_box)
    certifier = Certifier(ps, ls)
    for p in ps.ids:
        assert certifier.certify(p).ok
    assert len(buckets) == 1
    assert len(boxes) == len(set(boxes)) and set(boxes) <= certifier.grid.dense
    assert len(certifier.grid.dense) > 1


def test_certifier_box_index_matches_the_edge_scan(rng):
    """The certifier's endpoint index of each replayed box layer holds, for
    every point, exactly the edges a `touches` scan of that layer finds, in
    layer order; it is built once per box."""
    checked = 0
    for trial in range(10):
        k = 1 + trial % 2
        if trial % 3:
            ps = random_point_set(rng, rng.randint(60, 240))
        else:
            rows = cluster(rng, 40, 0.0, 0.0, w=20.0) + cluster(rng, 30, 15.0, 25.0, w=10.0)
            ps = PointSet(rows)
        certifier = Certifier(ps, build_k_layers(ps, k))
        for box in sorted(certifier.grid.dense):
            index = certifier._box_index(box)
            assert certifier._box_index(box) is index and len(index) == k
            layers = box_segments(certifier.grid.layers(box), len(ps))
            for by_end, edges in zip(index, layers):
                assert set(by_end) <= set(ps.ids)
                for p in ps.ids:
                    assert by_end.get(p, []) == [e for e in edges if e.touches(p)]
                checked += len(edges)
    assert checked > 1000


def test_certificate_keeps_no_point_set_alive(rng):
    ps = random_point_set(rng, 60)
    ls = build_k_layers(ps, 1)
    assert locality_certificate(ps, 1, 0, layer_set=ls).ok
    ref = weakref.ref(ps)
    del ps, ls
    gc.collect()
    assert ref() is None

def certificate_digest(certs):
    text = "\n".join(
        f"{c.point} {c.cheby_cells} {c.euclid_radius!r} {c.ok} "
        + ";".join(",".join(f"{e.a}-{e.b}" for e in layer) for layer in c.layer_edges)
        for c in certs
    )
    return hashlib.sha256(text.encode()).hexdigest()


def test_locality_certificates_match_pinned_digest():
    """Every certificate on the criterion-7 builds, and each build's
    `locality_certificate` of its last point, hash as they did when the
    certificate took beta from an EMST of its own."""
    certs, fresh = [], []
    for ps, k in acceptance_k_layer_instances():
        ls = build_k_layers(ps, k)
        certifier = Certifier(ps, ls)
        certs += [certifier.certify(p) for p in ps.ids]
        fresh.append(locality_certificate(ps, k, len(ps) - 1, layer_set=ls))
    assert len(certs) == 1449
    assert certificate_digest(certs) == (
        "6d2ad80874e21131edc510cc8d1b59f38e0c9905294dcf2e0f59fb468a9c500d")
    assert certificate_digest(fresh) == (
        "7a4ea92a99db0721c90831be787598485ef4ca9d4820e90c85c94c357ed92309")


def test_one_tree_per_build_and_certificate(monkeypatch, rng):
    """The default beta is read off the kept join order, computed once, and
    the certificates take no tree; an explicit beta needs no MST at all."""
    computations = count_mst_computations(monkeypatch)
    trees = count_emst_trees(monkeypatch)
    ps = random_point_set(rng, 80)
    ls = build_k_layers(ps, 1)
    for p in (0, 40, 79):
        assert locality_certificate(ps, 1, p, layer_set=ls).ok
    # the build's one tree is the call that perfbench's call counts assert
    assert (computations, trees) == ([80], [80])
    computations.clear()
    trees.clear()
    fresh = PointSet.from_text(ps.to_text())
    ls = build_k_layers(fresh, 1, beta=math.ceil(ls.beta))
    assert locality_certificate(fresh, 1, 5, layer_set=ls).ok
    assert (computations, trees) == ([], [])  # an explicit beta needs no bottleneck


def test_explicit_beta_build_computes_no_tree(monkeypatch, rng):
    """The k-layer guarantee reads no MST bottleneck, so the build's final
    verify does not measure against it: given a beta, a build finds no
    bottleneck, and a verify after it computes the MST once for the
    bottleneck, with no tree."""
    computations = count_mst_computations(monkeypatch)
    trees = count_emst_trees(monkeypatch)
    ps = random_point_set(rng, 80)
    ls = build_k_layers(ps, 1, beta=400)
    assert (computations, trees) == ([], [])
    assert verify_layers([list(layer) for layer in ls.layers], ps).breach(
        Guarantee.k_layers(1, ls.beta_sq)) is None
    assert (computations, trees) == ([80], [])


def small_beta_instance(case):
    """A point set and a beta below its MST bottleneck on which the k=1
    build fails an internal check."""
    rng = random.Random(52)
    if case == "outlier":  # a 100-square and one point far off it
        return PointSet(cluster(rng, 300, 0.0, 0.0, w=100.0) + [("3000", "3000")]), 200
    if case.startswith("blobs"):  # two 100-squares 5000 apart
        rows = cluster(rng, 300, 0.0, 0.0, w=100.0) + cluster(rng, 300, 5100.0, 0.0, w=100.0)
        return PointSet(rows), int(case.removeprefix("blobs-"))
    ps = random_point_set(rng, rng.randint(30, 200))
    return ps, 0.3 * bottleneck(build_emst(ps), ps).length


@pytest.mark.parametrize("case, stage", [
    ("outlier", "length-budget"), ("blobs-5", "layer-spanning"), ("blobs-20", "layer-spanning"),
    ("blobs-100", "layer-spanning"), ("uniform", "layer-planarity")])
def test_beta_below_the_bottleneck_is_a_precondition_failure(case, stage):
    """A build that fails with a caller's beta below the MST bottleneck
    raises `PreconditionError` (CLI exit 3) naming both, chained from the
    internal assertion that caught it."""
    ps, beta = small_beta_instance(case)
    be = bottleneck(build_emst(ps), ps)
    assert beta < be.length
    with pytest.raises(PreconditionError) as info:
        build_k_layers(ps, 1, beta)
    assert str(info.value) == f"beta {beta} is below the MST bottleneck {be.length:.6f}"
    assert isinstance(info.value.__cause__, InternalAssertionError)
    assert info.value.__cause__.stage == stage


def test_one_tree_and_bottleneck_per_build_verify_and_certificates(monkeypatch, rng):
    """A k-layer build, its verify and its certificates share one MST
    computation, whose last join is the bottleneck; only the build takes a
    tree."""
    computations = count_mst_computations(monkeypatch)
    trees = count_emst_trees(monkeypatch)
    ps = random_point_set(rng, 80)
    ls = build_k_layers(ps, 1)
    report = verify_layers([list(layer) for layer in ls.layers], ps)
    assert report.beta_sq == ls.beta_sq
    for p in (0, 40, 79):
        assert locality_certificate(ps, 1, p, layer_set=ls).ok
    assert (computations, trees) == ([80], [80])


def _cli_line_points(tmp_path, n):
    """The points `plane-layers gen --kind line --n N` writes."""
    path = tmp_path / f"line{n}.txt"
    assert main(["gen", "--kind", "line", "--n", str(n), "--out", str(path)]) == 0
    return path


@pytest.mark.xfail(strict=True, raises=InternalAssertionError,
                   reason="center_point finds no candidate of the depth bound")
@pytest.mark.parametrize("n", [60, 101])
def test_near_line_two_layers_build(tmp_path, n):
    ps = PointSet.from_text(_cli_line_points(tmp_path, n).read_text())
    build_k_layers(ps, 2)


# A 20-point set shrunk from a 12800-point strip: at this beta the box
# (20, 2) of 7 points has a depth-3 region that is the single input point 4,
# so its center falls back to depth 2 and one sector opens beyond pi.
FLOOR_DEPTH_REPRODUCER = """\
0 9771 980.996683
1 9843 983.694348
2 9885 992.278357
3 9929 942.749164
4 9930 985.137013
5 9953 997.729662
6 9955 884.3966
7 9999 819.120329
8 10076 839.470227
9 10126 893.452882
10 10149 977.236447
11 10166 958.791137
12 10171 982.232908
13 10196 869.361276
14 10256 871.146562
15 10265 987.755219
16 10299 915.156039
17 10376 930.636828
18 10415 986.571131
19 10439 987.40806
"""


@pytest.mark.xfail(strict=True, raises=InternalAssertionError,
                   reason="a floor-depth box routes a connector into its reflex sector")
def test_floor_depth_reproducer_builds():
    """The layer sweep at the end of the build is the only check that sees
    this crossing, between the box edge (0, 4) and the connector (1, 18)."""
    ps = PointSet.from_text(FLOOR_DEPTH_REPRODUCER)
    try:
        build_k_layers(ps, 1, Fraction(18142973, 223210))
    except InternalAssertionError as err:
        assert err.stage == "layer-planarity"
        assert err.dump["crossing"] == [(0, 4), (1, 18)]
        raise


@pytest.mark.xfail(strict=True, raises=InternalAssertionError,
                   reason="a floor-depth box routes a connector into its reflex sector")
@pytest.mark.parametrize("seed, index, crossing", [
    (1, 6, [(9, 11), (10, 53)]),
    (1, 9, [(6, 10), (9, 76)]),
    (5, 2, [(88, 286), (110, 132)]),
], ids=["1-6", "1-9", "5-2"])
def test_lattice_reproducer_builds(seed, index, crossing):
    """Three of the benchmark's jittered lattices whose k = 1 build fails
    its final layer sweep at the default beta, each on one pinned pair of
    crossing edges."""
    try:
        build_k_layers(jittered_lattice(seed, index), 1)
    except InternalAssertionError as err:
        assert err.stage == "layer-planarity"
        assert err.dump["crossing"] == crossing
        raise


# 17 points, no three collinear, whose box {0, 7, 11, 16} (m = 4) finds no
# center of depth 2 and falls back to depth 1 at the default beta.
GENERAL_POSITION_REPRODUCER = [
    (32, 179), (122, 101), (159, 182), (76, 126), (138, 120), (157, 159), (41, 156),
    (151, 192), (96, 111), (106, 80), (164, 119), (14, 196), (165, 137), (63, 146),
    (119, 83), (92, 97), (0, 199),
]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a floor-depth box routes a connector into its reflex sector")
def test_general_position_reproducer_builds(monkeypatch, tmp_path, capsys):
    """`build --mode distributed --k 1` exits 5 here: the final layer sweep
    finds the edges (0, 11) and (5, 16) crossing.  Any other failure fails
    the test outright."""
    points = tmp_path / "points.txt"
    points.write_text("".join(f"{i} {x} {y}\n" for i, (x, y) in enumerate(GENERAL_POSITION_REPRODUCER)))
    monkeypatch.setenv("PLANE_LAYERS_DUMP_DIR", str(tmp_path / "dumps"))
    code = main(["build", str(points), "--mode", "distributed", "--k", "1",
                 "--out", str(tmp_path / "layers.json")])
    err = capsys.readouterr().err
    pinned = ("internal assertion: [layer-planarity] layer 0: edges "
              f"{Segment(0, 11)} and {Segment(5, 16)} cross\n")
    if code != 0 and not (code == 5 and err.startswith(pinned)):
        pytest.fail(f"exit {code}: {err}")
    assert code == 0, err


@pytest.mark.parametrize("n", [60, 101])
@pytest.mark.parametrize("k", [1, 3])
def test_near_line_one_and_three_layers_build(tmp_path, monkeypatch, n, k):
    points = _cli_line_points(tmp_path, n)
    monkeypatch.setenv("PLANE_LAYERS_DUMP_DIR", str(tmp_path / "dumps"))
    assert main(["build", str(points), "--mode", "distributed", "--k", str(k),
                 "--out", str(tmp_path / "layers.json")]) == 0


def strip_point_set(seed, n=200):
    """Uniform points in a 3000 x 100 strip: far pairs exceed the k=1 budget."""
    rng = random.Random(seed)
    return PointSet(sorted({(f"{rng.uniform(0, 3000):.3f}", f"{rng.uniform(0, 100):.3f}")
                            for _ in range(n)}))


def inject_connector(monkeypatch, layer, edge):
    """Make connect_boxes add `edge` to the connectors of `layer`."""
    original = distributed.connect_boxes

    def with_connector(*args):
        connectors = original(*args)
        connectors[layer].append(edge)
        return connectors

    monkeypatch.setattr(distributed, "connect_boxes", with_connector)


def test_build_k_layers_asserts_length_budget(monkeypatch):
    ps = strip_point_set(0)
    far = Segment(*max(combinations(ps.ids, 2), key=lambda p: ps.sdist_sq(*p)))
    inject_connector(monkeypatch, 0, far)
    with pytest.raises(InternalAssertionError) as info:
        build_k_layers(ps, 1)
    assert info.value.stage == "length-budget"
    assert str(info.value) == f"[length-budget] edge {far} in layer 0 exceeds the length limit"


def test_build_k_layers_asserts_disjoint_layers(monkeypatch):
    ps = random_point_set(random.Random(0), 200)
    first, second = build_k_layers(ps, 2).layers
    shared = next(e for e in first if e not in second
                  and not any(properly_cross(e, f, ps) for f in second))
    inject_connector(monkeypatch, 1, shared)
    with pytest.raises(InternalAssertionError) as info:
        build_k_layers(ps, 2)
    assert info.value.stage == "layer-disjointness"
    assert str(info.value) == f"[layer-disjointness] edge {shared} in layers 0 and 1"


def connector_pairs_oracle(dense):
    """The four box-connection rules as a loop over the dense boxes: a box
    joins the dense box below it and the one left of it, and the dense box
    diagonally below-left (above-left) when neither box between them is
    dense."""
    pairs = set()
    for i, j in sorted(dense):
        below, left, above = (i, j - 1), (i - 1, j), (i, j + 1)
        if below in dense:
            pairs.add(tuple(sorted(((i, j), below))))
        if left in dense:
            pairs.add(tuple(sorted(((i, j), left))))
        if below not in dense and left not in dense and (i - 1, j - 1) in dense:
            pairs.add(tuple(sorted(((i, j), (i - 1, j - 1)))))
        if above not in dense and left not in dense and (i - 1, j + 1) in dense:
            pairs.add(tuple(sorted(((i, j), (i - 1, j + 1)))))
    return sorted(pairs)


def test_connector_pairs_match_rule_loop():
    """Every subset of a 3x3 block and random dense sets on a 5x5 grid, over
    the whole dense set and over the locality replay's view from either box."""
    block = [(i, j) for i in range(3) for j in range(3)]
    cases = [frozenset(c for b, c in enumerate(block) if mask >> b & 1) for mask in range(512)]
    rng = random.Random(618)
    grid = [(i, j) for i in range(-2, 3) for j in range(-2, 3)]
    cases += [frozenset(c for c in grid if rng.random() < p)
              for p in (0.3, 0.5, 0.7) for _ in range(400)]
    for dense in cases:
        expected = connector_pairs_oracle(dense)
        assert _connector_pairs(dense) == expected
        # the replay sees the dense cells within two of the representative's box
        replayed = {home: _connector_pairs(frozenset(_dense_near(dense, home))) for home in dense}
        for a in dense:
            for b in _dense_near(dense, a, radius=1):
                if a < b:
                    selected = (a, b) in expected
                    assert _pair_selected((a, b), dense) == selected
                    assert ((a, b) in replayed[a]) == ((a, b) in replayed[b]) == selected


BOX_STAGES = ["center-point", "sector"]


def _inject_box_fault(monkeypatch, stage):
    """Make a k=1 build fail the box-level assertion `stage`."""
    if stage == "center-point":  # no candidate is deep, and the region is empty
        monkeypatch.setattr(distributed, "tukey_depth", lambda rays, stop_below: 0)
        monkeypatch.setattr(distributed, "_depth_region", lambda *args: [])
    elif stage == "sector":  # every representative seems to lie on its neighbour's center
        sector = distributed._sector
        monkeypatch.setattr(distributed, "_sector", lambda dirs, d: sector(dirs, (0, 0)))


def _k_layer_fault(monkeypatch, stage):
    """Point set, k, beta and an injected fault that the build's internal
    assertion `stage` catches: a per-layer or cross-layer self-check, or one
    of the box-level assertions below them."""
    if stage in BOX_STAGES:
        ps = random_point_set(random.Random(0), 200)
        _inject_box_fault(monkeypatch, stage)
        return ps, 1, None
    if stage == "length-budget":
        ps = strip_point_set(0)
        inject_connector(monkeypatch, 0, Segment(*max(combinations(ps.ids, 2),
                                                      key=lambda p: ps.sdist_sq(*p))))
        return ps, 1, None
    if stage == "layer-spanning":  # two dense boxes, and no connector between them
        rng = random.Random(4)  # the clusters face each other across the cell side x = 6
        ps = PointSet(cluster(rng, 6, 5.0, 1.0, w=0.9) + cluster(rng, 6, 6.1, 1.0, w=0.9))
        monkeypatch.setattr(distributed, "connect_boxes", lambda gi: [[]])
        return ps, 1, 1
    ps = random_point_set(random.Random(0), 200)
    first, second = build_k_layers(ps, 2).layers
    if stage == "layer-planarity":
        inject_connector(monkeypatch, 1, next(e for e in first if e not in second and any(
            properly_cross(e, f, ps) for f in second)))
    else:
        inject_connector(monkeypatch, 1, next(e for e in first if e not in second and not any(
            properly_cross(e, f, ps) for f in second)))
    return ps, 2, None


def test_build_k_layers_asserts_spanning_layers(monkeypatch):
    ps, k, beta = _k_layer_fault(monkeypatch, "layer-spanning")
    with pytest.raises(InternalAssertionError) as info:
        build_k_layers(ps, k, beta)
    assert str(info.value) == "[layer-spanning] layer 0 has 2 components"


@pytest.mark.parametrize(
    "stage", ["length-budget", "layer-planarity", "layer-spanning", "layer-disjointness",
              *BOX_STAGES]
)
def test_k_layer_self_check_dumps_reproduce(monkeypatch, stage):
    """Every internal assertion of the build dumps the points, the mode, k
    and betaSq (and the layer, for the per-layer checks), and a build from
    the dump fails at the same stage."""
    ps, k, beta = _k_layer_fault(monkeypatch, stage)
    with pytest.raises(InternalAssertionError) as info:
        build_k_layers(ps, k, beta)
    dump = info.value.dump
    assert info.value.stage == dump["stage"] == stage
    assert (dump["mode"], dump["k"]) == ("distributed", k)
    if stage not in BOX_STAGES:
        assert dump["layer"] == (0 if k == 1 else 1)
    replay = PointSet.from_text(dump["points"])
    assert exact_coords(replay) == exact_coords(ps)
    be_sq = Fraction(beta) ** 2 if beta else bottleneck(build_emst(replay), replay).length_sq
    assert Fraction(dump["betaSq"]) == be_sq
    with pytest.raises(InternalAssertionError) as again:
        build_k_layers(replay, dump["k"], beta)
    assert again.value.stage == stage


def test_k_layer_build_sweeps_each_layer_once(monkeypatch):
    """The build sweeps each full layer once, in its final verify, and
    nothing else."""
    ps = random_point_set(random.Random(5), 300)
    sweeps = count_sweeps(monkeypatch)
    ls = build_k_layers(ps, 2)
    assert sweeps == [len(layer) for layer in ls.layers]


def test_lattice_build_with_a_sector_beyond_pi_sweeps_its_layer_once(monkeypatch):
    """Instance 3 of lattice seed 1 builds at k=1 with one box whose center
    falls back to the floor depth, so that one of its sectors opens beyond
    pi.  The layer is still swept once, in the build's final verify, which
    sees every crossing a sweep of that box's own edges could find."""
    ps = jittered_lattice(1, 3)
    sweeps = count_sweeps(monkeypatch)
    ls = build_k_layers(ps, 1)
    assert sweeps == [len(ls.layers[0])] == [489]
    gi = grid_partition(ps, 1, ls.beta_sq)
    reflex = []
    for box in sorted(gi.dense):
        bl = gi.layers(box)
        dirs = ps.offsets(bl.reps[0], *bl.center)
        if any(strictly_inside_cw(a, b, (-a[0], -a[1])) for a, b in zip(dirs, dirs[1:] + dirs[:1])):
            reflex.append(box)
    assert len(reflex) == 1


@pytest.mark.parametrize(
    "stage", ["length-budget", "layer-planarity", "layer-spanning", "layer-disjointness"]
)
def test_k_layer_final_check_agrees_with_verify(monkeypatch, stage):
    """One rule, two callers: the layers the build's final verify rejects at
    `stage` fail `verify_layers` against the guarantee of the distributed
    file the build would write."""
    ps, k, beta = _k_layer_fault(monkeypatch, stage)
    checked = []

    def recorded(layers, ps, **kwargs):
        checked.append([list(layer) for layer in layers])
        return verify_layers(layers, ps, **kwargs)

    monkeypatch.setattr(distributed, "verify_layers", recorded)
    with pytest.raises(InternalAssertionError) as info:
        build_k_layers(ps, k, beta)
    assert info.value.stage == stage
    (layers,) = checked
    guarantee = Guarantee.k_layers(k, Fraction(info.value.dump["betaSq"]))
    assert verify_layers(layers, ps).breach(guarantee) is not None


def test_k_layer_dump_replays_through_the_cli(monkeypatch, tmp_path):
    ps, k, beta = _k_layer_fault(monkeypatch, "length-budget")
    with pytest.raises(InternalAssertionError) as info:
        build_k_layers(ps, k, beta)
    dump = info.value.dump
    points = tmp_path / "points.txt"
    points.write_text(dump["points"])
    monkeypatch.setenv("PLANE_LAYERS_DUMP_DIR", str(tmp_path / "dumps"))
    argv = ["build", str(points), "--mode", dump["mode"], "--k", str(dump["k"]),
            "--out", str(tmp_path / "layers.json")]
    assert main(argv) == 5
    (replayed,) = (tmp_path / "dumps").iterdir()
    assert json.loads(replayed.read_text()) == dump



@pytest.mark.parametrize("stage", ["locality", *BOX_STAGES])
def test_certifier_dumps_replay(monkeypatch, stage):
    """A certificate's internal assertion, the locality check or a box the
    replay rebuilds, dumps the points, the mode, k and betaSq, as the
    build's do: a build from the dump recomputes the local edges of a
    `[locality]` dump, and fails a box stage the same way."""
    ps = random_point_set(random.Random(0), 200)
    ls = build_k_layers(ps, 1)
    points = [ls.layers[0][0].a]
    if stage == "locality":  # the layer set lacks an edge the replay makes
        ls = replace(ls, layers=(ls.layers[0][1:],))
    else:  # the fault may show only at some points, such as representatives
        _inject_box_fault(monkeypatch, stage)
        points = ps.ids
    certifier = Certifier(ps, ls)
    with pytest.raises(InternalAssertionError) as info:
        for p in points:
            certifier.certify(p)
    dump = info.value.dump
    assert info.value.stage == dump["stage"] == stage
    assert (dump["mode"], dump["k"]) == ("distributed", 1)
    replay = PointSet.from_text(dump["points"])
    assert exact_coords(replay) == exact_coords(ps)
    assert Fraction(dump["betaSq"]) == bottleneck(build_emst(replay), replay).length_sq
    if stage == "locality":
        cert = Certifier(replay, build_k_layers(replay, dump["k"])).certify(dump["point"])
        assert [[e.as_pair() for e in l] for l in cert.layer_edges] == dump["local"]
    else:
        with pytest.raises(InternalAssertionError) as again:
            build_k_layers(replay, dump["k"])
        assert again.value.stage == stage


def hulls_intersect_oracle(ps, ha, hb):
    """Whether the convex hulls ha and hb meet: two of their edges cross, or
    a vertex of one lies strictly inside the other."""
    ea = [Segment(ha[i], ha[(i + 1) % len(ha)]) for i in range(len(ha))] if len(ha) > 1 else []
    eb = [Segment(hb[i], hb[(i + 1) % len(hb)]) for i in range(len(hb))] if len(hb) > 1 else []
    if any(properly_cross(sa, sb, ps) for sa in ea for sb in eb):
        return True
    return any(id_strictly_inside_polygon(other, ps, v)
               for own, other in ((ha, hb), (hb, ha)) if len(other) >= 3 for v in own)


def gauss_clusters(rng, n, clusters, sigma):
    """n distinct points, 6 decimals, around `clusters` centers in [0, 1000]^2."""
    centers = [(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(clusters)]
    pts = set()
    while len(pts) < n:
        cx, cy = centers[rng.randrange(clusters)]
        pts.add((f"{rng.gauss(cx, sigma):.6f}", f"{rng.gauss(cy, sigma):.6f}"))
    return PointSet(sorted(pts))


def eight_neighbour_components(dense) -> int:
    """The number of classes of the dense cells under 8-neighbour adjacency,
    by breadth-first search."""
    seen: set = set()
    components = 0
    for start in sorted(dense):
        if start in seen:
            continue
        components += 1
        seen.add(start)
        queue = [start]
        for i, j in queue:  # the list grows while it is read
            for cell in ((i + di, j + dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)):
                if cell in dense and cell not in seen:
                    seen.add(cell)
                    queue.append(cell)
    return components


def test_dense_boxes_are_eight_neighbour_connected():
    """The paper's eight-neighbour lemma, which the build no longer checks:
    at beta at or above the MST bottleneck the dense boxes are 8-neighbour
    connected.  Checked on the grid alone, on uniform, clustered, lattice
    and near-line sets at k=1; a breach would leave a layer that does not
    span, which the build's final verify rejects as `[layer-spanning]`."""
    rng = random.Random(2700)
    pool = [random_point_set(rng, rng.randint(60, 600)) for _ in range(8)]
    pool += [gauss_clusters(rng, rng.randint(300, 500), 12, 60) for _ in range(6)]
    pool += [jittered_lattice(seed, index) for seed, index in ((1, 3), (1, 6), (1, 9), (5, 2))]
    pool += [gen_line_instance(n, "0.001") for n in (60, 101, 300)]
    boxes = 0
    for ps in pool:
        be_sq = bottleneck(build_emst(ps), ps).length_sq
        for beta_sq in (be_sq, be_sq * Fraction(9, 4)):
            gi = grid_partition(ps, 1, beta_sq)
            assert eight_neighbour_components(gi.dense) == 1, (exact_coords(ps), beta_sq)
            boxes += len(gi.dense)
    assert boxes > 300
    # the oracle itself: boxes that touch at a corner are one class, boxes
    # a cell apart are not
    assert eight_neighbour_components({(0, 0), (1, 1)}) == 1
    assert eight_neighbour_components({(0, 0), (2, 0), (0, 2)}) == 3


def test_assigned_hulls_are_disjoint():
    """The paper's hull lemma, which the build no longer checks: at beta the
    MST bottleneck, the convex hulls of the points assigned to any two dense
    boxes do not meet.  It runs on the grid alone, so it also covers the
    lattices whose builds fail `[layer-planarity]` (seed 1, instances 6 and
    9 among them)."""
    rng = random.Random(2100)
    pool = [(random_point_set(rng, rng.randint(300, 600)), 1 + i % 3) for i in range(9)]
    pool += [(gauss_clusters(rng, rng.randint(300, 500), 12, 60), 1 + i % 3) for i in range(9)]
    pool += [(jittered_lattice(seed, index), k) for seed, index in ((1, 6), (1, 9)) for k in (1, 2, 3)]
    pool += [(jittered_lattice(seed, index), 1) for seed, index in ((5, 2), (8, 10), (10, 13))]
    pairs = adjacent = 0
    for ps, k in pool:
        gi = grid_partition(ps, k, bottleneck(build_emst(ps), ps).length_sq)
        hulls = {box: convex_hull(gi.assigned_to(box), ps) for box in gi.dense}
        for a, b in combinations(sorted(hulls), 2):
            assert not hulls_intersect_oracle(ps, hulls[a], hulls[b]), (exact_coords(ps), k, a, b)
            pairs += 1
            adjacent += max(abs(a[0] - b[0]), abs(a[1] - b[1])) == 1
    assert pairs > 550 and adjacent > 250
