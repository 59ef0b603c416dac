import copy
import math
import pickle
import random
from collections import Counter
from decimal import Context, Decimal
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations, product

import pytest

from plane_layers import geometry
from plane_layers.cli import main
from plane_layers.errors import PreconditionError, UsageError
from plane_layers.geometry import (
    PointSet,
    Segment,
    _format_ratio,
    convex_hull,
    _all_crossing_pairs,
    crossing_pairs,
    id_strictly_inside_polygon,
    read_coord,
)

from conftest import collinear_triple, random_point_set
from predicates import (
    Orientation,
    ccw_order_around,
    collinear_overlap,
    cross_sign,
    has_crossing,
    orientation_ids,
    proper_cross_signs,
    properly_cross,
)
from rational_points import Point, exact_coords, exact_point, orientation


def pt(i, x, y):
    return Point(i, Fraction(x), Fraction(y))


def test_orientation_axes():
    assert orientation(pt(0, 0, 0), pt(1, 1, 0), pt(2, 0, 1)) is Orientation.COUNTERCLOCKWISE
    assert orientation(pt(0, 0, 0), pt(1, 1, 1), pt(2, 2, 2)) is Orientation.COLLINEAR
    assert orientation(pt(0, 0, 0), pt(1, 0, 1), pt(2, 1, 1)) is Orientation.CLOCKWISE


def test_orientation_antisymmetric(rng):
    for _ in range(200):
        coords = [(rng.randint(-50, 50), rng.randint(-50, 50)) for _ in range(3)]
        p, q, r = (pt(i, x, y) for i, (x, y) in enumerate(coords))
        assert orientation(p, q, r).value == -orientation(p, r, q).value


def test_properly_cross_basics():
    ps = PointSet([(0, 0), (2, 2), (0, 2), (2, 0), (1, 1), (3, 0), (1, 0), (3, "0.5")])
    assert properly_cross(Segment(0, 1), Segment(2, 3), ps)
    # shared endpoint never crosses
    assert not properly_cross(Segment(0, 4), Segment(4, 3), ps)
    # collinear partial overlap is non-crossing by convention
    ps2 = PointSet([(0, 0), (2, 0), (1, 0), (3, 0)])
    assert not properly_cross(Segment(0, 1), Segment(2, 3), ps2)
    assert collinear_overlap(Segment(0, 1), Segment(2, 3), ps2)
    with pytest.raises(PreconditionError):
        properly_cross(Segment(0, 99), Segment(1, 2), ps)


def test_properly_cross_symmetric(rng):
    ps = random_point_set(rng, 40, extent=100)
    for _ in range(300):
        a, b, c, d = rng.sample(range(len(ps)), 4)
        s1, s2 = Segment(a, b), Segment(c, d)
        assert properly_cross(s1, s2, ps) == properly_cross(s2, s1, ps)


def test_proper_cross_scaled_matches_the_sign_form():
    """The all-pairs scan's test multiplies raw cross products, the oracle
    `proper_cross_signs` their signs.  They agree on random pairs whose
    coordinates reach 10**160, so that the products leave float range, and
    on every pair of segments of a 4 x 4 grid, as it is and scaled by
    10**160 off the origin: collinear, touching and shared-endpoint pairs
    among them give zero cross products."""
    rng = random.Random(160)
    big = 10**160
    crossed = 0
    for _ in range(4000):
        coords = [rng.randint(-big, big) for _ in range(8)]
        got = geometry._proper_cross_scaled(*coords)
        assert got == proper_cross_signs(*coords), coords
        crossed += got
    assert 500 < crossed < 3500
    def on_segment(p, q, r):
        return cross_sign(*q, *r, *p) == 0 and all(
            min(u, w) <= v <= max(u, w) for v, u, w in zip(p, q, r))

    cells = [(x, y) for x in range(4) for y in range(4)]
    kinds = Counter()
    for (a, b), (c, d) in product(combinations(cells, 2), repeat=2):
        for scale, shift in ((1, 0), (big, big // 7)):
            coords = [v * scale + shift for p in (a, b, c, d) for v in p]
            got = geometry._proper_cross_scaled(*coords)
            assert got == proper_cross_signs(*coords), coords
        if {a, b} & {c, d}:
            kinds["shared endpoint"] += 1
        elif cross_sign(*a, *b, *c) == cross_sign(*a, *b, *d) == 0:
            kinds["collinear"] += 1
        elif on_segment(a, c, d) or on_segment(b, c, d) or on_segment(c, a, b) or on_segment(d, a, b):
            kinds["touching"] += 1
        kinds["crossing"] += got
    assert all(kinds[k] for k in ("shared endpoint", "collinear", "touching", "crossing")), kinds


def _cross_via_rational_solve(s1, s2, ps):
    """Independent oracle: solve the 2x2 system exactly and demand interior
    parameters on both segments."""
    if s1.shares_endpoint(s2):
        return False
    p, r = exact_point(ps, s1.a), exact_point(ps, s1.b)
    q, s = exact_point(ps, s2.a), exact_point(ps, s2.b)
    d1 = (r.x - p.x, r.y - p.y)
    d2 = (s.x - q.x, s.y - q.y)
    den = d1[0] * d2[1] - d1[1] * d2[0]
    if den == 0:
        return False
    t = ((q.x - p.x) * d2[1] - (q.y - p.y) * d2[0]) / den
    u = ((q.x - p.x) * d1[1] - (q.y - p.y) * d1[0]) / den
    return 0 < t < 1 and 0 < u < 1


def test_properly_cross_against_rational_oracle():
    rng = random.Random(99)
    ps = PointSet(
        sorted({(rng.randint(0, 100), rng.randint(0, 100)) for _ in range(220)})[:200]
    )
    n = len(ps)
    checked = 0
    while checked < 10_000:
        a, b, c, d = (rng.randrange(n) for _ in range(4))
        if len({a, b}) < 2 or len({c, d}) < 2:
            continue
        s1, s2 = Segment(a, b), Segment(c, d)
        assert properly_cross(s1, s2, ps) == _cross_via_rational_solve(s1, s2, ps)
        checked += 1


def test_sweep_matches_all_pairs_on_small_grids():
    """Dense points on 3x3..10x10 grids make collinear overlaps, T-junctions,
    axis-parallel edges, repeated edges and shared endpoints common."""
    rng = random.Random(20261018)
    outcomes = {True: 0, False: 0}
    for _ in range(20000):
        g = rng.randint(3, 10)
        cells = [(x, y) for x in range(g) for y in range(g)]
        ps = PointSet(rng.sample(cells, rng.randint(2, min(len(cells), 14))))
        edges = [Segment(*rng.sample(ps.ids, 2)) for _ in range(rng.randint(1, 12))]
        if rng.random() < 0.2:
            edges.append(rng.choice(edges))
        expected = _all_crossing_pairs(edges, ps)
        assert has_crossing(edges, ps) == bool(expected), (exact_coords(ps), edges)
        assert crossing_pairs(edges, ps) == expected
        outcomes[bool(expected)] += 1
    assert min(outcomes.values()) > 5000


def test_sweep_on_plane_sets_plus_one_edge():
    """Maximal-ish plane edge sets on small grids, then one more edge."""
    rng = random.Random(7)
    for _ in range(1500):
        g = rng.randint(3, 8)
        cells = [(x, y) for x in range(g) for y in range(g)]
        ps = PointSet(rng.sample(cells, rng.randint(3, min(len(cells), 20))))
        edges = []
        for _ in range(40):
            e = Segment(*rng.sample(ps.ids, 2))
            if not any(properly_cross(e, f, ps) for f in edges):
                edges.append(e)
        rng.shuffle(edges)
        assert not has_crossing(edges, ps)
        extra = Segment(*rng.sample(ps.ids, 2))
        assert has_crossing(edges + [extra], ps) == bool(_all_crossing_pairs(edges + [extra], ps))


def _sweep_agrees(edges, ps, outcomes):
    expected = _all_crossing_pairs(edges, ps)
    assert has_crossing(edges, ps) == bool(expected), (exact_coords(ps), edges)
    assert crossing_pairs(edges, ps) == expected
    outcomes[bool(expected)] += 1


def test_sweep_matches_all_pairs_on_stars_and_fans():
    """Stars and fans of 5-40 spokes on integer grids up to 30x30, so that
    many segments leave and enter the status at one event point.  A fan's
    spokes all start at its hub, and enter as one sorted slice; a star's
    also end there, and leave as one block first.  Vertical spokes, two
    spokes along one ray (a tie in the fan's order), a segment whose
    interior passes through the hub (a T-junction at the hub itself), and
    one extra edge beside the fan, either joining two angularly adjacent
    tips or anywhere, vary the verdict."""
    rng = random.Random(20261019)
    outcomes = {True: 0, False: 0}
    for _ in range(1200):
        g = rng.randint(5, 30)
        hub = (rng.randrange(g), rng.randrange(g))
        fan = rng.random() < 0.5  # every spoke leaves the hub rightwards
        cells = [c for c in ((x, y) for x in range(g) for y in range(g))
                 if c != hub and (not fan or c > hub)]
        if len(cells) < 5:
            continue
        tips = set(rng.sample(cells, min(len(cells), rng.randint(5, 40))))
        dx, dy = rng.choice([(0, 1), (1, 0), (1, 1), (1, -1), (2, 1), (1, 2)])
        ray = [(hub[0] + t * dx, hub[1] + t * dy) for t in (1, 2, -1)]
        tips.update([c for c in ray if c in cells][:2])  # collinear spokes
        up = (hub[0], hub[1] + 1)
        if up in cells and rng.random() < 0.5:  # a vertical spoke
            tips.add(up)
        tips = sorted(tips)
        ps = PointSet([hub] + tips)
        edges = [Segment(0, t) for t in range(1, len(ps))]
        rng.shuffle(edges)
        through = [(hub[0] + dx, hub[1] + dy), (hub[0] - dx, hub[1] - dy)]
        if all(c in tips for c in through) and rng.random() < 0.5:
            edges.append(Segment(*(1 + tips.index(c) for c in through)))
        if rng.random() < 0.5:  # beside the fan: two angularly adjacent tips
            by_angle = sorted(range(1, len(ps)), key=lambda t: math.atan2(
                tips[t - 1][1] - hub[1], tips[t - 1][0] - hub[0]))
            i = rng.randrange(len(by_angle) - 1)
            edges.append(Segment(by_angle[i], by_angle[i + 1]))
        else:
            edges.append(Segment(*rng.sample(range(1, len(ps)), 2)))
        _sweep_agrees(edges, ps, outcomes)
    assert min(outcomes.values()) > 300


def _tip_near_far_diagonal(rng):
    # the slopes (10**17 + b) / (10**17 + a) round to 1 or a neighbouring double
    return 10**17 + rng.randrange(12), 10**17 + rng.randrange(12)


def _tip_on_a_ray(rng):
    # up to three tips on each ray, so that spokes overlap along it
    t, (dx, dy) = rng.randint(1, 3), rng.choice(
        [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (2, -1), (1, -3), (3, 2)])
    return t * dx, t * dy


def _tip_past_float_range(rng):
    # slopes of about 10**400 overflow a float
    return rng.randint(1, 6), 10**400 * rng.randint(1, 6) + rng.randrange(4)


@pytest.mark.parametrize("tip", [_tip_near_far_diagonal, _tip_on_a_ray, _tip_past_float_range])
def test_sweep_matches_all_pairs_on_long_fans(tip):
    """Fans of at least `geometry._KEYED_FAN` spokes from a hub at the
    origin, in shuffled order, plus one edge between two more points drawn
    as the tips are.  The sweep sorts such a fan on each spoke's slope as a
    float, then certifies the order with one pass of the exact comparison,
    and sorts by the comparison alone when that pass finds a misorder or a
    slope overflows a float: the distinct slopes of tips near (10**17,
    10**17) round to a few doubles, spokes along one ray tie, and slopes
    near 10**400 overflow."""
    rng = random.Random(20261020)
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        count = rng.randint(geometry._KEYED_FAN, 2 * geometry._KEYED_FAN)
        pts = {tip(rng) for _ in range(4 * count)}
        if len(pts) < count + 2:
            continue
        pts = rng.sample(sorted(pts), count + 2)
        ps = PointSet([(0, 0)] + pts)
        edges = [Segment(0, t) for t in range(1, count + 1)]
        rng.shuffle(edges)
        edges.append(Segment(count + 1, count + 2))
        _sweep_agrees(edges, ps, outcomes)
    assert min(outcomes.values()) > 50


def test_sweep_on_y_ranges_that_touch_or_barely_overlap():
    """Pairs of segments whose y-ranges meet in exactly one value, or overlap
    by one grid unit, on small grids and among a few other edges: horizontal
    segments at a common y, and segments that reach a common y at an
    endpoint.  The sweep rejects a pair of neighbours without products when
    the upper one lies wholly above the lower one in y; ranges that only
    touch hold no proper crossing (a point interior to both at an extreme y
    of each makes both horizontal, so collinear), and ranges that overlap
    by one unit can."""
    # a segment pair and whether it crosses
    pairs = [
        (((0, 0), (4, 0)), ((2, 0), (6, 0)), False),  # horizontal, overlapping
        (((0, 0), (1, 0)), ((2, 0), (3, 0)), False),  # horizontal, apart
        (((0, 1), (4, 1)), ((2, 1), (3, 3)), False),  # T-junction on a horizontal
        (((0, 0), (2, 1)), ((1, 1), (3, 2)), False),  # touch at y = 1, apart
        (((0, 0), (2, 1)), ((2, 1), (3, 2)), False),  # touch at a shared endpoint
        (((0, 0), (4, 2)), ((1, 3), (3, 1)), True),  # ranges [0, 2] and [1, 3]
        (((0, 1), (4, 1)), ((2, 0), (2, 2)), True),  # horizontal crossed by a vertical
        (((0, 1), (4, 1)), ((2, 1), (2, 3)), False),  # a vertical standing on a horizontal
        (((0, 1), (4, 1)), ((2, 0), (2, 1)), False),  # a vertical hanging from one
    ]
    for (a, b), (c, d), crosses in pairs:
        ps = PointSet(sorted({a, b, c, d}))
        ids = {p: i for i, p in enumerate(sorted({a, b, c, d}))}
        edges = [Segment(ids[a], ids[b]), Segment(ids[c], ids[d])]
        for listed in (edges, edges[::-1]):
            assert has_crossing(listed, ps) == crosses == bool(_all_crossing_pairs(listed, ps))
    rng = random.Random(20261020)
    outcomes = {True: 0, False: 0}
    for _ in range(4000):
        g = rng.randint(3, 9)
        y0 = rng.randrange(g)
        gap = rng.choice([0, 1])  # the ranges touch at y0, or overlap on [y0, y0 + 1]
        if y0 + gap >= g:
            continue
        xs = [rng.randrange(g) for _ in range(4)]
        lower = [(xs[0], y0 + gap), (xs[1], rng.randint(0, y0 + gap))]
        upper = [(xs[2], y0), (xs[3], rng.randint(y0, g - 1))]
        pts = set(lower + upper)
        pts.update((rng.randrange(g), rng.randrange(g)) for _ in range(rng.randint(0, 4)))
        if lower[0] == lower[1] or upper[0] == upper[1]:
            continue
        order = sorted(pts)
        ps = PointSet(order)
        edges = [Segment(*map(order.index, lower)), Segment(*map(order.index, upper))]
        if gap == 0:
            assert not _all_crossing_pairs(edges, ps)
        for _ in range(rng.randint(0, 3)):
            edges.append(Segment(*rng.sample(range(len(order)), 2)))
        rng.shuffle(edges)
        _sweep_agrees(edges, ps, outcomes)
    assert min(outcomes.values()) > 500
    # Event points at the y of a horizontal segment, on it (T-junctions) or
    # beside it, with edges leaving them up and down, vertical ones among
    # them.  The sweep decides by y alone that an event point lies above a
    # probed or neighbouring segment whose endpoints both lie below it, or
    # below one whose endpoints both lie above; a horizontal segment at the
    # event point's own y is neither, and a vertical one ending there is
    # not active.
    outcomes = {True: 0, False: 0}
    for _ in range(3000):
        g = rng.randint(4, 9)
        y0 = rng.randrange(1, g - 1)
        x0, x1 = sorted(rng.sample(range(g), 2))
        level = [(x, y0) for x in range(x0, x1 + 1)]
        stops = rng.sample(level, min(len(level), rng.randint(1, 3)))
        pts = set(level)
        pts.update((rng.randrange(g), rng.randrange(g)) for _ in range(rng.randint(2, 6)))
        pts.update((x, rng.randrange(g)) for x, _ in stops)  # vertical edges at the stops
        order = sorted(pts)
        ps = PointSet(order)
        edges = [Segment(order.index((x0, y0)), order.index((x1, y0)))]
        for stop in stops:
            others = [i for i, c in enumerate(order) if c[1] != y0]
            edges += [Segment(order.index(stop), i)
                      for i in rng.sample(others, min(len(others), rng.randint(1, 3)))]
        edges += _random_edges(rng, list(ps.ids), rng.randint(0, 2))
        rng.shuffle(edges)
        _sweep_agrees(edges, ps, outcomes)
    assert min(outcomes.values()) > 500


def test_sweep_block_step_at_an_event_point():
    """The cases the block step at an event point v = (2, 2) decides: the
    segments ending at v leave, the segments passing through v are tested
    pairwise in their old order (two on different lines cross at v), and
    they and the segments starting at v take their place sorted by
    direction.  An edge ending or starting between two segments that cross
    at v must not hide the crossing, and a segment through v between edges
    that end there must not count as crossing them."""
    v = (2, 2)
    diagonal, anti = ((0, 0), (4, 4)), ((0, 4), (4, 0))  # they cross at v
    spoke, end = (v, (4, 2)), ((0, 2), v)  # a segment starting at v, one ending there
    split = [((0, 3), v), ((1, 0), v)]  # end at v above and below the diagonal
    level = ((0, 2), (4, 2))  # a horizontal segment through v
    cases = [
        ([diagonal, anti, spoke], True),  # the spoke starts between them by direction
        ([diagonal, anti, end], True),  # the edge ends between them
        ([diagonal, anti, end, spoke], True),
        # nothing ends at v: the spoke leaves v above the diagonal, and an
        # edge that starts later crosses the spoke alone
        ([diagonal, (v, (4, 8)), ((3, 7), (4, 4))], True),
        ([diagonal, *split], False),  # the diagonal splits the edges ending at v
        ([diagonal, *split, spoke], False),
        ([diagonal, (v, (4, 4))], False),  # a through segment and a spoke on one ray
        ([diagonal, (v, (4, 4)), end], False),
        # v is a T-junction on a horizontal segment, whose endpoint ys both
        # equal v's: it passes through v, neither above nor below it
        ([level, ((0, 0), v), ((0, 3), v)], False),  # edges end at v on both sides
        ([level, (v, (4, 0)), (v, (4, 3))], False),  # spokes leave v on both sides
        ([level, ((0, 0), v), (v, (3, 4))], False),
        # another T-junction on the horizontal at (1, 2), where edges start
        ([level, ((0, 0), v), ((1, 2), (3, 0))], True),
        ([level, ((0, 3), v), ((1, 2), (3, 4))], True),
        ([level, ((2, 0), (2, 4)), (v, (4, 3))], True),  # crossed by a vertical at v
        ([level, ((2, 0), v), (v, (2, 4))], False),  # a vertical ends at v, one leaves it
        # a segment whose top y is v's, beside v: v lies above it at v's x
        ([((1, 0), (3, 2)), (v, (4, 1))], True),
        ([((1, 0), (3, 2)), (v, (4, 3))], False),
        ([((1, 3), (3, 2)), (v, (4, 1))], False),  # whose bottom y is v's
    ]
    coords = sorted({c for segments, _ in cases for segment in segments for c in segment})
    ps = PointSet(coords)
    for segments, crosses in cases:
        edges = [Segment(coords.index(a), coords.index(b)) for a, b in segments]
        for listed in (edges, edges[::-1]):
            assert has_crossing(listed, ps) == crosses == bool(_all_crossing_pairs(listed, ps))


def _random_edges(rng, ids, count):
    return [Segment(*rng.sample(ids, 2)) for _ in range(count)]


def test_sweep_at_t_junctions_on_event_points():
    """A point strictly inside a segment is also an endpoint of other edges
    of the list: segments end there, start there, or both, on either side
    of the segment through it, so the block of segments through the event
    point holds a segment that passes through it."""
    rng = random.Random(20261101)
    outcomes = {True: 0, False: 0}
    for _ in range(3000):
        g = rng.randint(5, 12)
        dx, dy = rng.choice([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (-1, 2)])
        x0, y0 = rng.randrange(2, g - 2), rng.randrange(2, g - 2)
        line = [(x0 + t * dx, y0 + t * dy) for t in (-1, 0, 1)]
        others = {(rng.randrange(g), rng.randrange(g)) for _ in range(rng.randint(3, 9))}
        pts = sorted(set(line) | others)
        ps = PointSet(pts)
        p, mid, q = (pts.index(c) for c in line)
        rest = [i for i in ps.ids if i not in (p, mid, q)]
        spokes = [Segment(mid, o) for o in rng.sample(rest, min(len(rest), rng.randint(1, 4)))]
        edges = [Segment(p, q)] + spokes + _random_edges(rng, list(ps.ids), rng.randint(0, 3))
        rng.shuffle(edges)
        _sweep_agrees(edges, ps, outcomes)
    assert min(outcomes.values()) > 700


def test_sweep_at_collinear_fans_and_through_hub_segments():
    """Spokes along a few rays from one hub, two of them collinear on one
    ray (a tie in the fan's order), and sometimes a segment whose interior
    passes through the hub, among which segments end at the hub and start
    there."""
    rng = random.Random(20261102)
    outcomes = {True: 0, False: 0}
    for _ in range(2000):
        g = rng.randint(7, 15)
        hub = (g // 2, g // 2)
        rays = rng.sample([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, -2), (-1, 1),
                           (-1, 0), (0, -1), (-2, 1), (-1, -1)], rng.randint(2, 5))
        tips = {(hub[0] + t * dx, hub[1] + t * dy) for dx, dy in rays for t in (1, 2)
                if rng.random() < 0.7}
        tips |= {(rng.randrange(g), rng.randrange(g)) for _ in range(rng.randint(1, 4))}
        tips.discard(hub)
        if len(tips) < 3:
            continue
        pts = [hub] + sorted(tips)
        ps = PointSet(pts)
        edges = [Segment(0, t) for t in range(1, len(pts)) if rng.random() < 0.8]
        dx, dy = rays[0]
        through = [(hub[0] + dx, hub[1] + dy), (hub[0] - dx, hub[1] - dy)]
        if all(c in tips for c in through) and rng.random() < 0.6:
            edges.append(Segment(*(pts.index(c) for c in through)))
        edges += _random_edges(rng, list(range(1, len(pts))), rng.randint(0, 2))
        if not edges:
            continue
        rng.shuffle(edges)
        _sweep_agrees(edges, ps, outcomes)
    assert min(outcomes.values()) > 400


def test_sweep_at_vertical_edges_and_two_sided_stars():
    """Stars whose spokes reach both sides of the hub, so that some end at
    it and the rest start there, with vertical spokes up and down and
    vertical edges elsewhere, plus an extra edge or two."""
    rng = random.Random(20261103)
    outcomes = {True: 0, False: 0}
    for _ in range(2000):
        g = rng.randint(5, 20)
        hub = (rng.randrange(1, g - 1), rng.randrange(1, g - 1))
        tips = {(rng.randrange(g), rng.randrange(g)) for _ in range(rng.randint(3, 15))}
        tips.update(c for c in ((hub[0], hub[1] + 1), (hub[0], hub[1] - 1),
                                (hub[0], rng.randrange(g))) if rng.random() < 0.6)
        tips.discard(hub)
        pts = [hub] + sorted(tips)
        if len(pts) < 4:
            continue
        ps = PointSet(pts)
        edges = [Segment(0, t) for t in range(1, len(pts))]
        columns = {}
        for i, (x, _) in enumerate(pts[1:], start=1):
            columns.setdefault(x, []).append(i)
        verticals = [Segment(*rng.sample(c, 2)) for c in columns.values() if len(c) > 1]
        edges += rng.sample(verticals, min(len(verticals), rng.randint(0, 2)))
        edges += _random_edges(rng, list(range(1, len(pts))), rng.randint(0, 2))
        rng.shuffle(edges)
        _sweep_agrees(edges, ps, outcomes)
    assert min(outcomes.values()) > 700


def test_sweep_of_edge_subsets_with_isolated_points():
    """Edge lists that touch only some of the points, from a few edges to
    as many as the points: the sweep walks the whole order past the
    untouched ones."""
    rng = random.Random(20261104)
    outcomes = {True: 0, False: 0}
    for _ in range(2000):
        g = rng.randint(4, 30)
        cells = [(x, y) for x in range(g) for y in range(g)]
        ps = PointSet(rng.sample(cells, rng.randint(4, min(len(cells), 60))))
        used = rng.sample(list(ps.ids), rng.randint(2, max(2, len(ps) // 2)))
        edges = _random_edges(rng, used, rng.randint(1, max(1, len(ps) // rng.choice((4, 1)))))
        assert {v for e in edges for v in e} < set(ps.ids)
        _sweep_agrees(edges, ps, outcomes)
    assert min(outcomes.values()) > 700


def test_sweep_of_a_mirror_after_its_point_set():
    """The point set keeps its lexicographic order for the sweep; its
    mirror image sorts each vertical line the other way, so it must sweep
    on an order of its own, and leave the original's kept order as it
    was."""
    rng = random.Random(20261105)
    outcomes = {True: 0, False: 0}
    for _ in range(1500):
        g = rng.randint(3, 9)
        cells = [(x, y) for x in range(g) for y in range(g)]
        ps = PointSet(rng.sample(cells, rng.randint(4, min(len(cells), 16))))
        edges = _random_edges(rng, list(ps.ids), rng.randint(2, 10))
        _sweep_agrees(edges, ps, outcomes)
        kept = copy.deepcopy(ps.lex_order())
        mirror = ps.reflected()
        _sweep_agrees(edges, mirror, outcomes)
        assert ps.lex_order() == kept
        order, rank = mirror.lex_order()
        assert order == sorted(ps.ids, key=lambda i: (ps.x(i), -ps.y(i)))
        assert [rank[i] for i in order] == list(range(len(ps)))
    assert min(outcomes.values()) > 1000


def test_convex_hull_square_and_collinear():
    """Collinear ids, in any order, give the two extreme points, the lowest
    (by y, then x) first: each monotone chain keeps its first and last
    point, so the hull never holds fewer than two."""
    ps = PointSet([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert convex_hull(list(ps.ids), ps) == [0, 1, 2, 3]
    ps2 = PointSet([(0, 0), (1, 0), (2, 0)])
    assert convex_hull([0, 1, 2], ps2) == [0, 2]
    ps3 = PointSet([(5, 5)])
    assert convex_hull([0], ps3) == [0]
    rng = random.Random(3)
    for pts, hull in (([(i, 0) for i in range(6)], [0, 5]),
                      ([(0, i) for i in range(6)], [0, 5]),
                      ([(i, 5 - i) for i in range(6)], [5, 0]),
                      ([(-2 * i, 3 * i) for i in range(6)], [0, 5]),
                      ([(i, 2 * i) for i in range(2)], [0, 1])):
        ids = list(PointSet(pts).ids)
        for _ in range(5):
            rng.shuffle(ids)
            assert convex_hull(ids, PointSet(pts)) == hull
    assert convex_hull([6, 2, 4, 3], PointSet([(i, 2 * i) for i in range(8)])) == [2, 6]


def _brute_hull_edges(ids, ps):
    """All-pairs halfplane oracle: directed edge i->j is on the hull iff every
    other point lies strictly left or on the segment between them."""
    edges = []
    for i in ids:
        for j in ids:
            if i == j:
                continue
            left = True
            for k in ids:
                if k in (i, j):
                    continue
                o = orientation_ids(ps, i, j, k)
                if o is Orientation.CLOCKWISE:
                    left = False
                    break
                if o is Orientation.COLLINEAR:
                    # collinear point between i and j disqualifies the edge
                    if min(ps.scaled(i), ps.scaled(j)) < ps.scaled(k) < max(
                        ps.scaled(i), ps.scaled(j)
                    ):
                        left = False
                        break
            if left:
                edges.append((i, j))
    return edges


def test_convex_hull_matches_brute_force(rng):
    for _ in range(20):
        pts = set()
        while len(pts) < 10:
            ang = rng.uniform(0, 2 * math.pi)
            rad = math.sqrt(rng.uniform(0, 1))
            pts.add((f"{rad * math.cos(ang):.6f}", f"{rad * math.sin(ang):.6f}"))
        ps = PointSet(sorted(pts))
        hull = convex_hull(list(ps.ids), ps)
        oracle = dict(_brute_hull_edges(list(ps.ids), ps))
        walk = [min(oracle)]
        while len(walk) < len(oracle):
            walk.append(oracle[walk[-1]])
        assert set(hull) == set(walk)
        i = walk.index(hull[0])
        assert walk[i:] + walk[:i] == hull
        for k in range(len(hull)):
            o = orientation_ids(ps, hull[k], hull[(k + 1) % len(hull)], hull[(k + 2) % len(hull)])
            assert o is Orientation.COUNTERCLOCKWISE


def test_ccw_order_cardinal_directions():
    ps = PointSet([(5, 5), (6, 5), (5, 6), (4, 5), (5, 4)])
    out = ccw_order_around(0, [1, 2, 3, 4], ps)
    assert out == [1, 2, 3, 4]  # E, N, W, S
    with pytest.raises(PreconditionError, match="pivot coincides with point 0"):
        ccw_order_around(0, [1, 0], ps)


def test_ccw_order_same_ray_tiebreak():
    ps = PointSet([(0, 0), (2, 2), (1, 1)])
    out = ccw_order_around(0, [1, 2], ps)
    assert out == [2, 1]  # nearer point first


def test_ccw_order_matches_atan2_oracle(rng):
    for _ in range(30):
        ps = random_point_set(rng, 9, extent=100)
        ids = list(range(1, 9))
        got = ccw_order_around(0, ids, ps)

        def key(i):
            dx = float(ps.x(i) - ps.x(0))
            dy = float(ps.y(i) - ps.y(0))
            ang = math.atan2(dy, dx) % (2 * math.pi)
            return (ang, dx * dx + dy * dy, i)

        assert got == sorted(ids, key=key)


def comparator_order(vecs):
    """The comparator sort that `angular_order` replaced, kept as its oracle:
    half-plane, then the sign of a cross product, then squared length, then
    index."""
    halves = [0 if dy > 0 or (dy == 0 and dx > 0) else 1 for dx, dy in vecs]

    def cmp(i, j):
        if halves[i] != halves[j]:
            return halves[i] - halves[j]
        (ax, ay), (bx, by) = vecs[i], vecs[j]
        c = ax * by - ay * bx
        if c:
            return -1 if c > 0 else 1
        li, lj = ax * ax + ay * ay, bx * bx + by * by
        if li != lj:
            return -1 if li < lj else 1
        return i - j

    return sorted(range(len(vecs)), key=cmp_to_key(cmp))


def angular_order_cases(rng):
    """Random and adversarial vector lists for `angular_order`."""
    axes = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    for _ in range(300):  # small integers: same-ray runs of mixed lengths, repeats
        yield [v for v in ((rng.randint(-4, 4), rng.randint(-4, 4))
                           for _ in range(rng.randint(1, 30))) if v != (0, 0)] or [(1, 0)]
    for _ in range(100):  # a few rays, each with its opposite, and the four axes
        rays = rng.sample([(1, 2), (3, -1), (-2, 5), (7, 7), *axes], 3)
        vecs = [(t * dx * s, t * dy * s) for dx, dy in rays for s in (1, -1)
                for t in rng.sample(range(1, 9), rng.randint(1, 4))]
        rng.shuffle(vecs)
        yield vecs
    for _ in range(100):  # angles closer than float resolution
        big = 10**17
        vecs = [(big + rng.randint(0, 6), rng.choice((1, -1))) for _ in range(6)]
        vecs += [(-big - rng.randint(0, 6), rng.choice((1, -1))) for _ in range(6)]
        vecs += [(rng.choice((1, -1)), big + rng.randint(0, 6)) for _ in range(6)]
        rng.shuffle(vecs)
        yield vecs
    for _ in range(40):  # 400-digit components
        huge = 10**400
        yield [(rng.choice((1, -1)) * (huge + rng.randint(0, 3)), rng.randint(-huge, huge))
               for _ in range(rng.randint(1, 10))]
    for _ in range(200):  # offsets of random points from rational centers
        pts = {(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(rng.randint(2, 20))}
        ps = PointSet(sorted(pts))
        cx = Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 7)))
        cy = Fraction(rng.randint(-30, 30), rng.choice((1, 2, 5)))
        yield [v for v in ps.offsets(ps.ids, cx, cy) if v != (0, 0)] or [(0, 1)]


def test_angular_order_matches_comparator_oracle(monkeypatch):
    """The keyed sort, certified by one comparator pass, gives the
    comparator's order; the keyed path, the repair of a failed check and the
    comparator sort for components beyond float range each run."""
    fallbacks = []
    to_key = geometry.cmp_to_key
    monkeypatch.setattr(geometry, "cmp_to_key", lambda cmp: fallbacks.append(1) or to_key(cmp))
    with pytest.raises(OverflowError):
        math.atan2(1, 10**400)
    keyed = repaired = overflowed = 0
    for vecs in angular_order_cases(random.Random(52)):
        before = len(fallbacks)
        assert geometry.angular_order(vecs) == comparator_order(vecs)
        if len(fallbacks) == before:
            keyed += 1
        elif max(abs(c) for v in vecs for c in v) > 10**308:
            overflowed += 1
        else:
            repaired += 1
    assert keyed > 300 and repaired > 100 and overflowed == 40


def fraction_order_around(px, py, ids, ps, mirror):
    """Angular order on exact `Fraction` differences from the pivot (px, py):
    the comparator that the integer offsets replaced."""
    dirs = {i: (ps.x(i) - px, ps.y(i) - py) for i in ids}

    def half(d):
        dx, dy = d[0], -d[1] if mirror else d[1]
        return 0 if dy > 0 or (dy == 0 and dx > 0) else 1

    def cmp(i, j):
        di, dj = dirs[i], dirs[j]
        if half(di) != half(dj):
            return -1 if half(di) < half(dj) else 1
        c = di[0] * dj[1] - di[1] * dj[0]
        if mirror:
            c = -c
        if c != 0:
            return -1 if c > 0 else 1
        li, lj = di[0] ** 2 + di[1] ** 2, dj[0] ** 2 + dj[1] ** 2
        if li != lj:
            return -1 if li < lj else 1
        return -1 if i < j else 1

    return sorted(ids, key=cmp_to_key(cmp))


def test_orders_around_rational_pivots_match_fraction_comparator():
    """The clockwise order of the integer offsets from a rational pivot, the
    one `layers_in_box` walks, and the counterclockwise order around a point
    of the set agree with the comparator on exact Fraction differences."""
    rng = random.Random(44)
    for trial in range(400):
        den = rng.choice((1, 2, 4, 10))  # points on a small grid: many shared rays
        pts = {(Fraction(rng.randint(-8, 8), den), Fraction(rng.randint(-8, 8), den))
               for _ in range(rng.randint(2, 14))}
        ps = PointSet(sorted(pts))
        ids = list(ps.ids)
        rng.shuffle(ids)
        px = Fraction(rng.randint(-20, 20), rng.choice((1, 3, 7, 10)))
        py = Fraction(rng.randint(-20, 20), rng.choice((1, 2, 9)))
        if (px, py) in pts:
            continue
        offsets = ps.offsets(ids, px, py)
        cw = [ids[k] for k in geometry.angular_order([(dx, -dy) for dx, dy in offsets])]
        assert cw == fraction_order_around(px, py, ids, ps, True)
        ccw = [ids[k] for k in geometry.angular_order(offsets)]
        assert ccw == fraction_order_around(px, py, ids, ps, False)
        # the counterclockwise order with a point of the set as pivot, on grid offsets
        v = ids[0]
        others = ids[1:]
        assert ps.offsets(others, *ps.scaled(v), ps.scale) == ps.offsets(others, ps.x(v), ps.y(v))
        assert ccw_order_around(v, others, ps) == fraction_order_around(
            ps.x(v), ps.y(v), others, ps, False
        )
        hull = convex_hull(ids, ps)
        for q in ids:  # hull vertices are never strictly inside
            inside = len(hull) >= 3 and all(
                cross_sign(ps.x(a), ps.y(a), ps.x(b), ps.y(b), ps.x(q), ps.y(q)) > 0
                for a, b in zip(hull, hull[1:] + hull[:1])
            )
            assert id_strictly_inside_polygon(hull, ps, q) == inside


def fraction_grid(coords):
    """The `Fraction` constructor that the integer reader replaced: the scale
    (lcm of the reduced denominators) and the scaled integer coordinates."""
    xs = [Fraction(c[0]) for c in coords]
    ys = [Fraction(c[1]) for c in coords]
    scale = 1
    for f in xs + ys:
        scale = scale * f.denominator // math.gcd(scale, f.denominator)
    return scale, [int(f * scale) for f in xs], [int(f * scale) for f in ys]


def fraction_format_coord(f):
    """The coordinate format as written on `Fraction` before it moved to
    integers."""
    den = f.denominator
    if den == 1:
        return str(f.numerator)
    twos = fives = 0
    d = den
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        return f"{f.numerator}/{f.denominator}"
    digits = max(twos, fives)
    scaled = f.numerator * 10**digits // den
    sign = "-" if scaled < 0 else ""
    text = str(abs(scaled)).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}" if digits else f"{sign}{text}"


def fraction_to_text(coords):
    return "\n".join(
        f"{i} {fraction_format_coord(Fraction(x))} {fraction_format_coord(Fraction(y))}"
        for i, (x, y) in enumerate(coords)
    ) + "\n"


def _outcome(read, text):
    try:
        return read(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def _fraction_read(text):
    f = Fraction(text)
    return f.numerator, f.denominator


READER_CASES = [
    "0", "-0", "-0.0", "007", "-007.50", "5.", ".5", "-.5", "+1.5", " 1.5", "1.5 ", "\t2\n",
    "1e3", "1E-3", "-2.5e+2", "1_0", "1_000.5", "1__0", "_1", "1/3", "-6/4", "6/-4", "1/0",
    "0/5", "３.５", "-１２", "٣", "1.2.3", "", "-", ".", "+", "1-", "--1", "0x10", "nan",
    "inf", "1,5", "1 5", "½", "9" * 639, "-" + "9" * 638 + ".5", "9" * 641, "7" * 4300,
    "7" * 4301, "0." + "1" * 5000, "1" * 300 + "." + "3" * 700,
]


def test_read_coord_matches_fraction_oracle():
    """Same value, or the same error type and message, as `Fraction`."""
    rng = random.Random(45)
    pieces = ["", "-", "+", " ", "0", "00", "7", "12", ".", "5", "e", "e2", "E-1", "_", "/",
              "3", "0", "９", "a"]
    cases = list(READER_CASES)
    for _ in range(4000):
        cases.append("".join(rng.choice(pieces) for _ in range(rng.randint(1, 6))))
    for _ in range(1000):  # plain decimals with signs and leading or trailing zeros
        whole = "0" * rng.randint(0, 2) + str(rng.randint(0, 10**rng.randint(0, 15)))
        frac = "." + str(rng.randint(0, 10**rng.randint(0, 15))) + "0" * rng.randint(0, 2)
        cases.append(rng.choice(("", "-")) + whole + rng.choice(("", frac)))
    for text in cases:
        got = _outcome(read_coord, text)
        assert got == _outcome(_fraction_read, text), text
        if not isinstance(got[0], type):
            assert math.gcd(*got) == 1 and got[1] > 0, text


def assert_grid_as_fraction(coords):
    """`PointSet(coords)` and the point file of `coords` give the scale,
    scaled integers, text and mirror image that the `Fraction` path gave."""
    scale, sx, sy = fraction_grid(coords)
    text = "".join(f"{i} {str(x).strip()} {str(y).strip()}\n" for i, (x, y) in enumerate(coords))
    for ps in (PointSet(coords), PointSet.from_text(text)):
        assert ps.scale == scale
        assert [ps.scaled(i) for i in ps.ids] == list(zip(sx, sy))
    written = _outcome(PointSet.to_text, ps)
    assert written == _outcome(fraction_to_text, coords)
    mirror = [(x, -Fraction(y)) for x, y in coords]
    scale, sx, sy = fraction_grid(mirror)
    reflected = ps.reflected()
    assert reflected.scale == scale
    assert [reflected.scaled(i) for i in ps.ids] == list(zip(sx, sy))
    assert _outcome(PointSet.to_text, reflected) == _outcome(fraction_to_text, mirror)
    if isinstance(written, str):
        again = PointSet.from_text(written)
        assert again.scale == ps.scale and exact_coords(again) == exact_coords(ps)


def distinct_coords(values):
    """Points (v_i, v_{-1-i}) from values of pairwise different value."""
    vals = list({Fraction(v): v for v in values}.values())
    return [(vals[i], vals[-1 - i]) for i in range(len(vals))]


def test_pointset_grid_matches_fraction_constructor():
    """Scale, scaled integers, text and mirror image as the `Fraction` path
    gave them, for strings, ints and Fractions mixed, and for strings alone:
    every accepted reader case, on a grid with a factor 3 and on one of
    decimals only."""
    rng = random.Random(46)
    accepted = [t for t in READER_CASES if not isinstance(_outcome(_fraction_read, t)[0], type)]
    for _ in range(300):
        values = []
        for _ in range(rng.randint(1, 12)):
            kind = rng.randrange(5)
            if kind == 0:
                v = rng.choice(accepted)
            elif kind == 1:
                v = rng.randint(-10**12, 10**12)
            elif kind == 2:
                v = Fraction(rng.randint(-999, 999), rng.choice((1, 3, 7, 8, 10**13)))
            else:
                v = f"{rng.uniform(-1000, 1000):.{rng.randint(0, 8)}f}"
            values.append(v)
        rng.shuffle(values)
        assert_grid_as_fraction(distinct_coords(values))
    decimal = [t for t in accepted if "/" not in t]
    assert len(decimal) < len(accepted)
    for strings in (accepted, decimal, accepted[::-1], decimal[::-1]):
        coords = distinct_coords(strings)
        assert all(isinstance(x, str) and isinstance(y, str) for x, y in coords)
        assert_grid_as_fraction(coords)


@pytest.mark.parametrize("digits", [0, 1, 6, 13])
def test_decimal_grid_text_matches_fraction_oracle(digits):
    """`to_text` on grids of 13 decimals, of negative values and of integers
    writes what the `Fraction` formatter wrote."""
    rng = random.Random(48 + digits)
    for lo, hi in ((-1000, 1000), (-1000, -1), (0, 10**7)):
        values = [f"{rng.uniform(lo, hi):.{digits}f}" for _ in range(60)]
        values += [str(rng.randint(lo, hi)) for _ in range(5)]  # integer-valued points
        coords = distinct_coords(values)
        assert_grid_as_fraction(coords)
        assert_grid_as_fraction([(Fraction(x), Fraction(y)) for x, y in coords])
        assert PointSet(coords).to_text() == fraction_to_text(coords)  # text, not an error


def test_format_coord_matches_fraction_oracle():
    rng = random.Random(47)
    for _ in range(2000):
        f = Fraction(rng.randint(-10**9, 10**9), rng.choice((1, 2, 3, 8, 25, 40, 10**6, 7 * 10**3)))
        assert _format_ratio(f.numerator, f.denominator) == fraction_format_coord(f)


def _grid_by_coordinate(coords):
    """The per-coordinate reader that `PointSet` used for strings before the
    one-pass reader: each string coordinate through `read_coord`, any other
    through Fraction, placed on the lcm grid by `_place`."""
    read = lambda v: read_coord(v) if isinstance(v, str) else Fraction(v).as_integer_ratio()  # noqa: E731
    ps = PointSet.__new__(PointSet)
    ps._place([read(x) for x, _ in coords], [read(y) for _, y in coords])
    return ps


def _random_decimal(rng):
    """A plain decimal string: a sign or none, leading zeros or none, an
    integer part of up to 12 digits and 0 to 12 decimals."""
    text = rng.choice(("", "-")) + "0" * rng.randint(0, 2)
    text += str(rng.randint(0, 10 ** rng.randint(0, 12)))
    decimals = rng.randint(0, 12)
    if decimals:
        text += "." + "".join(rng.choice("0123456789") for _ in range(decimals))
    return text


# coordinates that `read_coord` accepts but that are not plain decimals, so
# that `PointSet` reads them, and every other coordinate beside them, one at a
# time: the 641-character ones are one beyond `_SAFE_DIGITS`, and the last
# one's 4400 digits are beyond int()'s limit, which its two parts are not
NOT_PLAIN = ["1/3", "-6/4", "1e3", "2.5E-2", "+1.5", "5.", ".5", "-.5", " 1.5", "1.5\t",
             "1_000", "٣", "-１２", "9" * 641, "-" + "9" * 638 + ".5", "1" * 2200 + "." + "1" * 2200]


def test_pointset_of_decimal_strings_matches_the_per_coordinate_reader():
    """Strings that are all plain decimals take the one-pass reader, and any
    other input the per-coordinate one; either way the scale, the grid and
    the text are those of the per-coordinate reader, for negatives, -0,
    leading zeros, integers, 0 to 12 decimals and coordinates of exactly
    `_SAFE_DIGITS` characters, with each non-plain form, and with numbers,
    in the mix."""
    assert geometry._SAFE_DIGITS == 640
    rng = random.Random(49)
    long_values = ["9" * 640, "-" + "1" * 300 + "." + "7" * 338, "0." + "0" * 637 + "1"]
    assert {len(v) for v in long_values} == {640}
    sets = []
    for _ in range(300):
        values = [_random_decimal(rng) for _ in range(rng.randint(2, 40))]
        values += rng.sample(["-0", "-0.000", "007", "-007.50", "0"], 2)
        sets.append(distinct_coords(values))
    sets.append(distinct_coords(long_values + ["1", "-2.5"]))
    plain = sets[0]
    for form in NOT_PLAIN + [3, -2, Fraction(1, 3), 0.1, 2.5]:
        for k in (0, len(plain) - 1):
            coords = list(plain)
            coords[k] = (coords[k][0], form)
            sets.append(coords)
    for coords in sets:
        by_coordinate = _grid_by_coordinate(coords)
        ps = PointSet(coords)
        assert (ps.scale, ps.grid) == (by_coordinate.scale, by_coordinate.grid), coords
        assert ps.to_text() == by_coordinate.to_text()
    empty = PointSet([])
    assert (len(empty), empty.scale, empty.to_text()) == (0, 1, "")


def test_pointset_names_a_malformed_string_entry_as_before():
    """Malformed entries among plain decimal strings keep the messages of the
    per-coordinate reader: a coordinate holding a space, a newline or a
    comma, an empty one, and every other text it rejects."""
    for entries, message in (
        ([("1", "2"), ("1 2", "3")], "point 1: invalid coordinate '1 2'"),
        ([("1", "1\n2")], "point 0: invalid coordinate '1\\n2'"),
        ([("", "1")], "point 0: invalid coordinate ''"),
        ([("1", "2"), ("0.5", "")], "point 1: invalid coordinate ''"),
        ([("1", "2"), ("1,5", "3")], "point 1: invalid coordinate '1,5'"),
        ([("1", "2"), ("3", "1.2.3")], "point 1: invalid coordinate '1.2.3'"),
        ([("1", "2"), ("3", "1/0")], "point 1: invalid coordinate '1/0'"),
        ([("1", "2"), ("3", "1e999999999")], "point 1: invalid coordinate '1e999999999'"),
        ([("1", "2"), ("-", "3")], "point 1: invalid coordinate '-'"),
        ([("1", "2"), ("nan", "3")], "point 1: invalid coordinate 'nan'"),
        ([("1", "2"), ("x", 3)], "point 1: invalid coordinate 'x'"),
        ([("1", "2"), (None, "3")], "point 1: invalid coordinate None"),
        ([("1", "2"), (b"1", "3")], "point 1: invalid coordinate b'1'"),
        ([("1", "2"), ("3", "4", "5")], "point 1: expected an (x, y) pair, got ('3', '4', '5')"),
        ([("1", "2"), "34"], "point 1: expected an (x, y) pair, got '34'"),
    ):
        with pytest.raises(UsageError) as info:
            PointSet(entries)
        assert str(info.value) == message


def test_pointset_rejects_duplicates():
    with pytest.raises(PreconditionError):
        PointSet([(1, 2), ("1.0", "2.00")])
    # decimal strings name the first repeated pair, as a point file does
    for entries, message in (
        ([("1.5", "2"), ("3", "4"), ("1.50", "2.0"), ("3.0", "4")],
         "points 0 and 2 share coordinates 3/2, 2"),
        ([("-0", "7"), ("0.000", "7.0")], "points 0 and 1 share coordinates 0, 7"),
    ):
        with pytest.raises(PreconditionError) as info:
            PointSet(entries)
        assert str(info.value) == message


def test_pointset_rejects_entries_that_are_not_pairs():
    with pytest.raises(UsageError, match=r"^point 0: expected an \(x, y\) pair, got \(0, 5, 7\)$"):
        PointSet([(0, 5, 7), (1, 8, 9)])
    with pytest.raises(UsageError, match=r"^point 0: expected an \(x, y\) pair, got \(5,\)$"):
        PointSet([(5,)])
    with pytest.raises(UsageError, match=r"^point 2: expected an \(x, y\) pair, got \['1', '2', '3'\]$"):
        PointSet([("0", "0"), ("1", "1"), ["1", "2", "3"]])
    # strings and bytes of two characters are not pairs, nor are numbers,
    # None, mappings or sets; each coordinate must be a finite number
    for entries, message in (
        (["12", "34", "56"], "point 0: expected an (x, y) pair, got '12'"),
        ([(1, 2), b"12"], "point 1: expected an (x, y) pair, got b'12'"),
        ([5], "point 0: expected an (x, y) pair, got 5"),
        ([None], "point 0: expected an (x, y) pair, got None"),
        ([(1, 2), {"x": 1, "y": 2}], "point 1: expected an (x, y) pair, got {'x': 1, 'y': 2}"),
        ([(0, 0), {1, 2}], "point 1: expected an (x, y) pair, got {1, 2}"),
        ([(None, 1)], "point 0: invalid coordinate None"),
        ([("abc", "1")], "point 0: invalid coordinate 'abc'"),
        ([("1", "2"), ("1/0", "2")], "point 1: invalid coordinate '1/0'"),
        ([(1, float("inf"))], "point 0: invalid coordinate inf"),
        ([(float("nan"), 1)], "point 0: invalid coordinate nan"),
        ([("1", 2), ("x", 3)], "point 1: invalid coordinate 'x'"),
    ):
        with pytest.raises(UsageError) as info:
            PointSet(entries)
        assert str(info.value) == message


def test_point_file_roundtrip():
    text = "# demo\n0 0.5 1\n2 3/7 -2\n1 -1.25 0\n"
    ps = PointSet.from_text(text)
    assert len(ps) == 3
    assert ps.x(2) == Fraction(3, 7)
    again = PointSet.from_text(ps.to_text())
    assert exact_coords(again) == exact_coords(ps)


def test_point_file_errors():
    """Plain decimal lines and any other text give the per-line reader's
    messages, and a repeated point the grid's."""
    for text, error, message in (
        ("0 1 2\n2 3 4\n", UsageError, "ids must be contiguous 0..1"),
        ("0 1\n", UsageError, "line 1: expected `id x y`, got '0 1'"),
        ("", UsageError, "empty point file"),
        ("# nothing\n\n", UsageError, "empty point file"),
        ("0 1 2\n1 3 4\n0 5 6\n", UsageError, "line 3: duplicate id 0"),
        ("0 1 2\n1 3 4 5\n", UsageError, "line 2: expected `id x y`, got '1 3 4 5'"),
        ("0 1 2\n1 3 x\n", UsageError, "line 2: Invalid literal for Fraction: 'x'"),
        ("0 1 2\n1 3 1.2.3\n", UsageError, "line 2: Invalid literal for Fraction: '1.2.3'"),
        ("0 1 2\n1 3 1/0\n", UsageError, "line 2: Fraction(1, 0)"),
        ("0 1 2\nx 3 4\n", UsageError, "line 2: invalid literal for int() with base 10: 'x'"),
        ("0 1 2\n1 1.0 2.00\n", PreconditionError, "points 0 and 1 share coordinates 1, 2"),
        ("0 1 2\r\n1 1 2\r\n", PreconditionError, "points 0 and 1 share coordinates 1, 2"),
    ):
        with pytest.raises(error) as info:
            PointSet.from_text(text)
        assert str(info.value) == message, text


def _read_by_lines(text):
    ps = PointSet.__new__(PointSet)
    ps._place(*geometry._read_lines(text))
    return ps


def test_one_pass_reader_matches_the_line_reader(tmp_path):
    """Every point file of `gen`, and `to_text` of decimal grids with
    negative, integer and long values, reads in one pass to the scale and
    grid the per-line reader gives; text in any other form takes the
    per-line reader and reads to the same grid as its plain twin."""
    texts = []
    for kind in ("uniform", "clusters", "line"):
        for seed in range(4):
            path = tmp_path / f"{kind}{seed}.txt"
            assert main(["gen", "--kind", kind, "--n", str(20 + 60 * seed), "--seed", str(seed),
                         "--out", str(path)]) == 0
            texts.append(path.read_text())
    rng = random.Random(49)
    for _ in range(200):
        values = [f"{rng.uniform(-10**rng.randint(0, 9), 10**9):.{rng.randint(0, 15)}f}"
                  for _ in range(rng.randint(1, 40))]
        values += [str(rng.randint(-10**30, 10**30)), "-0.5", "0.000001", "1" + "0" * 600]
        texts.append(PointSet(distinct_coords(values)).to_text())
    texts.append("0 0 0\n1 3 4")  # no final line break
    for text in texts:
        fast = PointSet.__new__(PointSet)
        assert fast._read_plain(text), text
        slow = _read_by_lines(text)
        assert (fast.scale, fast.grid) == (slow.scale, slow.grid)
        assert PointSet.from_text(text).grid == slow.grid
    twins = [
        ("0 0.5 1\n1 -2 0.25\n2 3 3\n", "# a comment\n0 0.5 1 # trailing\n\n1 -2 0.25\n2 3 3\n"),
        ("0 0.5 1\n1 -2 0.25\n2 3 3\n", "0 0.5 1\r\n1 -2 0.25\r\n2 3 3\r\n"),
        ("0 0.5 1\n1 -2 0.25\n2 3 3\n", "0 1/2 1\n1 -2 1/4\n2 3e0 30e-1\n"),
        ("0 0.5 1\n1 -2 0.25\n2 3 3\n", "0 +0.5 1\n2 3 3\n1 -2 .25\n"),
        ("0 0.5 1\n1 -2 0.25\n2 3 3\n", "00 0.5 1\n1\t-2 0.25\n2 3  3 \n"),
        ("0 0.5 1\n1 1" + "0" * 700 + " 2\n", "0 0.5 1\n1 1e700 2\n"),
    ]
    for plain, other in twins:
        fast = PointSet.__new__(PointSet)
        assert not fast._read_plain(other), other
        read = PointSet.from_text(other)
        assert (read.scale, read.grid) == (PointSet.from_text(plain).scale,
                                           PointSet.from_text(plain).grid)


def test_float_sqrt_matches_math_sqrt_and_reaches_beyond_float_squares():
    """sqrt(num / den) is the float math.sqrt gives for the exact fraction
    whenever that is a normal float; beyond float range, either way, it is
    the correctly rounded exact root, and a root too
    large for a float raises `UsageError` naming the length."""
    rng = random.Random(50)
    for _ in range(3000):
        num = rng.getrandbits(rng.randint(0, 300))
        den = rng.getrandbits(rng.randint(0, 300)) or 1
        assert geometry.float_sqrt(num, den, "x") == math.sqrt(Fraction(num, den)), (num, den)
    ctx = Context(prec=60)
    for _ in range(2000):
        exp = rng.choice((1, -1)) * rng.randint(308, 580)
        num = rng.randint(1, 10**30) * 10 ** max(exp, 0)
        den = rng.randint(1, 10**30) * 10 ** max(-exp, 0)
        want = float(ctx.sqrt(ctx.divide(Decimal(num), Decimal(den))))
        assert geometry.float_sqrt(num, den, "x") == want, (num, den)
    assert geometry.float_sqrt(10**600, 1, "x") == 1e300
    assert geometry.float_sqrt(1, 10**800, "x") == 0.0  # the root underflows
    with pytest.raises(UsageError, match="^the length is too large for a float$"):
        geometry.float_sqrt(10**617, 1, "the length")


def test_format_coord_exact():
    assert _format_ratio(5, 1) == "5"
    assert _format_ratio(-3, 8) == "-0.375"
    assert _format_ratio(1, 3) == "1/3"
    assert Fraction(_format_ratio(1929, 15625)) == Fraction(123456, 10**6)
    ps = PointSet([("0.123456", "-2/6"), (-7, "1.50")])
    assert ps.to_text() == "0 0.123456 -1/3\n1 -7 1.5\n"


def test_perturbation_removes_collinearity():
    ps = PointSet([(0, 0), (1, 0), (2, 0), (3, 0)])
    assert collinear_triple(ps) is not None
    moved = ps.perturbed(None)
    assert collinear_triple(moved) is None
    assert len(moved) == 4


def test_read_number_takes_text_floats_ints_and_fractions():
    assert geometry.read_number("1e-3", "eps") == Fraction(1, 1000)
    assert geometry.read_number(0.1, "eps") == Fraction(1, 10)  # by its shortest repr
    assert geometry.read_number(7, "eps") == 7
    assert geometry.read_number(Fraction(2, 3), "eps") == Fraction(2, 3)
    for value in ("abc", "1/0", float("nan"), float("inf"), None, Decimal("0.1"), [1]):
        with pytest.raises(UsageError) as info:
            geometry.read_number(value, "eps")
        assert str(info.value) == f"eps must be a number, got {value!r}"


def test_perturbed_reads_a_float_eps_as_its_text():
    ps = PointSet([(0, 0), (1, 0), (1, 1), (0, 1)])
    by_float, by_text = ps.perturbed(0.1), ps.perturbed("0.1")
    assert (by_float.scale, by_float.grid) == (by_text.scale, by_text.grid)
    assert by_float.x(1) == Fraction(106180339887, 10**11)
    with pytest.raises(UsageError, match=r"^eps must be a number, got 'abc'$"):
        ps.perturbed("abc")


def test_pointset_reads_strings_among_numbers_as_coordinates():
    """A string coordinate in mixed input goes through `read_coord`, as in
    all-string input; a float coordinate keeps its exact binary value."""
    mixed = PointSet([(0, "1/3"), ("0.5", 2), (0.1, "2.5e-1")])
    text = PointSet([("0", "1/3"), ("0.5", "2"), (str(Fraction(0.1)), "0.25")])
    assert (mixed.scale, mixed.grid) == (text.scale, text.grid)
    assert mixed.x(2) == Fraction(0.1) != Fraction(1, 10)


def test_reflected_flips_orientation():
    ps = PointSet([(0, 0), (1, 0), (0, 1)])
    assert orientation_ids(ps, 0, 1, 2) is Orientation.COUNTERCLOCKWISE
    assert orientation_ids(ps.reflected(), 0, 1, 2) is Orientation.CLOCKWISE


def test_segment_normalizes_and_rejects_loops():
    s = Segment(5, 2)
    assert s == Segment(2, 5) == Segment(b=2, a=5)
    assert (s.a, s.b) == (2, 5) and s.as_pair() == (2, 5) and type(s.as_pair()) is tuple
    with pytest.raises(ValueError, match=r"^degenerate segment 3-3$"):
        Segment(3, 3)


def test_segment_repr_names_both_fields():
    s = Segment(7, 3)
    assert repr(s) == str(s) == f"{s}" == "Segment(a=3, b=7)"
    assert f"red edges {s} and" == "red edges Segment(a=3, b=7) and"


def test_segment_order_hash_and_equality_follow_its_pair(rng):
    segs = [Segment(*rng.sample(range(30), 2)) for _ in range(400)]  # with repeats
    pairs = [s.as_pair() for s in segs]
    assert [s.as_pair() for s in sorted(segs)] == sorted(pairs)
    assert [hash(s) for s in segs] == [hash(p) for p in pairs]
    for (s, p), (t, q) in zip(zip(segs, pairs), zip(segs[1:], pairs[1:])):
        assert (s == t, s != t, s < t, s <= t, s > t) == (p == q, p != q, p < q, p <= q, p > q)
    # equal hashes and insertion order: sets and dicts iterate as with pairs
    assert [s.as_pair() for s in set(segs)] == list(set(pairs))
    assert [s.as_pair() for s in dict.fromkeys(segs)] == list(dict.fromkeys(pairs))


def test_segment_copies_and_pickles_as_a_segment():
    s = Segment(9, 4)
    copies = [copy.copy(s), copy.deepcopy(s)]
    copies += [pickle.loads(pickle.dumps(s, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for t in copies:
        assert type(t) is Segment and t == s and (t.a, t.b) == (4, 9)


def test_segment_is_immutable():
    s = Segment(1, 2)
    with pytest.raises(AttributeError):
        s.a = 5
    with pytest.raises(AttributeError):
        s.c = 5
    assert (s.a, s.b) == (1, 2)
