"""Independent verification of layer properties, the line-instance counting
bound, and adversarial instance generation.

verify_layers re-derives every layer property from the edges (an exact
sweep for crossings, listing the pairs only when one exists; `count_layers`
for spanning, repeated edges and longest edges) and measures them against
the MST bottleneck, which `mst.grid_bottleneck_sq` reads off the last join
of the EMST join order the point set keeps, with no `Segment` tree built; a
verify after a build reuses the build's join order.  It reports and never
raises on a property failure.

What each construction promises is one `Guarantee`, built from the fields
its layers file records, and the pass/fail rule is one method,
`VerificationReport.breach`: the CLI's `verify` passes when it finds no
breach, and both builds end with `verify_layers` on their own output and
raise on the first breach under their own stage names.  Edge lengths are
compared as squared integers on the point set's grid; each reported length
or ratio is the square root of one int/int division of them, which rounds
correctly, like the float of the exact fraction (`geometry.float_sqrt`,
which also keeps a square beyond float range out of floats).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .errors import PreconditionError, UsageError
from .geometry import (
    PHI,
    PointSet,
    Segment,
    _crossings,
    float_sqrt,
    id_outside,
    read_number,
)
# build_emst is unused here; the import stays while perfbench/test_perfbench.py
# asserts this binding, until ROADMAP item 7
from .mst import build_emst, grid_bottleneck_sq  # noqa: F401


@dataclass(frozen=True)
class Guarantee:
    """What a construction promises of its layers besides each being plane
    and spanning: no edge longer than sqrt(`ratio_sq`) times beta, where
    beta^2 is `beta_sq` or, when that is None, the MST bottleneck's square;
    at most `over_twice` distinct edges longer than twice the bottleneck
    (None: any number); no edge but `shared` (None: none) in more than one
    layer; and, with `trees`, exactly n - 1 edges in every layer.  The
    default promises nothing more than plane, spanning, disjoint layers."""

    ratio_sq: int | None = None
    beta_sq: Fraction | None = None
    over_twice: int | None = None
    shared: Segment | None = None
    trees: bool = False

    @classmethod
    def two_tree(cls, bound: int, shared: Segment | None) -> Guarantee:
        """Two spanning trees, every edge at most `bound` times the MST
        bottleneck and at most bound - 2 of them above twice it (bound 3
        allows one), sharing no edge but `shared`."""
        return cls(bound * bound, None, max(bound - 2, 0), shared, True)

    @classmethod
    def k_layers(cls, k: int, beta_sq: Fraction) -> Guarantee:
        """k disjoint layers, every edge at most 12*sqrt(2)*k*beta:
        (12*sqrt(2)*k)^2 = 288*k^2."""
        return cls(288 * k * k, beta_sq)


@dataclass(frozen=True)
class LayerReport:
    plane: bool
    crossings: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    spanning: bool
    components: int
    bottleneck: float
    ratio: float
    edges: int
    longest_sq: Fraction  # exact square of `bottleneck`; not serialised
    longest: Segment | None  # the edge of that length; not serialised
    overlaps: tuple[tuple[tuple[int, int], tuple[int, int]], ...]


@dataclass(frozen=True)
class VerificationReport:
    per_layer: tuple[LayerReport, ...]
    overall_max_ratio: float
    over_twice_bottleneck: int
    beta_sq: Fraction | None  # exact squared MST bottleneck; not serialised
    vertices: int  # not serialised
    # (edge, first layer, this layer) per repeated occurrence, in scan order;
    # serialised as the distinct edges (`duplicate_edges`)
    repeats: tuple[tuple[Segment, int, int], ...]

    @property
    def pairwise_disjoint(self) -> bool:
        return not self.repeats

    @property
    def duplicate_edges(self) -> tuple[tuple[int, int], ...]:
        """The distinct repeated edges as sorted id pairs."""
        return tuple(sorted({e.as_pair() for e, _, _ in self.repeats}))

    @property
    def all_plane(self) -> bool:
        return all(l.plane for l in self.per_layer)

    @property
    def all_spanning(self) -> bool:
        return all(l.spanning for l in self.per_layer)

    def breach(self, guarantee: Guarantee) -> tuple[str, int | None, str] | None:
        """The first property of `guarantee` the layers break, as (property,
        layer, message), or None when they keep them all.  Each layer in turn
        is checked for the length limit ("length"), planarity, spanning and,
        for trees, n - 1 edges ("tree"); then all layers together for an edge
        other than `guarantee.shared` in more than one layer ("shared", at
        the layer of its first repeat) and for edges above twice the
        bottleneck ("over-twice", at no layer)."""
        g = guarantee
        beta_sq = self.beta_sq if g.beta_sq is None else g.beta_sq
        limit_sq = None if g.ratio_sq is None or beta_sq is None else g.ratio_sq * beta_sq
        n = self.vertices
        for j, l in enumerate(self.per_layer):
            if limit_sq is not None and l.longest_sq > limit_sq:
                return "length", j, f"edge {l.longest} in layer {j} exceeds the length limit"
            if l.crossings:
                a, b = l.crossings[0]
                return "planarity", j, f"layer {j}: edges {Segment(*a)} and {Segment(*b)} cross"
            if not l.spanning:
                return "spanning", j, f"layer {j} has {l.components} components"
            if g.trees and l.edges != n - 1:
                return "tree", j, f"layer {j} has {l.edges} edges, expected {n - 1}"
        repeat = self.unshared_repeat(g.shared)
        if repeat is not None:
            e, i, j = repeat
            message = f"edge {e} in layers {i} and {j}"
            if g.shared is not None:
                message += f", not the shared edge {g.shared}"
            return "shared", j, message
        over = self.over_twice_bottleneck
        if g.over_twice is not None and over > g.over_twice:
            return "over-twice", None, f"{over} edges exceed twice the bottleneck"
        return None

    def unshared_repeat(self, shared: Segment | None) -> tuple[Segment, int, int] | None:
        """The first repeated occurrence of an edge other than `shared`, as
        (edge, first layer, this layer), or None when only `shared` repeats."""
        return next((r for r in self.repeats if r[0] != shared), None)

    def to_json_dict(self) -> dict:
        return {
            "layers": [
                {
                    "plane": l.plane,
                    "crossings": [list(map(list, c)) for c in l.crossings],
                    "spanning": l.spanning,
                    "components": l.components,
                    "bottleneck": l.bottleneck,
                    "ratio": l.ratio,
                    "edges": l.edges,
                    "overlaps": [list(map(list, c)) for c in l.overlaps],
                }
                for l in self.per_layer
            ],
            "pairwiseDisjoint": self.pairwise_disjoint,
            "duplicateEdges": [list(e) for e in self.duplicate_edges],
            "overallMaxRatio": self.overall_max_ratio,
            "overTwiceBottleneck": self.over_twice_bottleneck,
        }


@dataclass(frozen=True)
class LayerCount:
    """One layer's edge and component counts and its longest edge: squared
    grid length, the lexicographically smallest edge of that length, and the
    length as a float (0, None and 0.0 for an empty layer)."""

    edges: int
    components: int
    longest_sq: int
    longest: Segment | None
    length: float


@dataclass(frozen=True)
class LayerCounts:
    per_layer: tuple[LayerCount, ...]
    # (edge, first layer, this layer) per repeated occurrence, in scan order
    repeats: tuple[tuple[Segment, int, int], ...]
    lengths: tuple[int, ...]  # squared grid length of every distinct edge

    def longer_than(self, limit_sq: int) -> int:
        """Distinct edges whose squared grid length exceeds `limit_sq`."""
        return sum(sq > limit_sq for sq in self.lengths)


def count_layers(layers: Sequence[Sequence[Segment]], ps: PointSet) -> LayerCounts:
    """The spanning, disjointness and length facts of a layer list in one
    pass, with no EMST and no planarity sweep, for `verify_layers`, the
    CLI's `stats` and `mst.bottleneck`.  An edge with an id outside 0..n-1 raises
    `PreconditionError` naming its layer.

    Components are counted by a list union-find over the point ids, one per
    layer: n minus the unions that joined two components."""
    xs, ys = ps.grid
    n = len(xs)
    first: dict[Segment, int] = {}
    lengths = []
    repeats = []
    per_layer = []
    grid_sq = ps.scale * ps.scale
    for j, layer in enumerate(layers):
        bad = id_outside(layer, n)
        if bad is not None:
            raise PreconditionError(f"layer {j}: edge {tuple(bad)} has an id outside 0..{n - 1}")
    for j, layer in enumerate(layers):
        parent = list(range(n))
        joined = 0
        top, longest = 0, None
        for e in layer:
            a, b = e
            dx, dy = xs[a] - xs[b], ys[a] - ys[b]
            sq = dx * dx + dy * dy
            seen = first.get(e)
            if seen is None:
                first[e] = j
                lengths.append(sq)
            else:
                repeats.append((e, seen, j))
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a != b:
                parent[a] = b
                joined += 1
            if sq > top or (sq == top and e < longest):
                top, longest = sq, e
        length = float_sqrt(top, grid_sq, f"the longest edge of layer {j}")
        per_layer.append(LayerCount(len(layer), n - joined, top, longest, length))
    return LayerCounts(tuple(per_layer), tuple(repeats), tuple(lengths))


def verify_layers(
    layers: Sequence[Sequence[Segment]],
    ps: PointSet,
    flag_overlaps: bool = False,
    measure: bool = True,
) -> VerificationReport:
    """Check each layer for planarity and spanning-ness, all layers for
    pairwise edge-disjointness, and measure bottlenecks against the exact
    MST bottleneck of `ps` (`mst.grid_bottleneck_sq`: the last join of the
    EMST join order the point set keeps, so a verify after a build reuses
    the build's).  With `measure` False no bottleneck is read, and the ratios,
    the over-twice count and `beta_sq` read as for a single point (0.0, 0
    and None).  An edge with an id outside 0..n-1 raises `PreconditionError`
    naming its layer, from `count_layers`, before the bottleneck is read."""
    counts = count_layers(layers, ps)
    grid_sq = ps.scale * ps.scale
    be_sq = be_grid = None
    if measure and len(ps) >= 2:
        be_grid = grid_bottleneck_sq(ps)
        be_sq = Fraction(be_grid, grid_sq)
    reports = []
    for j, (layer, c) in enumerate(zip(layers, counts.per_layer)):
        ratio = 0.0
        if be_grid:
            ratio = float_sqrt(c.longest_sq, be_grid, f"the ratio of layer {j} to the bottleneck")
        # count_layers has checked every id, so the sweep runs unchecked
        crossings = tuple((a.as_pair(), b.as_pair()) for a, b in _crossings(list(layer), ps))
        reports.append(
            LayerReport(
                plane=not crossings,
                crossings=crossings,
                spanning=c.components == 1,
                components=c.components,
                bottleneck=c.length,
                ratio=ratio,
                edges=c.edges,
                longest_sq=Fraction(c.longest_sq, grid_sq),
                longest=c.longest,
                overlaps=_overlapping_pairs(layer, ps) if flag_overlaps else (),
            )
        )
    return VerificationReport(
        per_layer=tuple(reports),
        overall_max_ratio=max((r.ratio for r in reports), default=0.0),
        over_twice_bottleneck=counts.longer_than(4 * be_grid) if be_grid else 0,
        beta_sq=be_sq,
        vertices=len(ps),
        repeats=counts.repeats,
    )


def _overlapping_pairs(layer: Sequence[Segment], ps: PointSet) -> tuple:
    """Collinear pairs overlapping in more than one point, ordered by index
    pair (i, j), i < j.  Only edges on one supporting line are compared: the
    key is the reduced direction (dx, dy), sign fixed, and its cross with a
    point.  Each edge keeps its interval dx*x + dy*y along that line, and
    two intervals overlap when the larger low end is below the smaller high."""
    lines: dict[tuple[int, int, int], list[tuple[int, int, int]]] = {}
    for i, e in enumerate(layer):
        (ax, ay), (bx, by) = ps.scaled(e.a), ps.scaled(e.b)
        g = math.gcd(bx - ax, by - ay)
        dx, dy = (bx - ax) // g, (by - ay) // g
        if dy < 0 or (dy == 0 and dx < 0):
            dx, dy = -dx, -dy
        s, t = dx * ax + dy * ay, dx * bx + dy * by
        lines.setdefault((dx, dy, dx * ay - dy * ax), []).append((i, min(s, t), max(s, t)))
    found = sorted((i, j) for group in lines.values()
                   for (i, lo, hi), (j, lo2, hi2) in combinations(group, 2)
                   if max(lo, lo2) < min(hi, hi2))
    return tuple((layer[i].as_pair(), layer[j].as_pair()) for i, j in found)


@dataclass(frozen=True)
class CountingBound:
    short_edges: int
    needed: int
    feasible: bool


def counting_lower_bound(n: int, k: int) -> CountingBound:
    """Edge counting on the unit-spaced line: pairs closer than k+1 versus
    the k*(n-1) edges k disjoint spanning trees require.

    Infeasible exactly when k > 1 (for n > 1), which is the worst-case lower
    bound: some tree must use an edge of length at least k+1.
    """
    if n <= 1 or k < 1:
        raise PreconditionError("counting bound needs n > 1, k >= 1")
    short = sum(n - d for d in range(1, min(k, n - 1) + 1))
    needed = k * (n - 1)
    return CountingBound(short_edges=short, needed=needed, feasible=short >= needed)


def gen_line_instance(n: int, epsilon) -> PointSet:
    """Near-collinear adversary: points (i, eps*((i*phi) mod 1 - 1/2)).

    Deterministic and exactly rational.  The instance is not in general
    position: PHI is the rational 0.6180339887, so (i*PHI) mod 1 is affine in
    i along any run of i where it does not wrap, and the points of such a run
    are exactly collinear (n=60, eps=1/1000 has 1320 collinear triples).
    n must be an int of at least 2, not a bool, and eps, read by
    `read_number` (a float by its shortest repr), must be positive.

    Each point is computed from integer residues: with PHI = p/q and eps =
    a/b, y_i = a*(2*((i*p) mod q) - q) / (2*q*b), one Fraction per point,
    and x_i is the int i.
    """
    if type(n) is not int:
        raise UsageError(f"n must be an int, got {n!r}")
    if n < 2:
        raise PreconditionError("line instance needs n >= 2")
    eps = read_number(epsilon, "epsilon")
    a, b = eps.numerator, eps.denominator
    if a <= 0:
        raise PreconditionError("epsilon must be positive")
    p, q = PHI.numerator, PHI.denominator
    den = 2 * q * b
    return PointSet([(i, Fraction(a * (2 * (i * p % q) - q), den)) for i in range(n)])
