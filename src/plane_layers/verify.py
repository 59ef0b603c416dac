"""Independent verification of layer properties, the line-instance counting
bound, and adversarial instance generation.

verify_layers re-derives every layer property from the edges (an exact
sweep for crossings, listing the pairs only when one exists; `count_layers`
for spanning, repeated edges and longest edges) and measures them against
the MST bottleneck of the point set's EMST, which `build_emst` computes once
per point set and keeps on it, so a verify after a build reuses the build's
tree.  It reports and never raises on a property failure.  The self-checks
of both builds call the same `count_layers` and raise on what it finds.
Edge lengths are compared as squared integers on the point set's grid; each
reported length or ratio is one int/int division of them, which rounds
correctly, like the float of the exact fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .errors import PreconditionError
from .geometry import PHI, PointSet, Segment, collinear_overlap, crossing_pairs
from .mst import bottleneck, build_emst


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
    overlaps: tuple[tuple[tuple[int, int], tuple[int, int]], ...] = ()


@dataclass(frozen=True)
class VerificationReport:
    per_layer: tuple[LayerReport, ...]
    pairwise_disjoint: bool
    duplicate_edges: tuple[tuple[int, int], ...]
    overall_max_ratio: float
    over_twice_bottleneck: int
    beta_sq: Fraction | None  # exact squared MST bottleneck; not serialised

    @property
    def all_plane(self) -> bool:
        return all(l.plane for l in self.per_layer)

    @property
    def all_spanning(self) -> bool:
        return all(l.spanning for l in self.per_layer)

    def ok(
        self,
        max_len_sq: Fraction | None = None,
        allow_shared: int = 0,
        max_over_twice: int | None = None,
    ) -> bool:
        """True when every layer is plane and spanning, at most
        `allow_shared` distinct edges repeat across layers, no edge is
        longer than sqrt(`max_len_sq`) (compared exactly, in squares), and at
        most `max_over_twice` edges exceed twice the MST bottleneck."""
        if not (self.all_plane and self.all_spanning):
            return False
        if len(self.duplicate_edges) > allow_shared:
            return False
        if max_len_sq is not None and any(l.longest_sq > max_len_sq for l in self.per_layer):
            return False
        if max_over_twice is not None and self.over_twice_bottleneck > max_over_twice:
            return False
        return True

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
    pass, with no EMST and no planarity sweep: each caller (`verify_layers`,
    the self-checks of both builds) compares them with its own limits.

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
        length = math.sqrt(top / grid_sq)
        per_layer.append(LayerCount(len(layer), n - joined, top, longest, length))
    return LayerCounts(tuple(per_layer), tuple(repeats), tuple(lengths))


def verify_layers(
    layers: Sequence[Sequence[Segment]],
    ps: PointSet,
    flag_overlaps: bool = False,
) -> VerificationReport:
    """Check each layer for planarity and spanning-ness, all layers for
    pairwise edge-disjointness, and measure bottlenecks against the exact
    EMST of `ps` (`build_emst`: computed on the point set's first call and
    kept on it, so a verify after a build reuses the build's tree)."""
    be_sq = be_grid = None
    if len(ps) >= 2:
        be = bottleneck(build_emst(ps), ps)
        be_sq, be_grid = be.length_sq, ps.sdist_sq(be.edge.a, be.edge.b)
    counts = count_layers(layers, ps)
    grid_sq = ps.scale * ps.scale
    reports = []
    for layer, c in zip(layers, counts.per_layer):
        crossings = tuple(
            (a.as_pair(), b.as_pair()) for a, b in crossing_pairs(list(layer), ps)
        )
        reports.append(
            LayerReport(
                plane=not crossings,
                crossings=crossings,
                spanning=c.components == 1,
                components=c.components,
                bottleneck=c.length,
                ratio=math.sqrt(c.longest_sq / be_grid) if be_grid else 0.0,
                edges=c.edges,
                longest_sq=Fraction(c.longest_sq, grid_sq),
                overlaps=_overlapping_pairs(layer, ps) if flag_overlaps else (),
            )
        )
    dups = sorted({e.as_pair() for e, _, _ in counts.repeats})
    return VerificationReport(
        per_layer=tuple(reports),
        pairwise_disjoint=not dups,
        duplicate_edges=tuple(dups),
        overall_max_ratio=max((r.ratio for r in reports), default=0.0),
        over_twice_bottleneck=counts.longer_than(4 * be_grid) if be_grid else 0,
        beta_sq=be_sq,
    )


def _overlapping_pairs(layer: Sequence[Segment], ps: PointSet) -> tuple:
    """Collinear pairs overlapping in more than one point, ordered by index
    pair (i, j), i < j.  Only edges on one supporting line are compared: the
    key is the reduced direction, sign fixed, and its cross with a point."""
    lines: dict[tuple[int, int, int], list[int]] = {}
    for i, e in enumerate(layer):
        (ax, ay), (bx, by) = ps.scaled(e.a), ps.scaled(e.b)
        g = math.gcd(bx - ax, by - ay)
        dx, dy = (bx - ax) // g, (by - ay) // g
        if dy < 0 or (dy == 0 and dx < 0):
            dx, dy = -dx, -dy
        lines.setdefault((dx, dy, dx * ay - dy * ax), []).append(i)
    found = sorted((i, j) for group in lines.values() for i, j in combinations(group, 2)
                   if collinear_overlap(layer[i], layer[j], ps))
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
    eps must be positive.
    """
    if n < 2:
        raise PreconditionError("line instance needs n >= 2")
    eps = Fraction(str(epsilon)) if isinstance(epsilon, float) else Fraction(epsilon)
    if eps <= 0:
        raise PreconditionError("epsilon must be positive")
    pts = []
    for i in range(n):
        frac = (i * PHI) % 1
        pts.append((Fraction(i), eps * (frac - Fraction(1, 2))))
    return PointSet(pts)
