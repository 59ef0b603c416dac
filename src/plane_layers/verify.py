"""Independent verification of layer properties, the line-instance counting
bound, and adversarial instance generation.

verify_layers re-derives everything from scratch (an exact sweep for
crossings, listing the pairs only when one exists; union-find spanning; a
fresh MST bottleneck) and reports; it never raises on a property failure.
Edge lengths are compared as squared integers on the point set's grid; each
reported length or ratio is one int/int division of them, which rounds
correctly, like the float of the exact fraction.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import PreconditionError
from .geometry import PHI, PointSet, Segment, collinear_overlap, crossing_pairs
from .mst import bottleneck, build_emst
from .unionfind import UnionFind


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


def verify_layers(
    layers: Sequence[Sequence[Segment]],
    ps: PointSet,
    flag_overlaps: bool = False,
) -> VerificationReport:
    """Check each layer for planarity and spanning-ness, all layers for
    pairwise edge-disjointness, and measure bottlenecks against a freshly
    computed MST."""
    n = len(ps)
    be_sq = be_grid = None
    if n >= 2:
        be = bottleneck(build_emst(ps), ps)
        be_sq, be_grid = be.length_sq, ps.sdist_sq(be.edge.a, be.edge.b)
    grid_sq = ps.scale * ps.scale
    reports = []
    for layer in layers:
        crossings = tuple(
            (a.as_pair(), b.as_pair()) for a, b in crossing_pairs(list(layer), ps)
        )
        overlaps: tuple = ()
        if flag_overlaps:
            found = []
            edges = list(layer)
            for i in range(len(edges)):
                for j in range(i + 1, len(edges)):
                    if collinear_overlap(edges[i], edges[j], ps):
                        found.append((edges[i].as_pair(), edges[j].as_pair()))
            overlaps = tuple(found)
        uf = UnionFind(ps.ids)
        for e in layer:
            uf.union(e.a, e.b)
        components = uf.component_count()
        top = max((ps.sdist_sq(e.a, e.b) for e in layer), default=0)
        bott = math.sqrt(top / grid_sq)
        ratio = math.sqrt(top / be_grid) if be_grid else 0.0
        reports.append(
            LayerReport(
                plane=not crossings,
                crossings=crossings,
                spanning=components == 1,
                components=components,
                bottleneck=bott,
                ratio=ratio,
                edges=len(layer),
                longest_sq=Fraction(top, grid_sq),
                overlaps=overlaps,
            )
        )
    seen: dict[Segment, int] = {}
    dups: list[tuple[int, int]] = []
    over_twice = 0
    for layer in layers:
        for e in layer:
            if e in seen:
                if e.as_pair() not in dups:
                    dups.append(e.as_pair())
            else:
                seen[e] = 1
                if be_grid is not None and ps.sdist_sq(e.a, e.b) > 4 * be_grid:
                    over_twice += 1
    return VerificationReport(
        per_layer=tuple(reports),
        pairwise_disjoint=not dups,
        duplicate_edges=tuple(sorted(dups)),
        overall_max_ratio=max((r.ratio for r in reports), default=0.0),
        over_twice_bottleneck=over_twice,
        beta_sq=be_sq,
    )


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

    Deterministic and exactly rational; the golden-ratio multiplier keeps
    triples out of collinearity for generic eps.  eps must be positive;
    exactly collinear inputs are rejected elsewhere unless perturbation is
    requested explicitly.
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


def random_edge_mutation(
    layers: Sequence[Sequence[Segment]], ps: PointSet, rng: random.Random
) -> list[list[Segment]]:
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
