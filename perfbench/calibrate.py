"""Host-speed calibration: a frozen copy of the seed's Prim EMST loop.

On a shared machine the same call can take twice as long from one minute to
the next, because other tenants contend for the core and its caches.  Faster
or slower minimum times do not help: the whole machine drifts.  So every timed
operation is bracketed by PROBES runs of a fixed reference kernel before it
and PROBES after it, and the operation's wall time is scaled by
`REF_S / mean(kernel runs)`.  The scaled time reads as seconds on a host where
the kernel takes `REF_S`.  With one run on each side, twenty repeats of one
lattice build spread by 12% (quartile distance over median) after scaling;
with four on each side, by 7%.

The kernel is the seed commit's `build_emst` inner loop (integer squared
distances behind a method call, tuple tie-break keys) on a fixed 144-point
jittered lattice, copied here so that changes to the package never change the
yardstick.  It stresses the interpreter the way the package's hot loops do;
an unrelated kernel (small-integer arithmetic) tracked the drift much less
closely.
"""

from __future__ import annotations

import random
from time import perf_counter

# About the kernel's uncontended wall time on the 2-CPU x86-64 machine where
# the baseline was recorded, so that scaled figures read as seconds there.
REF_S = 0.008
PROBES = 4


class _Grid:
    def __init__(self, sx: list[int], sy: list[int]):
        self._sx, self._sy = sx, sy

    def sdist_sq(self, i: int, j: int) -> int:
        dx = self._sx[i] - self._sx[j]
        dy = self._sy[i] - self._sy[j]
        return dx * dx + dy * dy


def _kernel_grid() -> _Grid:
    rng = random.Random(5)
    pts = [(i * 10 + rng.uniform(-3, 3), j * 10 + rng.uniform(-3, 3))
           for i in range(12) for j in range(12)]
    return _Grid([round(x * 10**6) for x, _ in pts], [round(y * 10**6) for _, y in pts])


def _prim(g: _Grid, n: int) -> list[tuple[int, int]]:
    best_d: list = [None] * n
    best_edge: list = [None] * n
    in_tree = [False] * n
    in_tree[0] = True
    for w in range(1, n):
        best_d[w] = g.sdist_sq(0, w)
        best_edge[w] = (0, w)
    edges = []
    for _ in range(n - 1):
        pick = -1
        for w in range(n):
            if in_tree[w] or best_d[w] is None:
                continue
            if pick < 0 or (best_d[w], best_edge[w]) < (best_d[pick], best_edge[pick]):
                pick = w
        edges.append(best_edge[pick])
        in_tree[pick] = True
        for w in range(n):
            if in_tree[w]:
                continue
            nd = g.sdist_sq(pick, w)
            key = (min(pick, w), max(pick, w))
            if nd < best_d[w] or (nd == best_d[w] and key < best_edge[w]):
                best_d[w] = nd
                best_edge[w] = key
    return sorted(edges)


class Calibration:
    """Times the reference kernel on demand and keeps every sample."""

    def __init__(self):
        self._grid = _kernel_grid()
        self._n = len(self._grid._sx)
        self.samples: list[float] = []

    def probe(self) -> float:
        start = perf_counter()
        _prim(self._grid, self._n)
        took = perf_counter() - start
        self.samples.append(took)
        return took

    def timed(self, call):
        """Run `call`; return (result, wall seconds, scaled seconds)."""
        kernel = sum(self.probe() for _ in range(PROBES))
        start = perf_counter()
        result = call()
        took = perf_counter() - start
        kernel += sum(self.probe() for _ in range(PROBES))
        return result, took, took * REF_S * 2 * PROBES / kernel
