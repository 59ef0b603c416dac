"""Grid-based construction of k edge-disjoint plane spanning layers.

Shows the bucketing, per-box sector structure, box connectors, the length
budget, and a per-point locality certificate.

Run:  python3 demos/k_layers_demo.py [outdir]
"""

import math
import random
import sys
from pathlib import Path

from plane_layers import PointSet, build_k_layers, locality_certificate, verify_layers
from plane_layers.distributed import grid_cell_side, grid_partition
from plane_layers.mst import bottleneck, build_emst
from plane_layers.render import render_svg

outdir = Path(sys.argv[1] if len(sys.argv) > 1 else "demo-out")
outdir.mkdir(exist_ok=True)

rng = random.Random(7)
pts = sorted({(f"{rng.uniform(0, 1000):.6f}", f"{rng.uniform(0, 1000):.6f}") for _ in range(90)})
ps = PointSet(pts)
k = 3

be = bottleneck(build_emst(ps), ps)
print(f"n={len(ps)}, k={k}, MST bottleneck = {be.length:.3f}")

gi = grid_partition(ps, k, be.length_sq)
side = grid_cell_side(k, be.length_sq)
print(f"grid: cell side = {side:.3f}, dense boxes = {sorted(gi.dense)}")

ls = build_k_layers(ps, k)
rep = verify_layers([list(l) for l in ls.layers], ps)
budget = 12 * math.sqrt(2) * k * ls.beta
for j, (layer, stat) in enumerate(zip(ls.layers, ls.stats)):
    print(f"  layer {j}: {stat['edges']} edges, bottleneck {stat['bottleneck']:.3f} "
          f"(budget {budget:.3f}), plane={rep.per_layer[j].plane}, "
          f"spanning={rep.per_layer[j].spanning}")
print(f"pairwise disjoint: {rep.pairwise_disjoint}")

probe = len(ps) // 2
cert = locality_certificate(ps, k, probe, layer_set=ls)
deg = sum(len(l) for l in cert.layer_edges)
print(f"locality certificate for point {probe}: ok={cert.ok}, "
      f"{deg} incident edges reproduced from data within "
      f"{cert.cheby_cells} cells (euclidean {cert.euclid_radius:.1f})")

svg = render_svg(ps, [list(l) for l in ls.layers], cell_side=side)
(outdir / "k_layers.svg").write_text(svg)
print(f"wrote {outdir / 'k_layers.svg'}")
