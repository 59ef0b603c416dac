"""Walk through the centralized two-tree constructions on one point set.

Builds the shared-edge coloring of the MST rooted at a leaf in each of its
four recolorings, and the fully disjoint pair, verifying each stage and
rendering the final result to SVG.

Run:  python3 demos/two_trees_demo.py [outdir]
"""

import random
import sys
from pathlib import Path

from plane_layers import (
    build_emst,
    build_two_disjoint_trees,
    construction1,
    verify_layers,
    Recoloring,
    PointSet,
)
from plane_layers.render import render_svg

outdir = Path(sys.argv[1] if len(sys.argv) > 1 else "demo-out")
outdir.mkdir(exist_ok=True)

rng = random.Random(42)
pts = sorted({(f"{rng.uniform(0, 1000):.6f}", f"{rng.uniform(0, 1000):.6f}") for _ in range(36)})
ps = PointSet(pts)
print(f"point set: n={len(ps)}")

edges = build_emst(ps)
root = min(v for v in ps.ids if sum(1 for e in edges if e.touches(v)) == 1)
print(f"MST built, rooted at leaf {root}")

for variant in Recoloring:
    tt = construction1(ps, root, variant)
    rep = verify_layers(tt.layers(), ps)
    print(f"  root-edge coloring {variant.value:>14}: shared={tt.shared.as_pair()} "
          f"plane={rep.all_plane} spanning={rep.all_spanning} "
          f"ratios=({tt.max_ratio_red:.3f}, {tt.max_ratio_blue:.3f})")

disjoint = build_two_disjoint_trees(ps)
rep = verify_layers(disjoint.layers(), ps)
print(f"disjoint pair: bound={disjoint.bound}, shared={disjoint.shared}, "
      f"plane={rep.all_plane}, spanning={rep.all_spanning}, "
      f"disjoint={rep.pairwise_disjoint}, maxRatio={rep.overall_max_ratio:.3f}")

svg = render_svg(ps, disjoint.layers())
(outdir / "two_trees.svg").write_text(svg)
print(f"wrote {outdir / 'two_trees.svg'}")
