"""The worst-case line family: why one long edge is unavoidable.

On n evenly spaced points, k disjoint spanning trees need k(n-1) edges but
only kn - k(k+1)/2 pairs lie closer than k+1, so some tree must use an edge
of length at least k+1 times the MST bottleneck.  The two-tree construction
approaches its factor-3 bound on exactly this family.

Run:  python3 demos/lower_bound_demo.py
"""

from plane_layers import (
    build_two_disjoint_trees,
    counting_lower_bound,
    gen_line_instance,
    verify_layers,
)

print("counting bound on the unit-spaced line (needed = k(n-1)):")
print(f"{'n':>4} {'k':>3} {'short':>6} {'needed':>6} feasible")
for n in (5, 10, 20, 50):
    for k in (1, 2, 3):
        got = counting_lower_bound(n, k)
        print(f"{n:>4} {k:>3} {got.short_edges:>6} {got.needed:>6} {got.feasible}")

print("\ntwo disjoint trees on perturbed lines (bound 3, one long edge allowed):")
for n in (5, 9, 17, 33, 64):
    ps = gen_line_instance(n, "0.001")
    tt = build_two_disjoint_trees(ps)
    rep = verify_layers(tt.layers(), ps)
    worst = max(tt.max_ratio_red, tt.max_ratio_blue)
    print(f"  n={n:>3}: maxRatio={worst:.4f}, plane={rep.all_plane}, "
          f"spanning={rep.all_spanning}, disjoint={rep.pairwise_disjoint}, "
          f"edges beyond ratio 2: {rep.over_twice_bottleneck}")
