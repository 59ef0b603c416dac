"""Edge-disjoint plane spanning layers with bounded bottleneck edge.

Given a planar point set, this package constructs k edge-disjoint plane
spanning layers whose longest edge stays within a constant factor of the
minimum-spanning-tree bottleneck: a centralized two-tree construction
(factor 2 or 3), and a grid-based k-layer construction whose per-point
computation only needs data within O(k * beta) distance.
"""

from .centralized import (
    PCase,
    Recoloring,
    SideSplit,
    TwoTrees,
    build_two_disjoint_trees,
    construction1,
    disjoint_trees_flat,
    disjoint_trees_pointed,
    find_flat_vertex,
    recolor,
    select_P,
    side_split,
)
from .distributed import (
    Certifier,
    GridIndex,
    LayerSet,
    build_k_layers,
    center_point,
    connect_boxes,
    grid_partition,
    layers_in_box,
    locality_certificate,
    tukey_depth,
)
from .errors import (
    GeneralPositionError,
    InternalAssertionError,
    PlaneLayersError,
    PreconditionError,
    UsageError,
)
from .geometry import (
    Orientation,
    Point,
    PointSet,
    Segment,
    ccw_order_around,
    convex_hull,
    orientation,
    properly_cross,
)
from .mst import (
    BottleneckInfo,
    RootedMst,
    bottleneck,
    build_emst,
    root_at_leaf,
)
from .verify import (
    CountingBound,
    VerificationReport,
    counting_lower_bound,
    gen_line_instance,
    verify_layers,
)

__version__ = "0.1.0"
