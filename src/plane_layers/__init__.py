"""Edge-disjoint plane spanning layers with bounded bottleneck edge.

Given a planar point set, this package constructs k edge-disjoint plane
spanning layers whose longest edge stays within a constant factor of the
minimum-spanning-tree bottleneck: a centralized two-tree construction
(factor 2 or 3), and a grid-based k-layer construction whose per-point
computation only needs data within O(k * beta) distance.

The root exports the two builds, `verify_layers`, the locality
certificates, their input and result types and the errors.  Each stage
(`mst.build_emst`, `distributed.grid_partition`, ...) is imported from its
own module.
"""

from .centralized import (
    Recoloring,
    TwoTrees,
    build_two_disjoint_trees,
    construction1,
)
from .distributed import (
    Certifier,
    LayerSet,
    build_k_layers,
    locality_certificate,
)
from .errors import (
    GeneralPositionError,
    InternalAssertionError,
    PlaneLayersError,
    PreconditionError,
    UsageError,
)
from .geometry import (
    PointSet,
    Segment,
)
from .verify import (
    CountingBound,
    Guarantee,
    VerificationReport,
    counting_lower_bound,
    gen_line_instance,
    verify_layers,
)

__version__ = "0.1.0"
