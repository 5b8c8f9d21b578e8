"""Outage analysis of linearly precoded constellations on block-fading channels."""

__version__ = "0.1.0"

from .constellations import (
    Constellation,
    ProjectionSet,
    build_named,
    cartesian_product,
    check_symmetry,
    min_product_distance,
    project,
)
from .mutual_info import (
    ChannelSample,
    EngineConfig,
    MIEstimate,
    SaturationError,
    gaussian_floor,
    inv_mi_scalar,
    mi_discrete,
    mi_gaussian,
    mi_lowsnr_approx,
    mi_per_use,
    mi_scalar,
    mmse_scalar,
)
from .outage import (
    OutageAnchors,
    OutageGeometry,
    OutageQuery,
    OutageResult,
    chi_square_cdf,
    compute_anchors,
    hypersphere_bounds,
    outage_from_boundary_2d,
    outage_mc,
    trace_boundary_2d,
)
from .optimizer import expansion_compare, optimize, sweep
from .precoders import Precoder, apply, circulant_from_eigenphases, rotation, rotation2, rotation3
