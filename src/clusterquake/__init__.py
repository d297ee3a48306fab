"""Finite-type cluster fans and the cluster earthquake map."""

from .errors import (
    BoundaryError,
    ClusterQuakeError,
    CompletenessError,
    CoordinateError,
    FloatRangeError,
    GluingDomainError,
    HomeomorphismError,
    InternalConsistencyError,
    InvalidTypeError,
    NotFiniteTypeError,
    PatternBudgetError,
    PreconditionError,
    SkewSymmetrizabilityError,
    SymmetrizerMismatchError,
    UnsupportedPlotError,
)
from .seeds import ExchangeMatrix, Permutation, build_cartan_seed, \
    seed_from_type
from .fpoly import FPolynomial, mutate_F
from .patterns import Cone, ExchangePattern, PatternVertex, \
    enumerate_pattern, mutate_c_matrix, pattern_from_type
from .points import (
    PositivePoint,
    TropicalPoint,
    locate_cone,
    log_transport,
    positive_transport,
    scale,
    separation_eval,
    tropical_transport,
)
from .earthquake import (
    EarthquakeResult,
    TangentVector,
    cluster_reduce,
    dquake,
    in_plus_region,
    inverse_quake,
    limit_L,
    limit_g,
    quake,
    quake_log,
    quake_multiplier,
    u_coords,
)
from .horocycle import CentralCharge, conjugacy_residual, glue, \
    horocycle_flow, lift
from .estimators import EarthquakeTransformer

__version__ = "0.1.0"

__all__ = [
    "BoundaryError",
    "CentralCharge",
    "ClusterQuakeError",
    "CompletenessError",
    "Cone",
    "CoordinateError",
    "EarthquakeResult",
    "EarthquakeTransformer",
    "ExchangeMatrix",
    "ExchangePattern",
    "FPolynomial",
    "FloatRangeError",
    "GluingDomainError",
    "HomeomorphismError",
    "InternalConsistencyError",
    "InvalidTypeError",
    "NotFiniteTypeError",
    "PatternBudgetError",
    "PatternVertex",
    "Permutation",
    "PositivePoint",
    "PreconditionError",
    "SkewSymmetrizabilityError",
    "SymmetrizerMismatchError",
    "TangentVector",
    "TropicalPoint",
    "UnsupportedPlotError",
    "build_cartan_seed",
    "cluster_reduce",
    "conjugacy_residual",
    "dquake",
    "enumerate_pattern",
    "glue",
    "horocycle_flow",
    "in_plus_region",
    "inverse_quake",
    "lift",
    "limit_L",
    "limit_g",
    "locate_cone",
    "log_transport",
    "mutate_F",
    "mutate_c_matrix",
    "pattern_from_type",
    "positive_transport",
    "quake",
    "quake_log",
    "quake_multiplier",
    "scale",
    "separation_eval",
    "seed_from_type",
    "tropical_transport",
    "u_coords",
]
