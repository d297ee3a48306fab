"""Finite-type cluster fans and the cluster earthquake map."""

import importlib.util
import sys

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


def _lazy_submodule(name):
    """The submodule, registered in sys.modules at once but executed only
    when one of its attributes is first read."""
    fullname = f"{__name__}.{name}"
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


# Only estimators needs numpy, whose import costs more than the rest of the
# package together, and the CLI never uses it.  The module is still
# registered at import, so code that finds the package's modules through
# sys.modules (perfbench/tracer.py) sees it.
estimators = _lazy_submodule("estimators")


def __getattr__(name):
    if name == "EarthquakeTransformer":
        return estimators.EarthquakeTransformer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
