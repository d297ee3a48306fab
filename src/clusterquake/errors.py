"""Exception hierarchy shared across the package."""


class ClusterQuakeError(Exception):
    """Base class for all library-specific errors."""


class SkewSymmetrizabilityError(ClusterQuakeError, ValueError):
    """Raised when a matrix admits no positive integer symmetrizer."""


class SymmetrizerMismatchError(ClusterQuakeError, ValueError):
    """Raised when a permutation does not preserve the symmetrizer."""


class InvalidTypeError(ClusterQuakeError, ValueError):
    """Unknown Dynkin family / rank combination."""


class PatternBudgetError(ClusterQuakeError, RuntimeError):
    """Enumeration exceeded its vertex budget (mutation class is probably
    not of finite type).  The partial graph built so far is attached."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class NotFiniteTypeError(PatternBudgetError):
    """Enumeration reached an exchange matrix with |eps_ij * eps_ji| > 3,
    which no mutation class of finite type contains (Fomin-Zelevinsky,
    Cluster algebras II).  The partial graph built so far is attached."""


class InternalConsistencyError(ClusterQuakeError, RuntimeError):
    """A structural theorem failed at runtime (sign coherence, exact
    polynomial division, integrality ...).  Signals a bug or bad input,
    never a tolerance issue."""


class CompletenessError(ClusterQuakeError, RuntimeError):
    """Cone location failed; the fan does not cover the given point."""


class HomeomorphismError(ClusterQuakeError, RuntimeError):
    """No chart realizes the inverse earthquake image of a point."""


class PreconditionError(ClusterQuakeError, ValueError):
    """An operation-specific precondition was violated."""


class CoordinateError(PreconditionError):
    """A point was given a coordinate it cannot carry: not finite, or
    not strictly positive for a positive point."""


class FloatRangeError(ClusterQuakeError, OverflowError):
    """A result leaves the range of floats; the log-space functions
    (quake_log, EarthquakeTransformer.transform) still evaluate it."""


class GluingDomainError(ClusterQuakeError, ValueError):
    """Central-charge gluing requested outside its domain (z_k not real
    nonzero)."""


class BoundaryError(ClusterQuakeError, ValueError):
    """A fan-interior point was required but a boundary point was given."""


class UnsupportedPlotError(ClusterQuakeError, ValueError):
    """Grid plotting is only defined for rank-2 patterns."""
