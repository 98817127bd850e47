"""Exception taxonomy shared across the package.

Every error raised by crosshex derives from :class:`CrosshexError`, so callers
(and the CLI) can catch library failures without masking programming errors
such as ``TypeError``.
"""


class CrosshexError(Exception):
    """Base class for all crosshex errors."""


class NonConvergent(CrosshexError):
    """An iterative evaluation (lattice sum, Newton search) hit its cap."""


class DimensionMismatch(CrosshexError):
    """An argument has the wrong length or shape (a label, a divisor, a stack of lifts)."""


class PoleOnPath(CrosshexError):
    """An integration segment passes within tolerance of a pole lift."""


class ConsistencyFailure(CrosshexError):
    """A cross-check between stored and recomputed invariants failed."""


class SchemaError(CrosshexError):
    """A document is structurally invalid (missing keys, bad shapes)."""


class SingularEvaluation(CrosshexError):
    """A theta denominator or normalization value fell below the genericity floor."""


class InvalidSite(CrosshexError):
    """A lattice site violates its defining constraint (hex: k + l + m = 0)."""


class RankDeficient(CrosshexError):
    """The probe matrix has more than a one-dimensional numerical kernel."""


class MissingGauge(CrosshexError):
    """A gauge table lacks a value at a site required by the transform."""


class SeparationFailure(CrosshexError):
    """Rejection sampling could not achieve the required point separation."""


class UnknownPoint(CrosshexError):
    """A tabulated curve has no stored data for the requested point or pair."""
