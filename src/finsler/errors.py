"""Exception hierarchy shared across the package."""


class FinslerError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FinslerError):
    """Input lies outside the mathematical domain of an operation."""


class ArityError(FinslerError):
    """Elementary-function tag applied to the wrong number of arguments."""


class EvaluationError(FinslerError):
    """A user-supplied field raised while being sampled on a stencil."""


class ExprSyntaxError(FinslerError):
    """Malformed expression text; carries the character offset of the failure."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifier(FinslerError):
    """Expression references a name that was not declared."""

    def __init__(self, name, offset=None):
        super().__init__(f"unknown identifier {name!r}")
        self.name = name
        self.offset = offset


class UnboundVariable(FinslerError):
    """Expression evaluated without a binding for one of its variables."""


class SingularMetric(FinslerError):
    """Riemannian metric matrix failed its positive-definiteness check."""


class SingularG(FinslerError):
    """Fundamental tensor g_ij is not positive definite at (x, y)."""


class DimensionMismatch(FinslerError):
    """Vector or tensor dimensions disagree."""


class DimensionError(FinslerError):
    """Operation only defined in a specific dimension (e.g. surfaces)."""


class ZeroNorm(FinslerError):
    """The one-form has (numerically) zero length where a positive length is required."""


class ZeroVector(DomainError):
    """A nonzero tangent vector is required."""


class DegenerateDenominator(FinslerError):
    """phi - s*phi' or Delta degenerated below tolerance."""


class NonPositivePhi(FinslerError):
    """phi positivity requirement violated on the admissible interval."""


class WrongPhiVariant(FinslerError):
    """Operation requires a specific phi family (e.g. Randers only)."""


class SingularDirectionInQuadrature(FinslerError):
    """Unit-ball quadrature hit a persistently singular direction."""


class DegenerateFlag(FinslerError):
    """Flag-curvature denominator is numerically zero."""


class EmptyGrid(FinslerError):
    """Classifier called with no sample points."""


class AllSamplesSingular(FinslerError):
    """Every sampled direction was singular for the metric."""


class RankDeficient(FinslerError):
    """Least-squares design matrix is rank deficient."""


class MissingReports(FinslerError):
    """Trichotomy verdict requested before its prerequisite predicates."""


class UnknownName(FinslerError):
    """No catalog entry with the requested name."""


class ParamOutOfRange(FinslerError):
    """Catalog parameter outside its documented range."""


class UnknownQuantity(FinslerError):
    """Table command asked for a quantity it does not know."""


class FastWind(FinslerError):
    """Zermelo wind reaches or exceeds unit h-length."""


class ConfigError(FinslerError):
    """Invalid run configuration; message names the offending field."""
