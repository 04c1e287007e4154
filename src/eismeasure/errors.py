"""Exception hierarchy shared by all modules."""


class EisMeasureError(Exception):
    """Base class for all library errors."""


class ZeroDenominator(EisMeasureError):
    pass


class DenominatorDivisibleByP(EisMeasureError):
    pass


class NotAUnit(EisMeasureError):
    pass


class NegativeValuationResult(EisMeasureError):
    pass


class PrecisionUnavailable(EisMeasureError):
    pass


class EquivarianceViolation(EisMeasureError):
    pass


class SupportNotInvertible(EisMeasureError):
    pass


class GroupOrderNotInvertible(EisMeasureError):
    pass


class LevelMismatch(EisMeasureError):
    pass


class UnsupportedSize(EisMeasureError):
    pass


class LatticeMismatch(EisMeasureError):
    pass


class ShapeMismatch(EisMeasureError):
    pass


class RingMismatch(EisMeasureError):
    pass


class NotRational(RingMismatch):
    """An irrational field element asked of the rational ring."""


class SpanNotClosed(EisMeasureError):
    pass


class HypothesisViolation(EisMeasureError):
    pass


class NearSingularAutomorphyFactor(EisMeasureError):
    pass


class FieldDataError(EisMeasureError):
    """Invalid field configuration (ramified p, non-split p, unknown discriminant)."""
