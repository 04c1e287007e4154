"""p-adic measure toolkit for coefficient families on unitary groups.

The package provides exact CM field arithmetic, capped-precision p-adic
numbers, locally constant coset functions, and the coefficient-level
operations built on them: expansions, cusp re-indexing, moments against
polynomial multipliers, and weight congruence checks.
"""

from .errors import (
    DenominatorDivisibleByP,
    EisMeasureError,
    EquivarianceViolation,
    GroupOrderNotInvertible,
    HypothesisViolation,
    LatticeMismatch,
    LevelMismatch,
    NearSingularAutomorphyFactor,
    NegativeValuationResult,
    NotAUnit,
    PrecisionUnavailable,
    RingMismatch,
    ShapeMismatch,
    SpanNotClosed,
    SupportNotInvertible,
    UnsupportedSize,
    ZeroDenominator,
)
from .fields import CMElt, FieldData, KNum, Weight, norm_weight
from .functions import (
    ContinuousFunction,
    GnPoint,
    LCFunction,
    LinearCombination,
    MonomialFunction,
    ProductFunction,
    character_decompose,
    check_equivariance,
    f_to_h,
    h_to_f,
    random_lc_function,
    symmetrize,
    weight_twist,
)
from .hermitian import CuspData, HermitianMatrix, enumerate_positive
from .measure import (
    KummerReport,
    MeasureContext,
    integrate,
    kummer_check,
    moment_detd,
    moment_zeta,
)
from .padic import DEFAULT_PRECISION, PadicElt
from .qexp import (
    ChiData,
    QExpansion,
    cusp_transform,
    eisenstein_qexp,
)
from .rings import QQ, CycloElt, CyclotomicRing, PadicRing, RationalRing

__all__ = [name for name in dir() if not name.startswith("_")]
