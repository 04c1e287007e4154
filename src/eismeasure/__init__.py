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
    SingularMatrix,
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
    UnitCharacter,
    character_decompose,
    check_equivariance,
    check_unit_invariance,
    f_to_h,
    h_to_f,
    partition_function,
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
    NormalizationConstant,
    QExpansion,
    cusp_transform,
    eisenstein_qexp,
    leading_constant,
    normalization_constant,
)
from .rings import QQ, CycloElt, CyclotomicRing, PadicRing, RationalRing

__all__ = [name for name in dir() if not name.startswith("_")]
