"""Integration of locally constant functions against the measure.

The defining property: integrating a unit-invariant integrand h equals the
base-weight expansion attached to the bridged coefficient function
``h_to_f(h)``; a continuous h is integrated mod p^j as ``h.truncate(j)``.
Moments against polynomial multipliers are computed through two
independent routes (a product integrand, and coefficientwise
multiplication) and cross-checked; the sweep ``qexp._expansions`` validates.
"""

from __future__ import annotations

from fractions import Fraction

from .diffops import (
    HighestWeight,
    MatrixPolynomial,
    eval_multiplier,
    highest_weight_vector,
    theta_apply,
)
from .errors import HypothesisViolation, ShapeMismatch
from .fields import FieldData, Weight
from .functions import (
    GnFunction,
    GnPoint,
    MonomialFunction,
    ProductFunction,
    _congruent,
    h_to_f,
    norm_rel_exact,
)
from .hermitian import CuspData
from .padic import _vp
from .qexp import QExpansion, _expansions
from .rings import QQ


class MeasureContext:
    """What integrating needs: the field, the cusp (so the rank), the bound."""

    def __init__(self, field: FieldData, cusp: CuspData, trace_bound: int):
        self.field, self.cusp, self.trace_bound = field, cusp, trace_bound

    @property
    def n(self) -> int:
        return self.cusp.n

    @classmethod
    def rank_one(cls, field: FieldData, trace_bound: int) -> "MeasureContext":
        return cls(field, CuspData.divisor_rule(field), trace_bound)


def integrate(h: GnFunction, ctx: MeasureContext) -> QExpansion:
    """The base-weight expansion of h_to_f(h); the sweep checks that h is
    unit invariant and h_to_f(h) equivariant.  A continuous h is integrated
    mod p^j as its truncation: integrate(h.truncate(j), ctx)."""
    return _expansions([(h_to_f(h), Weight(ctx.n, 0))], ctx.cusp,
                       ctx.trace_bound, ctx.field, integrand=h)[0]


def _zeta_multiplier(mult: MatrixPolynomial):
    """The function (x, y) -> mult(relnorm(x) * y) as a pointwise factor."""

    def value(pt: GnPoint, ring):
        nx = norm_rel_exact(pt.x, pt.field)
        m = [[e * nx for e in row] for row in pt.y]
        return eval_multiplier(mult, m, pt.field, ring)

    return value


def moment_zeta(h: GnFunction, mult: MatrixPolynomial,
                ctx: MeasureContext) -> QExpansion:
    """Integrate h times the multiplier evaluated at relnorm(x) * y^-1.

    Equals coefficientwise multiplication of integrate(h) by the multiplier
    value at each index; both routes are computed, in one sweep, and must
    agree exactly.  The sweep checks what ``integrate`` checks, h unit
    invariant and then the bridged function equivariant, so a failure has
    ``integrate``'s witness; then the product function.
    """
    f = h_to_f(h)
    # on the coefficient side the multiplier argument y^-1 turns back into y
    f2 = ProductFunction(f.field, f.n, f.ring, f, _zeta_multiplier(mult),
                         y_invertible=f.y_invertible)
    w = Weight(ctx.n, 0)
    # the first job is integrate(h, ctx)
    q, q2 = _expansions([(f, w), (f2, w)], ctx.cusp, ctx.trace_bound,
                        ctx.field, integrand=h)
    if not q2 == theta_apply(q, mult):
        raise ShapeMismatch("moment routes disagree")
    return q2


def moment_detd(h: GnFunction, d: int, ctx: MeasureContext) -> QExpansion:
    """The determinant-power moment, labeled with the shifted weight.

    Computed for d >= 0 as the moment against the highest-weight vector of
    weight (d, ..., d), which is det^d; the result carries weight
    (n + 2d, -d).  The product-integrand route is checked against
    coefficientwise multiplication by det(beta)^d.
    """
    if d < 0:
        raise ValueError(f"the determinant power must be >= 0, got {d}")
    n = ctx.n
    q = moment_zeta(h, highest_weight_vector(HighestWeight((d,) * n)), ctx)
    return QExpansion(q.field, q.n, Weight(n + 2 * d, -d), q.cusp_label,
                      q.trace_bound, q.ring, q.terms)


class KummerReport:
    """On failure ``witness`` is the first failing coefficient pair: its
    ``trace``, the coefficients ``coeff_k`` and ``coeff_k2`` as strings, and
    the p-adic ``valuation`` of their difference."""

    def __init__(self, passed: bool, checked: int, witness: dict | None,
                 modulus_exponent: int):
        self.passed, self.checked = passed, checked
        self.witness, self.modulus_exponent = witness, modulus_exponent

    def __eq__(self, other) -> bool:
        if not isinstance(other, KummerReport):
            return NotImplemented
        return vars(self) == vars(other)


def kummer_check(field: FieldData, k: int, k2: int, m: int,
                 trace_bound: int,
                 modulus_exponent: int | None = None) -> KummerReport:
    """Congruence of the rank-one moments of x^(k-1) and x^(k2-1).

    Both integrals are computed exactly over the rationals; away from p the
    coefficients must agree mod p^(m+1) whenever k = k2 mod (p-1)p^m.  The
    modulus exponent can be raised past the guaranteed m+1 to probe for
    failures.  A bound that leaves no coefficient prime to p to compare
    does not pass.
    """
    p = field.p
    j = m + 1 if modulus_exponent is None else modulus_exponent
    if k < 1 or k2 < 1 or m < 0 or j < 1:
        raise HypothesisViolation("the weights and the modulus exponent must be"
                                  f" positive and m >= 0, got k = {k}, k2 = "
                                  f"{k2}, m = {m}, exponent {j}")
    if (k - k2) % ((p - 1) * p ** m) != 0:
        raise HypothesisViolation(
            f"{k} and {k2} are not congruent mod (p-1)p^{m}")
    ctx = MeasureContext.rank_one(field, trace_bound)
    h1 = MonomialFunction(field, 1, QQ, Fraction(1), e_xs=k - 1)
    h2 = MonomialFunction(field, 1, QQ, Fraction(1), e_xs=k2 - 1)
    # both integrals, integrate(h, ctx) unchecked, in one sweep
    w = Weight(1, 0)
    q1, q2 = _expansions([(h_to_f(h1), w), (h_to_f(h2), w)], ctx.cusp,
                         trace_bound, field, validate=False)
    # one pass over both in enumeration order, which is by trace at rank one
    checked, witness = 0, None
    for (beta, c1), (_, c2) in zip(q1.terms.values(), q2.terms.values()):
        trace = beta.entries[0][0].a
        if trace % p:
            checked += 1
            if witness is None and not _congruent(c1, c2, p, j):
                witness = {"trace": trace, "coeff_k": str(c1),
                           "coeff_k2": str(c2), "valuation": _vp(c1 - c2, p)}
    # a pass over zero coefficients is not a pass
    return KummerReport(witness is None and checked > 0, checked, witness, j)
