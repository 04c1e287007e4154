"""Reference ring routes: the per-ring branches that ``from_knum`` and
``monomial`` replaced.

Before the ring protocol, a multiplier was evaluated over Z_p by embedding
each matrix entry and summing the polynomial's terms in the ring
(``eval_matrix``), a unit factor was placed in a ring by a branch on its
tag, and a monomial function branched on its ring and multiplied in only
the nonzero powers over Z_p.  These copies keep those routes, so the single
exact route can be checked against them coefficient by coefficient,
precision included.
"""

from __future__ import annotations

from fractions import Fraction

from eismeasure.diffops import MatrixPolynomial
from eismeasure.errors import NotAUnit, RingMismatch, ShapeMismatch
from eismeasure.fields import CMElt, FieldData
from eismeasure.functions import GnPoint, norm_rel_exact
from eismeasure.rings import PadicRing, RationalRing


def oracle_eval_multiplier(mult: MatrixPolynomial, beta, ring):
    field = beta.field
    if isinstance(ring, RationalRing):
        v = mult.eval_knum(beta.entries)
        if not v.is_rational:
            raise RingMismatch("multiplier value is not rational at this index")
        return Fraction(v.u)
    m = [[field.sigma_padic(e) for e in row] for row in beta.entries]
    return mult.eval_matrix(m, ring)


def oracle_theta_apply(qexp, mult: MatrixPolynomial):
    return qexp.replace_terms({
        key: (beta, c * oracle_eval_multiplier(mult, beta, qexp.ring))
        for key, (beta, c) in qexp.terms.items()})


def oracle_zeta_multiplier(mult: MatrixPolynomial):
    def value(pt: GnPoint, ring):
        field = pt.field
        if isinstance(ring, RationalRing):
            nx = norm_rel_exact(pt.x, field)
            v = mult.eval_knum([[e * nx for e in row] for row in pt.y])
            if not v.is_rational:
                raise ShapeMismatch("multiplier value is not rational")
            return Fraction(v.u)
        xc = CMElt.embed(pt.x, pt.field)
        nx = xc.xs if field.mode == "symplectic" else xc.xs * xc.xb
        m = [[field.sigma_padic(e) * nx for e in row] for row in pt.y]
        return mult.eval_matrix(m, ring)

    return value


def oracle_factor_in_ring(fac, ring, field: FieldData):
    """The factor in the ring, or None for an irrational one over Q."""
    if isinstance(ring, RationalRing):
        return Fraction(fac.u) if fac.is_rational else None
    if isinstance(ring, PadicRing):
        return field.sigma_padic(fac)
    raise RingMismatch("equivariance checks support qq and zp rings")


def oracle_monomial_value(self, pt: GnPoint, j: int | None = None):
    """``MonomialFunction.evaluate`` with its ring branches (self is the
    monomial)."""
    if not pt.x_is_unit:
        raise NotAUnit("x coordinate must be a unit")
    if self.y_invertible and not pt.y_is_invertible:
        return self.ring.zero()
    if isinstance(self.ring, RationalRing):  # rational x: xs = xb = x
        x, d = pt.x, pt.det_y_exact
        if not x.is_rational:
            raise RingMismatch("rational-ring monomials need a rational point")
        if not d.is_rational:
            raise RingMismatch("determinant is not rational")
        if not isinstance(self.coef, (int, Fraction)):
            raise RingMismatch("rational-ring monomials need a rational "
                               "coefficient")
        return (self.coef * Fraction(x.a, x.d) ** (self.e_xs + self.e_xb)
                * Fraction(d.a, d.d) ** self.e_det)
    if not isinstance(self.ring, PadicRing):
        raise RingMismatch("monomials live over the rational or p-adic ring")
    xc, d = CMElt.embed(pt.x, pt.field), pt.field.sigma_padic(pt.det_y_exact)
    out = self.ring.coerce(self.coef) * xc.xs ** self.e_xs
    if self.e_xb:
        out = out * xc.xb ** self.e_xb
    if self.e_det:
        out = out * d ** self.e_det
    return out
