"""Reference expansion: one function per call, one point per cusp-rule term.

This is the per-function loop that ``qexp._expansions`` replaced.  It
rebuilds every cusp-rule point for each function and sums each coefficient
term by term in ring arithmetic (``Fraction`` on the rational ring), so the
shared sweep's coefficients, their types and their p-adic precision can be
checked against it.  ``oracle_power_qexp`` keeps the rational monomial's
power sum as it read each point's x and flags, before the sweep read them
from an index's stored view.
"""

from __future__ import annotations

import math
from fractions import Fraction

from eismeasure.errors import EquivarianceViolation, NotRational
from eismeasure.fields import CMElt, FieldData, Weight, norm_weight
from eismeasure.functions import (
    GnFunction,
    GnPoint,
    MonomialFunction,
    check_equivariance,
    evaluate,
    norm_rel_exact,
)
from eismeasure.hermitian import CuspData, enumerate_positive
from eismeasure.padic import PadicElt
from eismeasure.qexp import QExpansion


def oracle_sample_points(field: FieldData, cusp: CuspData, betas,
                         count: int = 4):
    pts = []
    for beta in betas[:count]:
        for a, _ in cusp.rule(beta)[:2]:
            na = norm_rel_exact(a, field)
            y = tuple(tuple(e / na for e in row) for row in beta.entries)
            pts.append(GnPoint(field, a, y))
    return pts


def oracle_qexp(f: GnFunction, w: Weight, cusp: CuspData, trace_bound: int,
                field: FieldData, validate: bool = True) -> QExpansion:
    n = cusp.n
    if w.k < n:
        raise ValueError(f"weight {w.k} below the rank {n}")
    betas = enumerate_positive(field, n, trace_bound)
    if validate:
        report = check_equivariance(
            f, w, oracle_sample_points(field, cusp, betas))
        if not report.passed:
            raise EquivarianceViolation("coefficient function fails unit "
                                        f"equivariance at {report.witness_text()}")
    ring = f.ring
    terms = {}
    for beta in betas:
        c = ring.zero()
        detb = beta.det_exact.u
        for a, mult in cusp.rule(beta):
            na = norm_rel_exact(a, field)
            y = tuple(tuple(e / na for e in row) for row in beta.entries)
            pt = GnPoint(field, a, y)
            fval = evaluate(f, pt)
            if ring.is_zero(fval):
                continue
            if ring.tag == "qq":
                if not a.is_rational:
                    raise NotRational(f"{a} is not rational")
                dn, dd = detb.numerator, detb.denominator
                factor = Fraction((dn * a.d) ** w.k * dd ** n,
                                  (dd * a.a) ** w.k * dn ** n)
            else:
                bc = CMElt.embed(field.K(detb) * a.inverse(), field)
                num = norm_weight(bc, w)
                den = PadicElt.from_rational(Fraction(detb), p=field.p,
                                             prec=field.precision) ** n
                factor = num / den
            c = c + ring.coerce(mult) * fval * ring.coerce(factor)
        terms[beta.key()] = (beta, c)
    return QExpansion(field, n, w, cusp.label, trace_bound, ring, terms)


def oracle_power_sum(f, e, dexp, detb, mults, points) -> Fraction:
    """coef * det(beta)^dexp * the sum of mult * x^e over the points where x
    is a unit (and y invertible, if the monomial asks), point by point.  A
    point where ``f.evaluate`` raises is handed to it."""
    flip, e = e < 0, abs(e)  # (a/d)^-e = (d/a)^e
    num, den, y_invertible = 0, 1, f.y_invertible
    for mult, pt in zip(mults, points):
        x = pt.x
        if x.b or not pt.x_is_unit:  # evaluate raises, or is 0 off the y-support
            f.evaluate(pt)
            continue
        if y_invertible and not pt.y_is_invertible:
            continue
        tn, td = (x.d, x.a) if flip else (x.a, x.d)
        td = td ** e if td != 1 else 1
        if td == den:  # every integral x when e >= 0
            num += mult * tn ** e
        else:  # over the lcm of the denominators
            g = math.gcd(den, td)
            num, den = num * (td // g) + mult * tn ** e * (den // g), den // g * td
    dn, dd = (detb.a, detb.d) if dexp >= 0 else (detb.d, detb.a)
    return Fraction(num * f.coef.numerator * dn ** abs(dexp),
                    den * f.coef.denominator * dd ** abs(dexp))


def oracle_power_qexp(f: MonomialFunction, w: Weight, cusp: CuspData,
                      trace_bound: int, field: FieldData) -> QExpansion:
    """A rational monomial's expansion from ``oracle_power_sum`` over fresh
    points, unvalidated; a monomial with another coefficient is
    ``oracle_qexp``'s, as the sweep has always summed it from its values."""
    if not isinstance(f.coef, (int, Fraction)):
        return oracle_qexp(f, w, cusp, trace_bound, field, validate=False)
    n = cusp.n
    r = 1 if field.mode == "symplectic" else 2  # relnorm(x) = x^r
    e = f.e_xs + f.e_xb - r * n * f.e_det - w.k
    dexp = f.e_det + w.k - n
    terms = {}
    for beta in enumerate_positive(field, n, trace_bound):
        pairs = cusp.rule(beta)
        points = []
        for a, _ in pairs:
            na = norm_rel_exact(a, field)
            y = tuple(tuple(c / na for c in row) for row in beta.entries)
            points.append(GnPoint(field, a, y))
        terms[beta.key()] = (beta, oracle_power_sum(
            f, e, dexp, beta.det_exact, [m for _, m in pairs], points))
    return QExpansion(field, n, w, cusp.label, trace_bound, f.ring, terms)
