"""Reference expansion: one function per call, one point per cusp-rule term.

This is the per-function loop that ``qexp._expansions`` replaced.  It
rebuilds every cusp-rule point for each function and sums each coefficient
term by term in ring arithmetic (``Fraction`` on the rational ring), so the
shared sweep's coefficients, their types and their p-adic precision can be
checked against it.
"""

from __future__ import annotations

from fractions import Fraction

from eismeasure.errors import EquivarianceViolation, RingMismatch
from eismeasure.fields import CMElt, FieldData, Weight, norm_weight
from eismeasure.functions import (
    GnFunction,
    GnPoint,
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
            pts.append(GnPoint.from_exact(field, a, y))
    return pts


def oracle_qexp(f: GnFunction, w: Weight, cusp: CuspData, trace_bound: int,
                field: FieldData, precision: int | None = None,
                validate: bool = True) -> QExpansion:
    n = cusp.n
    if w.k < n:
        raise ValueError(f"weight {w.k} below the rank {n}")
    betas = enumerate_positive(field, n, trace_bound)
    if validate:
        report = check_equivariance(
            f, w, oracle_sample_points(field, cusp, betas), j=precision)
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
            pt = GnPoint.from_exact(field, a, y)
            fval = evaluate(f, pt, precision)
            if ring.is_zero(fval):
                continue
            if ring.tag == "qq":
                if not a.is_rational:
                    raise RingMismatch(
                        "rational coefficients need rational norm arguments")
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
