"""Integration, moments, and weight congruences."""

import random
from fractions import Fraction

import pytest

from eismeasure.errors import (
    EquivarianceViolation,
    HypothesisViolation,
    ShapeMismatch,
)
from eismeasure.diffops import MatrixPolynomial, det_polynomial, f_zeta, theta_apply
from eismeasure.fields import FieldData, Weight
from eismeasure.functions import MonomialFunction, random_lc_function, symmetrize
from eismeasure.hermitian import CuspData
from eismeasure.measure import (
    MeasureContext,
    integrate,
    kummer_check,
    moment_detd,
    moment_zeta,
)
from eismeasure.padic import PadicElt, _vp
from eismeasure.rings import QQ, PadicRing

GAUSS = FieldData(p=5, k_disc=-4)
SYMPL = FieldData(p=5, mode="symplectic")


def test_rank_one_integration_pinned():
    ctx = MeasureContext.rank_one(SYMPL, 12)
    h = MonomialFunction(SYMPL, 1, QQ, Fraction(1), e_xs=3)
    q = integrate(h, ctx)
    # c(beta) = (1/beta) * sum of d^3 over divisors prime to p on both sides
    assert q.coeff_by_trace(6) == Fraction(1 + 8 + 27 + 216, 6)
    assert q.coeff_by_trace(12) == Fraction(1 + 8 + 27 + 216 + 64 + 1728, 12)
    assert q.coeff_by_trace(5) == 0
    assert q.coeff_by_trace(10) == 0


def test_integrate_rejects_non_invariant_integrands():
    rng = random.Random(1)
    raw = random_lc_function(GAUSS, 1, 1, rng, entries=20, y_invertible=True)
    ctx = MeasureContext(GAUSS, CuspData.single_term(GAUSS, 1), 8, precision=1)
    with pytest.raises(EquivarianceViolation):
        integrate(raw, ctx)


def test_det_moment_multiplies_coefficients():
    ctx = MeasureContext.rank_one(SYMPL, 8)
    h = MonomialFunction(SYMPL, 1, QQ, Fraction(1), e_xs=3)
    base = integrate(h, ctx)
    for d in (1, 2, 3):
        q = moment_detd(h, d, ctx)
        assert q.weight == Weight(1 + 2 * d, -d)
        for key, (beta, c) in base.terms.items():
            assert q.terms[key][1] == c * beta.det() ** d


@pytest.mark.parametrize("d", [-1, -3])
def test_moment_detd_rejects_a_negative_power(d):
    ctx = MeasureContext.rank_one(SYMPL, 3)
    h = MonomialFunction(SYMPL, 1, QQ, Fraction(1), e_xs=3)
    with pytest.raises(ValueError, match="determinant power"):
        moment_detd(h, d, ctx)


def test_moment_routes_cross_check_runs():
    rng = random.Random(14)
    h = symmetrize(random_lc_function(GAUSS, 2, 1, rng, entries=6),
                   Weight(2, 0))
    ctx = MeasureContext(GAUSS, CuspData.single_term(GAUSS, 2), 4, precision=1)
    fz = f_zeta(MatrixPolynomial.variable(2, 0, 0), 10)
    q = moment_zeta(h, fz, ctx, verify=True)
    base = integrate(h, ctx)
    other = theta_apply(base, fz)
    assert q == other


def test_kummer_check_passes_for_congruent_weights():
    rep = kummer_check(SYMPL, 4, 24, 1, 40)
    assert rep.passed and rep.modulus_exponent == 2
    assert rep.checked > 0 and rep.witness is None


def test_kummer_check_over_no_coefficients_does_not_pass():
    rep = kummer_check(SYMPL, 4, 24, 1, 0)
    assert rep.checked == 0 and not rep.passed


def test_kummer_check_rejects_bad_weight_pairs():
    with pytest.raises(HypothesisViolation):
        kummer_check(SYMPL, 4, 5, 0, 10)
    with pytest.raises(HypothesisViolation):
        kummer_check(SYMPL, 4, 8, 1, 10)  # congruent mod 4 but not mod 20


def test_kummer_witness_on_forced_failure():
    # weights congruent mod (p-1) only, checked at modulus p^2: must fail
    rep = kummer_check(SYMPL, 4, 8, 0, 40, modulus_exponent=2)
    assert not rep.passed and rep.witness is not None
    wit = rep.witness
    assert set(wit) == {"trace", "coeff_k", "coeff_k2", "valuation"}
    assert wit["trace"] % 5 != 0
    ctx = MeasureContext.rank_one(SYMPL, 40)
    for key, e in (("coeff_k", 3), ("coeff_k2", 7)):
        q = integrate(MonomialFunction(SYMPL, 1, QQ, Fraction(1), e_xs=e), ctx)
        assert wit[key] == str(q.coeff_by_trace(wit["trace"]))
    diff = Fraction(wit["coeff_k"]) - Fraction(wit["coeff_k2"])
    assert wit["valuation"] == _vp(diff, 5) < rep.modulus_exponent
    # the first failing trace prime to p
    for m in range(1, wit["trace"]):
        if m % 5:
            assert kummer_check(SYMPL, 4, 8, 0, m, modulus_exponent=2).passed


@pytest.mark.parametrize("k", [2, 4, 7])
def test_rational_and_padic_integrals_agree_to_the_reported_precision(k):
    """The same symplectic monomial integral over qq and over Z_p agrees
    modulo p^(abs_prec) of each p-adic coefficient."""
    field = FieldData(p=5, mode="symplectic", precision=6)
    ctx = MeasureContext.rank_one(field, 60)
    exact = integrate(MonomialFunction(field, 1, QQ, Fraction(1),
                                       e_xs=k - 1), ctx)
    padic = integrate(MonomialFunction(field, 1, PadicRing(5, 6), Fraction(1),
                                       e_xs=k - 1), ctx)
    assert exact.terms.keys() == padic.terms.keys()
    for key, (_, c) in exact.terms.items():
        z = padic.terms[key][1]
        j = z.abs_prec
        assert j >= 1
        assert PadicElt.from_rational(c, p=5, prec=j).lift(j) == z.lift(j)
