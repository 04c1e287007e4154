"""Integration, moments, and weight congruences."""

import random
from fractions import Fraction

import pytest

from eismeasure.errors import (
    EquivarianceViolation,
    HypothesisViolation,
    RingMismatch,
    ShapeMismatch,
)
from eismeasure.diffops import MatrixPolynomial, det_polynomial, f_zeta, theta_apply
from eismeasure.fields import FieldData, Weight
from eismeasure.functions import (
    MonomialFunction,
    ProductFunction,
    h_to_f,
    random_lc_function,
    unit_weight_factor,
)
from eismeasure.hermitian import CuspData, enumerate_positive
from eismeasure.measure import (
    MeasureContext,
    _zeta_multiplier,
    integrate,
    kummer_check,
    moment_detd,
    moment_zeta,
)
from eismeasure.padic import PadicElt, _vp
from eismeasure.qexp import _expansions, _rule_point
from eismeasure.rings import QQ, PadicRing
from point_tables import table_at_points
from ring_oracle import (
    oracle_factor_in_ring,
    oracle_theta_apply,
    oracle_zeta_multiplier,
)

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
    raw = random_lc_function(GAUSS, 1, 1, rng, entries=20)
    ctx = MeasureContext(GAUSS, CuspData.single_term(GAUSS, 1), 8)
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
            assert q.terms[key][1] == c * beta.det_exact.u ** d


@pytest.mark.parametrize("d", [-1, -3])
def test_moment_detd_rejects_a_negative_power(d):
    ctx = MeasureContext.rank_one(SYMPL, 3)
    h = MonomialFunction(SYMPL, 1, QQ, Fraction(1), e_xs=3)
    with pytest.raises(ValueError, match="determinant power"):
        moment_detd(h, d, ctx)


def test_moment_routes_cross_check_runs():
    """Both moment routes agree on a unit-invariant table that is nonzero at
    the sweep's points, and the moment is not zero."""
    cusp = CuspData.single_term(GAUSS, 2)
    h = table_at_points(GAUSS, 2, cusp, 4, Weight(0, 0), 14)
    ctx = MeasureContext(GAUSS, cusp, 4)
    fz = f_zeta(MatrixPolynomial.variable(2, 0, 0), 10)
    q = moment_zeta(h, fz, ctx)
    base = integrate(h, ctx)
    other = theta_apply(base, fz)
    assert q == other
    assert sum(not q.ring.is_zero(c) for _, c in q.terms.values()) >= 17


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


@pytest.mark.parametrize("m, exponent", [(-1, None), (-2, 3), (0, 0),
                                         (1, -1)])
def test_kummer_check_rejects_a_negative_m_or_modulus_exponent(m, exponent):
    # m = -1 used to pass over 24 coefficients, a congruence mod p^0
    with pytest.raises(HypothesisViolation, match="m >= 0"):
        kummer_check(SYMPL, 4, 4, m, 30, modulus_exponent=exponent)


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


def _padic_record(c):
    return (c.val, c.unit, c.prec)


# (field, rank, cusp, bound, integrand exponents (e_xs, e_xb, e_det))
ORACLE_CASES = [
    (SYMPL, 1, "divisor", 12, [(3, 0, 0), (5, 0, 1)]),
    (GAUSS, 1, "divisor", 12, [(2, 2, 0), (1, 1, 1), (3, 3, 0)]),
    (GAUSS, 2, "single", 5, [(2, 2, 0), (4, 4, 1)]),
]


@pytest.mark.parametrize("field, n, cusp_kind, bound, exponents", ORACLE_CASES)
@pytest.mark.parametrize("prec", [6, 24])
def test_exact_multiplier_route_matches_the_ring_route(field, n, cusp_kind,
                                                       bound, exponents, prec):
    """Exact points evaluate a multiplier exactly and place the value in the
    ring (``from_knum``); ``tests/ring_oracle.py`` keeps the old p-adic route,
    which embedded every entry and summed the terms in the ring.  Both routes
    must give each coefficient of ``moment_detd`` and of ``theta_apply`` the
    same valuation, unit and precision, over a ring coarser than the field
    (precision 6 against 24) and one as fine."""
    ring = PadicRing(field.p, prec)
    cusp = (CuspData.divisor_rule(field) if cusp_kind == "divisor"
            else CuspData.single_term(field, n))
    ctx = MeasureContext(field, cusp, bound)
    points = [_rule_point(field, a, beta)
              for beta in enumerate_positive(field, n, bound)
              for a, _ in cusp.rule(beta)]
    compared = 0
    for exps in exponents:
        h = MonomialFunction(field, n, ring, Fraction(3), *exps)
        base = _expansions([(h_to_f(h), Weight(n, 0))], cusp, bound, field,
                           validate=False)[0]
        for d in (1, 2):
            mult = det_polynomial(n, n)
            for _ in range(d - 1):
                mult = mult * det_polynomial(n, n)
            got = moment_detd(h, d, ctx)
            f2 = ProductFunction(field, n, ring, h_to_f(h),
                                 oracle_zeta_multiplier(mult), y_invertible=True)
            want = _expansions([(f2, Weight(n, 0))], cusp, bound, field,
                               validate=False)[0]
            assert got.terms.keys() == want.terms.keys()
            for key, (_, c) in got.terms.items():
                assert _padic_record(c) == _padic_record(want.terms[key][1])
                compared += not c.is_zero
            # the integrand's multiplier, point by point
            for pt in points:
                assert (_padic_record(_zeta_multiplier(mult)(pt, ring))
                        == _padic_record(oracle_zeta_multiplier(mult)(pt, ring)))
            got_t, want_t = theta_apply(base, mult), oracle_theta_apply(base, mult)
            for key, (_, c) in got_t.terms.items():
                assert _padic_record(c) == _padic_record(want_t.terms[key][1])
                compared += not c.is_zero
    assert compared >= 80


@pytest.mark.parametrize("field", [SYMPL, GAUSS, FieldData(p=7, k_disc=-3)])
def test_unit_factors_in_each_ring_match_the_tag_branches(field):
    """``from_knum`` places each unit's weight factor where the old per-tag
    branch did: the same p-adic element, and over Q the same rational or,
    for an irrational factor, a ``RingMismatch`` where it gave None."""
    irrational = 0
    for ring in (QQ, PadicRing(field.p, 6), PadicRing(field.p, field.precision)):
        for w in (Weight(1, 0), Weight(2, 0), Weight(3, 1), Weight(4, -1)):
            for e in field.unit_group:
                fac = unit_weight_factor(e, w)
                want = oracle_factor_in_ring(fac, ring, field)
                if want is None:
                    irrational += 1
                    with pytest.raises(RingMismatch):
                        ring.from_knum(fac, field)
                    continue
                got = ring.from_knum(fac, field)
                assert type(got) is type(want)
                if isinstance(want, PadicElt):
                    assert _padic_record(got) == _padic_record(want)
                else:
                    assert got == want
    # units of order 4 or 6 give irrational factors at odd weight
    assert (irrational > 0) == (field.mode == "unitary")
