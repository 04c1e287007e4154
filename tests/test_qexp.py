"""Expansions: construction, congruences, cusp re-indexing, normalization."""

import collections
import itertools
import random
from fractions import Fraction

import pytest

from eismeasure.diffops import det_polynomial
from eismeasure.errors import (
    DenominatorDivisibleByP,
    EisMeasureError,
    EquivarianceViolation,
    LatticeMismatch,
    NotAUnit,
    RingMismatch,
    ShapeMismatch,
)
from eismeasure.fields import FieldData, Weight
from eismeasure.functions import (
    GnPoint,
    LCFunction,
    LinearCombination,
    MonomialFunction,
    ProductFunction,
    character_decompose,
    h_to_f,
    norm_rel_exact,
    random_lc_function,
    symmetrize,
    weight_twist,
    y_det_key,
)
from eismeasure.hermitian import CuspData, HermitianMatrix, enumerate_positive
from eismeasure import fields, functions, hermitian, measure
from eismeasure.measure import _zeta_multiplier, kummer_check
from eismeasure.padic import PadicElt
from eismeasure.qexp import (
    ChiData,
    QExpansion,
    _expansions,
    _rule_point,
    cusp_transform,
    eisenstein_qexp,
    leading_constant,
    normalization_constant,
)
from eismeasure.rings import QQ, PadicRing
from qexp_oracle import oracle_power_qexp, oracle_qexp

GAUSS = FieldData(p=5, k_disc=-4)
SYMPL = FieldData(p=5, mode="symplectic")


def rank_one_qexp(k, bound=12):
    cusp = CuspData.divisor_rule(SYMPL)
    f = MonomialFunction(SYMPL, 1, QQ, Fraction(1), e_xs=k, e_det=1 - k)
    return eisenstein_qexp(f, Weight(k, 0), cusp, bound, SYMPL, validate=False)


def test_rank_one_divisor_sums():
    # c(beta) = sum of d^(k-1) over divisors with d and beta/d prime to p
    q = rank_one_qexp(4)
    assert q.coeff_by_trace(6) == 1 + 8 + 27 + 216
    assert q.coeff_by_trace(1) == 1
    assert q.coeff_by_trace(5) == 0
    assert q.coeff_by_trace(10) == 0


def test_lookup_above_the_trace_bound_raises():
    # the bound-13 expansion has 2198 at trace 13; the bound-12 one never
    # computed it, and used to read it as 0
    q = rank_one_qexp(4, bound=12)
    assert rank_one_qexp(4, bound=13).coeff_by_trace(13) == 2198
    assert q.coeff_by_trace(12) != 0
    for m in (13, 60):
        with pytest.raises(ShapeMismatch, match="above the trace bound 12"):
            q.coeff_by_trace(m)
    with pytest.raises(ShapeMismatch):
        q.coeff(HermitianMatrix.from_pairs(SYMPL, [[(13, 0)]]))
    # rank two: a zero coefficient inside the bound still reads as 0
    cusp = CuspData.single_term(GAUSS, 2)
    f = MonomialFunction(GAUSS, 2, QQ, Fraction(1))
    q2 = eisenstein_qexp(f, Weight(2, 0), cusp, 3, GAUSS, validate=False)
    inside = HermitianMatrix.from_pairs(GAUSS, [[(1, 0), (0, 0)],
                                                [(0, 0), (2, 0)]])
    assert q2.coeff(inside) == q2.terms[inside.key()][1]
    outside = HermitianMatrix.from_pairs(GAUSS, [[(2, 0), (0, 0)],
                                                 [(0, 0), (2, 0)]])
    assert outside.key() not in q2.terms
    with pytest.raises(ShapeMismatch):
        q2.coeff(outside)


def test_weight_below_rank_rejected():
    f = MonomialFunction(GAUSS, 2, QQ, Fraction(1))
    with pytest.raises(ValueError):
        eisenstein_qexp(f, Weight(1, 0), CuspData.single_term(GAUSS, 2), 3,
                        GAUSS, validate=False)


def test_equivariance_validated_at_build_time():
    rng = random.Random(2)
    f = random_lc_function(GAUSS, 1, 1, rng, entries=20)
    with pytest.raises(EquivarianceViolation):
        eisenstein_qexp(f, Weight(3, 1), CuspData.single_term(GAUSS, 1), 8,
                        GAUSS)
    s = symmetrize(f, Weight(3, 1))
    eisenstein_qexp(s, Weight(3, 1), CuspData.single_term(GAUSS, 1), 8, GAUSS)


def test_json_roundtrip_preserves_everything():
    rng = random.Random(4)
    f = random_lc_function(GAUSS, 2, 2, rng, entries=8)
    q = eisenstein_qexp(f, Weight(2, 0), CuspData.single_term(GAUSS, 2), 4,
                        GAUSS, validate=False)
    q2 = QExpansion.from_json(q.to_json(), GAUSS)
    assert q == q2
    assert q2.weight == q.weight and q2.cusp_label == q.cusp_label


@pytest.mark.parametrize("tag", ["bogus", "cyclo", ""])
def test_json_with_unknown_ring_tag_is_rejected(tag):
    data = rank_one_qexp(4, bound=3).to_json()
    data["ring"] = tag
    with pytest.raises(RingMismatch):
        QExpansion.from_json(data, SYMPL)


def test_congruent_mod_detects_differences():
    q1 = rank_one_qexp(4, bound=8)
    q2 = rank_one_qexp(4 + 4 * 5, bound=8)
    ok, _ = q1.congruent_mod(q2, 2, skip_p_divisible_trace=True)
    assert ok
    ok, witness = q1.congruent_mod(q2, 4, skip_p_divisible_trace=True)
    assert not ok and witness is not None


def test_cusp_transform_group_law():
    rng = random.Random(8)
    f = random_lc_function(GAUSS, 2, 2, rng, entries=8)
    q = eisenstein_qexp(f, Weight(2, 0), CuspData.single_term(GAUSS, 2), 4,
                        GAUSS, validate=False)
    h1 = ((GAUSS.K(0, 1), GAUSS.K(0)), (GAUSS.K(1), GAUSS.K(1)))
    h2 = ((GAUSS.K(1), GAUSS.K(1, 1)), (GAUSS.K(0), GAUSS.K(0, -1)))
    chi1 = ChiData(Fraction(2), 1, 0)
    chi2 = ChiData(Fraction(1, 3), 0, 1)
    step = cusp_transform(cusp_transform(q, h1, Fraction(2), chi1),
                          h2, Fraction(3), chi2)
    from eismeasure.hermitian import mat_mul
    combined = cusp_transform(q, mat_mul(h1, h2), Fraction(6),
                              chi1.compose(chi2))
    assert set(step.terms) == set(combined.terms)
    for key in step.terms:
        assert step.terms[key][1] == combined.terms[key][1]


def test_cusp_transform_identity_is_identity():
    q = rank_one_qexp(4, bound=6)
    ident = ((SYMPL.K(1),),)
    q2 = cusp_transform(q, ident, Fraction(1), ChiData(Fraction(1), 0, 0))
    for key in q.terms:
        assert q2.terms[key][1] == q.terms[key][1]


def test_cusp_transform_rejects_nonintegral_targets():
    q = rank_one_qexp(4, bound=6)
    with pytest.raises(LatticeMismatch):
        cusp_transform(q, ((SYMPL.K(1),),), Fraction(1, 2),
                       ChiData(Fraction(1), 0, 0))


def test_leading_constant_values():
    assert leading_constant(GAUSS, 1) == (Fraction(1), 0, ())
    rat, two, disc = leading_constant(GAUSS, 2)
    assert rat * Fraction(2) ** two == 1 and disc == ()
    # disc -3 keeps a symbolic sqrt: 2 / 3^(1/2)
    rat3, two3, disc3 = leading_constant(FieldData(p=7, k_disc=-3), 2)
    assert disc3 == ((3, Fraction(-1, 2)),) and rat3 == 1 and two3 == 1


def test_normalization_constant_bookkeeping():
    nc = normalization_constant(GAUSS, 2, 6, 1, {"q": [1, -5]})
    assert nc.two_pi_power == 12
    assert nc.pi_power == 12 - 1
    assert nc.gamma_factorials == (120, 24)
    assert nc.i_power == (-12) % 4
    assert nc.lvalue_tokens[0].startswith("L^p(6,")
    assert len(nc.lvalue_tokens) == 2
    with pytest.raises(ValueError):
        normalization_constant(GAUSS, 2, 6, 1, {"bad": [2, 1]})
    with pytest.raises(ValueError):
        normalization_constant(GAUSS, 2, 6, 1, {"bad": [1, Fraction(1, 2)]})


# -- the shared sweep against the per-function oracle ---------------------------

ZP5 = PadicRing(5, 24)


def _rational_jobs(field, cusp, bound):
    """qq jobs, n = 1, with mixed weights."""
    mono = MonomialFunction(field, 1, QQ, Fraction(1), e_xs=4, e_det=-3)
    scaled = MonomialFunction(field, 1, QQ, Fraction(3, 7), e_xs=2, e_det=-1)
    table = LCFunction(field, 1, QQ, 2, rule=lambda xk, yk: Fraction(
        3 * xk[0] + yk[0], 7), y_invertible=True)
    prod = ProductFunction(field, 1, QQ, mono,
                           lambda pt, ring: Fraction(pt.x.a, pt.x.d) + 1)
    return [(mono, Weight(4, 0)), (scaled, Weight(2, 0)),
            (table, Weight(1, 0)), (prod, Weight(3, 0))]


def _table_at_points(field, n, cusp, bound, w, seed):
    """A symmetrized level-2 table with unit values at the sweep's points
    (a random sparse table is zero at almost all of them)."""
    rng = random.Random(seed)
    values = {}
    for beta in enumerate_positive(field, n, bound):
        for a, _ in cusp.rule(beta):
            pt = _rule_point(field, a, beta)
            if pt.y_is_invertible:
                values[(pt.x_key(2), pt.y_key(2))] = PadicElt(
                    5, 0, rng.choice([1, 2, 3, 4, 6, 7, 8, 9, 11, 12]), 2)
    table = LCFunction(field, n, PadicRing(5, 2), 2, values=values,
                       y_invertible=True)
    return symmetrize(table, w)


def _padic_rank_one_jobs(field, cusp, bound):
    """zp jobs, n = 1, with mixed weights."""
    w = Weight(5, 1)
    table = _table_at_points(field, 1, cusp, bound, w, 11)
    mono = MonomialFunction(field, 1, ZP5, Fraction(2), e_xs=3, e_det=-2)
    rule = LCFunction(field, 1, ZP5, 2, rule=lambda xk, yk: PadicElt.from_int(
        (7 * xk[0] + 3 * yk[0]) % 25, 5, 2))
    prod = ProductFunction(field, 1, ZP5, rule,
                           lambda pt, ring: pt.x_cm().xs + ring.one())
    return [(mono, Weight(3, 0)), (table, w), (rule, Weight(1, 0)),
            (prod, Weight(2, 0)), (weight_twist(table, w), Weight(1, 0))]


def _padic_rank_two_jobs(field, cusp, bound):
    """zp jobs, n = 2, including the moment's product integrand and a
    weight twist."""
    w = Weight(3, 1)
    table = _table_at_points(field, 2, cusp, bound, w, 12)
    mono = MonomialFunction(field, 2, ZP5, Fraction(1), e_xs=2, e_xb=1,
                            e_det=-1)
    prod = ProductFunction(field, 2, table.ring, table,
                           _zeta_multiplier(det_polynomial(2, 2)),
                           y_invertible=True)
    return [(table, w), (weight_twist(table, w), Weight(2, 0)),
            (mono, Weight(4, 0)), (prod, Weight(2, 0))]


def _power_sum_jobs(field, cusp, bound):
    """qq monomials, n = 1, at the edges of the power sum: powers of both
    conjugates of x (r = 2 in unitary mode), a negative power of x (small
    e_xs, large k), and det(y)^1 without y-invertibility."""
    both = MonomialFunction(field, 1, QQ, Fraction(-2, 9), e_xs=3, e_xb=2,
                            e_det=-2)
    negative = MonomialFunction(field, 1, QQ, Fraction(5, 4), e_xs=1,
                                e_det=-1)
    all_y = MonomialFunction(field, 1, QQ, Fraction(-7, 3), e_xs=2, e_det=1)
    assert not all_y.y_invertible
    return [(both, Weight(2, 0)), (negative, Weight(9, 0)),
            (all_y, Weight(4, 0))]


def _rational_rank_two_jobs(field, cusp, bound):
    mono = MonomialFunction(field, 2, QQ, Fraction(5, 3), e_det=-1)
    prod = ProductFunction(field, 2, QQ, mono,
                           _zeta_multiplier(det_polynomial(2, 2)),
                           y_invertible=True)
    return [(mono, Weight(2, 0)), (prod, Weight(3, 0))]


#: case -> (job builder, field, cusp, trace bound, precision)
SWEEPS = {
    "qq-divisor-n1": (_rational_jobs, SYMPL, CuspData.divisor_rule(SYMPL),
                      40, None),
    "zp-divisor-n1": (_padic_rank_one_jobs, SYMPL,
                      CuspData.divisor_rule(SYMPL), 30, None),
    "zp-divisor-n1-truncated": (_padic_rank_one_jobs, SYMPL,
                                CuspData.divisor_rule(SYMPL), 30, 3),
    "zp-single-n1": (_padic_rank_one_jobs, GAUSS,
                     CuspData.single_term(GAUSS, 1), 12, None),
    "zp-single-n2": (_padic_rank_two_jobs, GAUSS,
                     CuspData.single_term(GAUSS, 2), 4, None),
    "qq-single-n2": (_rational_rank_two_jobs, GAUSS,
                     CuspData.single_term(GAUSS, 2), 4, None),
    "qq-divisor-n1-powers": (_power_sum_jobs, SYMPL,
                             CuspData.divisor_rule(SYMPL), 40, None),
    "qq-divisor-unitary-n1": (_power_sum_jobs, GAUSS,
                              CuspData.divisor_rule(GAUSS), 40, None),
}


def assert_same_expansion(got: QExpansion, want: QExpansion):
    assert (got.field, got.n, got.weight, got.cusp_label, got.trace_bound,
            got.ring) == (want.field, want.n, want.weight, want.cusp_label,
                          want.trace_bound, want.ring)
    assert list(got.terms) == list(want.terms)
    for key, (beta, c) in want.terms.items():
        got_beta, got_c = got.terms[key]
        assert got_beta == beta
        assert type(got_c) is type(c)
        if isinstance(c, PadicElt):
            assert (got_c.val, got_c.unit, got_c.prec) == (c.val, c.unit, c.prec)
        else:
            assert got_c == c


@pytest.mark.parametrize("case", sorted(SWEEPS))
def test_sweep_matches_the_per_function_oracle(case):
    make_jobs, field, cusp, bound, precision = SWEEPS[case]
    jobs = make_jobs(field, cusp, bound)
    got = _expansions(jobs, cusp, bound, field, precision, validate=False)
    assert len(got) == len(jobs)
    for (f, w), q in zip(jobs, got):
        want = oracle_qexp(f, w, cusp, bound, field, precision, validate=False)
        assert_same_expansion(q, want)
        if isinstance(f, MonomialFunction) and f.ring is QQ:  # a power sum
            assert_same_expansion(
                q, oracle_power_qexp(f, w, cusp, bound, field))
        assert_same_expansion(
            eisenstein_qexp(f, w, cusp, bound, field, precision,
                            validate=False), want)
        assert any(not f.ring.is_zero(c) for _, c in q.terms.values())


def test_power_sum_of_a_zero_monomial_is_a_zero_fraction():
    cusp, w = CuspData.divisor_rule(SYMPL), Weight(2, 0)
    zero = MonomialFunction(SYMPL, 1, QQ, 0, e_xs=3, e_det=-1)
    [got] = _expansions([(zero, w)], cusp, 30, SYMPL, validate=False)
    assert_same_expansion(got, oracle_qexp(zero, w, cusp, 30, SYMPL,
                                           validate=False))
    assert all(type(c) is Fraction and c == 0 for _, c in got.terms.values())


def _sweep_outcome(sweep):
    """The sweep's one expansion, or the type and text of its error."""
    try:
        return sweep()
    except EisMeasureError as exc:
        return type(exc), str(exc)


#: case -> (function, cusp, the error and message it must raise, or None)
POWER_SUM_ERRORS = {
    # a = 1 and i: the irrational x raises at the first index
    "irrational-x": (
        MonomialFunction(GAUSS, 1, QQ, Fraction(2), e_xs=1, e_xb=1),
        CuspData("units", 1, lambda beta: [(GAUSS.K(1), 1),
                                           (GAUSS.K(0, 1), 2)]),
        (RingMismatch, "rational-ring monomials need a rational point")),
    # i only where y = beta is not invertible: skipped before the x check
    "irrational-x-off-the-y-support": (
        MonomialFunction(GAUSS, 1, QQ, Fraction(2), e_xs=1, e_xb=1,
                         e_det=-1),
        CuspData("units", 1, lambda beta: [(GAUSS.K(1), 1)] + (
            [(GAUSS.K(0, 1), 2)] if beta.entries[0][0].a % 5 == 0 else [])),
        None),
    "irrational-coefficient": (
        MonomialFunction(GAUSS, 1, QQ, GAUSS.K(1, 1), e_xs=1),
        CuspData.single_term(GAUSS, 1),
        (RingMismatch, "rational-ring monomials need a rational coefficient")),
    "non-unit-x": (
        MonomialFunction(SYMPL, 1, QQ, Fraction(3), e_xs=2),
        CuspData("non-unit", 1, lambda beta: [(SYMPL.K(1), 1),
                                              (SYMPL.K(5), 1)]),
        (NotAUnit, "x coordinate must be a unit")),
}


@pytest.mark.parametrize("case", sorted(POWER_SUM_ERRORS))
def test_power_sum_raises_as_the_monomial_does(case):
    """Each check of a rational monomial's value runs in the sweep, in the
    same order and with the same error and message as the oracle's and the
    per-point power sum's, on a first sweep and on one reading stored views."""
    f, cusp, error = POWER_SUM_ERRORS[case]
    field, w = f.field, Weight(1, 0)
    want = _sweep_outcome(lambda: oracle_qexp(f, w, cusp, 12, field,
                                              validate=False))
    power = _sweep_outcome(lambda: oracle_power_qexp(f, w, cusp, 12, field))
    for _ in range(2):
        got = _sweep_outcome(lambda: _expansions([(f, w)], cusp, 12, field,
                                                 validate=False)[0])
        if error is not None:
            assert got == want == power == error
            continue
        assert_same_expansion(got, want)
        assert_same_expansion(got, power)
        assert any(c != 0 for _, c in got.terms.values())


#: a = 1 and i on GAUSS: x = i is a unit with no rational value
GAUSS_UNITS = CuspData("units", 1, lambda beta: [(GAUSS.K(1), 1),
                                                 (GAUSS.K(0, 1), 2)])
#: level-1 rational tables: one nonzero at both points, one zero at x = i
_EVERYWHERE = LCFunction(GAUSS, 1, QQ, 1,
                         rule=lambda xk, yk: Fraction(xk[0] + yk[0]))
_AT_ONE = LCFunction(GAUSS, 1, QQ, 1, rule=lambda xk, yk: Fraction(
    yk[0] + 1 if xk == (1, 1) else 0))


def _tripled(f):
    return ProductFunction(GAUSS, 1, QQ, f, lambda pt, ring: Fraction(3))


#: case -> (rational non-monomial, whether its sweep raises at x = i)
RATIONAL_TERMS = {
    "table": (_EVERYWHERE, True),
    "product": (_tripled(_EVERYWHERE), True),
    "table-zero-at-i": (_AT_ONE, False),
    "product-zero-at-i": (_tripled(_AT_ONE), False),
}


@pytest.mark.parametrize("case", sorted(RATIONAL_TERMS))
def test_rational_terms_need_rational_norm_arguments(case):
    """A rational term at an irrational x has no rational weight factor: the
    ring raises as the oracle does, and only where the value is nonzero,
    because a zero term is skipped before its factor."""
    f, raises = RATIONAL_TERMS[case]
    w = Weight(1, 0)
    want = _sweep_outcome(lambda: oracle_qexp(f, w, GAUSS_UNITS, 12, GAUSS,
                                              validate=False))
    got = _sweep_outcome(lambda: _expansions([(f, w)], GAUSS_UNITS, 12, GAUSS,
                                             validate=False)[0])
    if raises:
        assert got == want == (
            RingMismatch, "rational coefficients need rational norm arguments")
        return
    assert_same_expansion(got, want)
    assert any(c != 0 for _, c in got.terms.values())


@pytest.mark.parametrize("validate", [True, False])
def test_a_cyclotomic_sweep_is_a_ring_mismatch(validate):
    """A character component of a rational table lives in a cyclotomic ring,
    which has no weight factor: the job is rejected before the sweep, with
    or without validation."""
    rng = random.Random(5)
    base = random_lc_function(GAUSS, 1, 1, rng, entries=4)
    table = LCFunction(GAUSS, 1, QQ, 1, values={
        k: Fraction(i + 1) for i, k in enumerate(base.values)})
    _, component = character_decompose(table)[0]
    assert component.ring.tag == "cyclo"
    with pytest.raises(RingMismatch, match="rational or p-adic coefficients,"
                                           " not cyclo"):
        eisenstein_qexp(component, Weight(1, 0),
                        CuspData.single_term(GAUSS, 1), 6, GAUSS,
                        validate=validate)


def test_expansions_of_different_weights_do_not_add():
    """The sum would carry the left weight, so weights 3 and 5 must not add
    (``congruent_mod`` compares across weights, as the Kummer check does)."""
    q3, q5 = rank_one_qexp(3, bound=10), rank_one_qexp(5, bound=10)
    for a, b in ((q3, q5), (q5, q3)):
        with pytest.raises(ShapeMismatch, match=r"weights \(\d, 0\) and "
                                                r"\(\d, 0\) do not add"):
            a + b
    total = q3 + q3
    assert total.weight == q3.weight
    assert total.coeff_by_trace(4) == 2 * q3.coeff_by_trace(4)


def test_expansions_over_different_rings_are_not_comparable():
    cusp, w = CuspData.divisor_rule(SYMPL), Weight(3, 0)
    qq, zp = (eisenstein_qexp(MonomialFunction(SYMPL, 1, ring, Fraction(1),
                                               e_xs=3, e_det=-2),
                              w, cusp, 10, SYMPL, validate=False)
              for ring in (QQ, ZP5))
    for a, b in ((qq, zp), (zp, qq)):
        text = f"expansions over {a.ring.tag} and {b.ring.tag} are not"
        with pytest.raises(RingMismatch, match=text):
            a.congruent_mod(b, 2)
        with pytest.raises(RingMismatch, match=text):
            a + b


def test_monomial_sweeps_make_no_value_call(monkeypatch):
    """A rational monomial's coefficient is a power sum: no value per term;
    a product and a combination still sum their values term by term."""
    calls = collections.Counter()

    def counting(method):
        def counted(self, pt, j=None):
            calls[type(self).__name__] += 1
            return method(self, pt, j)
        return counted

    for cls in (MonomialFunction, ProductFunction, LinearCombination):
        monkeypatch.setattr(cls, "evaluate", counting(vars(cls)["evaluate"]))
    for case in ("qq-divisor-n1-powers", "qq-divisor-unitary-n1",
                 "qq-single-n2"):
        make_jobs, field, cusp, bound, _ = SWEEPS[case]
        jobs = [(f, w) for f, w in make_jobs(field, cusp, bound)
                if isinstance(f, MonomialFunction)]
        _expansions(jobs, cusp, bound, field, validate=False)
    cusp = CuspData.divisor_rule(SYMPL)
    monos = [(f, w) for f, w in _kummer_jobs()
             if isinstance(f, MonomialFunction)]
    _expansions(monos, cusp, 100, SYMPL, validate=False)
    assert not calls
    mono = monos[0][0]
    prod = ProductFunction(SYMPL, 1, QQ, mono, lambda pt, ring: Fraction(2))
    combo = LinearCombination(SYMPL, 1, QQ, ((Fraction(1, 3), mono),))
    _expansions([(prod, Weight(1, 0)), (combo, Weight(1, 0))], cusp, 100,
                SYMPL, validate=False)
    assert calls["ProductFunction"] > 0
    assert calls["LinearCombination"] > 0


def test_sweep_validates_every_job():
    rng = random.Random(2)
    w = Weight(3, 1)
    bad = random_lc_function(GAUSS, 1, 1, rng, entries=20)
    good = symmetrize(bad, w)
    cusp = CuspData.single_term(GAUSS, 1)
    got = _expansions([(good, w), (good, w)], cusp, 8, GAUSS)
    assert_same_expansion(got[1], oracle_qexp(good, w, cusp, 8, GAUSS))
    for jobs in ([(good, w), (bad, w)], [(bad, w), (good, w)]):
        with pytest.raises(EquivarianceViolation):
            _expansions(jobs, cusp, 8, GAUSS)
    with pytest.raises(ValueError):
        _expansions([(good, w), (good, Weight(0, 0))], cusp, 8, GAUSS)


def test_points_and_residues_are_built_once_per_sweep(monkeypatch):
    """The cusp rule runs once per index per enumeration, and each of its
    points is built and tested once.  A second sweep, and a sweep of a new
    function over the same context, run no rule, build no point, make no
    unit or invertibility test and take no split residue, at norm one and
    at the divisor rule's d > 1 points alike; over the rationals they build
    no KNum either.  x and y have denominators prime to p at every point
    here, so the unit and invertibility tests never take a split residue,
    in any sweep."""
    counts = collections.Counter()
    testing = []  # the unit or invertibility tests under way

    def counting_test(name, prop, slot):
        def fget(pt):
            counts[name] += getattr(pt, slot) is None  # made, not read
            testing.append(name)
            try:
                return prop.fget(pt)
            finally:
                testing.pop()
        return property(fget)

    def counting_residue(self, a, r, j, residue=FieldData._residue):
        counts["test residue" if testing else "residue"] += 1
        return residue(self, a, r, j)

    def counting_point(pt, *args, init=GnPoint.__init__, **kwargs):
        counts["point"] += 1
        init(pt, *args, **kwargs)

    def counting_knum(*args, raw=fields._raw):
        counts["knum"] += 1
        return raw(*args)

    monkeypatch.setattr(FieldData, "_residue", counting_residue)
    monkeypatch.setattr(GnPoint, "__init__", counting_point)
    monkeypatch.setattr(fields, "_raw", counting_knum)
    for name, attr, slot in (("unit", "x_is_unit", "_unit"),
                             ("invertible", "y_is_invertible", "_invertible")):
        monkeypatch.setattr(GnPoint, attr, counting_test(
            name, getattr(GnPoint, attr), slot))

    def table(field, n, ring, c):
        return LCFunction(field, n, ring, 2, y_invertible=True, rule=lambda
                          xk, yk: ring.coerce(Fraction(c * xk[0] + yk[0], 7)))

    divisor = CuspData.divisor_rule(SYMPL)
    mono = _rational_jobs(SYMPL, divisor, 60)[0]
    contexts = [  # field, cusp, bound, jobs, a new function's job
        (SYMPL, divisor, 60, [(table(SYMPL, 1, QQ, 3), Weight(1, 0)), mono],
         [(table(SYMPL, 1, QQ, 2), Weight(2, 0))]),
        (GAUSS, CuspData.single_term(GAUSS, 2), 4,
         [(table(GAUSS, 2, ZP5, 3), Weight(2, 0))],
         [(table(GAUSS, 2, ZP5, 4), Weight(3, 0))]),
    ]
    enumerate_positive.cache_clear()  # no earlier test warms the points
    for field, plain, bound, jobs, new in contexts:
        def counting_rule(beta, rule=plain.rule):
            counts["rule"] += 1
            return rule(beta)

        cusp = CuspData(plain.label, plain.n, counting_rule)
        betas = enumerate_positive(field, cusp.n, bound)
        points = sum(len(plain.rule(b)) for b in betas)
        assert (points > len(betas)) == (plain is divisor)
        seen = []
        for sweep in (jobs, jobs, new, None):
            if sweep is None:  # a new enumeration starts cold
                enumerate_positive.cache_clear()
                sweep = jobs
            counts.clear()
            _expansions(sweep, cusp, bound, field, validate=False)
            seen.append(dict(counts))
        first, *later, renewed = seen
        assert all(again.get("test residue", 0) == 0 for again in seen)
        for cold in (first, renewed):
            assert cold["rule"] == len(betas)
            assert cold["point"] == cold["unit"] == cold["invertible"] == points
            assert cold["residue"] > 0
        zero = dict.fromkeys(("rule", "point", "unit", "invertible",
                              "residue"), 0)
        for again in later:
            assert {name: again.get(name, 0) for name in zero} == zero
            if field is SYMPL:  # rational jobs: integers only
                assert again.get("knum", 0) == 0


#: The weights of the weight-shift benchmark, as in acceptance 04.
WS_WEIGHTS = tuple((k, nu) for k in range(2, 7) for nu in (-1, 0, 1))


@pytest.mark.parametrize("n, bound, floor", [(1, 20, 16), (2, 6, 170)])
def test_weight_shift_on_the_sweep_points_matches_the_oracle(n, bound, floor):
    """Acceptance 04's identity direct == shifted on tables that are nonzero
    at the sweep's points, so the p-adic coefficient path is compared: both
    expansions equal the per-function oracle in (val, unit, prec)."""
    cusp = CuspData.single_term(GAUSS, n)
    for i, (k, nu) in enumerate(WS_WEIGHTS):
        w = Weight(k, nu)
        f = _table_at_points(GAUSS, n, cusp, bound, w, 100 + i)
        twisted, base = weight_twist(f, w), Weight(n, 0)
        direct = eisenstein_qexp(f, w, cusp, bound, GAUSS)
        shifted = eisenstein_qexp(twisted, base, cusp, bound, GAUSS)
        assert direct == shifted, (n, k, nu)
        assert_same_expansion(
            direct, oracle_qexp(f, w, cusp, bound, GAUSS, validate=False))
        assert_same_expansion(shifted, oracle_qexp(
            twisted, base, cusp, bound, GAUSS, validate=False))
        nonzero = sum(not c.is_zero for _, c in direct.terms.values())
        assert nonzero >= floor, (n, k, nu, nonzero)


@pytest.mark.parametrize("case", ["zp-single-n2", "qq-divisor-n1"])
def test_a_second_sweep_reuses_each_index_s_determinant_and_key(
        case, monkeypatch):
    """The memoised enumeration's matrices keep det(beta) and their key: a
    second sweep over them takes no determinant of a beta and builds no key."""
    if case == "zp-single-n2":
        field, cusp, bound = GAUSS, CuspData.single_term(GAUSS, 2), 4
        jobs = [(MonomialFunction(GAUSS, 2, ZP5, Fraction(1), e_xs=2, e_xb=1,
                                  e_det=-1), Weight(4, 0))]
    else:
        field, cusp, bound = SYMPL, CuspData.divisor_rule(SYMPL), 40
        jobs = _rational_jobs(SYMPL, cusp, bound)
    counts = {"det": 0, "key": 0}
    betas = set()

    def counting_mat_det(a, det=hermitian.mat_det):
        counts["det"] += id(a) in betas
        return det(a)

    def counting_key(entries, key=hermitian._entries_key):
        counts["key"] += 1
        return key(entries)

    for module in (hermitian, functions):
        monkeypatch.setattr(module, "mat_det", counting_mat_det)
    monkeypatch.setattr(hermitian, "_entries_key", counting_key)
    enumerate_positive.cache_clear()
    betas.update(id(b.entries) for b in enumerate_positive(field, cusp.n,
                                                           bound))
    seen = []
    for _ in range(2):
        _expansions(jobs, cusp, bound, field, validate=False)
        seen.append(dict(counts))
        counts.update(det=0, key=0)
    # the enumeration sorts by key, and the first sweep takes each det once
    assert seen == [{"det": len(betas), "key": len(betas)},
                    {"det": 0, "key": 0}]


def _outcome(fn):
    """The value of fn(), or the type of the exception it raises."""
    try:
        return fn()
    except (ArithmeticError, DenominatorDivisibleByP) as exc:
        return type(exc)


def _old_rule_point(field, a, beta):
    """The cusp-rule point as a KNum division by the Fraction norm of a."""
    na = norm_rel_exact(a, field)
    return GnPoint.from_exact(
        field, a, tuple(tuple(e / na for e in row) for row in beta.entries))


def _old_flags(pt):
    """x_is_unit and y_is_invertible from the split residues mod p."""
    p = pt.field.p
    return (_outcome(lambda: all(k % p for k in pt.x_key(1))),
            _outcome(lambda: y_det_key(pt.y_key(1), pt.n, p) % p != 0))


def _flag_test_betas(field):
    """Hermitian indices of rank one and two, singular ones included, with
    1, 2, p, 2p and p^2 in the denominators of their entries."""
    p, K = field.p, field.K
    offs = ((0, 0), (1, 0), (1, 1), (2, -1), (p, 1), (3, p))
    for d in (1, 2, p, 2 * p, p * p):
        for m in (-3, 0, 1, 2, p, 7, 2 * p + 1):
            yield HermitianMatrix(field, ((K(Fraction(m, d)),),))
        for u, v in offs:
            b = K(Fraction(u, d), Fraction(v, d) if field.mode == "unitary"
                  else 0)
            for c1, c2 in ((1, 1), (Fraction(1, d), 3), (2, Fraction(p, d))):
                yield HermitianMatrix(field, ((K(c1), b), (b.conj(), K(c2))))


@pytest.mark.parametrize("field", [GAUSS, SYMPL, FieldData(p=7, k_disc=-3),
                                   FieldData(p=11, k_disc=-7)])
def test_rule_points_and_their_flags_match_the_old_definitions(field):
    """The integer-built point and its unit and invertibility tests equal
    the point built by dividing by the Fraction norm with the flags read
    from the split residues: value, or exception type.  So does the point
    built with a y shared among rank-one points (``ys``)."""
    p = field.p
    trace_12 = HermitianMatrix(field, ((field.K(12),),))
    alphas = (list(field.unit_group)
              + [a for a, _ in CuspData.divisor_rule(field).rule(trace_12)]
              + [field.K(p), field.K(Fraction(1, p)), field.K(0)])
    seen, ys = set(), {}
    for beta in _flag_test_betas(field):
        for a in alphas:
            old = _outcome(lambda: _old_rule_point(field, a, beta))
            for new in (_outcome(lambda: _rule_point(field, a, beta)),
                        _outcome(lambda: _rule_point(field, a, beta, ys))):
                if isinstance(old, type):
                    assert new is old
                    seen.add(("point", old))
                    continue
                assert (new.n, new.x, new.y) == (old.n, old.x, old.y)
                flags = (_outcome(lambda: new.x_is_unit),
                         _outcome(lambda: new.y_is_invertible))
                assert flags == _old_flags(old)
                seen.update(enumerate(flags))
    assert len(ys) > 1
    # a y that is not Hermitian can have a determinant off the rationals
    vs = range(-3, 4) if field.mode == "unitary" else (0,)
    for u, v, d in itertools.product(range(-3, 4), vs, (1, 2, p)):
        y = ((field.K(Fraction(u, d), Fraction(v, d)),),)
        pt = GnPoint.from_exact(field, field.K(1), y)
        flag = _outcome(lambda: pt.y_is_invertible)
        assert flag == _old_flags(pt)[1]
        seen.add((1, flag))
    assert seen >= {("point", ZeroDivisionError), (0, True), (0, False),
                    (0, DenominatorDivisibleByP), (1, True), (1, False),
                    (1, DenominatorDivisibleByP)}


def _kummer_jobs():
    """The Kummer check's jobs h_to_f(x^(k-1)) at weight 1 for k in 2..12
    and k + 20, a monomial with a negative non-integral coefficient, and a
    rational linear combination (which has no pair evaluation of its own)."""
    def moment(k, coef=Fraction(1)):
        return h_to_f(MonomialFunction(SYMPL, 1, QQ, coef, e_xs=k - 1))

    fs = [moment(k + s) for k in range(2, 13) for s in (0, 20)]
    fs.append(moment(7, Fraction(-5, 3)))
    fs.append(LinearCombination(SYMPL, 1, QQ, (
        (Fraction(2, 3), moment(4)), (Fraction(-1, 7), moment(6)),
        (-1, moment(5, Fraction(-3, 2))))))
    return [(f, Weight(1, 0)) for f in fs]


def test_pair_sweep_matches_the_oracle_on_kummer_jobs():
    cusp = CuspData.divisor_rule(SYMPL)
    jobs = _kummer_jobs()
    got = _expansions(jobs, cusp, 200, SYMPL, validate=False)
    nonzero = 0
    for (f, w), q in zip(jobs, got):
        want = oracle_qexp(f, w, cusp, 200, SYMPL, validate=False)
        assert_same_expansion(q, want)
        assert all(type(c) is Fraction for _, c in q.terms.values())
        nonzero += sum(1 for _, c in want.terms.values() if c != 0)
    # each moment is nonzero at the 160 traces prime to p (at the others
    # every y = m/d is a non-unit); only the combination could cancel
    assert nonzero >= 23 * 160


def test_kummer_failure_matches_the_oracle(monkeypatch):
    """A forced failure reports the same witness on the pair sweep as on
    expansions built by the oracle."""
    got = kummer_check(SYMPL, 4, 24, 1, 200, modulus_exponent=5)
    monkeypatch.setattr(measure, "_expansions", lambda jobs, cusp, bound,
                        field, validate: [oracle_qexp(f, w, cusp, bound,
                                                      field, validate=validate)
                                          for f, w in jobs])
    want = kummer_check(SYMPL, 4, 24, 1, 200, modulus_exponent=5)
    assert not got.passed and got.witness is not None
    assert got == want
    assert {k: type(v) for k, v in got.witness.items()} == {
        "trace": int, "coeff_k": str, "coeff_k2": str, "valuation": int}

# -- cusp change: singular Levi elements and the reported bound --------------


@pytest.mark.parametrize("h, lam", [
    (((SYMPL.K(0),),), Fraction(1)),
    (((SYMPL.K(1),),), Fraction(0)),
])
def test_cusp_transform_rejects_singular_levi_elements(h, lam):
    q = rank_one_qexp(4, bound=6)
    with pytest.raises(LatticeMismatch):
        cusp_transform(q, h, lam)


def test_cusp_transform_rejects_a_singular_rank_two_h():
    rng = random.Random(8)
    f = random_lc_function(GAUSS, 2, 2, rng, entries=8)
    q = eisenstein_qexp(f, Weight(2, 0), CuspData.single_term(GAUSS, 2), 4,
                        GAUSS, validate=False)
    h = ((GAUSS.K(1), GAUSS.K(0, 1)), (GAUSS.K(0, -1), GAUSS.K(1)))
    with pytest.raises(LatticeMismatch):
        cusp_transform(q, h, Fraction(1))


def test_a_transformed_expansion_covers_only_its_image():
    """The lambda = 2 image of a bound-12 expansion holds the even traces
    2..24; an odd trace within the bound is not in it and used to read 0.
    The rule holds after a JSON round trip, which adds no key."""
    q = rank_one_qexp(4, bound=12)
    image = cusp_transform(q, ((SYMPL.K(1),),), Fraction(2))
    loaded = QExpansion.from_json(image.to_json(), SYMPL)
    assert set(image.to_json()) == set(q.to_json())
    for got in (image, loaded):
        assert got.cusp_label == "divisor*levi"
        assert got.coeff_by_trace(4) == q.coeff_by_trace(2) != 0
        assert got.coeff_by_trace(24) == q.coeff_by_trace(12)
        for m in (1, 3, 11):
            with pytest.raises(ShapeMismatch, match="outside the image"):
                got.coeff_by_trace(m)
        with pytest.raises(ShapeMismatch, match="above the trace bound 12"):
            got.coeff_by_trace(13)


def test_cusp_transform_keeps_the_source_bound():
    q = rank_one_qexp(4, bound=6)
    scaled = cusp_transform(q, ((SYMPL.K(1),),), Fraction(2))
    # only the even traces 2..12 are present: no claim of completeness to 12
    assert scaled.trace_bound == 6
    assert sorted(int(b.trace()) for b, _ in scaled.terms.values()) == [
        2, 4, 6, 8, 10, 12]
    full = rank_one_qexp(4, bound=12)
    with pytest.raises(ShapeMismatch):
        scaled.congruent_mod(full, 1)
    with pytest.raises(ShapeMismatch):
        scaled + full
