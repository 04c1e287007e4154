"""Expansions: construction, congruences, cusp re-indexing, normalization."""

import random
from fractions import Fraction

import pytest

from eismeasure.errors import EquivarianceViolation, LatticeMismatch, RingMismatch
from eismeasure.fields import FieldData, Weight
from eismeasure.functions import MonomialFunction, random_lc_function, symmetrize
from eismeasure.hermitian import CuspData, HermitianMatrix, enumerate_positive
from eismeasure.qexp import (
    ChiData,
    QExpansion,
    cusp_transform,
    eisenstein_qexp,
    leading_constant,
    normalization_constant,
)
from eismeasure.rings import QQ

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
