"""Matrix polynomials, cyclic spans, and coefficient multipliers."""

from fractions import Fraction

import pytest

from eismeasure.errors import SpanNotClosed
from eismeasure.diffops import (
    HighestWeight,
    MatrixPolynomial,
    archimedean_eigenvalue,
    det_polynomial,
    eval_multiplier,
    f_zeta,
    highest_weight_vector,
    psi_eval,
    psi_z,
    theta_apply,
    weights_to_exponents,
)
from eismeasure.fields import FieldData, Weight
from eismeasure.hermitian import CuspData
from eismeasure.functions import MonomialFunction
from eismeasure.measure import MeasureContext, integrate
from eismeasure.rings import QQ

GAUSS = FieldData(p=5, k_disc=-4)
SYMPL = FieldData(p=5, mode="symplectic")


def test_det_polynomial_expands():
    d = det_polynomial(2, 2)
    # x11 x22 - x12 x21
    assert d.coeffs == {(1, 0, 0, 1): Fraction(1), (0, 1, 1, 0): Fraction(-1)}


def test_highest_weight_vector_degree():
    hw = HighestWeight((2, 1))
    assert weights_to_exponents(hw) == (1, 1)
    v = highest_weight_vector(hw)
    assert v.is_homogeneous() and v.degree() == 3


def test_polynomial_translation_consistency():
    # p(gx) for g = I + E_12 substitutes row operations correctly
    x11 = MatrixPolynomial.variable(2, 0, 0)
    g = [[1, 1], [0, 1]]
    t = x11.translate_left(g)
    # (g x)_11 = x11 + x21
    assert t.coeffs == {(1, 0, 0, 0): Fraction(1), (0, 0, 1, 0): Fraction(1)}


def test_f_zeta_single_entry_gives_full_orbit():
    fz = f_zeta(MatrixPolynomial.variable(2, 0, 0), 10)
    assert set(fz.coeffs) == {(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                              (0, 0, 0, 1)}
    assert all(c == 1 for c in fz.coeffs.values())


def test_f_zeta_det_power_is_already_closed():
    d = det_polynomial(2, 2)
    for power in (1, 2):
        seed = d
        for _ in range(power - 1):
            seed = seed * d
        fz = f_zeta(seed, 20)
        assert fz.coeffs == seed.coeffs


def test_f_zeta_rejects_inhomogeneous_seed():
    bad = MatrixPolynomial.variable(2, 0, 0) + MatrixPolynomial.constant(2, 1)
    with pytest.raises(SpanNotClosed):
        f_zeta(bad, 10)


def test_f_zeta_dimension_cap():
    with pytest.raises(SpanNotClosed):
        f_zeta(MatrixPolynomial.variable(2, 0, 0), 2)


def test_psi_z_pinned_values():
    assert psi_z(HighestWeight((1,))) == [Fraction(0), Fraction(1)]
    # prod over (h, j) in {(1,1),(1,2),(2,1)}: (s)(s-1)(s+1) = s^3 - s
    assert psi_z(HighestWeight((2, 1))) == [Fraction(0), Fraction(-1),
                                            Fraction(0), Fraction(1)]
    assert psi_eval(HighestWeight((2, 1)), Fraction(3)) == 24
    assert psi_eval(HighestWeight((1,)), Fraction(-6)) == -6


def test_archimedean_eigenvalue_conventions():
    ev0 = archimedean_eigenvalue(4, 0, 2, "action")
    assert ev0.value == 1 and ev0.i_power == 0
    ev = archimedean_eigenvalue(4, 1, 1, "action")
    assert ev.i_power == 1
    assert ev.value == Fraction(-3 * 4, 2)
    ws = archimedean_eigenvalue(4, 1, 1, "weight_shift")
    assert ws.i_power == 1 and ws.two_power == -1
    assert ws.value == Fraction(-4)  # (-k - j + h) at j = h = 1


def test_theta_apply_multiplies_by_multiplier_at_index():
    ctx = MeasureContext.rank_one(SYMPL, 8)
    h = MonomialFunction(SYMPL, 1, QQ, Fraction(1), e_xs=3)
    q = integrate(h, ctx)
    d = det_polynomial(1, 1)
    q2 = theta_apply(q, d)
    for key, (beta, c) in q.terms.items():
        assert q2.terms[key][1] == c * beta.det_exact.u


def test_eval_multiplier_rational():
    d = det_polynomial(2, 2)
    beta = None
    from eismeasure.hermitian import enumerate_positive
    for m in enumerate_positive(GAUSS, 2, 3):
        v = eval_multiplier(d, m, QQ)
        assert v == m.det_exact.u
