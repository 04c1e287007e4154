"""Locally constant functions, the coefficient bridge, and decompositions."""

import random
from fractions import Fraction

import pytest

from eismeasure.errors import (
    DenominatorDivisibleByP,
    GroupOrderNotInvertible,
    LevelMismatch,
    RingMismatch,
    UnsupportedSize,
)
from eismeasure.fields import FieldData, Weight
from eismeasure.functions import (
    ContinuousFunction,
    GnPoint,
    LCFunction,
    MonomialFunction,
    ProductFunction,
    _congruent,
    character_decompose,
    check_equivariance,
    f_to_h,
    h_to_f,
    random_lc_function,
    symmetrize,
    teichmuller,
    weight_twist,
)
from eismeasure.hermitian import CuspData, enumerate_positive, mat_det
from eismeasure.padic import _vp
from eismeasure.qexp import _sample_points
from eismeasure.rings import QQ, PadicRing

GAUSS = FieldData(p=5, k_disc=-4)
SYMPL = FieldData(p=5, mode="symplectic")


def sample_points(field, n, bound):
    cusp = CuspData.single_term(field, n)
    return _sample_points(field, cusp, enumerate_positive(field, n, bound))


@pytest.mark.parametrize("n,bound", [(1, 8), (2, 4)])
def test_bridge_roundtrip_on_tables(n, bound):
    rng = random.Random(100 + n)
    for _ in range(10):
        f = random_lc_function(GAUSS, n, 2, rng, entries=10)
        g = f_to_h(h_to_f(f))
        for pt in sample_points(GAUSS, n, bound):
            assert f.evaluate(pt) == g.evaluate(pt)


def test_bridge_on_rational_monomials_is_exact():
    h = MonomialFunction(SYMPL, 1, QQ, Fraction(3), e_xs=4, e_det=1)
    f = h_to_f(h)
    # H(x, y) = 3 x^4 y gives F(x, y) = H(x, 1/y) / (x^-1 x det y) = 3 x^4 / y^2
    pt = GnPoint(SYMPL, SYMPL.K(7), ((SYMPL.K(Fraction(2)),),))
    assert f.evaluate(pt) == Fraction(3 * 7**4, 4)
    back = f_to_h(f)
    assert back.evaluate(pt) == h.evaluate(pt)


def test_weight_twist_pointwise_oracle():
    # twisting must multiply values by the norm of x^-1 N(x)^n det y at
    # weight (k - n, nu), checked on exact rational points
    w = Weight(4, 0)
    h = MonomialFunction(SYMPL, 1, QQ, Fraction(1), e_xs=2, e_det=1)
    g = weight_twist(h, w)
    for x in (2, 3, 7):
        for y in (Fraction(3), Fraction(5, 2)):
            pt = GnPoint(SYMPL, SYMPL.K(x), ((SYMPL.K(y),),))
            expected = h.evaluate(pt) * (Fraction(x) ** (-1) * x * y) ** (w.k - 1)
            assert g.evaluate(pt) == expected


def support_points(f):
    """One exact point per table key, at that key: x = a + b*w with
    a + b*r = x1 and a + b*rbar = x2 mod p^level, and y the key's residues."""
    field, pj = f.field, f.field.p ** f.level
    r, rb = field.split_roots
    pts = []
    for key in f.values:
        (x1, x2), yk = key
        b = (x1 - x2) * pow(r - rb, -1, pj) % pj
        y = tuple(tuple(field.K(yk[i * f.n + c]) for c in range(f.n))
                  for i in range(f.n))
        pt = GnPoint(field, field.K((x1 - b * r) % pj, b), y)
        assert pt.coset_key(f.level) == key
        pts.append(pt)
    return pts


def test_symmetrize_gives_equivariant_tables():
    rng = random.Random(9)
    w = Weight(3, 1)
    f = random_lc_function(GAUSS, 1, 2, rng, entries=8)
    pts = support_points(f)
    assert not check_equivariance(f, w, pts).passed
    s = symmetrize(f, w)
    assert check_equivariance(s, w, pts).passed
    assert check_equivariance(s, w, support_points(s)).passed


def test_symmetrize_fixes_equivariant_input():
    rng = random.Random(10)
    w = Weight(2, 0)
    s = symmetrize(random_lc_function(GAUSS, 1, 1, rng, entries=6), w)
    pts = sample_points(GAUSS, 1, 6)
    s2 = symmetrize(s, w)
    for pt in pts:
        assert s.evaluate(pt) == s2.evaluate(pt)


def test_teichmuller_character_values():
    for u in range(1, 5):
        t = teichmuller(u, 5, 8)
        assert (t ** 4).lift(8) == 1
        assert t.lift(1) == u % 5


def test_character_decompose_reconstructs_and_transforms():
    rng = random.Random(21)
    f = random_lc_function(GAUSS, 1, 1, rng, entries=5)
    comps = character_decompose(f)
    ring = comps[0][1].ring
    pj = 5
    # reconstruction: the sum of all components equals f on every key
    for key, v in f.values.items():
        total = ring.zero()
        for _, g in comps:
            got = g.values.get(key)
            if got is not None:
                total = total + got
        assert total == v
    # each component transforms by its character under unit translation
    for label, g in comps:
        for u in range(2, 5):
            chi = teichmuller(u, 5, g.ring.prec)
            e1 = chi ** label[0]
            e2 = chi ** label[1]
            for ((x1, x2), yk), v in g.values.items():
                moved = g.values.get(((x1 * u % pj, x2 * u % pj), yk))
                lhs = ring.zero() if moved is None else moved
                assert lhs == e1 * e2 * v


def test_character_decompose_qq_promotes_to_cyclotomic():
    rng = random.Random(5)
    base = random_lc_function(SYMPL, 1, 2, rng, entries=4)
    f = LCFunction(SYMPL, 1, QQ, 2,
                   values={k: Fraction(i + 1) for i, k in enumerate(base.values)})
    comps = character_decompose(f)
    assert comps[0][1].ring.tag == "cyclo"
    ring = comps[0][1].ring
    for key, v in f.values.items():
        total = ring.zero()
        for _, g in comps:
            got = g.values.get(key)
            if got is not None:
                total = total + got
        assert total == ring.coerce(v)


def test_a_cyclotomic_component_refuses_the_ring_protocol_it_lacks():
    """The cyclotomic ring places no field element and writes no JSON, so
    symmetrizing, checking and serializing a character component of a
    rational table raise RingMismatch, not AttributeError."""
    base = random_lc_function(GAUSS, 1, 1, random.Random(1), entries=3)
    f = LCFunction(GAUSS, 1, QQ, 1, values={
        k: Fraction(v.lift()) for k, v in base.values.items()})
    comps = character_decompose(f)
    assert len(comps) == 16
    _, g = comps[0]
    pts = [GnPoint(GAUSS, GAUSS.K(1), ((GAUSS.K(2),),))]
    for call in (lambda: symmetrize(g, Weight(1, 0)),
                 lambda: check_equivariance(g, Weight(1, 0), pts),
                 g.to_json):
        with pytest.raises(RingMismatch):
            call()


def test_character_decompose_refuses_padic_at_deep_level():
    rng = random.Random(6)
    f = random_lc_function(GAUSS, 1, 2, rng, entries=4)
    with pytest.raises(GroupOrderNotInvertible):
        character_decompose(f)


def test_continuous_function_consistency_and_level_requirement():
    mono = MonomialFunction(GAUSS, 1, PadicRing(5, 24), Fraction(2),
                            e_xs=3, e_det=1)
    cf = ContinuousFunction(GAUSS, 1, PadicRing(5, 24), oracle=mono.truncate)
    pts = sample_points(GAUSS, 1, 6)
    assert cf.check_consistency(pts, [1, 2, 3])
    with pytest.raises(LevelMismatch):
        cf.evaluate(pts[0])


def test_table_json_roundtrip():
    rng = random.Random(12)
    f = random_lc_function(GAUSS, 2, 2, rng, entries=7)
    g = LCFunction.from_json(f.to_json(), GAUSS)
    assert g.level == f.level and g.values == f.values


@pytest.mark.parametrize("coef, e_xs, e_det", [
    (Fraction(-5, 3), 2, -1), (Fraction(7, 4), -3, 2), (3, 0, 0),
    (Fraction(-1, 6), 1, -4)])
def test_rational_monomial_values(coef, e_xs, e_det):
    """The value is coef * x^e * det(y)^e_det in Fraction arithmetic."""
    f = MonomialFunction(SYMPL, 1, QQ, coef, e_xs=e_xs, e_det=e_det)
    for x, y in ((SYMPL.K(-2), Fraction(3, 4)), (SYMPL.K(Fraction(3, 7)),
                                                  Fraction(-6)),
                 (SYMPL.K(Fraction(-1, 8)), Fraction(9, 2))):
        pt = GnPoint(SYMPL, x, ((SYMPL.K(y),),))
        want = Fraction(coef) * x.u ** e_xs * y ** e_det
        got = f.evaluate(pt)
        assert type(got) is Fraction and got == want


@pytest.mark.parametrize("e_det", [0, 1, 2])
def test_rational_and_padic_monomials_agree_at_a_singular_y(e_det):
    """Where det(y) = 0 the rational value is the p-adic one: coef * x^e
    for e_det = 0 and zero for a positive power."""
    cases = [(SYMPL, ((SYMPL.K(0),),)),
             (SYMPL, ((SYMPL.K(1), SYMPL.K(1)), (SYMPL.K(1), SYMPL.K(1)))),
             (GAUSS, ((GAUSS.K(2), GAUSS.K(1, 1)), (GAUSS.K(1, -1), GAUSS.K(1))))]
    for field, y in cases:
        n, zp = len(y), PadicRing(field.p, field.precision)
        pt = GnPoint(field, field.K(2), y)
        assert pt.det_y_exact.is_zero
        qq_val, zp_val = (
            MonomialFunction(field, n, ring, Fraction(3), e_xs=2, e_xb=1,
                             e_det=e_det).evaluate(pt)
            for ring in (QQ, zp))
        assert qq_val == (Fraction(24) if e_det == 0 else 0)
        assert zp_val == zp.coerce(qq_val)


@pytest.mark.parametrize("ring", [QQ, PadicRing(5, 24)])
def test_weight_twist_of_a_product_has_the_monomial_twist_s_support(ring):
    """A twisted product honours its y-support as the twisted monomial does:
    with nu != 0 both read 0 at the singular y = (5), and with nu = 0 and a
    non-negative power of det(y) both read the same value there."""
    one = MonomialFunction(SYMPL, 1, ring, Fraction(1))
    prod = ProductFunction(SYMPL, 1, ring, one, lambda pt, r: r.coerce(1))
    singular, unit = ((SYMPL.K(5),),), ((SYMPL.K(3),),)
    for w in (Weight(3, 1), Weight(3, 0), Weight(1, 1)):
        for y in (singular, unit):
            pt = GnPoint(SYMPL, SYMPL.K(1), y)
            got = weight_twist(prod, w).evaluate(pt)
            want = weight_twist(one, w).evaluate(pt)
            assert got == want
            if y is singular and w.nu != 0:
                assert ring.is_zero(got)
            else:  # 5^2 at the singular y for Weight(3, 0)
                assert not ring.is_zero(got)


def test_padic_points_take_the_determinant_of_their_entries():
    """A point's p-adic det(y) is the embedding of the exact det(y) and the
    determinant of the embedded entries, for n = 1 and 2; a larger y has no
    determinant here."""
    K = GAUSS.K
    ys = [((K(3),),), ((K(2), K(1, 2)), (K(1, -2), K(Fraction(7, 3)))),
          ((K(1), K(1)), (K(1), K(1)))]
    for y in ys:
        pt = GnPoint(GAUSS, K(1), y)
        assert GAUSS.sigma_padic(pt.det_y_exact) == mat_det(
            [[GAUSS.sigma_padic(e) for e in row] for row in y])
    big = ((K(1),) * 3,) * 3
    with pytest.raises(UnsupportedSize):
        GAUSS.sigma_padic(GnPoint(GAUSS, K(1), big).det_y_exact)


def _old_congruent(a, b, p, j):
    """_congruent before its fast path for p-free denominators."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        num = a.numerator * b.denominator - b.numerator * a.denominator
        return num == 0 or _vp(num, p) - _vp(a.denominator * b.denominator,
                                             p) >= j
    return a.congruent_mod(b, j)


def test_rational_congruence_matches_the_difference():
    """The congruence of two Fractions mod p^j is read off their difference,
    also when p divides a denominator, and equals the old definition's."""
    outcomes = set()
    for p in (3, 5):
        values = [Fraction(a, d) for a in range(-12, 13)
                  for d in (1, 2, p, 2 * p, p * p, p ** 3)]
        for a in values:
            for b in values[::7]:
                for j in range(-1, 5):
                    want = a == b or _vp(a - b, p) >= j
                    assert _congruent(a, b, p, j) is want
                    assert _old_congruent(a, b, p, j) is want
                    outcomes.add((want, a == b, j))
    assert {(w, eq) for w, eq, _ in outcomes} == {(True, True), (True, False),
                                                  (False, False)}
    assert {(w, j) for w, _, j in outcomes} == {
        (w, j) for w in (True, False) for j in range(-1, 5)}


def _old_congruent(a, b, p, j):
    """_congruent as it was before its p-free fast path: both valuations."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        num = a.numerator * b.denominator - b.numerator * a.denominator
        return num == 0 or _vp(num, p) - _vp(a.denominator * b.denominator,
                                             p) >= j
    return a.congruent_mod(b, j)


def _old_x_is_unit(pt):
    """The unit test as the split residues mod p give it."""
    xk = pt.x_key(1)
    return xk[0] % pt.field.p != 0 and xk[1] % pt.field.p != 0


@pytest.mark.parametrize("field", [GAUSS, SYMPL, FieldData(p=7, k_disc=-3)])
def test_unit_test_on_exact_points_matches_the_residues(field):
    """Every x = (a + b*w)/d with small a, b and d, including denominators
    divisible by p, gets the residues' answer or their exception."""
    y = ((field.K(1),),)
    outcomes = set()
    for a in range(-8, 9):
        for b in range(-8, 9) if field.mode == "unitary" else (0,):
            for d in (1, 2, 3, field.p, 2 * field.p, field.p ** 2):
                if a == b == 0:
                    continue
                x = field.K(Fraction(a, d), Fraction(b, d))
                try:
                    want = _old_x_is_unit(GnPoint(field, x, y))
                except DenominatorDivisibleByP:
                    want = DenominatorDivisibleByP
                pt = GnPoint(field, x, y)
                if want is DenominatorDivisibleByP:
                    with pytest.raises(DenominatorDivisibleByP):
                        pt.x_is_unit
                else:
                    assert pt.x_is_unit is want
                outcomes.add(want)
    assert outcomes == {True, False, DenominatorDivisibleByP}
