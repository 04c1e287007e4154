"""Capped-precision p-adic arithmetic against an exact Fraction oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from eismeasure.errors import (
    DenominatorDivisibleByP,
    NegativeValuationResult,
    NotAUnit,
    PrecisionUnavailable,
    ZeroDenominator,
)
from eismeasure.padic import DEFAULT_PRECISION, PadicElt, _vp

PRIMES = [3, 5, 7, 13]


def frac_val(q: Fraction, p: int) -> int:
    if q == 0:
        raise ZeroDivisionError
    v = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def agree(x: PadicElt, q: Fraction) -> bool:
    """x matches the exact rational up to the precision x claims."""
    if q == 0:
        return x.val is None or x.val + x.prec >= x.abs_prec
    v = frac_val(q, p=x.p)
    if x.val is None:
        return v >= x.abs_prec
    if v != x.val:
        return False
    unit = q / Fraction(x.p) ** v
    pj = x.p ** x.prec
    lhs = unit.numerator * pow(unit.denominator, -1, pj) % pj
    return lhs == x.unit % pj


units = st.integers(min_value=1, max_value=10**6)
vals = st.integers(min_value=0, max_value=5)


@given(p=st.sampled_from(PRIMES), a=st.integers(-10**9, 10**9),
       b=st.integers(-10**9, 10**9))
def test_add_mul_match_fractions(p, a, b):
    x, y = PadicElt.from_int(a, p), PadicElt.from_int(b, p)
    assert agree(x + y, Fraction(a + b))
    assert agree(x * y, Fraction(a * b))


@given(p=st.sampled_from(PRIMES),
       num=st.integers(-10**6, 10**6).filter(bool),
       den=st.integers(1, 10**6))
def test_from_rational_matches(p, num, den):
    q = Fraction(num, den)
    if q.denominator % p == 0:
        with pytest.raises(DenominatorDivisibleByP):
            PadicElt.from_rational(q, p=p)
        return
    assert agree(PadicElt.from_rational(q, p=p), q)


def test_valuation_of_integers_and_fractions():
    assert _vp(250, 5) == 3 and _vp(-7, 5) == 0
    assert _vp(Fraction(50, 3), 5) == 2
    assert _vp(Fraction(3, 125), 5) == -3
    with pytest.raises(ZeroDivisionError):
        _vp(0, 5)
    with pytest.raises(ZeroDivisionError):
        _vp(Fraction(0), 5)


@given(p=st.sampled_from(PRIMES), a=st.integers(1, 10**9))
def test_inverse_is_two_sided(p, a):
    x = PadicElt.from_int(a, p)
    if a % p == 0:
        with pytest.raises(NotAUnit):
            x.invert()
        return
    one = x * x.invert()
    assert one.val == 0 and one.unit % (p ** one.prec) == 1


@given(p=st.sampled_from(PRIMES), a=st.integers(-10**6, 10**6),
       b=st.integers(-10**6, 10**6).filter(bool))
def test_division_oracle(p, a, b):
    x, y = PadicElt.from_int(a, p), PadicElt.from_int(b, p)
    q = Fraction(a, b)
    if a != 0 and frac_val(q, p) < 0:
        with pytest.raises(NegativeValuationResult):
            x / y
        return
    assert agree(x / y, q)


def test_extended_euclid_inverse_oracle():
    # pinned against a hand-run extended Euclid: 7^-1 mod 5^4 = 268
    x = PadicElt.from_int(7, 5, prec=4).invert()
    assert x.unit % 5**4 == 268
    assert (7 * 268) % 5**4 == 1


def test_zero_divisor_raises():
    with pytest.raises(ZeroDenominator):
        PadicElt.from_int(3, 5) / PadicElt.zero(5)


def test_precision_floors_at_one():
    x = PadicElt.from_int(5 + 1, 5, prec=2)
    y = PadicElt.from_int(1, 5, prec=2)
    d = x + (-y)  # exact value 5, cancellation costs precision
    assert d.val == 1
    assert agree(d, Fraction(5))


@given(p=st.sampled_from(PRIMES), a=st.integers(-500, 500),
       b=st.integers(-500, 500), c=st.integers(-500, 500))
def test_ring_axioms(p, a, b, c):
    x, y, z = (PadicElt.from_int(t, p) for t in (a, b, c))
    assert x * (y + z) == x * y + x * z
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x


def test_congruence_and_truncation():
    x = PadicElt.from_int(1 + 2 * 25, 5)
    y = PadicElt.from_int(1 + 4 * 25, 5)
    assert x.congruent_mod(y, 2)
    assert not x.congruent_mod(y, 3)
    t = x.with_abs_prec(2)
    assert t.abs_prec == 2 and t.unit % 25 == 1


def test_default_precision():
    assert DEFAULT_PRECISION == 24
    assert PadicElt.from_int(2, 5).prec == 24


def test_negative_power_of_nonunit():
    with pytest.raises(NotAUnit):
        PadicElt.from_int(10, 5) ** (-1)


def test_lift_of_zero_raises():
    with pytest.raises(PrecisionUnavailable):
        PadicElt.zero(5).lift(30)
