"""Imaginary quadratic arithmetic and split-prime embeddings."""

import itertools
import math
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from eismeasure.errors import (
    DenominatorDivisibleByP,
    FieldDataError,
    PrecisionUnavailable,
)
from eismeasure.cli import run_command
from eismeasure.fields import (
    _OMEGA_PARAMS,
    MAX_PRIME,
    CMElt,
    FieldData,
    KNum,
    Weight,
    _hensel_root,
    _is_prime,
    norm_weight,
)
from eismeasure.padic import PadicElt, _vp
from knum_oracle import OracleKNum

GAUSS = FieldData(p=5, k_disc=-4)
EISEN = FieldData(p=7, k_disc=-3)
DISC7 = FieldData(p=11, k_disc=-7)
FIELDS = [GAUSS, EISEN, DISC7]

small = st.integers(min_value=-30, max_value=30)


@given(u1=small, v1=small, u2=small, v2=small, fld=st.sampled_from(FIELDS))
def test_norm_is_multiplicative(u1, v1, u2, v2, fld):
    a, b = fld.K(u1, v1), fld.K(u2, v2)
    assert (a * b).norm() == a.norm() * b.norm()


@given(u=small, v=small, fld=st.sampled_from(FIELDS))
def test_conjugation_fixes_norm_and_trace(u, v, fld):
    a = fld.K(u, v)
    assert (a * a.conj()).is_rational
    assert (a * a.conj()).u == a.norm()
    assert (a + a.conj()).is_rational


@given(u=small, v=small, fld=st.sampled_from(FIELDS))
def test_inverse(u, v, fld):
    a = fld.K(u, v)
    if a.norm() == 0:
        return
    assert a * a.inverse() == fld.K(1)


def test_split_roots_satisfy_minimal_polynomial():
    for fld in FIELDS:
        p, prec = fld.p, fld.precision
        s, t = fld.omega_s, fld.omega_t
        for r in fld.split_roots:
            assert (r * r - s * r - t) % p**prec == 0
        r1, r2 = fld.split_roots
        assert (r1 + r2) % p**prec == s % p**prec
        assert r1 % p < r2 % p


def test_hensel_against_direct_search():
    # brute force the roots of w^2 = -1 mod 5^3 and compare
    roots = sorted(r for r in range(125) if (r * r + 1) % 125 == 0)
    fld = FieldData(p=5, k_disc=-4, precision=3)
    assert sorted(r % 125 for r in fld.split_roots) == roots


def _scan_roots(s, t, p, prec):
    """The roots by scanning every residue mod p, then Newton's lift."""
    roots = [r for r in range(p) if (r * r - s * r - t) % p == 0]
    if len(roots) != 2:
        raise FieldDataError(f"x^2-{s}x-{t} does not split mod {p}")
    r, k = min(roots), 1
    while k < prec:
        k = min(2 * k, prec)
        pk = p**k
        r = (r - (r * r - s * r - t) * pow(2 * r - s, -1, pk)) % pk
    return r, (s - r) % p**prec


def _outcome(fn):
    try:
        return fn()
    except FieldDataError as exc:
        return str(exc)


def test_hensel_roots_match_the_residue_scan():
    """The roots from a square root of the discriminant equal the scan's,
    smaller residue first, or raise its error, for every odd prime below
    500, the three discriminants' (s, t) and symplectic mode's (0, 0)."""
    raised = 0
    for p in (m for m in range(3, 500, 2) if _is_prime(m)):
        for (s, t), prec in itertools.product(
                [*_OMEGA_PARAMS.values(), (0, 0)], (1, 2, 7)):
            want = _outcome(lambda: _scan_roots(s, t, p, prec))
            assert _outcome(lambda: _hensel_root(s, t, p, prec)) == want
            raised += isinstance(want, str)
    assert raised > 0


def test_is_prime_is_exact_and_refuses_p_it_cannot_decide():
    """Miller-Rabin agrees with trial division below 20,000, rejects strong
    pseudoprimes (the last, to the bases up to 37, needs 41), and p at or
    above its exact bound is refused before any test."""
    def trial(m):
        return m > 1 and all(m % d for d in range(2, math.isqrt(m) + 1))
    assert [m for m in range(20000) if _is_prime(m)] == \
        [m for m in range(20000) if trial(m)]
    for m in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(m)
    # the largest prime below the bound, and the composites between
    assert _is_prime(1000000000000000003) and _is_prime(MAX_PRIME - 168)
    assert not any(_is_prime(m) for m in range(MAX_PRIME - 167, MAX_PRIME))
    for p in (MAX_PRIME, MAX_PRIME + 2, 10**40):
        with pytest.raises(FieldDataError, match=f"p = {p} is not below "):
            FieldData(p=p, mode="symplectic")


@pytest.mark.parametrize("argv, code", [
    (["--p", "1000000009"], 0),
    (["--mode", "symplectic", "--p", "1000000000000000003"], 0),
    (["--mode", "symplectic", "--p", str(MAX_PRIME)], 2)])
def test_a_large_prime_ends_quickly(capsys, argv, code):
    """A unitary field at a large split prime finds its roots without a
    scan, and a large p is tested or refused without trial division."""
    start = time.perf_counter()
    assert run_command(["qexp", *argv, "--k", "4", "--function", "x^4",
                        "--bound", "2"]) == code
    assert time.perf_counter() - start < 2.0


def test_two_plus_i_embeddings():
    a = GAUSS.K(2, 1)  # norm 5, one embedding is a unit
    assert a.norm() == 5
    emb = GAUSS.sigma_padic(a)
    assert emb.is_unit
    assert emb.lift(1) == 4
    other = GAUSS.sigma_bar_padic(a)
    assert other.val == 1


def test_nonsplit_prime_rejected():
    with pytest.raises(FieldDataError):
        FieldData(p=7, k_disc=-4)  # -4 is not a square mod 7
    with pytest.raises(FieldDataError):
        FieldData(p=2, k_disc=-7)


def test_unit_group_orders():
    assert len(GAUSS.unit_group) == 4
    assert len(EISEN.unit_group) == 6
    assert len(DISC7.unit_group) == 2
    assert len(FieldData(p=5, mode="symplectic").unit_group) == 1
    for fld in FIELDS:
        for e in fld.unit_group:
            assert e.norm() == 1


@given(u=small, v=small, fld=st.sampled_from(FIELDS))
def test_cm_split_respects_multiplication(u, v, fld):
    a = fld.K(u, v)
    if a.norm() % fld.p == 0 or a.norm() == 0:
        return
    ca = CMElt.embed(a, fld)
    cb = CMElt.embed(a.conj(), fld)
    nrm = CMElt.embed(fld.K(a.norm()), fld)
    assert ca.xs * cb.xs == nrm.xs and ca.xb * cb.xb == nrm.xb


def test_norm_weight_on_units():
    w = Weight(3, 1)
    for e in GAUSS.unit_group:
        b = CMElt.embed(e, GAUSS)
        x = norm_weight(b, w)
        assert x.is_unit
        inverse = CMElt(b.xs.invert(), b.xb.invert())
        assert (x * norm_weight(inverse, w)).lift(4) == 1


def test_norm_weight_symplectic_is_plain_power():
    fld = FieldData(p=5, mode="symplectic")
    b = CMElt.embed(fld.K(3), fld)
    assert norm_weight(b, Weight(4, 0)).lift(4) == 3**4 % 5**4
    # nu cancels for rational pairs: b^(k+nu) / b^nu = b^k
    assert norm_weight(b, Weight(4, 1)) == norm_weight(b, Weight(4, -1))


def test_norm_weight_nonunit_with_positive_nu():
    # valuations cancel between the two embeddings of a norm-p element
    a = GAUSS.K(2, 1)
    b = CMElt.embed(a * a.conj(), GAUSS)  # embeds 5
    x = norm_weight(b, Weight(2, 1))
    assert x.val == 2


def test_from_config(tmp_path):
    cfg = tmp_path / "field.json"
    cfg.write_text('{"p": 13, "k_disc": -3, "precision": 10}')
    fld = FieldData.from_config(str(cfg))
    assert fld.p == 13 and fld.precision == 10
    fld2 = FieldData.from_config({"p": 5, "k_disc": -4})
    assert fld2 == FieldData(p=5, k_disc=-4)


def test_from_rational_embedding_pinned():
    x = GAUSS.sigma_padic(GAUSS.K(Fraction(3, 2)))
    assert x.lift(3) == 3 * pow(2, -1, 125) % 125 == 64


# -- differential checks against the Fraction-pair oracle --------------------

SYMPL = FieldData(p=5, mode="symplectic")
ALL_FIELDS = FIELDS + [SYMPL]

# rational coordinates, with denominators that include multiples of p
coords = st.fractions(min_value=-40, max_value=40, max_denominator=50)


def pair(fld, u, v):
    """The same element in the integer form and in the oracle form."""
    if fld.mode == "symplectic":
        v = Fraction(0)
    return (fld.K(u, v),
            OracleKNum(Fraction(u), Fraction(v), fld.omega_s, fld.omega_t))


def agrees(x: KNum, o: OracleKNum) -> bool:
    return (x.u, x.v, x.s, x.t) == (o.u, o.v, o.s, o.t)


def canonical(x: KNum) -> bool:
    return x.d > 0 and gcd(x.a, x.b, x.d) == 1


@given(fld=st.sampled_from(ALL_FIELDS), u1=coords, v1=coords, u2=coords,
       v2=coords, c=coords)
def test_arithmetic_matches_oracle(fld, u1, v1, u2, v2, c):
    x, ox = pair(fld, u1, v1)
    y, oy = pair(fld, u2, v2)
    for got, want in ((x + y, ox + oy), (x - y, ox - oy), (-x, -ox),
                      (x * y, ox * oy), (x * c, ox * c), (c * x, c * ox),
                      (x * 3, ox * 3), (x.conj(), ox.conj())):
        assert agrees(got, want) and canonical(got)
    assert x.norm() == ox.norm() and isinstance(x.norm(), Fraction)
    assert x.trace() == ox.trace()
    assert x.is_integral() == ox.is_integral()
    assert x.is_rational == ox.is_rational and x.is_zero == ox.is_zero
    if oy.is_zero:
        with pytest.raises(ZeroDivisionError):
            y.inverse()
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        assert agrees(y.inverse(), oy.inverse())
        assert agrees(x / y, ox / oy)
    if c == 0:
        with pytest.raises(ZeroDivisionError):
            x / c
    else:
        assert agrees(x / c, ox / c)


@given(fld=st.sampled_from(ALL_FIELDS), u=coords, v=coords,
       e=st.integers(min_value=-5, max_value=6))
def test_powers_match_oracle(fld, u, v, e):
    x, ox = pair(fld, u, v)
    if e < 0 and ox.is_zero:
        with pytest.raises(ZeroDivisionError):
            x ** e
        return
    got = x ** e
    assert agrees(got, ox ** e) and canonical(got)


@given(fld=st.sampled_from(ALL_FIELDS), u1=coords, v1=coords, u2=coords,
       v2=coords)
def test_equality_and_hash_are_by_value(fld, u1, v1, u2, v2):
    x, ox = pair(fld, u1, v1)
    y, oy = pair(fld, u2, v2)
    assert (x == y) == (ox == oy)
    # the same value reached by another route has the same fields and hash
    z = (x * y) / y if not oy.is_zero else x + y - y
    assert z == x and hash(z) == hash(x)
    assert (z.a, z.b, z.d) == (x.a, x.b, x.d)


def test_knum_is_immutable_and_reduces():
    x = KNum(4, -6, -8, 0, -1)
    assert (x.a, x.b, x.d) == (-2, 3, 4)
    assert x == GAUSS.K(Fraction(-1, 2), Fraction(3, 4))
    with pytest.raises(AttributeError):
        x.a = 1
    with pytest.raises(ZeroDivisionError):
        KNum(1, 0, 0)
    assert x != Fraction(-1, 2) and GAUSS.K(3) != 3


def embedding_outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except Exception as exc:  # compared by type with the other route
        return ("raised", type(exc))


@given(fld=st.sampled_from(ALL_FIELDS), u=coords, v=coords,
       j=st.integers(min_value=0, max_value=30))
@example(fld=GAUSS, u=Fraction(3, 2), v=Fraction(0), j=30)
@example(fld=GAUSS, u=Fraction(1), v=Fraction(25), j=25)  # 26 digits known
def test_residues_match_the_padic_embedding(fld, u, v, j):
    """The embedding keeps the field's precision in digits from its
    valuation on.  Above that a rational element's residue is read from its
    exact embedding at precision j, and an irrational one whose b carries
    powers of p (so the root gives more digits) agrees on the digits the
    embedding has."""
    x, _ = pair(fld, u, v)
    for residue, padic in ((fld.sigma_residue, fld.sigma_padic),
                           (fld.sigma_bar_residue, fld.sigma_bar_padic)):
        direct = embedding_outcome(residue, x, j)
        if x.is_rational and j > fld.precision:
            via = embedding_outcome(lambda a: PadicElt.from_rational(
                a.a, a.d, p=fld.p, prec=j).lift(j), x)
        else:
            via = embedding_outcome(lambda a: padic(a).lift(j), x)
        if direct != via and j > fld.precision:
            e = padic(x)
            assert direct[0] == "value" and e.abs_prec < j
            direct = ("value", direct[1] % fld.p ** e.abs_prec)
            via = ("value", e.lift(e.abs_prec))
        assert direct == via


def test_embeddings_claim_only_the_digits_of_the_root():
    """At precision 3 the split root is known mod 5^3, so an irrational
    element's embedding is known mod 5^(3 + v(b) - v(d)): there it agrees
    with the precision-12 embedding, and it claims no more.  A rational
    element's embedding stays exact."""
    lo = FieldData(p=5, k_disc=-4, precision=3)
    hi = FieldData(p=5, k_disc=-4, precision=12)
    x = lo.sigma_padic(lo.K(2, -1))  # read 5*114 + O(5^4) before
    assert (x.val, x.unit, x.prec) == (1, 14, 2)
    assert lo.sigma_padic(lo.K(11, 2)).is_zero
    capped = 0
    for u, v, d in itertools.product(range(-12, 13), range(-12, 13),
                                     (1, 2, 5, 25)):
        a = lo.K(Fraction(u, d), Fraction(v, d))
        for name in ("sigma_padic", "sigma_bar_padic"):
            got = embedding_outcome(getattr(lo, name), a)
            want = embedding_outcome(getattr(hi, name), hi.K(a.u, a.v))
            if got[0] == "raised":
                assert got == want == ("raised", DenominatorDivisibleByP)
                continue
            got, want = got[1], want[1]
            if a.is_rational:
                exact = PadicElt.from_rational(a.u, p=5, prec=3)
                assert ((got.val, got.unit, got.prec)
                        == (exact.val, exact.unit, exact.prec))
                continue
            # three digits from the valuation on, as far as the root goes
            known = 3 + _vp(a.b, 5) - _vp(a.d, 5)
            assert want.val is not None and known <= want.abs_prec
            assert got.abs_prec == min(known, want.val + 3)
            assert got.congruent_mod(want, got.abs_prec)
            capped += known < want.val + 3
    assert capped > 100
    with pytest.raises(PrecisionUnavailable):
        lo.sigma_residue(lo.K(2, -1), 4)
    assert lo.sigma_residue(lo.K(2, -1), 3) == x.lift(3)
    # p in the denominator lowers the cap below the field precision
    y = GAUSS.K(Fraction(1, 5), Fraction(2, 5))
    assert GAUSS.sigma_padic(y).abs_prec == 23
    assert GAUSS.sigma_residue(y, 23) == GAUSS.sigma_padic(y).lift(23)
    with pytest.raises(PrecisionUnavailable):
        GAUSS.sigma_residue(y, 24)
    with pytest.raises(PrecisionUnavailable):
        GAUSS.sigma_padic(y).lift(24)
    # at precision 1 that element's embedding is known to no digit
    with pytest.raises(PrecisionUnavailable, match="known mod p\\^0"):
        FieldData(p=5, k_disc=-4, precision=1).sigma_padic(y)


def test_residue_with_p_in_the_denominator():
    # (1 + 2w)/5 is p-integral under the first root only
    x = GAUSS.K(Fraction(1, 5), Fraction(2, 5))
    assert GAUSS.sigma_residue(x, 3) == 73
    assert GAUSS.sigma_padic(x).lift(3) == 73
    with pytest.raises(DenominatorDivisibleByP):
        GAUSS.sigma_bar_residue(x, 3)
    with pytest.raises(DenominatorDivisibleByP):
        GAUSS.sigma_bar_padic(x)
