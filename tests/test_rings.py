"""Coefficient rings: rationals, capped p-adics, cyclotomic integers."""

import ast
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import eismeasure
from eismeasure.cli import build_parser
from eismeasure.errors import RingMismatch
from eismeasure.fields import FieldData
from eismeasure.functions import GnPoint, MonomialFunction
from eismeasure.hermitian import CuspData, enumerate_positive
from eismeasure.padic import PadicElt
from eismeasure.qexp import _sample_points
from eismeasure.rings import (
    QQ,
    RINGS,
    CycloElt,
    CyclotomicRing,
    PadicRing,
    RationalRing,
    ring_from_tag,
)

from ring_oracle import oracle_monomial_value

GAUSS = FieldData(p=5, k_disc=-4, precision=8)


PROTOCOL = {"tag", "zero", "is_zero", "coerce", "from_knum", "monomial",
            "to_json", "from_json"}


@pytest.mark.parametrize("ring, members", [
    (RationalRing, PROTOCOL), (PadicRing, PROTOCOL),
    (CyclotomicRing, PROTOCOL - {"from_json"} | {"root"})])
def test_each_ring_has_one_name_per_operation(ring, members):
    """A rational enters through coerce and values compare with ==, so no
    ring grows a second name (one, scalar, eq or invert) for either."""
    assert {name for name in dir(ring) if not name.startswith("_")} == members


def test_no_mixing():
    zp = PadicRing(5, 8)
    with pytest.raises(RingMismatch):
        QQ.coerce(zp.coerce(1)) + 0  # coercion itself must refuse
    with pytest.raises(RingMismatch):
        zp.coerce(CyclotomicRing(4).coerce(1))


def test_integers_coerce_everywhere():
    for ring in (QQ, PadicRing(5, 8), CyclotomicRing(4)):
        x = ring.coerce(3)
        y = ring.coerce(Fraction(1, 2))
        assert x * y + y == ring.coerce(Fraction(2))


@given(a=st.integers(-50, 50), b=st.integers(-50, 50), m=st.sampled_from([4, 5, 8, 20]))
def test_cyclotomic_root_has_exact_order(a, b, m):
    ring = CyclotomicRing(m)
    z = ring.root(1)
    acc = ring.coerce(1)
    for _ in range(m):
        acc = acc * z
    assert acc == ring.coerce(1)
    x = ring.coerce(Fraction(a)) + ring.root(1) * ring.coerce(Fraction(b))
    assert x == x


def test_cyclotomic_minimal_polynomial():
    # in Q(zeta_4): zeta^2 = -1
    ring = CyclotomicRing(4)
    assert ring.root(2) == ring.coerce(Fraction(-1))
    # in Q(zeta_5): 1 + z + z^2 + z^3 + z^4 = 0
    r5 = CyclotomicRing(5)
    total = r5.zero()
    for j in range(5):
        total = total + r5.root(j)
    assert r5.is_zero(total)


def test_cyclotomic_inverse_of_root():
    ring = CyclotomicRing(8)
    assert ring.root(3) * ring.root(5) == ring.coerce(1)


def test_padic_ring_wraps_elements():
    zp = PadicRing(5, 6)
    x = zp.coerce(Fraction(7, 3))
    y = x.invert()
    assert x * y == zp.coerce(1)
    assert zp.is_zero(zp.zero())


def test_from_knum_places_exact_elements():
    assert QQ.from_knum(GAUSS.K(Fraction(3, 2)), GAUSS) == Fraction(3, 2)
    with pytest.raises(RingMismatch):
        QQ.from_knum(GAUSS.K(1, 1), GAUSS)
    zp = ring_from_tag("zp", GAUSS)
    v = GAUSS.K(2, 1)
    assert zp.from_knum(v, GAUSS).lift() == GAUSS.sigma_padic(v).lift()


def test_from_json_refuses_values_of_the_other_ring():
    zp = ring_from_tag("zp", GAUSS)
    with pytest.raises(RingMismatch):
        QQ.from_json(zp.to_json(zp.coerce(3)))
    with pytest.raises(RingMismatch):
        zp.from_json(QQ.to_json(Fraction(3)))
    with pytest.raises(RingMismatch):
        zp.from_json({"val": 0, "unit": 3})
    with pytest.raises(RingMismatch):
        QQ.to_json(zp.coerce(3))
    with pytest.raises(RingMismatch):
        zp.to_json(Fraction(3))


def _literals_and_tag_comparisons(path: Path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Constant) and node.value in RINGS:
            yield f"{path.name}:{node.lineno}: ring tag literal {node.value!r}"
        if isinstance(node, ast.Compare):
            for side in (node.left, *node.comparators):
                if isinstance(side, ast.Attribute) and side.attr == "tag":
                    yield f"{path.name}:{node.lineno}: comparison with .tag"


def test_ring_decisions_live_in_the_rings_module():
    """The registry is the one list of serializable rings: the CLI offers
    exactly its tags, each of its rings writes and reads zero, a unit and a
    non-unit unchanged, and no other module names a tag or compares one."""
    assert sorted(RINGS) == ["qq", "zp"]
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    offered = {name: next(a.choices for a in sp._actions if a.dest == "ring")
               for name, sp in sub.choices.items()
               if any(a.dest == "ring" for a in sp._actions)}
    assert set(offered) == {"qexp", "integrate", "moment"}
    assert all(list(c) == sorted(RINGS) for c in offered.values())

    for tag in RINGS:
        ring = ring_from_tag(tag, GAUSS)
        assert ring.tag == tag
        for v in (ring.zero(), ring.coerce(Fraction(7, 3)),
                  ring.coerce(Fraction(10, 3))):
            back = ring.from_json(json.loads(json.dumps(ring.to_json(v))))
            assert type(back) is type(v) and back == v
            # repr carries the valuation, unit and absolute precision
            assert repr(back) == repr(v)

    package = Path(eismeasure.__file__).parent
    found = [hit for path in sorted(package.glob("*.py"))
             if path.name != "rings.py"
             for hit in _literals_and_tag_comparisons(path)]
    assert found == []


# -- one monomial per ring ---------------------------------------------------

CENSUS_FIELDS = [
    FieldData(p=5, k_disc=-4, precision=6),
    FieldData(p=13, k_disc=-4, precision=6),
    FieldData(p=7, k_disc=-3, precision=6),
    FieldData(p=11, k_disc=-7, precision=6),
    FieldData(p=5, mode="symplectic", precision=6),
]
#: (coefficient, (e_xs, e_xb, e_det)): 48 exponent triples with rational
#: coefficients, and two irrational coefficients, which Z_p refuses
CENSUS_MONOMIALS = [
    ((Fraction(1), Fraction(-3, 2), 10)[i % 3], (a, b, c))
    for i, (a, b, c) in enumerate((a, b, c) for a in (-2, 0, 1, 3)
                                  for b in (-1, 0, 1, 2) for c in (-1, 0, 2))
] + [(GAUSS.K(1, 1), (1, -1, 2)), (GAUSS.K(2, -1), (3, 2, -1))]


def census_points(field, n, rng, count=300):
    """The sweep's sample points, then hand-built points with a unit x up to
    count: y rational or not, some singular mod p, some with p in a
    denominator."""
    cusps = []
    if n == 1 or field.mode != "symplectic":
        cusps.append(CuspData.single_term(field, n))
    if n == 1:
        cusps.append(CuspData.divisor_rule(field))
    samples = [pt for cusp in cusps for pt in _sample_points(
        field, cusp, enumerate_positive(field, n, 6))]
    K, p, pts = field.K, field.p, list(samples)
    irrational = field.mode != "symplectic"
    while len(pts) < count:
        x = K(Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 3))),
              rng.randrange(-3, 4) * irrational)
        b = rng.randrange(-2, 3) * irrational * (rng.random() < 0.5)
        y = tuple(tuple(K(Fraction(rng.randrange(-9, 10),
                                   rng.choice((1, 1, 2, 3, p))), b)
                        for _ in range(n)) for _ in range(n))
        pt = GnPoint(field, x, y)
        if pt.x_is_unit:
            pts.append(pt)
    return samples, pts


def _outcome(f, pt, evaluate):
    """(val, unit, prec) of the value, or the type of the exception."""
    try:
        v = evaluate(f, pt)
    except Exception as ex:  # the exception's type is what is compared
        return type(ex)
    assert isinstance(v, PadicElt)
    return v.val, v.unit, v.prec


def test_monomials_over_zp_match_the_ring_branches():
    """ring.monomial multiplies in every power, xb^0 and d^0 included, where
    the ring branches multiplied in only the nonzero ones.  Wherever det y is
    rational, every sweep point included, each outcome is identical;
    elsewhere the valuation and the digits agree and no more are claimed."""
    rng = random.Random(25)
    evaluated = nonzero = fewer = 0
    for field in CENSUS_FIELDS:
        for n in (1, 2):
            samples, pts = census_points(field, n, rng)
            assert all(pt.det_y_exact.is_rational for pt in samples)
            for prec in (3, field.precision, 30):
                ring = PadicRing(field.p, prec)
                for c, e in CENSUS_MONOMIALS:
                    f = MonomialFunction(field, n, ring, c, *e)
                    for pt in pts:
                        got = _outcome(f, pt, MonomialFunction.evaluate)
                        want = _outcome(f, pt, oracle_monomial_value)
                        evaluated += 1
                        if got == want or pt.det_y_exact.is_rational:
                            assert got == want, (field.p, n, prec, f.coef, pt.x)
                            nonzero += isinstance(got, tuple) and got[0] is not None
                            continue
                        (val, unit, digits), (wval, wunit, wdigits) = got, want
                        assert val == wval and digits < wdigits
                        assert (unit - wunit) % field.p ** digits == 0
                        fewer += 1
    assert evaluated == 5 * 2 * 3 * 50 * 300
    assert nonzero > evaluated // 3
    assert 0 < fewer < evaluated // 20
    with pytest.raises(RingMismatch, match="monomials live over the rational"):
        CyclotomicRing(4).monomial(GAUSS.K(1), GAUSS.K(2), (1, 0, 1), GAUSS)
