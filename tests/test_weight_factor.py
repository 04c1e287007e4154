"""The bridge and the weight twist read one weight factor.

``h_to_f``/``f_to_h`` divide by the weight-(n, 0) norm of
u = x^-1 * relnorm(x)^n * det y, and ``weight_twist`` multiplies by its
weight-(k - n, nu) norm.  Both are one exponent triple of (xs, xb, det y),
applied to monomials, tables and points.  ``weight_factor_oracle`` keeps
the routes that wrote the factor out separately; the single formula is
compared with them value by value, precision, table keys and exception
types included.  Every integral unit has relative norm 1, so a unit's
weight factor is a power of it, and unit invariance is the weight-(0, 0)
case of unit equivariance; both are checked against the oracle's copies of
the code they replaced.
"""

import random
from fractions import Fraction

import pytest

from eismeasure.fields import FieldData, Weight
from eismeasure.functions import (
    GnPoint,
    LCFunction,
    MonomialFunction,
    ProductFunction,
    check_equivariance,
    f_to_h,
    h_to_f,
    norm_rel_exact,
    symmetrize,
    unit_weight_factor,
    weight_twist,
    y_det_key,
)
from eismeasure.hermitian import CuspData, enumerate_positive
from eismeasure.measure import MeasureContext, integrate
from eismeasure.padic import PadicElt
from eismeasure.qexp import _sample_points
from eismeasure.rings import QQ, PadicRing

import weight_factor_oracle as oracle

FIELDS = [
    FieldData(p=5, k_disc=-4, precision=6),
    FieldData(p=13, k_disc=-4, precision=6),
    FieldData(p=7, k_disc=-3, precision=6),
    FieldData(p=11, k_disc=-7, precision=6),
    FieldData(p=5, mode="symplectic", precision=6),
]
FIELD_IDS = ["gauss5", "gauss13", "eis7", "disc7p11", "sympl5"]


def weights(n):
    return [Weight(k, nu) for k in range(n, n + 5) for nu in range(-2, 3)]


def transforms(n):
    """(label, new route, oracle route) for both bridges and every twist."""
    out = [("h_to_f", h_to_f, oracle.h_to_f), ("f_to_h", f_to_h, oracle.f_to_h)]
    for w in weights(n):
        out.append((f"twist{w.k},{w.nu}", lambda g, w=w: weight_twist(g, w),
                    lambda g, w=w: oracle.weight_twist(g, w)))
    return out


def value(v):
    """A p-adic value as (val, unit, prec); anything else as itself."""
    if isinstance(v, PadicElt):
        return v.val, v.unit, v.prec
    return v


def outcome(fn, *args):
    """The value of fn(*args), or the type of the exception it raises."""
    try:
        return "value", fn(*args)
    except Exception as ex:  # the exception's type is what is compared
        return "raises", type(ex)


# -- tables --------------------------------------------------------------------


def unit_x_key(field, pj, rng):
    while True:
        x1, x2 = rng.randrange(1, pj), rng.randrange(1, pj)
        if x1 % field.p and x2 % field.p:
            return (x1, x1) if field.mode == "symplectic" else (x1, x2)


def y_key(field, n, pj, rng, invertible):
    while True:
        yk = tuple(rng.randrange(pj) for _ in range(n * n))
        if not invertible or y_det_key(yk, n, pj) % field.p:
            return yk


def source_tables(field, n, level, y_invertible, rng):
    """A values-backed and a rule-backed p-adic table, and a rational one."""
    p, pj = field.p, field.p ** level
    ring = PadicRing(p, 4)
    values = {}
    for _ in range(rng.randrange(1, 7)):
        key = (unit_x_key(field, pj, rng), y_key(field, n, pj, rng, y_invertible))
        values[key] = PadicElt.from_int(rng.randrange(1, p ** 4), p, 4)
    a, b, c = rng.randrange(1, 9), rng.randrange(1, 9), rng.randrange(1, 9)

    def rule(xk, yk):
        m = 1 + a * xk[0] + b * xk[1] + sum((c + i) * v for i, v in enumerate(yk))
        return PadicElt.from_int(m, p, 4)

    rational = {k: Fraction(v.lift()) for k, v in values.items()}
    return [
        ("values", LCFunction(field, n, ring, level, values=values,
                              y_invertible=y_invertible)),
        ("rule", LCFunction(field, n, ring, level, rule=rule,
                            y_invertible=y_invertible)),
        ("qq", LCFunction(field, n, QQ, level, values=rational,
                          y_invertible=y_invertible)),
    ]


def table_summary(g, lookups):
    """What a transformed table is: its flags, and its entries or the rule's
    outcomes at the lookup cosets."""
    head = (g.level, g.y_invertible, g.ring)
    if g.values is not None:
        return head, sorted((k, value(v)) for k, v in g.values.items())
    return head, [(kind, value(r) if kind == "value" else r)
                  for kind, r in (outcome(g.rule, *key) for key in lookups)]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_tables_match_the_oracle(field):
    rng = random.Random(field.p * 100 + len(field.mode))
    compared = raised = lookups_done = 0
    for n in (1, 2):
        for level in (1, 2):
            pj = field.p ** level
            for y_invertible in (True, False):
                for _ in range(3):
                    lookups = [(unit_x_key(field, pj, rng),
                                y_key(field, n, pj, rng, False))
                               for _ in range(8)]
                    for kind, g in source_tables(field, n, level,
                                                 y_invertible, rng):
                        for label, new, old in transforms(n):
                            got = outcome(new, g)
                            want = outcome(old, g)
                            if got[0] == "value":
                                got = table_summary(got[1], lookups)
                                want = table_summary(want[1], lookups)
                                lookups_done += len(lookups) * (kind == "rule")
                            else:
                                raised += 1
                            assert got == want, (n, level, kind, label)
                            compared += 1
    # every route ran: values, rules and refusals were all compared
    assert compared == 2 * 2 * 2 * 3 * 3 * 27
    assert raised and lookups_done


# -- monomials -----------------------------------------------------------------


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_monomial_exponents_match_the_oracle(field):
    ring = PadicRing(field.p, 6)
    checked = 0
    for n in (1, 2):
        for exs in (-2, 0, 3):
            for exb in (-1, 0, 2):
                for e_det in range(-n - 2, 3):
                    for y_inv in (False, True):
                        g = MonomialFunction(field, n, ring, Fraction(2), exs,
                                             exb, e_det, y_invertible=y_inv)
                        for label, new, old in transforms(n):
                            a, b = new(g), old(g)
                            assert (a.e_xs, a.e_xb, a.e_det) == \
                                (b.e_xs, b.e_xb, b.e_det), (n, label)
                            if label in ("h_to_f", "f_to_h"):
                                # the bridge is zero off invertible y
                                assert a.y_invertible
                                if e_det <= -n:
                                    continue
                            assert a.y_invertible == b.y_invertible
                            checked += 1
    assert checked > 2000


# -- products at points ----------------------------------------------------------


def exact_points(field, n, rng):
    """Sweep points (where the field has an enumeration) and random points,
    some with y singular mod p or of determinant 0."""
    pts = []
    if n == 1 or field.mode != "symplectic":
        cusp = CuspData.single_term(field, n)
        pts += _sample_points(field, cusp,
                              enumerate_positive(field, n, 4)[:3])
    K, target = field.K, len(pts) + 6
    irrational = field.mode != "symplectic"
    while len(pts) < target:
        x = K(rng.randrange(-9, 10), rng.randrange(-3, 4) * irrational)
        y = tuple(tuple(K(Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 3))),
                          rng.randrange(-2, 3) * irrational)
                        for _ in range(n)) for _ in range(n))
        pt = GnPoint(field, x, y)
        if pt.x_is_unit:
            pts.append(pt)
    ones = tuple(tuple(K(1) for _ in range(n)) for _ in range(n))
    pts.append(GnPoint(field, K(2), ones))  # det y = 0 for n = 2
    return pts


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_product_twists_match_the_oracle(field):
    rng = random.Random(field.p)
    evaluated = nonzero = 0
    for n in (1, 2):
        points = exact_points(field, n, rng)
        for ring in (QQ, PadicRing(field.p, 3),
                     PadicRing(field.p, field.precision),
                     PadicRing(field.p, 30)):
            base = MonomialFunction(field, n, ring, Fraction(3), e_xs=1)
            prod = ProductFunction(field, n, ring, base, lambda pt, r: r.coerce(1))
            for w in weights(n):
                new, old = weight_twist(prod, w), oracle.weight_twist(prod, w)
                assert new.y_invertible == old.y_invertible
                for pt in points:
                    got = outcome(new.evaluate, pt)
                    want = outcome(old.evaluate, pt)
                    assert (got[0], value(got[1])) == (want[0], value(want[1])), \
                        (n, ring, w, pt)
                    evaluated += 1
                    if got[0] == "value" and not ring.is_zero(got[1]):
                        nonzero += 1
                    if new.y_invertible and not pt.y_is_invertible:
                        continue  # outside the support the factor is not read
                    got = outcome(new.multiplier, pt, ring)
                    want = outcome(old.multiplier, pt, ring)
                    assert (got[0], value(got[1])) == (want[0], value(want[1])), \
                        (n, ring, w, pt)
    assert nonzero > evaluated // 4


# -- the monomial bridge's support ---------------------------------------------


@pytest.mark.parametrize("n, e_xs, e_xb, bound, e_det", [
    (1, 3, 3, 10, -1),
    (1, 3, 3, 10, -2),
    (2, 4, 0, 6, -2),
])
def test_bridged_monomial_agrees_with_its_truncation(n, e_xs, e_xb, bound, e_det):
    """h_to_f of a monomial is zero at singular y, as the bridges of tables
    and continuous functions are: so integrating h and its level-2 shadow
    agree mod p^2 at every index, including those whose cusp point has
    det y divisible by p (when e_det <= -n the bridged det power is >= 0)."""
    field = FieldData(p=5, k_disc=-4)
    ring = PadicRing(5, 6)
    ctx = MeasureContext(field, CuspData.single_term(field, n), bound)
    h = MonomialFunction(field, n, ring, Fraction(1), e_xs=e_xs, e_xb=e_xb,
                         e_det=e_det)
    assert h_to_f(h).y_invertible
    exact, shadow = integrate(h, ctx), integrate(h.truncate(2), ctx)
    assert exact.terms.keys() == shadow.terms.keys()
    nonzero = 0
    for key, (beta, c) in exact.terms.items():
        assert c.congruent_mod(shadow.terms[key][1], 2), beta
        nonzero += not c.with_abs_prec(2).is_zero
    assert nonzero


# -- unit weight factors and unit invariance -----------------------------------


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_every_unit_has_relative_norm_one(field):
    """So a unit's weight factor is e^(k + 2 nu), as the old formula with
    the norm gave; a field added with units of another norm fails here."""
    for e in field.unit_group:
        assert norm_rel_exact(e, field) == 1, e
        for k in range(-3, 6):
            for nu in range(-3, 4):
                w = Weight(k, nu)
                assert (unit_weight_factor(e, w)
                        == oracle.unit_weight_factor(e, w, field)), (e, k, nu)


def _report(check, h, points):
    """(passed, witness unit, witness text) of a check, or the type of the
    exception it raises."""
    try:
        rep = check(h, points)
    except Exception as ex:  # the exception's type is what is compared
        return type(ex)
    if rep.passed:
        return True, None, None
    return False, rep.witness[0], rep.witness_text()


def _integrands(field, n, points, rng):
    """Tables valued at the points' level-2 cosets (random, and averaged
    over the units), monomials over Q and Z_p, and sums of the two."""
    p = field.p
    zp = PadicRing(p, 2)
    values = {pt.coset_key(2): PadicElt.from_int(rng.randrange(1, p * p), p, 2)
              for pt in points}
    table = LCFunction(field, n, zp, 2, values=values)
    tables = [table, symmetrize(table, Weight(0, 0))]
    monos = [MonomialFunction(field, n, ring, Fraction(3, 2), e_xs=a, e_xb=b,
                              e_det=d)
             for ring in (QQ, PadicRing(p, 4))
             for a, b in ((0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (6, 0),
                          (1, 1), (2, -2), (-1, 1), (3, 1))
             for d in (0, -1)]
    sums = [m + t for m in monos if m.ring is not QQ for t in tables]
    return tables + monos + sums


@pytest.mark.parametrize("field", [FIELDS[0], FIELDS[2], FIELDS[3]],
                         ids=["gauss5", "eis7", "disc7p11"])
def test_unit_invariance_is_weight_zero_equivariance(field):
    """At the sample points the integration check reads, the old invariance
    check and check_equivariance at weight (0, 0) pass and fail together
    (or raise the same error), and name the same witness wherever the old
    one's unit is its own inverse (it read h at e^-1 x, the new one at
    e x)."""
    rng = random.Random(2026)
    runs = raised = failed = same_witness = 0
    for n in (1, 2):
        cusp = CuspData.single_term(field, n)
        points = _sample_points(field, cusp, enumerate_positive(field, n, 6))
        for h in _integrands(field, n, points, rng):
            old = _report(oracle.check_unit_invariance, h, points)
            new = _report(lambda h, pts: check_equivariance(
                h, Weight(0, 0), pts), h, points)
            runs += 1
            if isinstance(old, type):
                assert new is old, (n, h)
                raised += 1
                continue
            assert new[0] == old[0], (n, h)
            if not old[0]:
                failed += 1
                if old[1] * old[1] == field.K(1):
                    assert new == old, (n, h)
                    same_witness += 1
    # neither a pass, a failure nor a witness is compared over zero cases
    assert runs == 2 * (2 + 40 + 40)
    assert runs - raised - failed >= 20 and failed >= 60
    assert same_witness >= 60
