"""Routes no other test runs: integrating a continuous function through its
truncations, the bridge and twist of a continuous function, symmetrizing a
rational table, a monomial's truncation at a singular y coset, and the
discrete-log table against the primitive-root search it replaced."""

import random
from fractions import Fraction

import pytest

from dlog_oracle import oracle_dlog_table
from eismeasure.errors import LevelMismatch
from eismeasure.fields import FieldData, Weight
from eismeasure.functions import (
    ContinuousFunction,
    GnPoint,
    LCFunction,
    MonomialFunction,
    _congruent,
    _dlog_table,
    check_equivariance,
    h_to_f,
    symmetrize,
    weight_twist,
)
from eismeasure.hermitian import CuspData
from eismeasure.measure import MeasureContext, integrate
from eismeasure.rings import QQ, PadicRing
from point_tables import sweep_points

GAUSS = FieldData(p=5, k_disc=-4)
SYMPL = FieldData(p=5, mode="symplectic")
R8 = PadicRing(5, 8)


def _exact_point(field, xk, yk, j):
    """An exact point on the coset (xk, yk) mod p^j, for integer y entries:
    x = a + b*w with a + b*r = x1 and a + b*rbar = x2 mod p^j."""
    pj = field.p ** j
    r, rb = (c % pj for c in field.split_roots)
    b = (xk[0] - xk[1]) * pow(r - rb, -1, pj) % pj if r != rb else 0
    a = (xk[0] - b * r) % pj
    n = 1 if len(yk) == 1 else 2
    y = tuple(tuple(field.K(yk[i * n + k]) for k in range(n))
              for i in range(n))
    pt = GnPoint(field, field.K(a, b), y)
    assert pt.coset_key(j) == (tuple(xk), tuple(yk))
    return pt


# (field, n, cusp, trace bound, monomial exponents, nonzero floor per level)
CONTINUOUS_CASES = {
    "symplectic-divisor-x^3": (SYMPL, 1, "divisor", 12, dict(e_xs=3), 9),
    "gaussian-divisor-norm^2": (GAUSS, 1, "divisor", 12,
                                dict(e_xs=2, e_xb=2), 10),
    "gaussian-n2-single": (GAUSS, 2, "single", 5, dict(e_xs=2, e_xb=2), 90),
}


def _continuous_case(case):
    field, n, cusp_kind, bound, exps, floor = CONTINUOUS_CASES[case]
    cusp = (CuspData.divisor_rule(field) if cusp_kind == "divisor"
            else CuspData.single_term(field, n))
    m = MonomialFunction(field, n, R8, 1, **exps)
    return field, n, cusp, bound, m, floor


@pytest.mark.parametrize("case", CONTINUOUS_CASES)
def test_a_continuous_integrand_integrates_as_its_truncations(case):
    """The continuous function whose level-j truncation is m.truncate(j)
    integrates, through that truncation, to integrate(m) mod p^j; its
    bridge keeps each truncation a level-j table, and it is not itself
    integrated."""
    field, n, cusp, bound, m, floor = _continuous_case(case)
    ctx = MeasureContext(field, cusp, bound)
    want = integrate(m, ctx)
    h = ContinuousFunction(field, n, R8, m.truncate)
    with pytest.raises(LevelMismatch, match=r"truncate\(j\)"):
        integrate(h, ctx)
    for j in (1, 2, 3):
        f_j = h_to_f(h).truncate(j)
        assert isinstance(f_j, LCFunction) and f_j.level == j
        got = integrate(h.truncate(j), ctx)
        assert got.terms.keys() == want.terms.keys()
        nonzero = 0
        for key, (_, c) in want.terms.items():
            assert _congruent(got.terms[key][1], c, field.p, j), (j, key)
            nonzero += not _congruent(c, R8.zero(), field.p, j)
        assert nonzero >= floor, (j, nonzero)


@pytest.mark.parametrize("case", CONTINUOUS_CASES)
def test_the_bridge_and_twist_of_a_continuous_function_are_continuous(case):
    """h_to_f(h) and weight_twist(h, w) are continuous, and their level-j
    truncations are the bridge and twist of h.truncate(j) at the sweep's
    points, where each is a unit."""
    field, n, cusp, bound, m, _ = _continuous_case(case)
    h = ContinuousFunction(field, n, R8, m.truncate)
    pts = [pt for pt in sweep_points(field, n, cusp, bound) if pt.x_is_unit]
    assert pts
    routes = [(h_to_f(h), h_to_f)] + [
        (weight_twist(h, w), lambda g, w=w: weight_twist(g, w))
        for w in (Weight(n, 0), Weight(n + 2, -1), Weight(n + 1, 1))]
    for g, route in routes:
        assert isinstance(g, ContinuousFunction)
        for j in (1, 2, 3):
            got, want = g.truncate(j), route(h.truncate(j))
            for pt in pts:
                v = got.evaluate(pt)
                assert v == want.evaluate(pt) and v.val == 0, (j, pt.x, pt.y)


@pytest.mark.parametrize("w", [Weight(2, 0), Weight(4, -1), Weight(0, 1)],
                         ids=["2,0", "4,-1", "0,1"])
def test_a_symmetrized_rational_table_is_equivariant(w):
    """A rational table averaged over the units (through the rational ring's
    inverse of each unit factor) transforms by the weight at exact points on
    every coset of its support; the raw table does not."""
    field, j, rng = GAUSS, 1, random.Random(3)
    pj = field.p ** j
    values = {}
    while len(values) < 5:
        xk = (rng.randrange(1, pj), rng.randrange(1, pj))
        values[(xk, (rng.randrange(1, pj),))] = Fraction(
            rng.randrange(1, 9), rng.randrange(1, 9))
    raw = LCFunction(field, 1, QQ, j, values=values, y_invertible=True)
    sym = symmetrize(raw, w)
    pts = [_exact_point(field, xk, yk, j) for xk, yk in sorted(sym.values)]
    assert len(pts) == 20
    assert all(type(sym.evaluate(pt)) is Fraction and sym.evaluate(pt) != 0
               for pt in pts)
    assert check_equivariance(sym, w, pts).passed
    assert not check_equivariance(raw, w, pts).passed


@pytest.mark.parametrize("field, n", [(GAUSS, 1), (SYMPL, 1), (GAUSS, 2)],
                         ids=["gaussian-n1", "symplectic-n1", "gaussian-n2"])
def test_a_truncated_monomial_at_a_singular_y_coset(field, n):
    """At a coset with det(y) = 0 mod p the level-j table is 0 when e_det < 0
    or the monomial is y-invertible, and otherwise the monomial's value at
    an exact point of that coset, mod p^j."""
    p = field.p
    xks = [(1, 1), (2, 2), (3, 3)] if field.mode == "symplectic" else \
        [(1, 1), (2, 3), (4, 1)]
    nonzero = 0
    for j in (1, 2):
        pj = p ** j
        yks = ([(0,), (p % pj,)] if n == 1
               else [(1, 1, 1, 1), (p % pj, 0, 0, 1), (0, 0, 0, 0)])
        for e_det in (-1, 0, 1):
            for y_inv in (False, True):
                m = MonomialFunction(field, n, R8, Fraction(3), e_xs=2,
                                     e_xb=1, e_det=e_det, y_invertible=y_inv)
                rule = m.truncate(j).rule
                for xk in xks:
                    for yk in yks:
                        v = rule(xk, yk)
                        if e_det < 0 or y_inv:
                            assert R8.is_zero(v), (j, e_det, y_inv, xk, yk)
                            continue
                        pt = _exact_point(field, xk, yk, j)
                        assert _congruent(v, m.evaluate(pt), p, j)
                        nonzero += not _congruent(v, R8.zero(), p, j)
    assert nonzero >= 15, nonzero


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("j", [1, 2, 3])
def test_the_dlog_table_matches_the_primitive_root_search(p, j):
    g, table, order = _dlog_table(p, j)
    assert (g, table, order) == oracle_dlog_table(p, j)
    assert list(table.values()) == list(range(order))
