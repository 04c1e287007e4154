"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS line on
success (pytest reports the FAIL side).  Tolerances and bounds are part of
the contract and must not be weakened.
"""

import random
import time
from fractions import Fraction

from eismeasure.diffops import (
    HighestWeight,
    MatrixPolynomial,
    f_zeta,
    highest_weight_vector,
    psi_z,
    theta_apply,
)
from eismeasure.fields import FieldData, Weight
from eismeasure.functions import (
    MonomialFunction,
    f_to_h,
    h_to_f,
    random_lc_function,
    symmetrize,
    weight_twist,
)
from eismeasure.hermitian import CuspData, enumerate_positive
from eismeasure.measure import MeasureContext, integrate, kummer_check, moment_detd, moment_zeta
from eismeasure.qexp import _expansions, _sample_points, eisenstein_qexp
from eismeasure.rings import QQ
from eismeasure.automorphy import selftest
from eismeasure import functions
from point_tables import WS_WEIGHTS, one_plus_w_cusp, table_at_points

GAUSS = FieldData(p=5, k_disc=-4)
SYMPL5 = FieldData(p=5, mode="symplectic")
SYMPL7 = FieldData(p=7, mode="symplectic")


def report(num, text):
    print(f"ACCEPTANCE {num}: PASS ({text})")


def test_acceptance_01_kummer_congruences():
    t0 = time.time()
    rep = kummer_check(SYMPL5, 4, 24, 1, 200)
    elapsed = time.time() - t0
    assert rep.passed and rep.modulus_exponent == 2
    assert rep.checked == 160  # traces up to 200 prime to 5
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    rep7 = kummer_check(SYMPL7, 4, 10, 0, 200)
    assert rep7.passed and rep7.modulus_exponent == 1
    report(1, f"p=5 mod 25 and p=7 mod 7, both under {elapsed:.2f}s")


def test_acceptance_02_divisor_sum_identity():
    for k in (4, 6, 8):
        ctx = MeasureContext.rank_one(SYMPL5, 200)
        q = integrate(MonomialFunction(SYMPL5, 1, QQ, Fraction(1),
                                       e_xs=k - 1), ctx)
        for key, (beta, c) in q.terms.items():
            b = int(beta.trace())
            expected = sum(d ** (k - 1) for d in range(1, b + 1)
                           if b % d == 0 and d % 5 and (b // d) % 5)
            assert b * c == expected, (k, b)
    report(2, "beta*c(beta) matches divisor sums for k=4,6,8 up to 200")


def test_acceptance_03_bridge_bijection_roundtrip():
    rng = random.Random(2024)
    checked = 0
    for n in (1, 2):
        bound = 8 if n == 1 else 4
        pts_cusp = CuspData.single_term(GAUSS, n)
        betas = enumerate_positive(GAUSS, n, bound)
        pts = _sample_points(GAUSS, pts_cusp, betas)
        for _ in range(50):
            f = random_lc_function(GAUSS, n, 2, rng, entries=12)
            back = f_to_h(h_to_f(f))
            fore = h_to_f(f_to_h(f))
            for pt in pts:
                v = f.evaluate(pt)
                assert v == back.evaluate(pt)
                assert v == fore.evaluate(pt)
            checked += 1
    assert checked == 100
    report(3, "100 level-p^2 tables, both compositions, n=1 and n=2")


def _on_coset_weight_shift(n, bound):
    """direct == shifted on tables nonzero at the points of the 1 + w cusp,
    for each of the 15 weights: the weights where it fails, and the number
    of nonzero direct coefficients."""
    cusp, unequal, nonzero = one_plus_w_cusp(GAUSS, n), [], 0
    for i, (k, nu) in enumerate(WS_WEIGHTS):
        w = Weight(k, nu)
        f = table_at_points(GAUSS, n, cusp, bound, w, 100 + i)
        direct = eisenstein_qexp(f, w, cusp, bound, GAUSS)
        if not direct == eisenstein_qexp(weight_twist(f, w), Weight(n, 0),
                                         cusp, bound, GAUSS):
            unequal.append((k, nu))
        nonzero += sum(not c.is_zero for _, c in direct.terms.values())
    return unequal, nonzero


#: rank -> (trace bound, floor of nonzero coefficients over the 15 weights)
ON_COSET = {1: (20, 200), 2: (6, 2000)}


def test_acceptance_04_weight_shift_identity():
    # on-coset tables at x = 1 + w, where the twist's nu does not cancel
    for n, (bound, floor) in ON_COSET.items():
        unequal, nonzero = _on_coset_weight_shift(n, bound)
        assert unequal == [] and nonzero >= floor, (n, unequal, nonzero)
    rng = random.Random(77)
    done = 0
    cases = []
    for n, bound in ((1, 200), (2, 4)):
        for k in range(n, n + 5):
            for nu in (-1, 0, 1):
                cases.append((n, bound, k, nu))
    while done < 50:
        n, bound, k, nu = cases[done % len(cases)]
        w = Weight(k, nu)
        f = symmetrize(random_lc_function(GAUSS, n, 2, rng, entries=10), w)
        cusp = CuspData.single_term(GAUSS, n)
        direct = eisenstein_qexp(f, w, cusp, bound, GAUSS)
        shifted = eisenstein_qexp(weight_twist(f, w), Weight(n, 0), cusp,
                                  bound, GAUSS)
        for key in direct.terms:
            assert direct.terms[key][1] == shifted.terms[key][1], (
                n, k, nu, key)
        done += 1
    report(4, "15 on-coset tables per rank at x = 1 + w and 50 symmetrized "
              "tables across k in [n, n+4], nu in {-1,0,1}")


def test_acceptance_04_sees_nu(monkeypatch):
    """With nu negated in the weight twist, the on-coset comparison fails
    at every weight with nu != 0, at each rank."""
    exponents = functions._weight_exponents
    monkeypatch.setattr(functions, "_weight_exponents",
                        lambda n, mode, kp, nu: exponents(n, mode, kp, -nu))
    for n, (bound, _) in ON_COSET.items():
        unequal, _ = _on_coset_weight_shift(n, bound)
        assert unequal == [(k, nu) for k, nu in WS_WEIGHTS if nu], n


def test_acceptance_05_theta_moments():
    # determinant powers on the rank-one cusp
    ctx = MeasureContext.rank_one(SYMPL5, 30)
    h = MonomialFunction(SYMPL5, 1, QQ, Fraction(1), e_xs=3)
    base = integrate(h, ctx)
    for d in (1, 2, 3):
        q = moment_detd(h, d, ctx)
        for key, (beta, c) in base.terms.items():
            assert q.terms[key][1] == c * beta.det_exact.u ** d
    # a non-scalar multiplier generated from a single matrix entry, n=2,
    # on a unit-invariant table nonzero at the sweep's points
    cusp2 = CuspData.single_term(GAUSS, 2)
    h2 = table_at_points(GAUSS, 2, cusp2, 4, Weight(0, 0), 31)
    ctx2 = MeasureContext(GAUSS, cusp2, 4)
    fz = f_zeta(MatrixPolynomial.variable(2, 0, 0), 10)
    q2 = moment_zeta(h2, fz, ctx2)
    assert q2 == theta_apply(integrate(h2, ctx2), fz)
    assert sum(not q2.ring.is_zero(c) for _, c in q2.terms.values()) >= 17
    # vector weights through the measure: moment_zeta raises unless its
    # two routes agree, and the scalar weight (1, 1) is moment_detd's det^1
    for r in ((1, 0), (2, 0), (1, 1), (2, 1)):
        qr = moment_zeta(h2, highest_weight_vector(HighestWeight(r)), ctx2)
        assert len(qr.terms) == 38
        assert sum(not qr.ring.is_zero(c) for _, c in qr.terms.values()) >= 17
        if r[0] == r[1]:
            assert qr.terms == moment_detd(h2, r[0], ctx2).terms
    report(5, "det^d for d<=3 and vector-weight multipliers at n=2")


def test_acceptance_06_eigenvalue_polynomials():
    table = {
        (1,): [0, 1],                      # s
        (2,): [0, -1, 1],                  # s(s-1)
        (1, 1): [0, 1, 1],                 # s(s+1)
        (2, 1): [0, -1, 0, 1],             # s(s-1)(s+1)
        (2, 2): [0, 0, -1, 0, 1],          # s^2 (s-1)(s+1)
    }
    for r, coeffs in table.items():
        got = psi_z(HighestWeight(r))
        assert got == [Fraction(c) for c in coeffs], r
        # cross-check against an explicit product over the factor grid
        roots = [j - h for h in range(1, len(r) + 1)
                 for j in range(1, r[h - 1] + 1)]
        assert got == poly_from_roots(roots), r
    report(6, "pinned eigenvalue polynomials through rank two")


def poly_from_roots(roots):
    out = [Fraction(1)]
    for r in roots:
        nxt = [Fraction(0)] * (len(out) + 1)
        for i, a in enumerate(out):
            nxt[i + 1] += a
            nxt[i] += a * Fraction(-r)
        out = nxt
    return out


def test_acceptance_07_continuity_of_the_integral():
    # perturbing the integrand by p^2 times anything moves every
    # coefficient by a multiple of p^2, and does move some coefficient
    p = SYMPL5.p
    ctx = MeasureContext.rank_one(SYMPL5, 40)
    h = MonomialFunction(SYMPL5, 1, QQ, Fraction(1), e_xs=3)
    bump = MonomialFunction(SYMPL5, 1, QQ, Fraction(p * p), e_xs=1)
    q1 = integrate(h, ctx)
    q2 = integrate(h + bump, ctx)
    ok, _ = q1.congruent_mod(q2, 2, skip_p_divisible_trace=True)
    assert ok
    # the bump is visible at beta = 1, where both integrands are hit
    assert q2.coeff_by_trace(1) - q1.coeff_by_trace(1) == p * p
    report(7, "p^2-close integrands give p^2-congruent expansions")


def test_acceptance_08_enumeration_counts():
    small = enumerate_positive(GAUSS, 2, 2)
    assert len(small) == 1
    assert small[0].key() == ((1, 0), (0, 0), (0, 0), (1, 0))
    assert len(enumerate_positive(GAUSS, 2, 3)) == 11
    report(8, "trace bound 2 gives the identity, bound 3 gives 11 matrices")


def test_acceptance_09_automorphy_identities():
    t0 = time.time()
    worst = selftest(2, 1000, seed=20260826)
    elapsed = time.time() - t0
    assert max(worst.values()) < 1e-9, worst
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(9, f"1000 cases, worst residual {max(worst.values()):.1e}, "
              f"{elapsed:.2f}s")


def test_acceptance_10_depletion_and_rank_deficiency():
    # rank one: every coefficient at p * m vanishes
    ctx = MeasureContext.rank_one(SYMPL5, 200)
    q = integrate(MonomialFunction(SYMPL5, 1, QQ, Fraction(1), e_xs=3), ctx)
    for m in range(1, 41):
        assert q.coeff_by_trace(5 * m) == 0
    # rank two over a table supported on invertible cosets: indices whose
    # determinant drops rank mod p get coefficient zero
    rng = random.Random(55)
    f = random_lc_function(GAUSS, 2, 1, rng, entries=40)
    q2 = _expansions([(f, Weight(2, 0))], CuspData.single_term(GAUSS, 2), 5,
                     GAUSS, validate=False)[0]
    degenerate = 0
    for key, (beta, c) in q2.terms.items():
        if int(beta.det_exact.u) % 5 == 0:
            degenerate += 1
            assert q2.ring.is_zero(c), key
    assert degenerate > 0
    report(10, f"c(p*m) = 0 up to 200 and {degenerate} rank-deficient "
               "indices vanish")
