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
from eismeasure.qexp import _sample_points, eisenstein_qexp
from eismeasure.rings import QQ
from eismeasure.automorphy import selftest

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
                v = f.evaluate(pt, 2)
                assert f.ring.eq(v, back.evaluate(pt, 2))
                assert f.ring.eq(v, fore.evaluate(pt, 2))
            checked += 1
    assert checked == 100
    report(3, "100 level-p^2 tables, both compositions, n=1 and n=2")


def test_acceptance_04_weight_shift_identity():
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
            assert direct.ring.eq(direct.terms[key][1],
                                  shifted.terms[key][1]), (n, k, nu, key)
        done += 1
    report(4, "50 symmetrized tables across k in [n, n+4], nu in {-1,0,1}")


def test_acceptance_05_theta_moments():
    # determinant powers on the rank-one cusp
    ctx = MeasureContext.rank_one(SYMPL5, 30)
    h = MonomialFunction(SYMPL5, 1, QQ, Fraction(1), e_xs=3)
    base = integrate(h, ctx)
    for d in (1, 2, 3):
        q = moment_detd(h, d, ctx, verify=True)
        for key, (beta, c) in base.terms.items():
            assert q.terms[key][1] == c * beta.det_exact.u ** d
    # a non-scalar multiplier generated from a single matrix entry, n=2
    rng = random.Random(31)
    h2 = symmetrize(random_lc_function(GAUSS, 2, 1, rng, entries=8),
                    Weight(2, 0))
    ctx2 = MeasureContext(GAUSS, CuspData.single_term(GAUSS, 2), 4,
                          precision=1)
    fz = f_zeta(MatrixPolynomial.variable(2, 0, 0), 10)
    q2 = moment_zeta(h2, fz, ctx2, verify=True)
    assert q2 == theta_apply(integrate(h2, ctx2), fz)
    report(5, "det^d for d<=3 and the rank-(1,0) multiplier at n=2")


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
    q2 = eisenstein_qexp(f, Weight(2, 0), CuspData.single_term(GAUSS, 2), 5,
                         GAUSS, validate=False)
    degenerate = 0
    for key, (beta, c) in q2.terms.items():
        if int(beta.det_exact.u) % 5 == 0:
            degenerate += 1
            assert q2.ring.is_zero(c), key
    assert degenerate > 0
    report(10, f"c(p*m) = 0 up to 200 and {degenerate} rank-deficient "
               "indices vanish")
