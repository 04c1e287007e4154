"""Isolated timings of single layer calls on fixed inputs.

Each case reports the best of several repeats (the fastest repeat is the
one least disturbed by other load), per call, in the unit its name ends
with.  The inputs match the baseline table in ROADMAP.md: p = 5 at the
default precision, the Gaussian field for the rank-two cases, and level-2
tables for the ``functions`` cases.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction


def best_per_call(fn, number: int, repeat: int) -> float:
    """Fastest of ``repeat`` timings of ``number`` calls, per call, in s."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, time.perf_counter() - t0)
    return best / number


def run_all() -> dict[str, float]:
    from eismeasure import diffops, fields, functions, hermitian, padic, rings

    p = 5
    a = padic.PadicElt(p, 0, 123456789, padic.DEFAULT_PRECISION)
    b = padic.PadicElt(p, 0, 987654322, padic.DEFAULT_PRECISION)
    gauss = fields.FieldData(p=p, k_disc=-4)
    sympl = fields.FieldData(p=p, mode="symplectic")
    x = gauss.K(Fraction(12, 7), Fraction(-5, 3))
    y = gauss.K(Fraction(-4, 9), Fraction(7, 2))
    z = gauss.K(17, -6)  # p-integral, for the split embeddings
    betas = hermitian.enumerate_positive(sympl, 1, 1000)
    rule = hermitian.CuspData.divisor_rule(sympl).rule
    table = functions.random_lc_function(gauss, 2, 2, random.Random(5),
                                         entries=10)
    w = fields.Weight(4, 1)
    sym = functions.symmetrize(table, w)
    # over Z_p the level-2 x-group order is divisible by p, so the
    # decomposition case takes rational values (it then works over Q(zeta_20))
    rational = functions.LCFunction(
        sympl, 2, rings.QQ, 2, values={
            key: Fraction(i + 1) for i, key in enumerate(
                functions.random_lc_function(sympl, 2, 2, random.Random(6),
                                             entries=10).values)})
    variable = diffops.MatrixPolynomial.variable(2, 0, 0)
    us, ms = 1e6, 1e3

    cases = {
        "padic.mul_us": (lambda: a * b, 2000, 5, us),
        "padic.add_us": (lambda: a + b, 2000, 5, us),
        "padic.invert_us": (a.invert, 2000, 5, us),
        "fields.knum_mul_us": (lambda: x * y, 600, 5, us),
        "fields.knum_inverse_us": (x.inverse, 250, 5, us),
        "fields.sigma_residue_us": (lambda: gauss.sigma_residue(z, 2),
                                    2000, 5, us),
        "fields.cmelt_embed_us": (lambda: fields.CMElt.embed(z, gauss),
                                  800, 5, us),
        "hermitian.enumerate_n2_b6_ms": (
            lambda: hermitian.enumerate_positive(gauss, 2, 6), 1, 5, ms),
        "hermitian.enumerate_n2_b8_ms": (
            lambda: hermitian.enumerate_positive(gauss, 2, 8), 1, 3, ms),
        "hermitian.divisor_rule_b1000_ms": (
            lambda: [rule(beta) for beta in betas], 1, 3, ms),
        "functions.symmetrize_ms": (lambda: functions.symmetrize(table, w),
                                    20, 5, ms),
        "functions.character_decompose_ms": (
            lambda: functions.character_decompose(rational), 1, 3, ms),
        "functions.h_to_f_ms": (lambda: functions.h_to_f(sym), 20, 5, ms),
        "functions.weight_twist_ms": (lambda: functions.weight_twist(sym, w),
                                      20, 5, ms),
        "diffops.f_zeta_ms": (lambda: diffops.f_zeta(variable, 10), 1, 5, ms),
    }
    return {name: best_per_call(fn, number, repeat) * scale
            for name, (fn, number, repeat, scale) in cases.items()}

