"""Reference weight-factor routes: the bridge and twist code that the single
exponent triple replaced.

Before the refactor, the weight-(k - n, nu) norm of
u = x^-1 * relnorm(x)^n * det y was written out separately for the monomial
bridge, the monomial twist, the coset factor of a bridged table, the coset
factor of a twisted table and the value of a twisted product.  These copies
keep those routes, so the single formula can be checked against them value
by value, precision, table keys and exceptions included.
"""

from __future__ import annotations

from eismeasure.errors import RingMismatch, SupportNotInvertible, UnsupportedSize
from eismeasure.fields import FieldData, Weight
from eismeasure.functions import (
    ContinuousFunction,
    GnFunction,
    GnPoint,
    LCFunction,
    LinearCombination,
    MonomialFunction,
    ProductFunction,
    XKey,
    YKey,
    norm_rel_exact,
    x_norm_key,
    y_inverse_key,
)
from eismeasure.padic import PadicElt
from eismeasure.rings import PadicRing, RationalRing


def y_det_key(yk: YKey, n: int, pj: int) -> int:
    if n == 1:
        return yk[0] % pj
    if n == 2:
        return (yk[0] * yk[3] - yk[1] * yk[2]) % pj
    raise UnsupportedSize("coset determinant needs n <= 2")


def _bridge_exponents(n: int, mode: str, forward: bool) -> tuple[int, int, int]:
    """Monomial exponent shift for h_to_f (forward) or f_to_h."""
    if mode == "symplectic":
        dxs, dxb, dd = n * (n - 1), 0, n
    else:
        dxs, dxb, dd = n * (n - 1), n * n, n
    if forward:
        return -dxs, -dxb, -dd
    # the det divisor enters with the same sign in both directions
    return dxs, dxb, -dd


def h_to_f(h: GnFunction) -> GnFunction:
    """From a unit-invariant integrand to its coefficient function.

    f(x, y) = h(x, y^-1) / weight-(n,0) norm of (x^-1 * relnorm(x)^n * det y).
    """
    return _bridge(h, forward=True)


def f_to_h(f: GnFunction) -> GnFunction:
    """Inverse bridge: h(x, y) = f(x, y^-1) / norm of (x * relnorm(x)^-n * det y)."""
    return _bridge(f, forward=False)


def _bridge(g: GnFunction, forward: bool) -> GnFunction:
    field, n = g.field, g.n
    if isinstance(g, MonomialFunction):
        dxs, dxb, dd = _bridge_exponents(n, field.mode, forward)
        return MonomialFunction(field, n, g.ring, g.coef,
                                g.e_xs + dxs, g.e_xb + dxb, -g.e_det + dd)
    if isinstance(g, LinearCombination):
        return LinearCombination(field, n, g.ring,
                                 tuple((c, _bridge(f, forward)) for c, f in g.terms))
    if isinstance(g, ContinuousFunction):
        return ContinuousFunction(field, n, g.ring,
                                  lambda j: _bridge(g.oracle(j), forward),
                                  y_invertible=True)
    if isinstance(g, LCFunction):
        return _bridge_table(g, forward)
    raise RingMismatch(f"no bridge for {type(g).__name__}")


def _bridge_factor_key(xk: XKey, yk: YKey, field: FieldData, n: int,
                       pj: int, forward: bool) -> int:
    """The inverted norm factor as a unit residue mod p^j."""
    d = y_det_key(yk, n, pj)
    nx = x_norm_key(xk, field, pj)
    if forward:
        u = pow(xk[0], -1, pj) * pow(nx, n, pj) * d % pj
    else:
        u = xk[0] * pow(nx, -n, pj) * d % pj
    return pow(u, -n, pj)


def _bridge_table(g: LCFunction, forward: bool) -> LCFunction:
    field, n, p = g.field, g.n, g.field.p
    pj = p ** g.level
    if not isinstance(g.ring, PadicRing):
        raise RingMismatch("the table bridge needs p-adic coefficients")
    if g.values is not None:
        out = {}
        for (xk, yk), v in g.values.items():
            yk2 = y_inverse_key(yk, n, p, pj)
            fac = _bridge_factor_key(xk, yk2, field, n, pj, forward)
            out[(xk, yk2)] = v * PadicElt(p, 0, fac, g.level)
        return LCFunction(field, n, g.ring, g.level, values=out,
                          y_invertible=True)

    def rule(xk: XKey, yk: YKey):
        yk2 = y_inverse_key(yk, n, p, pj)
        fac = _bridge_factor_key(xk, yk, field, n, pj, forward)
        return g.rule(xk, yk2) * PadicElt(p, 0, fac, g.level)

    return LCFunction(field, n, g.ring, g.level, rule=rule, y_invertible=True)


def weight_twist(f: GnFunction, w: Weight) -> GnFunction:
    """Multiply by the weight-(k-n, nu) norm of x^-1 * relnorm(x)^n * det y.

    Reduces an expansion of weight (k, nu) to the base weight (n, 0).
    """
    field, n = f.field, f.n
    kp, nu = w.k - n, w.nu
    if isinstance(f, MonomialFunction):
        if field.mode == "symplectic":
            dxs, dxb, dd = (n - 1) * kp, 0, kp
        else:
            dxs = (n - 1) * (kp + nu) + n * (-nu)
            dxb = n * (kp + nu) - (n - 1) * nu
            dd = kp
        return MonomialFunction(field, n, f.ring, f.coef,
                                f.e_xs + dxs, f.e_xb + dxb, f.e_det + dd,
                                y_invertible=f.y_invertible or dd < 0 or nu != 0)
    if isinstance(f, LinearCombination):
        return LinearCombination(field, n, f.ring,
                                 tuple((c, weight_twist(g, w)) for c, g in f.terms))
    if isinstance(f, LCFunction):
        return _twist_table(f, kp, nu)

    def mult(pt: GnPoint, ring):
        return _twist_value(pt, kp, nu, ring)

    # the monomial twist's support: det(y) enters with the power kp, and
    # the nu-part needs its inverse
    return ProductFunction(field, n, f.ring, f, mult,
                           y_invertible=f.y_invertible or kp < 0 or nu != 0)


def _twist_value(pt: GnPoint, kp: int, nu: int, ring):
    field, n = pt.field, pt.n
    if isinstance(ring, RationalRing):
        d = ring.from_knum(pt.det_y_exact, field)
        u = norm_rel_exact(pt.x, field) ** n * d / ring.from_knum(pt.x, field)
        return u ** kp  # rational u: the nu-part cancels
    xc = pt.x_cm()
    nr = xc.norm_relative()
    d = pt.det_y_padic()
    us = xc.xs.invert() * nr ** n * d
    ub = xc.xb.invert() * nr ** n * d
    return us ** (kp + nu) * ub ** (-nu)


def _twist_table(f: LCFunction, kp: int, nu: int) -> LCFunction:
    field, n, p = f.field, f.n, f.field.p
    pj = p ** f.level
    if not isinstance(f.ring, PadicRing):
        raise RingMismatch("the table twist needs p-adic coefficients")

    def factor(xk: XKey, yk: YKey) -> int:
        d = y_det_key(yk, n, pj)
        if d % p == 0:
            raise SupportNotInvertible("twist needs invertible y cosets")
        nx = x_norm_key(xk, field, pj)
        us = pow(xk[0], -1, pj) * pow(nx, n, pj) * d % pj
        ub = pow(xk[1], -1, pj) * pow(nx, n, pj) * d % pj
        return pow(us, kp + nu, pj) * pow(ub, -nu, pj) % pj

    if f.values is not None:
        out = {}
        for (xk, yk), v in f.values.items():
            out[(xk, yk)] = v * PadicElt(p, 0, factor(xk, yk), f.level)
        return LCFunction(field, n, f.ring, f.level, values=out,
                          y_invertible=True)

    def rule(xk, yk):
        return f.rule(xk, yk) * PadicElt(p, 0, factor(xk, yk), f.level)

    return LCFunction(field, n, f.ring, f.level, rule=rule, y_invertible=True)
