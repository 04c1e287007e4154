"""Functions on the pair domain (unit group) x (n-by-n matrix space).

The two coordinates of a point are a completed-field unit x and a matrix y
over the completed base ring.  Functions come in several flavours:

* ``LCFunction``    -- locally constant at a finite level, backed by a
                       sparse coset table or a coset rule;
* ``MonomialFunction`` -- an exact monomial in the split components of x
                       and det(y), evaluable over the rationals;
* ``ProductFunction``, ``LinearCombination``, ``ContinuousFunction`` --
                       the obvious combinators.

The bridge between the integrand side (unit-invariant H) and the
coefficient side (equivariant F) is the pair ``h_to_f`` / ``f_to_h``.  The
bridge and the weight twist ``weight_twist`` share one weight factor, a norm
of u = x^-1 * relnorm(x)^n * det y written once as exponents of
(xs, xb, det y): monomials add it to their exponents, tables scale each
coset's value by it, and any other function is multiplied by its value.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import Callable

from .errors import (
    GroupOrderNotInvertible,
    LevelMismatch,
    NotAUnit,
    RingMismatch,
    SupportNotInvertible,
)
from .fields import CMElt, FieldData, KNum, Weight
from .hermitian import Matrix, mat_det
from .padic import PadicElt, _vp
from .rings import CyclotomicRing, PadicRing, RationalRing, ring_from_tag

XKey = tuple[int, int]
YKey = tuple[int, ...]


def norm_rel_exact(a: KNum, field: FieldData) -> Fraction:
    """Exact relative norm (identity map in symplectic mode)."""
    if field.mode == "symplectic":
        return Fraction(a.a, a.d)
    return a.norm()


# -- coset arithmetic helpers -------------------------------------------------


def y_det_key(yk: YKey, n: int, pj: int) -> int:
    return mat_det([yk[i * n:(i + 1) * n] for i in range(n)]) % pj


def y_inverse_key(yk: YKey, n: int, p: int, pj: int) -> YKey:
    d = y_det_key(yk, n, pj)
    if d % p == 0:
        raise SupportNotInvertible("matrix coset is not invertible")
    di = pow(d, -1, pj)
    if n == 1:
        return (di,)
    return ((yk[3] * di) % pj, (-yk[1] * di) % pj,
            (-yk[2] * di) % pj, (yk[0] * di) % pj)


def x_norm_key(xk: XKey, field: FieldData, pj: int) -> int:
    if field.mode == "symplectic":
        return xk[0] % pj
    return xk[0] * xk[1] % pj


# -- points -------------------------------------------------------------------


class GnPoint:
    """A point of the pair domain, exact and/or p-adic.

    A plain ``__slots__`` class, never hashed or compared (equality is
    identity).  ``x_is_unit``, ``y_is_invertible``, ``det_y_exact``, the
    coset key of each level and the translate by each unit are computed on
    first use and kept in slots (None until then), so every function
    evaluated there shares them; a known det(y) can be given to the
    constructor.  The cusp-rule points are stored with their index
    (``qexp._rule_terms``) and live as long as the enumeration.
    """

    __slots__ = ("field", "n", "x", "y", "x_padic", "y_padic", "_det_y",
                 "_unit", "_invertible", "_coset_keys", "_translates")

    def __init__(self, field, n, x=None, y=None, x_padic=None, y_padic=None,
                 *, det_y_exact=None):
        self.field, self.n, self.x, self.y = field, n, x, y
        self.x_padic, self.y_padic, self._det_y = x_padic, y_padic, det_y_exact
        self._unit = self._invertible = None
        self._coset_keys = self._translates = None

    @classmethod
    def from_exact(cls, field: FieldData, x: KNum, y: Matrix) -> "GnPoint":
        return cls(field, len(y), x=x, y=y)

    @classmethod
    def from_padic(cls, field: FieldData, x: CMElt, y) -> "GnPoint":
        return cls(field, len(y), x_padic=x, y_padic=tuple(tuple(r) for r in y))

    # -- x accessors -------------------------------------------------------
    def x_cm(self, prec: int | None = None) -> CMElt:
        if self.x_padic is not None:
            return self.x_padic
        return CMElt.embed(self.x, self.field, prec)

    def x_key(self, j: int) -> XKey:
        if self.x_padic is not None:
            return (self.x_padic.xs.lift(j), self.x_padic.xb.lift(j))
        return (self.field.sigma_residue(self.x, j),
                self.field.sigma_bar_residue(self.x, j))

    def coset_key(self, j: int) -> tuple[XKey, YKey]:
        """(x_key(j), y_key(j)), stored per level; a key that raises is not."""
        if self._coset_keys is None:
            self._coset_keys = {}
        key = self._coset_keys.get(j)
        if key is None:
            key = self._coset_keys[j] = (self.x_key(j), self.y_key(j))
        return key

    # -- y accessors -------------------------------------------------------
    def y_key(self, j: int) -> YKey:
        if self.y_padic is not None:
            return tuple(e.lift(j) for row in self.y_padic for e in row)
        return tuple(self.field.sigma_residue(e, j)
                     for row in self.y for e in row)

    def det_y_padic(self, prec: int | None = None) -> PadicElt:
        if self.y_padic is not None:
            return mat_det(self.y_padic)
        return self.field.sigma_padic(self.det_y_exact, prec)

    @property
    def det_y_exact(self) -> KNum:
        if self._det_y is None:
            if self.y is None:
                raise RingMismatch("point has no exact part")
            self._det_y = mat_det(self.y)
        return self._det_y

    def unit_translate(self, e: KNum) -> "GnPoint":
        """The translated point (e*x, relative-norm(e)^-1 * y), stored per e."""
        if self._translates is None:
            self._translates = {}
        moved = self._translates.get(e)
        if moved is None:
            moved = self._translates[e] = self._translate(e)
        return moved

    def _translate(self, e: KNum) -> "GnPoint":
        ne = norm_rel_exact(e, self.field)
        if self.x is not None:
            y2 = tuple(tuple(v / ne for v in row) for row in self.y)
            return GnPoint(self.field, self.n, x=self.x * e, y=y2)
        ec = CMElt.embed(e, self.field)
        ni = PadicElt.from_rational(1 / ne, p=self.field.p,
                                    prec=self.field.precision)
        y2 = tuple(tuple(v * ni for v in row) for row in self.y_padic)
        return GnPoint(self.field, self.n, x_padic=self.x_cm() * ec, y_padic=y2)

    @property
    def x_is_unit(self) -> bool:
        if self._unit is None:
            x, (r, rb), p = self.x, self.field.split_roots, self.field.p
            # (a + b*r)/d with d prime to p is a unit iff p misses each a + b*r
            xk = ((x.a + x.b * r, x.a + x.b * rb) if x is not None and x.d % p
                  else self.x_key(1))
            self._unit = xk[0] % p != 0 and xk[1] % p != 0
        return self._unit

    @property
    def y_is_invertible(self) -> bool:
        if self._invertible is None:
            y, p = self.y, self.field.p
            # no p in a denominator: det(y) mod p is the det of the residues
            if y is not None and all(e.d % p for row in y for e in row):
                d = self.det_y_exact
                d = d.a + d.b * self.field.split_roots[0]
            else:
                d = y_det_key(self.y_key(1), self.n, p)
            self._invertible = d % p != 0
        return self._invertible


# -- function classes ---------------------------------------------------------


class GnFunction:
    """Base class; subclasses implement evaluate(pt, j)."""

    def __init__(self, field: FieldData, n: int, ring, y_invertible=False):
        self.field, self.n, self.ring = field, n, ring
        self.y_invertible = y_invertible

    def evaluate(self, pt: GnPoint, j: int | None = None):
        raise NotImplementedError

    def __add__(self, other: "GnFunction") -> "LinearCombination":
        return LinearCombination(self.field, self.n, self.ring,
                                 ((1, self), (1, other)))


class LCFunction(GnFunction):
    """Locally constant function at a finite level.

    ``values`` is a sparse table keyed by (x-coset, y-coset); missing keys
    mean zero.  Alternatively ``rule`` computes the value from the cosets.
    """

    def __init__(self, field, n, ring, level: int, values: dict | None = None,
                 rule: Callable[[XKey, YKey], object] | None = None,
                 y_invertible=False):
        if (values is None) == (rule is None):
            raise ValueError("exactly one of values/rule required")
        if level < 1:
            raise LevelMismatch("level must be >= 1")
        super().__init__(field, n, ring, y_invertible)
        self.level, self.values, self.rule = level, values, rule

    def evaluate(self, pt: GnPoint, j: int | None = None):
        if not pt.x_is_unit:
            raise NotAUnit("x coordinate must be a unit")
        if self.y_invertible and not pt.y_is_invertible:
            return self.ring.zero()
        key = pt.coset_key(self.level)
        if self.values is not None:
            v = self.values.get(key)
            return self.ring.zero() if v is None else v
        return self.rule(*key)

    # -- serialization ----------------------------------------------------
    def to_json(self) -> dict:
        if self.values is None:
            raise RingMismatch("only table-backed functions serialize")
        entries = []
        for (xk, yk), v in sorted(self.values.items()):
            entries.append({"x_coset": list(xk), "y_coset": list(yk),
                            "value": self.ring.to_json(v)})
        return {"level": self.level, "n": self.n,
                "support": "y_invertible" if self.y_invertible else "all",
                "ring": self.ring.tag, "entries": entries}

    @classmethod
    def from_json(cls, data: dict, field: FieldData) -> "LCFunction":
        level = int(data["level"])
        ring = ring_from_tag(data["ring"], field)
        values = {}
        for ent in data["entries"]:
            key = (tuple(ent["x_coset"]), tuple(ent["y_coset"]))
            values[key] = ring.from_json(ent["value"])
        return cls(field, int(data["n"]), ring, level, values=values,
                   y_invertible=data.get("support") == "y_invertible")


class MonomialFunction(GnFunction):
    """coef * xs^e_xs * xb^e_xb * det(y)^e_det, exact where the point is."""

    def __init__(self, field, n, ring, coef, e_xs: int = 0, e_xb: int = 0,
                 e_det: int = 0, y_invertible=False):
        super().__init__(field, n, ring, y_invertible or e_det < 0)
        if field.mode == "symplectic":
            e_xs, e_xb = e_xs + e_xb, 0
        self.coef, self.e_xs, self.e_xb, self.e_det = coef, e_xs, e_xb, e_det

    def evaluate(self, pt: GnPoint, j: int | None = None):
        if not pt.x_is_unit:
            raise NotAUnit("x coordinate must be a unit")
        if self.y_invertible and not pt.y_is_invertible:
            return self.ring.zero()
        if isinstance(self.ring, RationalRing):  # rational x: xs = xb = x
            x, d = pt.x, pt.det_y_exact
            if x is None or not x.is_rational:
                raise RingMismatch("rational-ring monomials need a rational point")
            if not d.is_rational:
                raise RingMismatch("determinant is not rational")
            if not isinstance(self.coef, (int, Fraction)):
                raise RingMismatch("rational-ring monomials need a rational "
                                   "coefficient")
            return (self.coef * Fraction(x.a, x.d) ** (self.e_xs + self.e_xb)
                    * Fraction(d.a, d.d) ** self.e_det)
        if not isinstance(self.ring, PadicRing):
            raise RingMismatch("monomials live over the rational or p-adic ring")
        xc = pt.x_cm(self.field.precision)
        d = pt.det_y_padic(self.field.precision)
        out = self.ring.coerce(self.coef) * xc.xs ** self.e_xs
        if self.e_xb:
            out = out * xc.xb ** self.e_xb
        if self.e_det:
            out = out * d ** self.e_det
        return out

    def truncate(self, j: int) -> LCFunction:
        """The level-j locally constant shadow of the monomial."""
        ring = self.ring
        pj = self.field.p ** j
        me = self

        def rule(xk: XKey, yk: YKey):
            d = y_det_key(yk, me.n, pj)
            if d % me.field.p == 0:
                if me.e_det < 0 or me.y_invertible:
                    return ring.zero()
            e = _coset_power(xk, d, (me.e_xs, me.e_xb, me.e_det), pj)
            return ring.coerce(me.coef) * ring.coerce(
                PadicElt(me.field.p, 0, e, j) if e % me.field.p else
                PadicElt.from_int(e, me.field.p, j).with_abs_prec(j))

        return LCFunction(self.field, self.n, ring, j, rule=rule,
                          y_invertible=self.y_invertible)


class ProductFunction(GnFunction):
    """Pointwise product of a base function and a multiplier callable."""

    def __init__(self, field, n, ring, base: GnFunction,
                 multiplier: Callable[[GnPoint, object], object], y_invertible=False):
        super().__init__(field, n, ring, y_invertible)
        self.base, self.multiplier = base, multiplier

    def evaluate(self, pt: GnPoint, j: int | None = None):
        if self.y_invertible and not pt.y_is_invertible:
            return self.ring.zero()
        v = self.base.evaluate(pt, j)
        if self.ring.is_zero(v):
            return v
        return v * self.multiplier(pt, self.ring)


class LinearCombination(GnFunction):
    """A sum of (scalar, GnFunction) terms; y-invertible when every term is."""

    def __init__(self, field, n, ring, terms: tuple):
        super().__init__(field, n, ring, all(f.y_invertible for _, f in terms))
        self.terms = terms

    def evaluate(self, pt: GnPoint, j: int | None = None):
        out = self.ring.zero()
        for c, f in self.terms:
            out = out + self.ring.coerce(c) * f.evaluate(pt, j)
        return out


class ContinuousFunction(GnFunction):
    """A continuous function given through its truncation oracle."""

    def __init__(self, field, n, ring, oracle: Callable[[int], GnFunction],
                 y_invertible=False):
        super().__init__(field, n, ring, y_invertible)
        self.oracle = oracle

    def truncate(self, j: int) -> GnFunction:
        return self.oracle(j)

    def evaluate(self, pt: GnPoint, j: int | None = None):
        if j is None:
            raise LevelMismatch("continuous functions need a precision level")
        return self.oracle(j).evaluate(pt, j)

    def check_consistency(self, points, levels) -> bool:
        """Truncations must agree mod p^j for j <= j'."""
        p = self.field.p
        for j in levels:
            for j2 in levels:
                if j >= j2:
                    continue
                fj, fj2 = self.oracle(j), self.oracle(j2)
                for pt in points:
                    a = fj.evaluate(pt, j)
                    b = fj2.evaluate(pt, j2)
                    if not _congruent(a, b, p, j):
                        return False
        return True


def _congruent(a, b, p: int, j: int) -> bool:
    if type(a) is Fraction and type(b) is Fraction:
        ad, bd = a.denominator, b.denominator
        num = a.numerator * bd - b.numerator * ad  # a - b = num / (ad * bd)
        if ad % p and bd % p:  # a p-free denominator: p^j divides num
            return j <= 0 or num % p ** j == 0
        return num == 0 or _vp(num, p) - _vp(ad * bd, p) >= j
    return a.congruent_mod(b, j)


def evaluate(f: GnFunction, pt: GnPoint, j: int | None = None):
    """Evaluate f at pt; p-adic results are truncated to absolute precision j."""
    v = f.evaluate(pt, j)
    if j is not None and isinstance(v, PadicElt):
        return v.with_abs_prec(j)
    return v


# -- the weight factor: the bridge and the weight twist ----------------------


def _weight_exponents(n: int, mode: str, kp: int, nu: int) -> tuple[int, int, int]:
    """Exponents of (xs, xb, det y) in the weight-(kp, nu) norm of
    u = x^-1 * relnorm(x)^n * det y, that is us^(kp + nu) * ub^(-nu)."""
    if mode == "symplectic":  # us = ub = u
        return (n - 1) * kp, 0, kp
    return ((n - 1) * (kp + nu) - n * nu, n * (kp + nu) - (n - 1) * nu, kp)


def _coset_power(xk: XKey, d: int, e: tuple[int, int, int], pj: int) -> int:
    """xs^e0 * xb^e1 * d^e2 mod p^j on the residues of x and det y."""
    return pow(xk[0], e[0], pj) * pow(xk[1], e[1], pj) * pow(d, e[2], pj) % pj


def _weight_value(pt: GnPoint, e: tuple[int, int, int], ring):
    """xs^e0 * xb^e1 * det(y)^e2 at pt, with no ring coefficient."""
    field = pt.field
    if isinstance(ring, RationalRing):  # rational x: xs = xb = x
        d = ring.from_knum(pt.det_y_exact, field)
        return ring.from_knum(pt.x, field) ** (e[0] + e[1]) * d ** e[2]
    xc, d = pt.x_cm(), pt.det_y_padic()
    return xc.xs ** e[0] * xc.xb ** e[1] * d ** e[2]


def _scale_table(g: LCFunction, e: tuple[int, int, int],
                 invert_y: bool) -> LCFunction:
    """The table g(x, y^-1) (or g(x, y)) times xs^e0 * xb^e1 * det(y)^e2,
    the factor read at the moved coset."""
    field, n, p, j = g.field, g.n, g.field.p, g.level
    pj = p ** j
    if not isinstance(g.ring, PadicRing):
        raise RingMismatch("the weight factor on a table needs p-adic "
                           "coefficients")

    def move(yk: YKey) -> YKey:
        return y_inverse_key(yk, n, p, pj) if invert_y else yk

    def factor(xk: XKey, yk: YKey) -> PadicElt:
        d = y_det_key(yk, n, pj)
        if d % p == 0:
            raise SupportNotInvertible("the weight factor needs invertible "
                                       "y cosets")
        return PadicElt(p, 0, _coset_power(xk, d, e, pj), j)

    if g.values is not None:
        out = {}
        for (xk, yk), v in g.values.items():
            yk2 = move(yk)
            out[(xk, yk2)] = v * factor(xk, yk2)
        return LCFunction(field, n, g.ring, j, values=out, y_invertible=True)

    def rule(xk: XKey, yk: YKey):
        return g.rule(xk, move(yk)) * factor(xk, yk)

    return LCFunction(field, n, g.ring, j, rule=rule, y_invertible=True)


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
    e = _weight_exponents(n, field.mode, -n, 0)
    if not forward:  # x enters inverted; the det divisor keeps its sign
        e = (-e[0], -e[1], e[2])
    if isinstance(g, MonomialFunction):
        return MonomialFunction(field, n, g.ring, g.coef, g.e_xs + e[0],
                                g.e_xb + e[1], -g.e_det + e[2],
                                y_invertible=True)
    if isinstance(g, LinearCombination):
        return LinearCombination(field, n, g.ring,
                                 tuple((c, _bridge(f, forward)) for c, f in g.terms))
    if isinstance(g, ContinuousFunction):
        return ContinuousFunction(field, n, g.ring,
                                  lambda j: _bridge(g.oracle(j), forward),
                                  y_invertible=True)
    if isinstance(g, LCFunction):
        return _scale_table(g, e, invert_y=True)
    raise RingMismatch(f"no bridge for {type(g).__name__}")


def weight_twist(f: GnFunction, w: Weight) -> GnFunction:
    """Multiply by the weight-(k-n, nu) norm of x^-1 * relnorm(x)^n * det y.

    Reduces an expansion of weight (k, nu) to the base weight (n, 0).
    """
    field, n = f.field, f.n
    kp, nu = w.k - n, w.nu
    e = _weight_exponents(n, field.mode, kp, nu)
    # det(y) enters with the power kp, and the nu-part needs its inverse
    y_inv = f.y_invertible or kp < 0 or nu != 0
    if isinstance(f, MonomialFunction):
        return MonomialFunction(field, n, f.ring, f.coef, f.e_xs + e[0],
                                f.e_xb + e[1], f.e_det + e[2], y_invertible=y_inv)
    if isinstance(f, LinearCombination):
        return LinearCombination(field, n, f.ring,
                                 tuple((c, weight_twist(g, w)) for c, g in f.terms))
    if isinstance(f, LCFunction):
        return _scale_table(f, e, invert_y=False)
    return ProductFunction(field, n, f.ring, f,
                           lambda pt, ring: _weight_value(pt, e, ring),
                           y_invertible=y_inv)


# -- unit equivariance ---------------------------------------------------------


class EquivarianceReport:
    """A failed check's witness is (unit, point, value at the moved point,
    value it should equal)."""

    def __init__(self, passed: bool, witness: tuple | None = None):
        self.passed, self.witness = passed, witness

    def witness_text(self) -> str:
        """The witness as the unit, the point's x and y, and the two values."""
        e, pt, got, want = self.witness
        x, y = (pt.x, pt.y) if pt.x is not None else (pt.x_padic, pt.y_padic)
        return f"unit {e}, x = {x}, y = {y}: {got} != {want}"


def unit_weight_factor(e: KNum, w: Weight, field: FieldData) -> KNum:
    """Weight norm of an integral unit, kept exact."""
    return e ** (w.k + 2 * w.nu) * field.K(e.norm()) ** (-w.nu)


def check_equivariance(f: GnFunction, w: Weight, points,
                       j: int | None = None) -> EquivarianceReport:
    """Does f transform under integral units with the weight-(k, nu) norm?"""
    field = f.field
    for e in field.unit_group:
        try:
            fac = f.ring.from_knum(unit_weight_factor(e, w, field), field)
        except RingMismatch:  # irrational over Q: only zero transforms by it
            fac = None
        for pt in points:
            lhs = f.evaluate(pt.unit_translate(e), j)
            rhs = f.evaluate(pt, j)
            if fac is None:
                ok = f.ring.is_zero(lhs) and f.ring.is_zero(rhs)
            else:
                rhs = fac * rhs
                ok = f.ring.eq(lhs, rhs)
            if not ok:
                return EquivarianceReport(False, (e, pt, lhs, rhs))
    return EquivarianceReport(True)


def check_unit_invariance(h: GnFunction, points,
                          j: int | None = None) -> EquivarianceReport:
    """Integrands must satisfy h(e*x, relnorm(e)*y) = h(x, y)."""
    field = h.field
    for e in field.unit_group:
        ei = e.inverse()
        for pt in points:
            lhs = h.evaluate(pt.unit_translate(ei), j)
            rhs = h.evaluate(pt, j)
            if not h.ring.eq(lhs, rhs):
                return EquivarianceReport(False, (e, pt, lhs, rhs))
    return EquivarianceReport(True)


def symmetrize(f: LCFunction, w: Weight) -> LCFunction:
    """Average over integral units so the result is weight-(k, nu) equivariant."""
    field, p = f.field, f.field.p
    if f.values is None:
        raise RingMismatch("symmetrize needs a table")
    pj = p ** f.level
    units = field.unit_group
    inv_order = f.ring.scalar(Fraction(1, len(units)))
    out: dict = {}
    for e in units:
        fac = f.ring.from_knum(unit_weight_factor(e, w, field), field)
        fac_inv = f.ring.invert(fac)
        es = field.sigma_residue(e, f.level)
        eb = field.sigma_bar_residue(e, f.level)
        nrm = field.sigma_residue(field.K(norm_rel_exact(e, field)), f.level)
        nrm_inv = pow(nrm, -1, pj)
        ei_s, ei_b = pow(es, -1, pj), pow(eb, -1, pj)
        for (xk, yk), v in f.values.items():
            key = ((xk[0] * ei_s % pj, xk[1] * ei_b % pj),
                   tuple(c * nrm % pj for c in yk))
            add = inv_order * fac_inv * v
            key_v = out.get(key)
            out[key] = add if key_v is None else key_v + add
    out = {k: v for k, v in out.items() if not f.ring.is_zero(v)}
    return LCFunction(field, f.n, f.ring, f.level, values=out,
                      y_invertible=f.y_invertible)


# -- characters and partition functions ---------------------------------------


def _primitive_root(p: int, j: int) -> int:
    """Smallest generator of the units mod p^j (p an odd prime)."""
    pj = p ** j
    order = (p - 1) * p ** (j - 1)
    fac = _prime_factors(order)
    for g in range(2, pj):
        if g % p == 0:
            continue
        if all(pow(g, order // q, pj) != 1 for q in fac):
            return g
    raise ValueError("no primitive root found")


def _prime_factors(m: int) -> list[int]:
    out, d = [], 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def _dlog_table(p: int, j: int) -> tuple[int, dict[int, int], int]:
    g = _primitive_root(p, j)
    pj = p ** j
    order = (p - 1) * p ** (j - 1)
    table, cur = {}, 1
    for e in range(order):
        table[cur] = e
        cur = cur * g % pj
    return g, table, order


def teichmuller(u: int, p: int, prec: int) -> PadicElt:
    """The Teichmuller representative congruent to u mod p."""
    if u % p == 0:
        raise NotAUnit("Teichmuller lift of a non-unit")
    pk = p ** prec
    x = u % pk
    for _ in range(prec):
        x = pow(x, p, pk)
    return PadicElt(p, 0, x, prec)


class UnitCharacter:
    """A finite-order character on the units mod p^level, extended by zero."""

    def __init__(self, p: int, level: int, ring, values: dict[int, object]):
        self.p, self.level, self.ring, self.values = p, level, ring, values

    def __call__(self, residue: int):
        r = residue % self.p ** self.level
        if r % self.p == 0:
            return self.ring.zero()
        return self.values[r]

    @classmethod
    def trivial(cls, p: int, level: int, ring) -> "UnitCharacter":
        pj = p ** level
        return cls(p, level, ring,
                   {r: ring.one() for r in range(1, pj) if r % p})

    @classmethod
    def teichmuller_power(cls, t: int, p: int, level: int,
                          prec: int) -> "UnitCharacter":
        """x -> teich(x)^t, p-adically valued."""
        ring = PadicRing(p, prec)
        pj = p ** level
        vals = {r: teichmuller(r, p, prec) ** t
                for r in range(1, pj) if r % p}
        return cls(p, level, ring, vals)


def character_decompose(f: LCFunction):
    """Split a table into components transforming by x-group characters.

    Returns a list of (label, component) pairs; labels are exponent tuples
    with respect to the fixed generator of the unit group mod p^level.
    The reconstruction sum of the components is exactly f.
    """
    field, p, j = f.field, f.field.p, f.level
    if f.values is None:
        raise RingMismatch("decomposition needs a table")
    g, dlog, order = _dlog_table(p, j)
    pj = p ** j
    sympl = field.mode == "symplectic"
    group = ([(u, u) for u in dlog] if sympl
             else [(u1, u2) for u1 in dlog for u2 in dlog])
    gsize = len(group)

    ring = f.ring
    if isinstance(ring, PadicRing):
        if j > 1:
            raise GroupOrderNotInvertible(
                "the x-group order is divisible by p at this level; "
                "use the cyclotomic ring")
        zeta = teichmuller(g, p, ring.prec)
        root_pow = {e: zeta ** e for e in range(order)}
        out_ring = ring
        table = {k: v for k, v in f.values.items()}
    else:
        out_ring = CyclotomicRing(order)
        root_pow = {e: out_ring.root(e) for e in range(order)}
        table = {k: out_ring.coerce(v) for k, v in f.values.items()}

    inv_size = out_ring.scalar(Fraction(1, gsize))
    labels = ([(t,) for t in range(order)] if sympl
              else [(t1, t2) for t1 in range(order) for t2 in range(order)])
    components = []
    for label in labels:
        comp: dict = {}
        for (u1, u2) in group:
            e = sum(t * d for t, d in zip(label, (dlog[u1], dlog[u2])))
            chi_inv = root_pow[-e % order]
            ui1, ui2 = pow(u1, -1, pj), pow(u2, -1, pj)
            for (xk, yk), v in table.items():
                key = ((xk[0] * ui1 % pj, xk[1] * ui2 % pj), yk)
                add = inv_size * chi_inv * v
                prev = comp.get(key)
                comp[key] = add if prev is None else prev + add
        comp = {k: v for k, v in comp.items() if not out_ring.is_zero(v)}
        if comp:
            components.append((label, LCFunction(
                field, f.n, out_ring, j, values=comp,
                y_invertible=f.y_invertible)))
    return components


class PartitionSpec:
    """An ordered partition of n with one unit character per part."""

    def __init__(self, n: int, parts: tuple[int, ...],
                 characters: tuple[UnitCharacter, ...]):
        if sum(parts) != n:
            raise ValueError("parts must sum to n")
        if len(parts) != len(characters):
            raise ValueError("one character per part required")
        self.n, self.parts, self.characters = n, parts, characters


def partition_function(spec: PartitionSpec, chi: tuple[UnitCharacter, UnitCharacter],
                       field: FieldData, level: int) -> LCFunction:
    """chi(x) * (first component of x)^n * product of characters of nested minors.

    The minors are the leading principal minors of relnorm(x) * transpose(y)
    of cumulative sizes given by the partition.
    """
    n = spec.n
    for ch in (*spec.characters, *chi):
        if ch.level > level:
            raise LevelMismatch("character level exceeds the table level")
    ring = spec.characters[0].ring
    p = field.p
    pj = p ** level
    cum = list(accumulate(spec.parts))

    def rule(xk: XKey, yk: YKey):
        nx = x_norm_key(xk, field, pj)
        m = [[nx * yk[b * n + a] % pj for b in range(n)] for a in range(n)]
        out = chi[0](xk[0]) * chi[1](xk[1])
        out = out * ring.coerce(PadicElt(p, 0, pow(xk[0], n, pj), level))
        for ch, c in zip(spec.characters, cum):
            v = ch(mat_det([row[:c] for row in m[:c]]))
            if ring.is_zero(v):
                return ring.zero()
            out = out * v
        return out

    return LCFunction(field, n, ring, level, rule=rule)


# -- random tables (test and CLI support) --------------------------------------


def random_lc_function(field: FieldData, n: int, level: int, rng,
                       entries: int = 12, y_invertible: bool = True,
                       prec: int | None = None) -> LCFunction:
    """A sparse random table with p-adic unit values."""
    p = field.p
    pj = p ** level
    prec = prec or level
    ring = PadicRing(p, prec)
    values = {}
    while len(values) < entries:
        if field.mode == "symplectic":
            u = rng.randrange(1, pj)
            if u % p == 0:
                continue
            xk = (u, u)
        else:
            x1, x2 = rng.randrange(1, pj), rng.randrange(1, pj)
            if x1 % p == 0 or x2 % p == 0:
                continue
            xk = (x1, x2)
        yk = tuple(rng.randrange(pj) for _ in range(n * n))
        if y_invertible and y_det_key(yk, n, pj) % p == 0:
            continue
        v = rng.randrange(1, pj)
        if v % p == 0:
            continue
        values[(xk, yk)] = PadicElt(p, 0, v, prec)
    return LCFunction(field, n, ring, level, values=values,
                      y_invertible=y_invertible)
