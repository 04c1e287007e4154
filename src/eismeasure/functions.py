"""Functions on the pair domain (unit group) x (n-by-n matrix space).

The two coordinates of a point are a completed-field unit x and a matrix y
over the completed base ring; a ``GnPoint`` holds exact x and y over K, which
a p-adic function reads through the split embeddings at the field's
precision (the ring's ``monomial`` and the coset keys).  Functions come in
several flavours:

* ``LCFunction``    -- locally constant at a finite level, backed by a
                       sparse coset table or a coset rule;
* ``MonomialFunction`` -- coef times the ring's monomial in the split
                       components of x and det(y), evaluable over the
                       rationals and Z_p;
* ``ProductFunction``, ``LinearCombination`` -- the obvious combinators;
* ``ContinuousFunction`` -- read only through its truncations ``truncate(j)``.

The bridge between the integrand side (unit-invariant H) and the
coefficient side (equivariant F) is the pair ``h_to_f`` / ``f_to_h``.  The
bridge and the weight twist ``weight_twist`` share one weight factor, a
norm of u = x^-1 * relnorm(x)^n * det y as exponents of (xs, xb, det y):
monomials add it to their exponents and tables scale each coset's value by
it; both map each truncation of a continuous function, and the twist
multiplies any other function by the factor's value, the ring's monomial.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .errors import (
    FieldDataError,
    GroupOrderNotInvertible,
    LevelMismatch,
    NotAUnit,
    NotRational,
    RingMismatch,
    ShapeMismatch,
    SupportNotInvertible,
)
from .fields import FieldData, KNum, Weight, _json_objects, _json_value
from .hermitian import mat_det
from .padic import MAX_PRECISION, PadicElt, _vp
from .rings import CyclotomicRing, PadicRing, ring_from_tag

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


# -- points -------------------------------------------------------------------


class GnPoint:
    """A point of the pair domain, with exact coordinates x and y.

    A plain ``__slots__`` class, never hashed or compared (equality is
    identity).  ``x_is_unit`` (x's split residues mod p), ``y_is_invertible``,
    ``det_y_exact``, the coset key of each level and the translate by each
    unit are computed on first use and kept in slots (None until then), so
    every function evaluated there shares them; a known det(y) can be given
    to the constructor.  Cusp-rule points are built and stored with their
    index only when read (``qexp._rule_points``): a power-sum sweep builds
    none.
    """

    __slots__ = ("field", "n", "x", "y", "_det_y", "_unit", "_invertible",
                 "_coset_keys", "_translates")

    def __init__(self, field, x, y, *, det_y_exact=None):
        self.field, self.n, self.x, self.y = field, len(y), x, y
        self._det_y = det_y_exact
        self._unit = self._invertible = None
        self._coset_keys = self._translates = None

    # -- x accessors -------------------------------------------------------
    def x_key(self, j: int) -> XKey:
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
        return tuple(self.field.sigma_residue(e, j)
                     for row in self.y for e in row)

    @property
    def det_y_exact(self) -> KNum:
        if self._det_y is None:
            self._det_y = mat_det(self.y)
        return self._det_y

    def unit_translate(self, e: KNum) -> "GnPoint":
        """The translated point (e*x, y), stored per e."""
        if self._translates is None:
            self._translates = {}
        moved = self._translates.get(e)
        if moved is None:
            moved = self._translates[e] = self._translate(e)
        return moved

    def _translate(self, e: KNum) -> "GnPoint":
        # every integral unit has relative norm 1, so it moves x alone
        return GnPoint(self.field, self.x * e, self.y, det_y_exact=self._det_y)

    @property
    def x_is_unit(self) -> bool:
        if self._unit is None:
            self._unit = 0 not in self.x_key(1)
        return self._unit

    @property
    def y_is_invertible(self) -> bool:
        if self._invertible is None:
            y, p = self.y, self.field.p
            # no p in a denominator: det(y) mod p is the det of the residues
            if all(e.d % p for row in y for e in row):
                d = self.det_y_exact
                d = d.a + d.b * self.field.split_roots[0]
            else:
                d = y_det_key(self.y_key(1), self.n, p)
            self._invertible = d % p != 0
        return self._invertible


# -- function classes ---------------------------------------------------------


class GnFunction:
    """Base class; subclasses implement evaluate(pt), the value at pt."""

    def __init__(self, field: FieldData, n: int, ring, y_invertible=False):
        self.field, self.n, self.ring = field, n, ring
        self.y_invertible = y_invertible

    def evaluate(self, pt: GnPoint):
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

    def evaluate(self, pt: GnPoint):
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
        return {"p": self.field.p, "level": self.level, "n": self.n,
                "support": "y_invertible" if self.y_invertible else "all",
                "ring": self.ring.tag, "entries": entries}

    @classmethod
    def from_json(cls, data: dict, field: FieldData) -> "LCFunction":
        level, n = _json_value(data, "level"), _json_value(data, "n")
        if (p := _json_value(data, "p", error=FieldDataError)) != field.p:
            raise FieldDataError(f"a table over p = {p} read with "
                                 f"p = {field.p}")
        if level > MAX_PRECISION:  # before p^level is formed
            raise LevelMismatch(f"level {level} is above {MAX_PRECISION}")
        ring = ring_from_tag(_json_value(data, "ring", str), field)
        p, pj, sympl = field.p, field.p ** level, field.mode == "symplectic"

        def residues(ks, size):
            return (isinstance(ks, list) and len(ks) == size
                    and all(type(r) is int and 0 <= r < pj for r in ks))

        values = {}
        for ent in _json_objects(data, "entries"):
            v = ring.from_json(_json_value(ent, "value", None))
            xk, yk = (_json_value(ent, k, None) for k in ("x_coset", "y_coset"))
            # a coset no point reaches would integrate to 0; a symplectic
            # x is rational, so both its residues agree
            if not (residues(xk, 2) and residues(yk, n * n)
                    and all(r % p for r in xk)
                    and (not sympl or xk[0] == xk[1])):
                raise ShapeMismatch(
                    f"table entry x_coset {xk}, y_coset {yk} is not "
                    f"{'2 equal' if sympl else '2'} units and {n * n} "
                    f"residues mod {pj}")
            values[(tuple(xk), tuple(yk))] = v
        support = data.get("support")
        if support not in ("all", "y_invertible"):
            raise ShapeMismatch(f"table support {support!r} is not 'all' or "
                                "'y_invertible'")
        return cls(field, n, ring, level, values=values,
                   y_invertible=support == "y_invertible")


class MonomialFunction(GnFunction):
    """coef * xs^e_xs * xb^e_xb * det(y)^e_det, exact where the point is."""

    def __init__(self, field, n, ring, coef, e_xs: int = 0, e_xb: int = 0,
                 e_det: int = 0, y_invertible=False):
        super().__init__(field, n, ring, y_invertible or e_det < 0)
        if field.mode == "symplectic":
            e_xs, e_xb = e_xs + e_xb, 0
        self.coef, self.e_xs, self.e_xb, self.e_det = coef, e_xs, e_xb, e_det

    def evaluate(self, pt: GnPoint):
        if not pt.x_is_unit:
            raise NotAUnit("x coordinate must be a unit")
        if self.y_invertible and not pt.y_is_invertible:
            return self.ring.zero()
        # the monomial first: over Q, x and det(y) are checked before coef
        m = self.ring.monomial(pt.x, pt.det_y_exact,
                               (self.e_xs, self.e_xb, self.e_det), pt.field)
        return self.ring.coerce(self.coef) * m

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

    def evaluate(self, pt: GnPoint):
        if self.y_invertible and not pt.y_is_invertible:
            return self.ring.zero()
        v = self.base.evaluate(pt)
        if self.ring.is_zero(v):
            return v
        return v * self.multiplier(pt, self.ring)


class LinearCombination(GnFunction):
    """A sum of (scalar, GnFunction) terms; y-invertible when every term is."""

    def __init__(self, field, n, ring, terms: tuple):
        super().__init__(field, n, ring, all(f.y_invertible for _, f in terms))
        self.terms = terms

    def evaluate(self, pt: GnPoint):
        out = self.ring.zero()
        for c, f in self.terms:
            out = out + self.ring.coerce(c) * f.evaluate(pt)
        return out


class ContinuousFunction(GnFunction):
    """A continuous function, read (and integrated mod p^j) as truncate(j)."""

    def __init__(self, field, n, ring, oracle: Callable[[int], GnFunction],
                 y_invertible=False):
        super().__init__(field, n, ring, y_invertible)
        self.oracle = oracle

    def truncate(self, j: int) -> GnFunction:
        return self.oracle(j)

    def evaluate(self, pt: GnPoint):
        raise LevelMismatch("a continuous function is evaluated as truncate(j)")

    def check_consistency(self, points, levels) -> bool:
        """Truncations must agree mod p^j for j <= j'."""
        p = self.field.p
        for j in levels:
            for j2 in levels:
                if j >= j2:
                    continue
                fj, fj2 = self.oracle(j), self.oracle(j2)
                for pt in points:
                    a = fj.evaluate(pt)
                    b = fj2.evaluate(pt)
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


def evaluate(f: GnFunction, pt: GnPoint):
    """The value of f at pt, as the sweep reads it."""
    return f.evaluate(pt)


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
    return _bridge(h, _weight_exponents(h.n, h.field.mode, -h.n, 0))


def f_to_h(f: GnFunction) -> GnFunction:
    """Inverse bridge: h(x, y) = f(x, y^-1) / norm of (x * relnorm(x)^-n * det y)."""
    e = _weight_exponents(f.n, f.field.mode, -f.n, 0)
    # x enters inverted; the det divisor keeps its sign
    return _bridge(f, (-e[0], -e[1], e[2]))


def _bridge(g: GnFunction, e: tuple[int, int, int]) -> GnFunction:
    def refuse(g):
        raise RingMismatch(f"no bridge for {type(g).__name__}")
    return _times_weight(g, e, refuse, invert_y=True, y_inv=True)


def weight_twist(f: GnFunction, w: Weight) -> GnFunction:
    """Multiply by the weight-(k-n, nu) norm of x^-1 * relnorm(x)^n * det y.

    Reduces an expansion of weight (k, nu) to the base weight (n, 0).
    """
    kp, nu = w.k - f.n, w.nu
    e = _weight_exponents(f.n, f.field.mode, kp, nu)
    # det(y) enters with the power kp, and the nu-part needs its inverse
    y_inv = kp < 0 or nu != 0
    return _times_weight(f, e, lambda g: ProductFunction(
        g.field, g.n, g.ring, g,
        lambda pt, r: r.monomial(pt.x, pt.det_y_exact, e, pt.field),
        y_invertible=y_inv or g.y_invertible), invert_y=False, y_inv=y_inv)


def _times_weight(g: GnFunction, e: tuple[int, int, int], other, *,
                  invert_y: bool, y_inv: bool) -> GnFunction:
    """g(x, y^-1) (or g(x, y)) times xs^e0 * xb^e1 * det(y)^e2 for a
    monomial (y-invertible if g is or y_inv is), a combination, a table or
    each truncation of a continuous function; ``other`` takes the rest."""
    field, n, ring = g.field, g.n, g.ring
    if isinstance(g, MonomialFunction):
        e_det = -g.e_det if invert_y else g.e_det
        return MonomialFunction(field, n, ring, g.coef, g.e_xs + e[0],
                                g.e_xb + e[1], e_det + e[2],
                                y_invertible=y_inv or g.y_invertible)
    if isinstance(g, LinearCombination):
        return LinearCombination(field, n, ring, tuple(
            (c, _times_weight(f, e, other, invert_y=invert_y, y_inv=y_inv))
            for c, f in g.terms))
    if isinstance(g, LCFunction):
        return _scale_table(g, e, invert_y)
    if isinstance(g, ContinuousFunction):
        return ContinuousFunction(field, n, ring, lambda j: _times_weight(
            g.oracle(j), e, other, invert_y=invert_y, y_inv=y_inv),
            y_invertible=y_inv or g.y_invertible)
    return other(g)


# -- unit equivariance ---------------------------------------------------------


class EquivarianceReport:
    """A failed check's witness is (unit, point, value at the moved point,
    value it should equal)."""

    def __init__(self, passed: bool, witness: tuple | None = None):
        self.passed, self.witness = passed, witness

    def witness_text(self) -> str:
        """The witness as the unit, the point's x and y, and the two values."""
        e, pt, got, want = self.witness
        return f"unit {e}, x = {pt.x}, y = {pt.y}: {got} != {want}"


def unit_weight_factor(e: KNum, w: Weight) -> KNum:
    """Weight norm of an integral unit, kept exact (its relative norm is 1)."""
    return e ** (w.k + 2 * w.nu)


def check_equivariance(f: GnFunction, w: Weight, points) -> EquivarianceReport:
    """Does f transform under integral units with the weight-(k, nu) norm?

    Unit invariance is w = (0, 0); a continuous f is checked as truncate(j)."""
    field = f.field
    for e in field.unit_group:
        factor = unit_weight_factor(e, w)
        # 1 placed in Z_p has the field's precision, and multiplying by it
        # would compare values that have more digits at fewer
        one = factor == field.K(1)
        try:
            fac = f.ring.from_knum(factor, field)
        except NotRational:  # an irrational factor: only zero transforms by it
            fac = None
        for pt in points:
            lhs = f.evaluate(pt.unit_translate(e))
            rhs = f.evaluate(pt)
            if fac is None:
                ok = f.ring.is_zero(lhs) and f.ring.is_zero(rhs)
            else:
                if not one:
                    rhs = fac * rhs
                ok = lhs == rhs
            if not ok:
                return EquivarianceReport(False, (e, pt, lhs, rhs))
    return EquivarianceReport(True)


def symmetrize(f: LCFunction, w: Weight) -> LCFunction:
    """Average over integral units so the result is weight-(k, nu) equivariant."""
    field, p = f.field, f.field.p
    if f.values is None:
        raise RingMismatch("symmetrize needs a table")
    pj = p ** f.level
    units = field.unit_group
    inv_order = f.ring.coerce(Fraction(1, len(units)))
    out: dict = {}
    for e in units:
        c = inv_order / f.ring.from_knum(unit_weight_factor(e, w), field)
        es = field.sigma_residue(e, f.level)
        eb = field.sigma_bar_residue(e, f.level)
        ei_s, ei_b = pow(es, -1, pj), pow(eb, -1, pj)
        for (xk, yk), v in f.values.items():
            key = ((xk[0] * ei_s % pj, xk[1] * ei_b % pj), yk)
            add = c * v
            key_v = out.get(key)
            out[key] = add if key_v is None else key_v + add
    out = {k: v for k, v in out.items() if not f.ring.is_zero(v)}
    return LCFunction(field, f.n, f.ring, f.level, values=out,
                      y_invertible=f.y_invertible)


# -- characters ---------------------------------------------------------------


def _dlog_table(p: int, j: int) -> tuple[int, dict[int, int], int]:
    """(g, discrete logs to base g, order) for the smallest generator g of
    the units mod p^j (p an odd prime): the first g whose powers reach all
    (p - 1) * p^(j-1) of them."""
    pj, order = p ** j, (p - 1) * p ** (j - 1)
    for g in range(2, pj):
        if g % p == 0:
            continue
        table, cur = {}, 1
        while cur not in table:
            table[cur] = len(table)
            cur = cur * g % pj
        if len(table) == order:
            return g, table, order
    raise ValueError("no primitive root found")


def teichmuller(u: int, p: int, prec: int) -> PadicElt:
    """The Teichmuller representative congruent to u mod p."""
    if u % p == 0:
        raise NotAUnit("Teichmuller lift of a non-unit")
    pk = p ** prec
    x = u % pk
    for _ in range(prec):
        x = pow(x, p, pk)
    return PadicElt(p, 0, x, prec)


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
    else:
        out_ring = CyclotomicRing(order)
        root_pow = {e: out_ring.root(e) for e in range(order)}
    # each value over |group| once; a root times a rational is a scalar product
    inv_size = ring.coerce(Fraction(1, gsize))
    table = {k: inv_size * ring.coerce(v) for k, v in f.values.items()}
    inverse = {u: pow(u, -1, pj) for u in dlog}
    labels = ([(t,) for t in range(order)] if sympl
              else [(t1, t2) for t1 in range(order) for t2 in range(order)])
    components = []
    for label in labels:
        comp: dict = {}
        for (u1, u2) in group:
            e = sum(t * d for t, d in zip(label, (dlog[u1], dlog[u2])))
            chi_inv = root_pow[-e % order]
            ui1, ui2 = inverse[u1], inverse[u2]
            for (xk, yk), v in table.items():
                key = ((xk[0] * ui1 % pj, xk[1] * ui2 % pj), yk)
                add = chi_inv * v
                prev = comp.get(key)
                comp[key] = add if prev is None else prev + add
        comp = {k: v for k, v in comp.items() if not out_ring.is_zero(v)}
        if comp:
            components.append((label, LCFunction(
                field, f.n, out_ring, j, values=comp,
                y_invertible=f.y_invertible)))
    return components


# -- random tables (test and CLI support) --------------------------------------


def random_lc_function(field: FieldData, n: int, level: int, rng,
                       entries: int = 12) -> LCFunction:
    """A sparse random table with p-adic unit values on invertible y cosets."""
    p = field.p
    pj = p ** level
    ring = PadicRing(p, level)
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
        if y_det_key(yk, n, pj) % p == 0:
            continue
        v = rng.randrange(1, pj)
        if v % p == 0:
            continue
        values[(xk, yk)] = PadicElt(p, 0, v, level)
    return LCFunction(field, n, ring, level, values=values, y_invertible=True)
