"""Coefficient rings: exact rationals, p-adic integers, cyclotomic rationals.

The protocol has one name per operation: ``tag``, ``zero``, ``is_zero``,
``coerce``, ``from_knum``, ``monomial``, ``to_json`` and ``from_json``.  A
rational (an int or a Fraction) enters a ring only through ``coerce`` (so 1
is ``coerce(1)``), and ring values compare with their own ``==``.  Mixing
rings is an error, never a coercion; plain integers and Fractions are
accepted everywhere as scalars.  A ring places exact field elements
(``from_knum``), evaluates the one monomial xs^e0 * xb^e1 * d^e2 of an
exact x and d (``monomial``: a function's monomial, the weight twist and an
expansion term's weight factor) and owns its JSON values; ``RINGS`` maps
the tags.  The cyclotomic ring holds character components only: it places
no field element, evaluates no monomial and writes no JSON, and says so
with ``RingMismatch``; it reads none (no ``from_json``) and adds ``root``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .errors import NotRational, RingMismatch
from .fields import CMElt, _json_value
from .padic import MAX_PRECISION, PadicElt


@cache
def _cyclotomic_poly(m: int) -> list[int]:
    """Coefficients of the m-th cyclotomic polynomial (ascending); the
    cached list is shared, so callers do not mutate it."""
    # divide x^m - 1 by the cyclotomic polynomials of the proper divisors
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            q = _cyclotomic_poly(d)
            poly = _poly_div_exact(poly, q)
    return poly


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1] // den[-1]
        out[i] = c
        for j, d in enumerate(den):
            num[i + j] -= c * d
    assert all(c == 0 for c in num)
    return out


class CycloElt:
    """An element of the m-th cyclotomic field as a vector mod Phi_m."""

    def __init__(self, m: int, coeffs: tuple[Fraction, ...]):
        self.m, self.coeffs = m, coeffs  # length deg Phi_m

    @classmethod
    def scalar(cls, m: int, c) -> "CycloElt":
        deg = len(_cyclotomic_poly(m)) - 1
        return cls(m, (Fraction(c),) + (Fraction(0),) * (deg - 1))

    @classmethod
    def root_power(cls, m: int, e: int) -> "CycloElt":
        """zeta_m ** e."""
        deg = len(_cyclotomic_poly(m)) - 1
        vec = [Fraction(0)] * m
        vec[e % m] = Fraction(1)
        return cls(m, tuple(_reduce(vec, m)[:deg]))

    def _check(self, o: "CycloElt"):
        if self.m != o.m:
            raise RingMismatch("cyclotomic orders differ")

    def __add__(self, o):
        o = _coerce(self.m, o)
        self._check(o)
        return CycloElt(self.m, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    def __sub__(self, o):
        return self + (-_coerce(self.m, o))

    def __neg__(self):
        return CycloElt(self.m, tuple(-a for a in self.coeffs))

    def __mul__(self, o):
        if isinstance(o, (int, Fraction)):
            return CycloElt(self.m, tuple(a * o for a in self.coeffs))
        self._check(o)
        n = len(self.coeffs)
        prod = [Fraction(0)] * (2 * n)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        prod[i + j] += a * b
        return CycloElt(self.m, tuple(_reduce(prod, self.m)[:n]))

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, o):
        if isinstance(o, (int, Fraction)):
            o = CycloElt.scalar(self.m, o)
        if not isinstance(o, CycloElt):
            return NotImplemented
        return self.m == o.m and self.coeffs == o.coeffs


def _reduce(vec: list[Fraction], m: int) -> list[Fraction]:
    phi = _cyclotomic_poly(m)
    deg = len(phi) - 1
    vec = list(vec) + [Fraction(0)] * deg
    for i in range(len(vec) - 1, deg - 1, -1):
        c = vec[i]
        if c:
            vec[i] = Fraction(0)
            for j in range(deg):
                vec[i - deg + j] -= c * phi[j]
    return vec[:deg] + [Fraction(0)] * max(0, deg - len(vec))


def _coerce(m: int, o):
    if isinstance(o, (int, Fraction)):
        return CycloElt.scalar(m, o)
    return o


# -- ring objects ------------------------------------------------------------


def _checked(ring, v, kind):
    if not isinstance(v, kind):
        raise RingMismatch(f"{v!r} is not a {ring.tag} value")
    return v


class RationalRing:
    tag = "qq"

    def zero(self):
        return Fraction(0)

    def is_zero(self, x) -> bool:
        return x == 0

    def coerce(self, x):
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise RingMismatch(f"cannot place {type(x).__name__} in the rational ring")

    def from_knum(self, v, field) -> Fraction:
        if not v.is_rational:
            raise NotRational(f"{v} is not rational")
        return Fraction(v.u)

    def monomial(self, x, d, e, field) -> Fraction:
        """xs^e0 * xb^e1 * d^e2: a rational x has xs = xb."""
        return (self.from_knum(x, field) ** (e[0] + e[1])
                * self.from_knum(d, field) ** e[2])

    def to_json(self, v) -> str:
        return str(_checked(self, v, Fraction))

    def from_json(self, data) -> Fraction:
        return Fraction(_checked(self, data, str))


class PadicRing:
    tag = "zp"

    def __init__(self, p: int, prec: int):
        self.p, self.prec = p, prec
        # one zero per ring: a PadicElt is immutable, so it can be shared
        self._zero = PadicElt.zero(p, prec)

    def zero(self):
        return self._zero

    def is_zero(self, x) -> bool:
        return x.is_zero

    def coerce(self, x):
        if isinstance(x, PadicElt):
            if x.p != self.p:
                raise RingMismatch("wrong residue characteristic")
            return x
        if isinstance(x, (int, Fraction)):
            return PadicElt.from_rational(Fraction(x), p=self.p, prec=self.prec)
        raise RingMismatch(f"cannot place {type(x).__name__} in the p-adic ring")

    def from_knum(self, v, field) -> PadicElt:
        return field.sigma_padic(v)  # at the field's precision

    def monomial(self, x, d, e, field) -> PadicElt:
        """xs^e0 * xb^e1 * d^e2 at the field's precision, every factor
        multiplied in (a power 0 included)."""
        xc = CMElt.embed(x, field)
        return xc.xs ** e[0] * xc.xb ** e[1] * field.sigma_padic(d) ** e[2]

    def to_json(self, v) -> dict:
        v = _checked(self, v, PadicElt)  # val is null for zero
        return {"val": v.val, "unit": v.unit, "prec": v.prec}

    def from_json(self, data) -> PadicElt:
        """The value to_json wrote: an integer val (null for zero), and
        integers 0 <= unit < p^prec (0 for zero) and prec >= 1."""
        if not isinstance(data, dict) or data.keys() != {"val", "unit", "prec"}:
            raise RingMismatch(f"{data!r} is not a {self.tag} value")
        val = data["val"]
        if val is not None:
            val = _json_value(data, "val", int, RingMismatch)
        unit, prec = (_json_value(data, k, int, RingMismatch)
                      for k in ("unit", "prec"))
        for name, v in (("val", val or 0), ("prec", prec)):
            if v > MAX_PRECISION:  # before p^val or p^prec is formed
                raise RingMismatch(f"{name} {v} is above {MAX_PRECISION}")
        if prec < 1 or not 0 <= unit < self.p ** prec or (val is None and unit):
            raise RingMismatch(f"{data!r} is not a {self.tag} value")
        return PadicElt(self.p, val, unit, prec)


class CyclotomicRing:
    tag = "cyclo"

    def __init__(self, m: int):
        self.m = m

    def zero(self):
        return CycloElt.scalar(self.m, 0)

    def root(self, e: int = 1):
        return CycloElt.root_power(self.m, e)

    def is_zero(self, x) -> bool:
        return x.is_zero

    def coerce(self, x):
        if isinstance(x, CycloElt):
            if x.m != self.m:
                raise RingMismatch("cyclotomic orders differ")
            return x
        if isinstance(x, (int, Fraction)):
            return CycloElt.scalar(self.m, x)
        raise RingMismatch(f"cannot place {type(x).__name__} in the cyclotomic ring")

    def from_knum(self, v, field):
        raise RingMismatch(f"the cyclotomic ring does not place field "
                           f"element {v}")

    def monomial(self, x, d, e, field):
        raise RingMismatch("monomials live over the rational or p-adic ring")

    def to_json(self, v):
        raise RingMismatch("cyclotomic values do not serialize")


QQ = RationalRing()
# the serializable rings by tag, each built from a FieldData
RINGS = {RationalRing.tag: lambda field: QQ,
         PadicRing.tag: lambda field: PadicRing(field.p, field.precision)}


def ring_from_tag(tag: str, field):
    if tag not in RINGS:
        raise RingMismatch(f"unknown ring tag {tag!r}")
    return RINGS[tag](field)
