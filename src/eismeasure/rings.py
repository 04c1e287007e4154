"""Coefficient rings: exact rationals, p-adic integers, cyclotomic rationals.

Mixing rings is an error, never a coercion; plain integers and Fractions
are accepted everywhere as scalars.  A ring places exact field elements
(``from_knum``), gives an expansion term's weight factor
(``weight_factor``) and owns its JSON values; ``RINGS`` maps the tags.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import RingMismatch
from .fields import CMElt, norm_weight
from .padic import PadicElt


def _cyclotomic_poly(m: int) -> list[int]:
    """Coefficients of the m-th cyclotomic polynomial (ascending)."""
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
        deg = len(_phi(m)) - 1
        return cls(m, (Fraction(c),) + (Fraction(0),) * (deg - 1))

    @classmethod
    def root_power(cls, m: int, e: int) -> "CycloElt":
        """zeta_m ** e."""
        deg = len(_phi(m)) - 1
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


_PHI_CACHE: dict[int, list[int]] = {}


def _phi(m: int) -> list[int]:
    if m not in _PHI_CACHE:
        _PHI_CACHE[m] = _cyclotomic_poly(m)
    return _PHI_CACHE[m]


def _reduce(vec: list[Fraction], m: int) -> list[Fraction]:
    phi = _phi(m)
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

    def one(self):
        return Fraction(1)

    def zero(self):
        return Fraction(0)

    def scalar(self, c):
        return Fraction(c)

    def is_zero(self, x) -> bool:
        return x == 0

    def invert(self, x):
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(x)

    def coerce(self, x):
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise RingMismatch(f"cannot place {type(x).__name__} in the rational ring")

    def eq(self, x, y) -> bool:
        return x == y

    def from_knum(self, v, field) -> Fraction:
        if not v.is_rational:
            raise RingMismatch(f"{v} is not rational")
        return Fraction(v.u)

    def weight_factor(self, detb, a, w, n, field) -> Fraction:
        """(det(beta)/a)^k / det(beta)^n, one Fraction of their integers."""
        if not a.is_rational:
            raise RingMismatch(
                "rational coefficients need rational norm arguments")
        dn, dd = detb.a, detb.d
        return Fraction((dn * a.d) ** w.k * dd ** n,
                        (dd * a.a) ** w.k * dn ** n)

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

    def one(self):
        return PadicElt.one(self.p, self.prec)

    def zero(self):
        return self._zero

    def scalar(self, c):
        return PadicElt.from_rational(Fraction(c), p=self.p, prec=self.prec)

    def is_zero(self, x) -> bool:
        return x.is_zero

    def invert(self, x):
        return x.invert()

    def coerce(self, x):
        if isinstance(x, PadicElt):
            if x.p != self.p:
                raise RingMismatch("wrong residue characteristic")
            return x
        if isinstance(x, (int, Fraction)):
            return self.scalar(x)
        raise RingMismatch(f"cannot place {type(x).__name__} in the p-adic ring")

    def eq(self, x, y) -> bool:
        return x == y

    def from_knum(self, v, field) -> PadicElt:
        return field.sigma_padic(v)  # at the field's precision

    def weight_factor(self, detb, a, w, n, field) -> PadicElt:
        """N_w(det(beta)/a) / det(beta)^n, at the field's precision."""
        bc = CMElt.embed(detb * a.inverse(), field)
        num = norm_weight(bc, w)
        den = PadicElt.from_rational(detb.a, detb.d, p=field.p,
                                     prec=field.precision) ** n
        return self.coerce(num / den)

    def to_json(self, v) -> dict:
        v = _checked(self, v, PadicElt)  # val is null for zero
        return {"val": v.val, "unit": v.unit, "prec": v.prec}

    def from_json(self, data) -> PadicElt:
        if not isinstance(data, dict) or data.keys() != {"val", "unit", "prec"}:
            raise RingMismatch(f"{data!r} is not a {self.tag} value")
        return PadicElt(self.p, data["val"], data["unit"], data["prec"])


class CyclotomicRing:
    tag = "cyclo"

    def __init__(self, m: int):
        self.m = m

    def one(self):
        return CycloElt.scalar(self.m, 1)

    def zero(self):
        return CycloElt.scalar(self.m, 0)

    def scalar(self, c):
        return CycloElt.scalar(self.m, c)

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
            return self.scalar(x)
        raise RingMismatch(f"cannot place {type(x).__name__} in the cyclotomic ring")

    def eq(self, x, y) -> bool:
        return self.coerce(x) == self.coerce(y)


QQ = RationalRing()
# the serializable rings by tag, each built from a FieldData
RINGS = {RationalRing.tag: lambda field: QQ,
         PadicRing.tag: lambda field: PadicRing(field.p, field.precision)}


def ring_from_tag(tag: str, field):
    if tag not in RINGS:
        raise RingMismatch(f"unknown ring tag {tag!r}")
    return RINGS[tag](field)
