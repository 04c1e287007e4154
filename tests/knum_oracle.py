"""Reference quadratic arithmetic on a pair of Fractions.

This is the straightforward ``u + v*w`` form of the field element, kept as
an oracle for the integer form in ``eismeasure.fields.KNum``.  It is slow
and simple on purpose; nothing in the package uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class OracleKNum:
    """Exact element u + v*w with w^2 = s*w + t (v = 0 on the rationals)."""

    u: Fraction
    v: Fraction
    s: int
    t: int

    def _like(self, u, v) -> "OracleKNum":
        return OracleKNum(Fraction(u), Fraction(v), self.s, self.t)

    def __add__(self, o: "OracleKNum") -> "OracleKNum":
        return self._like(self.u + o.u, self.v + o.v)

    def __sub__(self, o: "OracleKNum") -> "OracleKNum":
        return self._like(self.u - o.u, self.v - o.v)

    def __neg__(self) -> "OracleKNum":
        return self._like(-self.u, -self.v)

    def __mul__(self, o) -> "OracleKNum":
        if isinstance(o, (int, Fraction)):
            return self._like(self.u * o, self.v * o)
        return self._like(self.u * o.u + self.t * self.v * o.v,
                          self.u * o.v + self.v * o.u + self.s * self.v * o.v)

    __rmul__ = __mul__

    def conj(self) -> "OracleKNum":
        return self._like(self.u + self.s * self.v, -self.v)

    def norm(self) -> Fraction:
        n = self * self.conj()
        assert n.v == 0
        return n.u

    def trace(self) -> Fraction:
        return 2 * self.u + self.s * self.v

    def inverse(self) -> "OracleKNum":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.conj() * (1 / n)

    def __truediv__(self, o) -> "OracleKNum":
        if isinstance(o, (int, Fraction)):
            return self._like(self.u / o, self.v / o)
        return self * o.inverse()

    @property
    def is_rational(self) -> bool:
        return self.v == 0

    @property
    def is_zero(self) -> bool:
        return self.u == 0 and self.v == 0

    def is_integral(self) -> bool:
        return self.u.denominator == 1 and self.v.denominator == 1

    def __pow__(self, e: int) -> "OracleKNum":
        if e < 0:
            return self.inverse() ** (-e)
        out = self._like(1, 0)
        b = self
        while e:
            if e & 1:
                out = out * b
            b = b * b
            e >>= 1
        return out
