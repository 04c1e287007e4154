"""Fixed-precision p-adic integers.

An element is stored as p^val * (unit + O(p^prec)) with 0 <= unit < p^prec
and p not dividing unit.  Zero at a finite absolute precision is its own
state.  All arithmetic propagates the minimum precision of its inputs and
raises instead of silently producing negative valuations.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    DenominatorDivisibleByP,
    NegativeValuationResult,
    NotAUnit,
    PrecisionUnavailable,
    ZeroDenominator,
)

DEFAULT_PRECISION = 24
#: The largest precision or level that a reader or a field accepts.
MAX_PRECISION = 1000


def _vp(m, p: int) -> int:
    """p-adic valuation of a nonzero integer or Fraction."""
    if m == 0:
        raise ZeroDivisionError("valuation of zero")
    if isinstance(m, Fraction):
        return _vp(m.numerator, p) - _vp(m.denominator, p)
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


class PadicElt:
    """A p-adic integer known to finite precision."""

    # val is None for zero at precision; prec is the unit's relative precision
    __slots__ = ("p", "val", "unit", "prec")

    def __init__(self, p: int, val: int | None, unit: int, prec: int):
        if prec < 1:
            raise PrecisionUnavailable("relative precision must be >= 1")
        if val is None:
            unit = 0
        else:
            if val < 0:
                raise NegativeValuationResult(f"valuation {val} < 0")
            unit %= p**prec
            if unit % p == 0:
                raise NotAUnit("unit part divisible by p")
        self.p, self.val, self.unit, self.prec = p, val, unit, prec

    # -- constructors ----------------------------------------------------
    @classmethod
    def from_int(cls, m: int, p: int, prec: int = DEFAULT_PRECISION) -> "PadicElt":
        if m == 0:
            return cls.zero(p, prec)
        v = _vp(m, p)
        return cls(p, v, (m // p**v) % p**prec, prec)

    @classmethod
    def from_rational(cls, num, den=None, p: int = None, prec: int = DEFAULT_PRECISION) -> "PadicElt":
        """Embed num/den, rejecting denominators divisible by p."""
        if isinstance(num, Fraction) and den is None:
            num, den = num.numerator, num.denominator
        if den == 0:
            raise ZeroDenominator("denominator is zero")
        if den % p == 0:
            raise DenominatorDivisibleByP(f"{den} is divisible by {p}")
        if num == 0:
            return cls.zero(p, prec)
        v = _vp(num, p)
        u = (num // p**v) * pow(den, -1, p**prec) % p**prec
        return cls(p, v, u, prec)

    @classmethod
    def zero(cls, p: int, prec: int = DEFAULT_PRECISION) -> "PadicElt":
        return cls(p, None, 0, prec)

    @classmethod
    def one(cls, p: int, prec: int = DEFAULT_PRECISION) -> "PadicElt":
        return cls(p, 0, 1, prec)

    # -- predicates -------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return self.val is None

    @property
    def is_unit(self) -> bool:
        return self.val == 0

    @property
    def abs_prec(self) -> int:
        """Absolute precision: the element is known mod p^abs_prec."""
        return self.prec if self.val is None else self.val + self.prec

    # -- conversions ------------------------------------------------------
    def lift(self, j: int | None = None) -> int:
        """Integer representative mod p^j (default: full absolute precision)."""
        if j is None:
            j = self.abs_prec
        if j > self.abs_prec:
            raise PrecisionUnavailable(f"known mod p^{self.abs_prec}, asked mod p^{j}")
        if self.val is None:
            return 0
        return self.p**self.val * self.unit % self.p**j

    # -- arithmetic ---------------------------------------------------------
    def _check(self, other: "PadicElt"):
        if self.p != other.p:
            raise ValueError("mixed primes")

    def __add__(self, other: "PadicElt") -> "PadicElt":
        self._check(other)
        ap = min(self.abs_prec, other.abs_prec)
        m = (self.lift(ap) + other.lift(ap)) % self.p**ap
        if m == 0:
            return PadicElt.zero(self.p, ap)
        v = _vp(m, self.p)  # below ap, as 0 < m < p^ap
        return PadicElt(self.p, v, m // self.p**v, ap - v)

    def __neg__(self) -> "PadicElt":
        if self.is_zero:
            return self
        return PadicElt(self.p, self.val, -self.unit % self.p**self.prec, self.prec)

    def __sub__(self, other: "PadicElt") -> "PadicElt":
        return self + (-other)

    def __mul__(self, other: "PadicElt") -> "PadicElt":
        self._check(other)
        if self.is_zero or other.is_zero:
            # absolute precision of a product with zero-at-precision
            v = 0 if self.val is None else self.val
            w = 0 if other.val is None else other.val
            ap = min(self.abs_prec + w, other.abs_prec + v)
            return PadicElt.zero(self.p, ap)
        prec = min(self.prec, other.prec)
        return PadicElt(self.p, self.val + other.val,
                        self.unit * other.unit % self.p**prec, prec)

    def invert(self) -> "PadicElt":
        if not self.is_unit:
            raise NotAUnit("cannot invert a non-unit")
        return PadicElt(self.p, 0, pow(self.unit, -1, self.p**self.prec), self.prec)

    def __truediv__(self, other: "PadicElt") -> "PadicElt":
        self._check(other)
        if other.is_zero:
            raise ZeroDenominator("division by zero-at-precision")
        if other.is_unit:
            return self * other.invert()
        if self.is_zero:
            if self.abs_prec - other.val < 1:
                raise PrecisionUnavailable("quotient precision exhausted")
            return PadicElt.zero(self.p, self.abs_prec - other.val)
        if self.val < other.val:
            raise NegativeValuationResult(
                f"valuation {self.val} - {other.val} < 0")
        prec = min(self.prec, other.prec)
        u = self.unit * pow(other.unit, -1, self.p**prec) % self.p**prec
        return PadicElt(self.p, self.val - other.val, u, prec)

    def __pow__(self, e: int) -> "PadicElt":
        if e < 0:
            return self.invert() ** (-e)
        if self.is_zero:
            return PadicElt.one(self.p, self.prec) if e == 0 else self
        if e == 0:
            return PadicElt.one(self.p, self.prec)
        return PadicElt(self.p, self.val * e,
                        pow(self.unit, e, self.p**self.prec), self.prec)

    # -- comparison ---------------------------------------------------------
    def __eq__(self, other) -> bool:
        """Equality at the minimum common absolute precision."""
        if not isinstance(other, PadicElt):
            return NotImplemented
        self._check(other)
        ap = min(self.abs_prec, other.abs_prec)
        return (self.lift(ap) - other.lift(ap)) % self.p**ap == 0

    def congruent_mod(self, other: "PadicElt", j: int) -> bool:
        """Are self and other congruent mod p^j?  Raises if not enough precision."""
        self._check(other)
        return (self.lift(j) - other.lift(j)) % self.p**j == 0

    def with_abs_prec(self, j: int) -> "PadicElt":
        """Truncate to absolute precision j (never extend)."""
        if j >= self.abs_prec:
            return self
        if self.val is None or self.val >= j:
            return PadicElt.zero(self.p, j)
        return PadicElt(self.p, self.val, self.unit % self.p**(j - self.val),
                        j - self.val)

    def __repr__(self):
        if self.is_zero:
            return f"O({self.p}^{self.prec})"
        return f"{self.p}^{self.val}*{self.unit} + O({self.p}^{self.abs_prec})"
