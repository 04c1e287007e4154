"""CM field data, exact quadratic arithmetic, and p-adic embeddings.

The base field is the rationals throughout; the quadratic extension is one
of Q(i), Q(sqrt(-3)) or Q(sqrt(-7)), generated by an algebraic integer w
with w^2 = s*w + t.  In symplectic mode the extension collapses to the
rationals and conjugation is the identity.

An exact element is three integers (a, b, d) standing for (a + b*w)/d, in
lowest terms with d > 0, so all field arithmetic is integer arithmetic
with one shared denominator.

A split odd prime p gives an isomorphism of the p-completed ring of
integers with Z_p x Z_p; the two projections are realised by the two
Hensel-lifted roots of x^2 - s*x - t.  The residue of an element mod p^j
under a root r is computed directly as (a + b*r) * d^-1 mod p^j.  The
roots are known mod p^precision, and an irrational element's embedding
claims no more digits than that gives.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd

from .errors import (
    DenominatorDivisibleByP,
    FieldDataError,
    PrecisionUnavailable,
    ShapeMismatch,
)
from .padic import DEFAULT_PRECISION, MAX_PRECISION, PadicElt, _vp

# discriminant -> (s, t) with w^2 = s*w + t
_OMEGA_PARAMS = {-4: (0, -1), -3: (1, -1), -7: (1, -2)}


class KNum:
    """Exact element (a + b*w)/d of the quadratic field (b = 0 on the rationals).

    a, b and d are integers with d > 0 and gcd(a, b, d) = 1, so each element
    has exactly one representation and equality is equality of the fields.
    Instances are immutable.  ``KNum(a, b, d, s, t)`` reduces its input;
    ``FieldData.K`` builds elements from rational coordinates.
    """

    __slots__ = ("a", "b", "d", "s", "t")

    def __new__(cls, a: int, b: int = 0, d: int = 1, s: int = 0, t: int = 0):
        if d == 0:
            raise ZeroDivisionError("KNum with denominator zero")
        return _reduced(a, b, d, s, t)

    def __setattr__(self, name, value):
        raise AttributeError("KNum is immutable")

    def __delattr__(self, name):
        raise AttributeError("KNum is immutable")

    # -- rational coordinates in the basis (1, w), for cold callers ---------
    @property
    def u(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def v(self) -> Fraction:
        return Fraction(self.b, self.d)

    def _like(self, u, v) -> "KNum":
        return _from_coords(u, v, self.s, self.t)

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, o: "KNum") -> "KNum":
        d, e = self.d, o.d
        if d == e:
            return _reduced(self.a + o.a, self.b + o.b, d, self.s, self.t)
        return _reduced(self.a * e + o.a * d, self.b * e + o.b * d, d * e,
                        self.s, self.t)

    def __sub__(self, o: "KNum") -> "KNum":
        d, e = self.d, o.d
        if d == e:
            return _reduced(self.a - o.a, self.b - o.b, d, self.s, self.t)
        return _reduced(self.a * e - o.a * d, self.b * e - o.b * d, d * e,
                        self.s, self.t)

    def __neg__(self) -> "KNum":
        return _raw(-self.a, -self.b, self.d, self.s, self.t)

    def __mul__(self, o) -> "KNum":
        if type(o) is KNum:
            a, b, c, e = self.a, self.b, o.a, o.b
            return _reduced(a * c + self.t * b * e,
                            a * e + b * c + self.s * b * e,
                            self.d * o.d, self.s, self.t)
        if isinstance(o, (int, Fraction)):
            n, m = o.numerator, o.denominator
            return _reduced(self.a * n, self.b * n, self.d * m, self.s, self.t)
        return NotImplemented

    __rmul__ = __mul__

    def conj(self) -> "KNum":
        # conj(w) = s - w keeps gcd(a, b, d) = 1
        return _raw(self.a + self.s * self.b, -self.b, self.d, self.s, self.t)

    def _norm_num(self) -> int:
        """Numerator of the norm over the denominator d^2."""
        a, b = self.a, self.b
        return a * a + self.s * a * b - self.t * b * b

    def norm(self) -> Fraction:
        return Fraction(self._norm_num(), self.d * self.d)

    def trace(self) -> Fraction:
        return Fraction(2 * self.a + self.s * self.b, self.d)

    def inverse(self) -> "KNum":
        n = self._norm_num()
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        d = self.d
        return _reduced(d * (self.a + self.s * self.b), -d * self.b, n,
                        self.s, self.t)

    def __truediv__(self, o) -> "KNum":
        if isinstance(o, (int, Fraction)):
            n, m = o.numerator, o.denominator
            if n == 0:
                raise ZeroDivisionError("division by zero")
            return _reduced(self.a * m, self.b * m, self.d * n, self.s, self.t)
        return self * o.inverse()

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_integral(self) -> bool:
        return self.d == 1

    def __pow__(self, e: int) -> "KNum":
        if e < 0:
            return self.inverse() ** (-e)
        out = _raw(1, 0, 1, self.s, self.t)
        b = self
        while e:
            if e & 1:
                out = out * b
            b = b * b
            e >>= 1
        return out

    # -- comparison ----------------------------------------------------------
    def __eq__(self, o) -> bool:
        if type(o) is not KNum:
            return NotImplemented
        return (self.a == o.a and self.b == o.b and self.d == o.d
                and self.s == o.s and self.t == o.t)

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.d, self.s, self.t))

    def __repr__(self):
        return f"({self.u}+{self.v}w)"


# The slot setters bypass the immutability guard of __setattr__.
_new = object.__new__
_set_a, _set_b, _set_d, _set_s, _set_t = (
    KNum.__dict__[name].__set__ for name in KNum.__slots__)


def _raw(a: int, b: int, d: int, s: int, t: int) -> KNum:
    """An element from fields already in lowest terms with d > 0."""
    x = _new(KNum)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    _set_s(x, s)
    _set_t(x, t)
    return x


def _reduced(a: int, b: int, d: int, s: int, t: int) -> KNum:
    """(a + b*w)/d in lowest terms; d must be nonzero."""
    if d != 1:
        if d < 0:
            a, b, d = -a, -b, -d
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    return _raw(a, b, d, s, t)


def _from_coords(u, v, s: int, t: int) -> KNum:
    """The element u + v*w from rational coordinates."""
    if type(u) is int and type(v) is int:
        return _raw(u, v, 1, s, t)
    u, v = Fraction(u), Fraction(v)
    du, dv = u.denominator, v.denominator
    # with d = lcm(du, dv) no prime divides all of a, b and d
    d = du * dv // gcd(du, dv)
    return _raw(u.numerator * (d // du), v.numerator * (d // dv), d, s, t)


#: The 13 prime bases up to 41, and the least strong pseudoprime to all of
#: them (Sorenson and Webster, 2015): below it ``_is_prime`` is exact.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_PRIME = 3317044064679887385961981


def _is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, exact for m < MAX_PRIME."""
    if m < 2 or any(m % a == 0 for a in _MR_BASES):
        return m in _MR_BASES
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):  # a strong probable prime meets -1 on the way
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _sqrt_mod(a: int, p: int) -> int:
    """A square root of the nonzero square a mod the odd prime p
    (Tonelli-Shanks)."""
    q, m = p - 1, 0
    while q % 2 == 0:
        q, m = q // 2, m + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:  # a non-square
        z += 1
    c, r, u = pow(z, q, p), pow(a, (q + 1) // 2, p), pow(a, q, p)
    while u != 1:  # u has order 2^i < 2^m
        i, u2 = 1, u * u % p
        while u2 != 1:
            i, u2 = i + 1, u2 * u2 % p
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        r, u = r * b % p, u * c % p
    return r


def _hensel_root(s: int, t: int, p: int, prec: int) -> tuple[int, int]:
    """The two roots of x^2 - s*x - t mod p^prec, smaller residue mod p first."""
    disc = (s * s + 4 * t) % p
    if pow(disc, (p - 1) // 2, p) != 1:  # a zero or non-square discriminant
        raise FieldDataError(f"x^2-{s}x-{t} does not split mod {p}")
    q, half = _sqrt_mod(disc, p), pow(2, -1, p)
    r = min((s + q) * half % p, (s - q) * half % p)
    k = 1
    pk = p
    while k < prec:
        k = min(2 * k, prec)
        pk = p**k
        f = (r * r - s * r - t) % pk
        df = (2 * r - s) % pk
        r = (r - f * pow(df, -1, pk)) % pk
    return r, (s - r) % pk


def _json_value(data, key: str, kind=int, error=ShapeMismatch):
    """data[key], where data must be a JSON object that has the key and the
    value must be of type ``kind`` exactly (an integer is no float, string
    or bool); ``kind=None`` takes any value."""
    if not isinstance(data, dict):
        raise error(f"expected a JSON object with {key}, got {data!r:.60}")
    if key not in data:
        raise error(f"{key} is missing")
    v = data[key]
    if kind is not None and type(v) is not kind:
        raise error(f"{key} {v!r} is not "
                    f"{'an integer' if kind is int else 'a string'}")
    return v


def _json_objects(data, key: str) -> list[dict]:
    """data[key], which must be a JSON list of objects."""
    v = _json_value(data, key, None)
    if not (isinstance(v, list) and all(isinstance(e, dict) for e in v)):
        raise ShapeMismatch(f"{key} is not a list of objects")
    return v


class FieldData:
    """Arithmetic context: prime, discriminant, precision and mode."""

    def __init__(self, p: int, k_disc: int = -4,
                 precision: int = DEFAULT_PRECISION, mode: str = "unitary"):
        if mode not in ("unitary", "symplectic"):
            raise FieldDataError(f"unknown mode {mode!r}")
        if p >= MAX_PRIME:  # before the primality test, exact below it
            raise FieldDataError(f"p = {p} is not below {MAX_PRIME}")
        if not _is_prime(p) or p == 2:
            raise FieldDataError(f"p = {p} is not an odd prime")
        if precision < 1:
            raise FieldDataError("precision must be >= 1")
        if precision > MAX_PRECISION:  # before p^precision is formed
            raise FieldDataError(f"precision {precision} is above "
                                 f"{MAX_PRECISION}")
        self.p, self.precision, self.mode = p, precision, mode
        if mode == "symplectic":
            self.k_disc, self.omega_s, self.omega_t = 1, 0, 0
            self.split_roots = (0, 0)
            return
        if k_disc not in _OMEGA_PARAMS:
            raise FieldDataError(f"unsupported discriminant {k_disc}")
        if k_disc % p == 0:
            raise FieldDataError(f"p = {p} ramifies")
        if pow(k_disc % p, (p - 1) // 2, p) != 1:
            raise FieldDataError(f"p = {p} is not split")
        self.k_disc = k_disc
        self.omega_s, self.omega_t = s, t = _OMEGA_PARAMS[k_disc]
        self.split_roots = _hensel_root(s, t, p, precision)

    # equal contexts share the enumeration and cusp-rule memo entries
    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldData):
            return NotImplemented
        return ((self.p, self.k_disc, self.precision, self.mode)
                == (other.p, other.k_disc, other.precision, other.mode))

    def __hash__(self) -> int:
        return hash((self.p, self.k_disc, self.precision, self.mode))

    @classmethod
    def from_config(cls, source) -> "FieldData":
        """Build from a dict or a JSON config file path; p, k_disc and
        precision must be JSON integers, and a key left out takes the
        constructor's default."""
        if isinstance(source, (str, bytes)):
            with open(source) as fh:
                source = json.load(fh)
        p = _json_value(source, "p", int, FieldDataError)
        given = {key: _json_value(source, key, int, FieldDataError)
                 for key in ("k_disc", "precision") if key in source}
        if "mode" in source:
            given["mode"] = source["mode"]
        return cls(p, **given)

    # -- exact elements ----------------------------------------------------
    def K(self, u, v=0) -> KNum:
        """The element u + v*w from rational coordinates."""
        if self.mode == "symplectic" and v != 0:
            raise FieldDataError("symplectic mode has no imaginary part")
        return _from_coords(u, v, self.omega_s, self.omega_t)

    @property
    def unit_group(self) -> tuple[KNum, ...]:
        """Integral units acting on cosets (totally positive in the split case)."""
        if self.mode == "symplectic":
            return (self.K(1),)
        if self.k_disc == -7:
            return (self.K(1), self.K(-1))
        if self.k_disc == -4:
            return (self.K(1), self.K(-1), self.K(0, 1), self.K(0, -1))
        # disc -3: sixth roots of unity
        return (self.K(1), self.K(-1), self.K(0, 1), self.K(0, -1),
                self.K(1, -1), self.K(-1, 1))

    # -- embeddings ----------------------------------------------------------
    # The split roots are integers known mod p^precision; an element
    # (a + b*w)/d goes to the rational (a + b*r)/d, which must be p-integral.
    def sigma_padic(self, a: KNum) -> PadicElt:
        """First-root embedding of an exact element as a p-adic integer."""
        return self._embed(a, self.split_roots[0])

    def sigma_bar_padic(self, a: KNum) -> PadicElt:
        return self._embed(a, self.split_roots[1])

    def _embed(self, a: KNum, r: int) -> PadicElt:
        num, den = _at_root(a, r)
        x = PadicElt.from_rational(num, den, p=self.p, prec=self.precision)
        if a.b == 0:  # rational: exact
            return x
        known = self._known_digits(a)
        if known < 1:
            raise PrecisionUnavailable(f"{a} is known mod p^{known}")
        return x.with_abs_prec(known)

    def _known_digits(self, a: KNum) -> int:
        """The absolute precision of an irrational element's embedding: the
        root is off by a multiple of p^precision, so (a + b*r)/d is off by
        one of p^(precision + v(b) - v(d))."""
        return self.precision + _vp(a.b, self.p) - _vp(a.d, self.p)

    def sigma_residue(self, a: KNum, j: int) -> int:
        """First-root embedding reduced mod p^j (p-integral input required)."""
        return self._residue(a, self.split_roots[0], j)

    def sigma_bar_residue(self, a: KNum, j: int) -> int:
        return self._residue(a, self.split_roots[1], j)

    def _residue(self, a: KNum, r: int, j: int) -> int:
        if a.d == 1:
            num, den = a.a + a.b * r, 1
        else:
            num, den = _at_root(a, r)
            if den % self.p == 0:
                raise DenominatorDivisibleByP(f"{den} is divisible by {self.p}")
        # known >= precision unless p divides d, so only then is the cap read
        if (a.b and (j > self.precision or a.d % self.p == 0)
                and j > self._known_digits(a)):
            raise PrecisionUnavailable(
                f"{a} is known mod p^{self._known_digits(a)}, asked mod p^{j}")
        pj = self.p ** j
        return num % pj if den == 1 else num * pow(den, -1, pj) % pj


def _at_root(a: KNum, r: int) -> tuple[int, int]:
    """(a + b*r)/d in lowest terms, as numerator and positive denominator."""
    num, den = a.a + a.b * r, a.d
    if den != 1:
        g = gcd(num, den)
        num, den = num // g, den // g
    return num, den


class Weight:
    """Scalar weight k with auxiliary twist exponent nu (one archimedean place)."""

    def __init__(self, k: int, nu: int = 0):
        self.k, self.nu = k, nu

    def __eq__(self, other) -> bool:
        if not isinstance(other, Weight):
            return NotImplemented
        return (self.k, self.nu) == (other.k, other.nu)

    def __hash__(self) -> int:
        return hash((self.k, self.nu))


class CMElt:
    """A completed-field element as its split components xs and xb (first
    and second root); ``PadicRing.monomial`` and ``norm_weight`` read them."""

    __slots__ = ("xs", "xb")

    def __init__(self, xs: PadicElt, xb: PadicElt):
        self.xs, self.xb = xs, xb

    @classmethod
    def embed(cls, a: KNum, field: FieldData) -> "CMElt":
        """Split embedding of an exact p-integral element."""
        return cls(field.sigma_padic(a), field.sigma_bar_padic(a))


def norm_weight(b: CMElt, w: Weight) -> PadicElt:
    """Weight norm: first component to the (k+2*nu) times the pair norm to the (-nu).

    On base-ring units this is the k-th power of the norm.  Non-unit input is
    accepted only when no negative power of a non-unit would be formed.
    """
    e1, e2 = w.k + w.nu, -w.nu
    num = b.xs ** max(e1, 0) * b.xb ** max(e2, 0)
    den = b.xs ** max(-e1, 0) * b.xb ** max(-e2, 0)
    return num / den

