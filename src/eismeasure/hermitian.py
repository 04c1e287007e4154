"""Hermitian matrices over the quadratic order, cusp rules, enumeration.

Matrices are kept exact (entries are KNum).  An index is a plain
``__slots__`` object, like a point (``functions.GnPoint``): its determinant,
its key and the terms of the last cusp rule swept there are stored in slots
on first use.  Only sizes n <= 2 are supported for determinants and
enumeration; that is where the desk-scale expansions live.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable

from .errors import LatticeMismatch, UnsupportedSize
from .fields import FieldData, KNum

Matrix = tuple[tuple[KNum, ...], ...]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, m, r = len(a), len(b), len(b[0])
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(m)),
                           a[0][0]._like(0, 0)) for j in range(r))
                 for i in range(n))


def mat_conj_transpose(a: Matrix) -> Matrix:
    return tuple(tuple(a[j][i].conj() for j in range(len(a)))
                 for i in range(len(a[0])))


def mat_det(a: Matrix) -> KNum:
    n = len(a)
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    raise UnsupportedSize(f"determinant for n = {n} not supported")


def mat_scale(a: Matrix, c) -> Matrix:
    return tuple(tuple(x * c for x in row) for row in a)


def _coord_key(c: int, d: int):
    """The coordinate c/d as an int when integral, else as its Fraction string."""
    if c % d == 0:
        return c // d
    return str(Fraction(c, d))


def _entries_key(entries: Matrix) -> tuple:
    """((u, v) per entry, row-major).

    Integral coordinates appear as ints, the others as Fraction strings.
    """
    return tuple((e.a, e.b) if e.d == 1
                 else (_coord_key(e.a, e.d), _coord_key(e.b, e.d))
                 for row in entries for e in row)


class HermitianMatrix:
    """A Hermitian matrix with exact entries and rational diagonal.

    A plain ``__slots__`` class, compared entrywise and never hashed (its
    ``key()`` is the hashable form).  The exact determinant and the key are
    computed on first use and kept in slots (None until then), so every
    sweep over a memoised enumeration reads them.  So is what the last cusp
    rule swept here gave, ``_rule_terms = [rule, pairs, points, view]``
    (``qexp._rule_terms``): a sweep with another rule replaces it whole.
    """

    __slots__ = ("field", "entries", "_det", "_key", "_rule_terms")

    def __init__(self, field: FieldData, entries: Matrix):
        n = len(entries)
        for i in range(n):
            if not entries[i][i].is_rational:
                raise LatticeMismatch("diagonal entries must be rational")
            for j in range(n):
                if entries[i][j].conj() != entries[j][i]:
                    raise LatticeMismatch("matrix is not Hermitian")
        self.field, self.entries = field, entries
        self._det = self._key = self._rule_terms = None

    @property
    def n(self) -> int:
        return len(self.entries)

    @classmethod
    def from_pairs(cls, field: FieldData, pairs) -> "HermitianMatrix":
        """Build from nested [u, v] coordinate pairs in the basis (1, w)."""
        rows = tuple(tuple(field.K(u, v) for (u, v) in row) for row in pairs)
        return cls(field, rows)

    @property
    def det_exact(self) -> KNum:
        """The determinant as a (rational) field element."""
        if self._det is None:
            self._det = mat_det(self.entries)
        return self._det

    def trace(self) -> Fraction:
        t = sum((self.entries[i][i] for i in range(1, self.n)),
                self.entries[0][0])
        return Fraction(t.a, t.d)  # the diagonal is rational

    def is_integral(self) -> bool:
        return all(e.d == 1 for row in self.entries for e in row)

    def key(self) -> tuple:
        """Canonical hashable form (``_entries_key``), built once."""
        if self._key is None:
            self._key = _entries_key(self.entries)
        return self._key

    def __eq__(self, o):
        if not isinstance(o, HermitianMatrix):
            return NotImplemented
        return self.entries == o.entries

    def __repr__(self):
        return f"Her({self.entries!r})"


@functools.lru_cache(maxsize=16)
def enumerate_positive(field: FieldData, n: int,
                       trace_bound: int) -> tuple[HermitianMatrix, ...]:
    """All positive-definite lattice matrices with trace <= trace_bound.

    Ordered by (trace, canonical entry key).  Sizes n <= 2 only.  The result
    is an immutable tuple, memoised per (field, n, trace_bound): every
    expansion over the same context shares it.
    """
    if n == 1:
        return tuple(HermitianMatrix.from_pairs(field, [[(m, 0)]])
                     for m in range(1, trace_bound + 1))
    if n != 2 or field.mode == "symplectic":
        raise UnsupportedSize(f"no enumeration for n = {n} in {field.mode} mode")
    s, t = field.omega_s, field.omega_t
    disc = s * s + 4 * t  # negative
    out = []
    for a in range(1, trace_bound):
        for c in range(1, trace_bound - a + 1):
            vmax = math.isqrt(4 * a * c // (-disc)) + 1
            umax = math.isqrt(a * c) + abs(s) * vmax + 1
            for v in range(-vmax, vmax + 1):
                for u in range(-umax, umax + 1):
                    # norm(u + v*w) < a*c
                    if u * u + s * u * v - t * v * v < a * c:
                        b = field.K(u, v)
                        m = HermitianMatrix(field, (
                            (field.K(a), b),
                            (b.conj(), field.K(c))))
                        out.append(m)
    out.sort(key=lambda m: (m.trace(), m.key()))
    return tuple(out)


def gl_conjugate_inverse(beta: HermitianMatrix, h: Matrix, lam) -> HermitianMatrix:
    """The index lam * conj(h)^T * beta * h under the Levi element (h, lam):
    where ``qexp.cusp_transform`` moves the coefficient at beta."""
    hct = mat_conj_transpose(h)
    m = mat_mul(mat_mul(hct, beta.entries), h)
    m = mat_scale(m, Fraction(lam))
    return HermitianMatrix(beta.field, m)


class CuspData:
    """A cusp label together with its coefficient-sum rule.

    The rule maps a lattice matrix to a list of (a, multiplicity) pairs,
    where a is an exact field element that is a p-adic unit.  It must be a
    pure function of the matrix: sweeps store its terms with the index, by
    the rule's identity.  Each built-in cusp is made once per argument tuple.
    """

    def __init__(self, label: str, n: int,
                 rule: Callable[[HermitianMatrix], list[tuple[KNum, int]]]):
        self.label, self.n, self.rule = label, n, rule

    @classmethod
    @functools.lru_cache(maxsize=16)
    def single_term(cls, field: FieldData, n: int) -> "CuspData":
        one = field.K(1)

        def rule(beta: HermitianMatrix):
            return [(one, 1)]

        return cls("single", n, rule)

    @classmethod
    @functools.lru_cache(maxsize=16)
    def divisor_rule(cls, field: FieldData) -> "CuspData":
        """Katz-style rank-one rule: positive divisors prime to p, ascending."""
        p = field.p
        ks = {}  # d -> field.K(d), shared by every index's terms

        def rule(beta: HermitianMatrix):
            t = beta.entries[0][0]  # the trace, read as an integer
            if beta.n != 1 or t.d != 1:
                raise LatticeMismatch(
                    f"{beta!r} is not a rank-one index of integral trace")
            m = t.a
            small, large = [], []
            for d in range(1, math.isqrt(m) + 1):
                if m % d == 0:
                    small.append(d)
                    if d * d != m:
                        large.append(m // d)
            return [(ks.get(d) or ks.setdefault(d, field.K(d)), 1)
                    for d in small + large[::-1] if d % p != 0]

        return cls("divisor", 1, rule)
