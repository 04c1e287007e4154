"""Polynomial representation vectors and theta-type operators on expansions.

Polynomials live on the n-by-n matrix space with exact rational
coefficients.  The cyclic span of a vector under integer translations is
closed off breadth-first and kept as its reduced echelon basis; the sum of
that basis, which depends only on the span, is the coefficient multiplier
applied to q-expansions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations

from .errors import SpanNotClosed

Monomial = tuple[int, ...]  # exponents of the n*n matrix entries, row-major


class MatrixPolynomial:
    """Polynomial in the entries of an n-by-n matrix, rational coefficients."""

    def __init__(self, n: int, coeffs: dict):
        self.n, self.coeffs = n, coeffs  # Monomial -> Fraction

    @classmethod
    def variable(cls, n: int, a: int, b: int) -> "MatrixPolynomial":
        mono = [0] * (n * n)
        mono[a * n + b] = 1
        return cls(n, {tuple(mono): Fraction(1)})

    @classmethod
    def constant(cls, n: int, c) -> "MatrixPolynomial":
        return cls(n, {tuple([0] * (n * n)): Fraction(c)})

    def _clean(self) -> "MatrixPolynomial":
        return MatrixPolynomial(
            self.n, {m: c for m, c in self.coeffs.items() if c != 0})

    def __add__(self, o: "MatrixPolynomial") -> "MatrixPolynomial":
        out = dict(self.coeffs)
        for m, c in o.coeffs.items():
            out[m] = out.get(m, Fraction(0)) + c
        return MatrixPolynomial(self.n, out)._clean()

    def __mul__(self, o) -> "MatrixPolynomial":
        if isinstance(o, (int, Fraction)):
            return MatrixPolynomial(
                self.n, {m: c * o for m, c in self.coeffs.items()})._clean()
        out: dict = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in o.coeffs.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return MatrixPolynomial(self.n, out)._clean()

    __rmul__ = __mul__

    def __neg__(self):
        return self * Fraction(-1)

    def __sub__(self, o):
        return self + (-o)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return max((sum(m) for m in self.coeffs), default=0)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.coeffs}
        return len(degs) <= 1

    def substitute_linear(self, forms) -> "MatrixPolynomial":
        """Substitute each entry variable by a linear form (list of coeff dicts).

        ``forms[v]`` maps variable index -> rational coefficient.
        """
        n, nn = self.n, self.n * self.n
        lins = [MatrixPolynomial(n, {
            tuple(1 if i == w else 0 for i in range(nn)): cw
            for w, cw in form.items()}) for form in forms]
        return self._evaluate(lins, MatrixPolynomial.constant(n, 0),
                              lambda c: MatrixPolynomial.constant(n, c))

    def translate_left(self, g) -> "MatrixPolynomial":
        """p(x) -> p(g*x) for an integer matrix g."""
        n = self.n
        forms = [{c * n + b: Fraction(g[a][c]) for c in range(n) if g[a][c]}
                 for a in range(n) for b in range(n)]
        return self.substitute_linear(forms)

    def translate_right(self, g) -> "MatrixPolynomial":
        """p(x) -> p(x*g)."""
        n = self.n
        forms = [{a * n + c: Fraction(g[c][b]) for c in range(n) if g[c][b]}
                 for a in range(n) for b in range(n)]
        return self.substitute_linear(forms)

    def _evaluate(self, flat, zero, scalar):
        """The sum over monomials of scalar(c) times powers of the values
        ``flat`` of the entries, in row-major order, summed into ``zero``."""
        out = zero
        for mono, c in self.coeffs.items():
            term = scalar(c)
            for v, e in enumerate(mono):
                for _ in range(e):
                    term = term * flat[v]
            out = out + term
        return out

    def eval_matrix(self, m, ring):
        """Evaluate at a matrix of ring elements (row-major nested)."""
        return self._evaluate([e for row in m for e in row], ring.zero(),
                              ring.coerce)

    def eval_knum(self, m):
        """Evaluate at a matrix of exact field elements."""
        flat = [e for row in m for e in row]
        return self._evaluate(flat, flat[0]._like(0, 0),
                              lambda c: flat[0]._like(c, 0))

    def __repr__(self):
        return " + ".join(f"{c}*x{m}" for m, c in
                          sorted(self.coeffs.items(), reverse=True)) or "0"


def det_polynomial(n: int, size: int) -> MatrixPolynomial:
    """Leading principal minor of the given size as a polynomial."""
    out = MatrixPolynomial.constant(n, 0)
    for perm in permutations(range(size)):
        sign = _perm_sign(perm)
        term = MatrixPolynomial.constant(n, sign)
        for i, j in enumerate(perm):
            term = term * MatrixPolynomial.variable(n, i, j)
        out = out + term
    return out


def _perm_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


# -- highest weight bookkeeping -------------------------------------------------


class HighestWeight:
    """Nonincreasing nonnegative integer tuple of length n (one place)."""

    def __init__(self, r: tuple[int, ...]):
        if any(a < b for a, b in zip(r, r[1:])):
            raise ValueError("weights must be nonincreasing")
        if any(a < 0 for a in r):
            raise ValueError("weights must be nonnegative")
        self.r = r

    @property
    def n(self) -> int:
        return len(self.r)


def weights_to_exponents(hw: HighestWeight) -> tuple[int, ...]:
    """Successive differences e_j = r_j - r_{j+1}, with e_n = r_n."""
    r = hw.r
    return tuple(r[j] - r[j + 1] for j in range(len(r) - 1)) + (r[-1],)


def highest_weight_vector(hw: HighestWeight) -> MatrixPolynomial:
    """Product of leading minors to the exponent differences."""
    n = hw.n
    out = MatrixPolynomial.constant(n, 1)
    for j, e in enumerate(weights_to_exponents(hw), start=1):
        d = det_polynomial(n, j)
        for _ in range(e):
            out = out * d
    return out


def _poly_mul_linear(poly: list[Fraction], c: Fraction) -> list[Fraction]:
    """Multiply a coefficient list by (s + c)."""
    out = [Fraction(0)] * (len(poly) + 1)
    for i, a in enumerate(poly):
        out[i + 1] += a
        out[i] += a * c
    return out


def psi_z(hw: HighestWeight) -> list[Fraction]:
    """Coefficients (ascending) of prod over h <= n, j <= r_h of (s - j + h)."""
    poly = [Fraction(1)]
    for h in range(1, hw.n + 1):
        for j in range(1, hw.r[h - 1] + 1):
            poly = _poly_mul_linear(poly, Fraction(h - j))
    return poly


# -- cyclic span and the coefficient multiplier ---------------------------------


def _elementary_generators(n: int):
    gens = []
    for a in range(n):
        for b in range(n):
            g = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            g[a][b] += 1
            gens.append(g)
    return gens


def f_zeta(zeta: MatrixPolynomial, max_dim: int | None = None) -> MatrixPolynomial:
    """Sum of the reduced echelon basis of the two-sided translation span of zeta.

    The span is closed under p(x) -> p(g x) and p(x) -> p(x g) for the
    integer generators 1 + E_ab, breadth-first.  It is kept as its reduced
    echelon basis: each element has coefficient 1 at its pivot, its
    lexicographically leading monomial, and 0 at every other pivot.  That
    basis, and so the sum, depends only on the span.
    """
    if zeta.is_zero:
        return zeta
    if not zeta.is_homogeneous():
        raise SpanNotClosed("the seed polynomial must be homogeneous")
    n, d = zeta.n, zeta.degree()
    bound = max_dim or math.comb(n * n + d - 1, d)
    gens = _elementary_generators(n)
    basis: dict[Monomial, MatrixPolynomial] = {}  # pivot -> element

    def insert(p: MatrixPolynomial) -> bool:
        for pivot, b in basis.items():
            c = p.coeffs.get(pivot)
            if c:
                p = p - b * c
        if p.is_zero:
            return False
        lead = max(p.coeffs)
        p = p * (1 / p.coeffs[lead])
        for pivot, b in basis.items():
            c = b.coeffs.get(lead)
            if c:
                basis[pivot] = b - p * c
        basis[lead] = p
        if len(basis) > bound:
            raise SpanNotClosed("span exceeded the dimension bound")
        return True

    insert(zeta)
    frontier = [zeta]
    while frontier:
        new = []
        for p in frontier:
            for g in gens:
                for q in (p.translate_left(g), p.translate_right(g)):
                    if insert(q):
                        new.append(q)
        frontier = new
    out = MatrixPolynomial.constant(n, 0)
    for pivot in sorted(basis, reverse=True):
        out = out + basis[pivot]
    return out


def eval_multiplier(mult: MatrixPolynomial, m: list, field, ring):
    """Evaluate a coefficient multiplier at the matrix with entries m over
    the field, in the ring (summed into its zero: a p-adic value keeps the
    ring's precision)."""
    return ring.zero() + ring.from_knum(mult.eval_knum(m), field)


def theta_apply(qexp, mult: MatrixPolynomial):
    """Multiply each coefficient by the multiplier value at its index."""
    out = {}
    for key, (beta, c) in qexp.terms.items():
        v = eval_multiplier(mult, beta.entries, beta.field, qexp.ring)
        out[key] = (beta, c * v)
    return qexp.replace_terms(out)
