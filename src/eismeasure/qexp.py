"""q-expansions indexed by positive-definite lattice matrices.

The coefficient of an expansion at index beta is a finite sum over the
cusp rule: multiplicity times the coefficient function at the point
(a, relnorm(a)^-1 * beta), times the weight norm of a^-1 * det(beta),
times det(beta)^-n.  Everything downstream (integration against the
measure, moments, congruence checks) goes through one sweep,
``_expansions``, which builds each cusp-rule point once and evaluates
every expansion of the same context there.  A point is built from integers
and decides its unit and invertibility tests once; a rational coefficient
is summed from the functions' integer (num, den) values into one Fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import singledispatch

from .errors import (
    EquivarianceViolation,
    LatticeMismatch,
    RingMismatch,
    ShapeMismatch,
)
from .fields import CMElt, FieldData, KNum, Weight, norm_weight
from .functions import (
    GnFunction,
    GnPoint,
    _congruent,
    check_equivariance,
    evaluate,
)
from .hermitian import (
    CuspData,
    HermitianMatrix,
    Matrix,
    enumerate_positive,
    gl_conjugate_inverse,
    mat_det,
)
from .padic import PadicElt
from .rings import RationalRing, ring_from_tag


@dataclass(frozen=True, eq=False)
class QExpansion:
    """Finitely many exact coefficients of an expansion at one cusp."""

    field: FieldData
    n: int
    weight: Weight
    cusp_label: str
    trace_bound: int
    ring: object
    terms: dict  # beta key -> (HermitianMatrix, coefficient)

    def coeff(self, beta: HermitianMatrix):
        """The coefficient at beta; 0 at an index within the trace bound
        that has no term.  An index above the bound was never computed."""
        entry = self.terms.get(beta.key())
        if entry is not None:
            return entry[1]
        if beta.trace() > self.trace_bound:
            raise ShapeMismatch(f"index of trace {beta.trace()} is above the "
                                f"trace bound {self.trace_bound}")
        return self.ring.zero()

    def coeff_by_trace(self, m: int):
        """Rank-one convenience accessor: the coefficient at the 1x1 index m."""
        if self.n != 1:
            raise ShapeMismatch("trace lookup is a rank-one convenience")
        beta = HermitianMatrix.from_pairs(self.field, [[(m, 0)]])
        return self.coeff(beta)

    def replace_terms(self, terms: dict) -> "QExpansion":
        return QExpansion(self.field, self.n, self.weight, self.cusp_label,
                          self.trace_bound, self.ring, terms)

    def _compatible(self, other: "QExpansion"):
        if (self.n != other.n or self.cusp_label != other.cusp_label
                or self.terms.keys() != other.terms.keys()):
            raise ShapeMismatch("expansions are not comparable")

    def __add__(self, other: "QExpansion") -> "QExpansion":
        self._compatible(other)
        out = {k: (b, c + other.terms[k][1]) for k, (b, c) in self.terms.items()}
        return self.replace_terms(out)

    def __eq__(self, other):
        if not isinstance(other, QExpansion):
            return NotImplemented
        if self.terms.keys() != other.terms.keys():
            return False
        return all(self.ring.eq(c, other.terms[k][1])
                   for k, (_, c) in self.terms.items())

    def congruent_mod(self, other: "QExpansion", j: int,
                      skip_p_divisible_trace: bool = False):
        """Coefficientwise congruence mod p^j; returns (ok, witness key)."""
        self._compatible(other)
        p = self.field.p
        for k, (beta, c) in sorted(self.terms.items()):
            if skip_p_divisible_trace and int(beta.trace()) % p == 0:
                continue
            if not _congruent(c, other.terms[k][1], p, j):
                return False, k
        return True, None

    # -- serialization ------------------------------------------------------
    def to_json(self) -> dict:
        terms = []
        for k, (beta, c) in sorted(self.terms.items()):
            terms.append({"beta": [[[int(e.u), int(e.v)] for e in row]
                                   for row in beta.entries],
                          "coeff": self.ring.to_json(c)})
        return {"cusp": self.cusp_label, "p": self.field.p, "n": self.n,
                "weight": [self.weight.k, self.weight.nu],
                "ring": self.ring.tag,
                "precision": self.field.precision,
                "trace_bound": self.trace_bound, "terms": terms}

    @classmethod
    def from_json(cls, data: dict, field: FieldData) -> "QExpansion":
        ring = ring_from_tag(data["ring"], field)
        terms = {}
        for t in data["terms"]:
            beta = HermitianMatrix.from_pairs(field, t["beta"])
            terms[beta.key()] = (beta, ring.from_json(t["coeff"]))
        return cls(field, int(data["n"]),
                   Weight(*data.get("weight", [int(data["n"]), 0])),
                   data["cusp"], int(data["trace_bound"]), ring, terms)


def _rule_point(field: FieldData, a, beta: HermitianMatrix) -> GnPoint:
    """The point (a, relnorm(a)^-1 * beta); relnorm(a) = nn/nd, unreduced.

    At norm 1 y is beta itself, and the point takes beta's stored det."""
    nn, nd = ((a.a, a.d) if field.mode == "symplectic"
              else (a._norm_num(), a.d * a.d))
    if nn == nd:
        return GnPoint(field, beta.n, a, beta.entries,
                       det_y_exact=beta.det_exact)
    y = tuple([tuple([KNum(e.a * nd, e.b * nd, e.d * nn, e.s, e.t)
                      for e in row]) for row in beta.entries])
    return GnPoint(field, len(y), a, y)


def _sample_points(field: FieldData, cusp: CuspData, betas, count: int = 4):
    return [_rule_point(field, a, beta)
            for beta in betas[:count] for a, _ in cusp.rule(beta)[:2]]


def eisenstein_qexp(f: GnFunction, w: Weight, cusp: CuspData,
                    trace_bound: int, field: FieldData,
                    precision: int | None = None,
                    validate: bool = True) -> QExpansion:
    """Expansion of weight (k, nu) attached to an equivariant coefficient function."""
    return _expansions([(f, w)], cusp, trace_bound, field, precision,
                       validate)[0]


def _expansions(jobs, cusp: CuspData, trace_bound: int, field: FieldData,
                precision: int | None = None,
                validate: bool = True) -> list[QExpansion]:
    """The expansions of several (f, w) jobs over one context, in one sweep.

    The indices are enumerated once; at each index the cusp rule runs once
    and each of its points is built once, then every job evaluates its
    function there.  A job's terms are summed in cusp-rule order whatever
    the other jobs are, so each expansion equals the one computed alone.
    The accumulator is the sweep's one per-ring algorithm, dispatched on
    the ring's type (``_ring_coefficient``): the rational ring sums the
    unreduced (num, den) pairs of ``rational_pair``, any other ring sums
    term by term; all else about a ring is the ring's own (``rings.py``).
    """
    n = cusp.n
    for _, w in jobs:
        if w.k < n:
            raise ValueError(f"weight {w.k} below the rank {n}")
    betas = enumerate_positive(field, n, trace_bound)
    if validate:
        pts = _sample_points(field, cusp, betas)
        for f, w in jobs:
            report = check_equivariance(f, w, pts, j=precision)
            if not report.passed:
                raise EquivarianceViolation(
                    "coefficient function fails unit equivariance at "
                    f"{report.witness_text()}")
    coefficient = [_ring_coefficient.dispatch(type(f.ring)) for f, _ in jobs]
    terms = [{} for _ in jobs]
    for beta in betas:
        key, detb = beta.key(), beta.det_exact
        points = [(a, mult, _rule_point(field, a, beta))
                  for a, mult in cusp.rule(beta)]
        for (f, w), coeff, out in zip(jobs, coefficient, terms):
            out[key] = (beta, coeff(f.ring, f, w, n, detb, points, field,
                                    precision))
    return [QExpansion(field, n, w, cusp.label, trace_bound, f.ring, t)
            for (f, w), t in zip(jobs, terms)]


@singledispatch
def _ring_coefficient(ring, f, w, n, detb, points, field, precision):
    """The coefficient in the function's (p-adic) ring, term by term."""
    c = ring.zero()
    for a, mult, pt in points:
        fval = evaluate(f, pt, precision)
        if ring.is_zero(fval):
            continue
        bc = CMElt.embed(detb * a.inverse(), field)
        num = norm_weight(bc, w)
        den = PadicElt.from_rational(detb.a, detb.d, p=field.p,
                                     prec=field.precision) ** n
        factor = num / den
        c = c + ring.coerce(mult) * fval * ring.coerce(factor)
    return c


@_ring_coefficient.register
def _qq_coefficient(ring: RationalRing, f, w, n, detb, points, field,
                    precision) -> Fraction:
    """The rational coefficient, summed as one integer fraction from the
    function's unreduced (num, den) values."""
    dn, dd = detb.a, detb.d  # det(beta) is rational
    num, den = 0, 1
    pair = f.rational_pair
    for a, mult, pt in points:
        fn, fd = pair(pt, precision)
        if fn == 0:
            continue
        # b = det(beta)/a is rational exactly when a is
        if not a.is_rational:
            raise RingMismatch(
                "rational coefficients need rational norm arguments")
        # mult * f(pt) * b^k / det(beta)^n
        tn = mult * fn * (dn * a.d) ** w.k * dd ** n
        td = fd * (dd * a.a) ** w.k * dn ** n
        g = math.gcd(den, td)
        num, den = num * (td // g) + tn * (den // g), den // g * td
    return Fraction(num, den)


# -- cusp change ---------------------------------------------------------------


@dataclass(frozen=True)
class ChiData:
    """Exact scalar prefactor with tracked powers of lambda and det(h)."""

    scalar: Fraction = Fraction(1)
    lam_power: int = 0
    det_h_norm_power: int = 0

    def prefactor(self, h: Matrix, lam) -> Fraction:
        dh = mat_det(h)
        return (self.scalar * Fraction(lam) ** self.lam_power
                * dh.norm() ** self.det_h_norm_power)

    def compose(self, other: "ChiData") -> "ChiData":
        return ChiData(self.scalar * other.scalar,
                       self.lam_power + other.lam_power,
                       self.det_h_norm_power + other.det_h_norm_power)


def cusp_transform(q: QExpansion, h: Matrix, lam,
                   chi_data: ChiData | None = None) -> QExpansion:
    """Re-index an expansion under the Levi element built from (h, lam).

    The new coefficient at beta is the prefactor times the old coefficient
    at lam^-1 * conj(h)^-T * beta * h^-1; equivalently the old coefficient
    at gamma moves to lam * conj(h)^T * gamma * h.  The image indices need
    not be every index up to any trace, so the result keeps the source's
    trace bound: its terms are the images of the source indices of trace
    at most that bound.  A singular h or lam = 0 is rejected, because it
    would merge distinct indices.
    """
    if mat_det(h).is_zero or lam == 0:
        raise LatticeMismatch("the Levi element (h, lam) is singular")
    chi_data = chi_data or ChiData()
    pre = q.ring.coerce(chi_data.prefactor(h, lam))
    terms = {}
    for _, (gamma, c) in q.terms.items():
        beta = gl_conjugate_inverse(gamma, h, lam)
        if not beta.is_integral():
            raise LatticeMismatch(
                "transformed index leaves the representable lattice")
        if beta.trace().denominator != 1:
            raise LatticeMismatch("transformed index has fractional trace")
        terms[beta.key()] = (beta, pre * c)
    return QExpansion(q.field, q.n, q.weight,
                      f"{q.cusp_label}*levi", q.trace_bound, q.ring, terms)


# -- normalization bookkeeping ---------------------------------------------------


@dataclass(frozen=True)
class NormalizationConstant:
    """Exact bookkeeping of the scalar in front of an expansion.

    Transcendental and unknown pieces stay symbolic: powers of i, 2 and pi
    are integer exponents per place, Gamma values are exact factorials, and
    p-stabilized L-values are opaque tokens that enter inversely.
    """

    rational_part: Fraction
    two_power: int  # all powers of 2, including the 2-part of (2*pi)^(nk)
    i_power: int
    two_pi_power: int  # recorded exponent of (2*pi); informational
    pi_power: int  # net power of pi
    gamma_factorials: tuple[int, ...]
    disc_powers: tuple  # symbolic leftovers: (base, Fraction exponent)
    lvalue_tokens: tuple[str, ...]
    euler_polynomials: dict


def leading_constant(field: FieldData, n: int) -> tuple[Fraction, int, tuple]:
    """2^(n(n-1)/2) * |disc_K|^(-n(n-1)/4) with |disc_E| = 1, folded when exact."""
    two = n * (n - 1) // 2
    rat = Fraction(1)
    disc = ()
    if field.mode == "unitary":
        base = abs(field.k_disc)
        exp = Fraction(-n * (n - 1), 4)
        rat, disc = _fold_power(base, exp)
    return rat, two, disc


def _fold_power(base: int, exp: Fraction) -> tuple[Fraction, tuple]:
    if exp == 0:
        return Fraction(1), ()
    if exp.denominator == 1:
        return Fraction(base) ** int(exp), ()
    if exp.denominator == 2:
        r = math.isqrt(base)
        if r * r == base:
            return Fraction(r) ** int(2 * exp), ()
    return Fraction(1), ((base, exp),)


def normalization_constant(field: FieldData, n: int, k: int,
                           b_norm: int = 1,
                           euler_polynomials: dict | None = None) -> NormalizationConstant:
    """Assemble the full normalization in front of a weight-k expansion."""
    if k < n:
        raise ValueError("weight below rank")
    rat, two, disc = leading_constant(field, n)
    rat *= Fraction(1, b_norm ** (n * n))
    # archimedean factor, one real place
    two += (1 - n) * n + n * k
    i_power = (-n * k) % 4
    gammas = tuple(math.factorial(k - t - 1) for t in range(n))
    tokens = tuple(f"L^p({k - i}, chi_E^-1 tau^{i})" for i in range(n))
    euler = dict(euler_polynomials or {})
    for key, coeffs in euler.items():
        if not coeffs or coeffs[0] != 1 or any(not isinstance(c, int) for c in coeffs):
            raise ValueError(f"Euler polynomial {key} must be integral with"
                             " constant term 1")
    return NormalizationConstant(
        rational_part=rat, two_power=two, i_power=i_power,
        two_pi_power=n * k, pi_power=n * k - n * (n - 1) // 2,
        gamma_factorials=gammas, disc_powers=disc,
        lvalue_tokens=tokens, euler_polynomials=euler)
