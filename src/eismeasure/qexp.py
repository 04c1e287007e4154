"""q-expansions indexed by positive-definite lattice matrices.

The coefficient of an expansion at index beta is a finite sum over the
cusp rule: multiplicity times the coefficient function at the point
(a, relnorm(a)^-1 * beta), times the weight norm of a^-1 * det(beta),
times det(beta)^-n.  Everything downstream (integration against the
measure, moments, congruence checks) goes through one sweep,
``_expansions``, which evaluates every expansion of the same context at
each cusp-rule point.  A memoised index stores the terms (multiplicities
and points) of the rule last swept there, so the rule runs and each point
is built once per enumeration and rule.  A point is built from integers
and decides its unit and invertibility tests, coset keys and unit
translates once.  A rational monomial's coefficient is a power sum of x
over the points, reduced once (``_power_sum``).  It reads the index's
stored view, (mult, a, d, y invertible) per point with x = a/d a rational
unit, and each x-power from a table kept for one sweep.  Any other
coefficient is summed term by term in its ring (``ring.weight_factor``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial

from .errors import (
    EisMeasureError,
    EquivarianceViolation,
    LatticeMismatch,
    RingMismatch,
    ShapeMismatch,
)
from .fields import FieldData, KNum, Weight
from .functions import (
    GnFunction,
    GnPoint,
    MonomialFunction,
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
from .rings import PadicRing, RationalRing, ring_from_tag


class QExpansion:
    """Finitely many exact coefficients of an expansion at one cusp."""

    def __init__(self, field: FieldData, n: int, weight: Weight,
                 cusp_label: str, trace_bound: int, ring, terms: dict):
        self.field, self.n, self.weight = field, n, weight
        self.cusp_label, self.trace_bound, self.ring = cusp_label, trace_bound, ring
        self.terms = terms  # beta key -> (HermitianMatrix, coefficient)

    def coeff(self, beta: HermitianMatrix):
        """The coefficient at beta; 0 at an index within the trace bound
        that has no term, but a ``cusp_transform`` image (``*levi``) covers
        only its terms.  An index above the bound was never computed."""
        entry = self.terms.get(beta.key())
        if entry is not None:
            return entry[1]
        if beta.trace() > self.trace_bound:
            raise ShapeMismatch(f"index of trace {beta.trace()} is above the "
                                f"trace bound {self.trace_bound}")
        if self.cusp_label.endswith("*levi"):
            raise ShapeMismatch(f"index of trace {beta.trace()} is outside "
                                "the image of the cusp change")
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
        if type(self.ring) is not type(other.ring):
            raise RingMismatch(f"expansions over {self.ring.tag} and "
                               f"{other.ring.tag} are not comparable")
        if (self.n != other.n or self.cusp_label != other.cusp_label
                or self.terms.keys() != other.terms.keys()):
            raise ShapeMismatch("expansions are not comparable")

    def __add__(self, other: "QExpansion") -> "QExpansion":
        self._compatible(other)
        if (w := self.weight) != (w2 := other.weight):
            raise ShapeMismatch(f"expansions of weights {w.k, w.nu} and "
                                f"{w2.k, w2.nu} do not add")
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
        n = int(data["n"])
        terms = {}
        for t in data["terms"]:
            pairs = t["beta"]
            if len(pairs) != n or any(len(row) != n for row in pairs):
                raise ShapeMismatch(f"index {pairs} is not {n} x {n}")
            beta = HermitianMatrix.from_pairs(field, pairs)
            terms[beta.key()] = (beta, ring.from_json(t["coeff"]))
        return cls(field, n, Weight(*data.get("weight", [n, 0])),
                   data["cusp"], int(data["trace_bound"]), ring, terms)


def _rule_point(field: FieldData, a, beta: HermitianMatrix,
                ys: dict | None = None) -> GnPoint:
    """The point (a, relnorm(a)^-1 * beta); relnorm(a) = nn/nd, unreduced.

    At norm 1 y is beta itself, with its stored det; at rank one an integral
    y is shared through ``ys`` (if given), keyed by its value."""
    nn, nd = ((a.a, a.d) if field.mode == "symplectic"
              else (a._norm_num(), a.d * a.d))
    if nn == nd:
        return GnPoint(field, beta.n, a, beta.entries,
                       det_y_exact=beta.det_exact)
    e = beta.entries[0][0]
    if ys is not None and beta.n == 1 and nn and e.a * nd % (e.d * nn) == 0:
        q = e.a * nd // (e.d * nn)
        y = ys.get(q) or ys.setdefault(q, ((KNum(q, 0, 1, e.s, e.t),),))
        return GnPoint(field, 1, a, y)
    y = tuple([tuple([KNum(e.a * nd, e.b * nd, e.d * nn, e.s, e.t)
                      for e in row]) for row in beta.entries])
    return GnPoint(field, len(y), a, y)


def _rule_terms(field: FieldData, rule, beta: HermitianMatrix, ys):
    """(rule, mults, points) at beta, stored on beta for the last rule swept
    there: a later sweep with that rule runs no rule and builds no point (a
    point's x is its a).  Nothing is stored if the rule or a point raises."""
    terms = beta._rule_terms
    if terms is None or terms[0] is not rule:
        pairs = rule(beta)
        terms = (rule, tuple([mult for _, mult in pairs]),
                 tuple([_rule_point(field, a, beta, ys) for a, _ in pairs]))
        beta._rule_terms, beta._power_view = terms, None
    return terms


def _sample_points(field: FieldData, cusp: CuspData, betas, count: int = 4):
    return [pt for beta in betas[:count]
            for pt in _rule_terms(field, cusp.rule, beta, None)[2][:2]]


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

    The indices are enumerated once; at each index the rule's stored points
    are read (``_rule_terms`` builds them once), then every job evaluates
    its function there.  A job's terms are summed in cusp-rule order whatever
    the other jobs are, so each expansion equals the one computed alone.
    Each job's accumulator is chosen once (``_job_coefficient``): a rational
    monomial sums x-powers (``_power_sum``), any other job its terms, each
    weighted by ``ring.weight_factor``; a ring without one (cyclotomic) is
    rejected before the sweep.
    """
    n = cusp.n
    for f, w in jobs:
        if f.n != n:
            raise ShapeMismatch(f"a rank-{f.n} function at a rank-{n} cusp")
        if w.k < n:
            raise ValueError(f"weight {w.k} below the rank {n}")
        if not isinstance(f.ring, (RationalRing, PadicRing)):
            raise RingMismatch("expansions need rational or p-adic "
                               f"coefficients, not {f.ring.tag}")
    betas = enumerate_positive(field, n, trace_bound)
    if validate:
        pts = _sample_points(field, cusp, betas)
        for f, w in jobs:
            report = check_equivariance(f, w, pts, j=precision)
            if not report.passed:
                raise EquivarianceViolation(
                    "coefficient function fails unit equivariance at "
                    f"{report.witness_text()}")
    coefficient = [_job_coefficient(f, w, n, field, precision) for f, w in jobs]
    terms = [{} for _ in jobs]
    rule, ys = cusp.rule, {}
    for beta in betas:
        key = beta.key()
        _, mults, points = _rule_terms(field, rule, beta, ys)
        for coeff, out in zip(coefficient, terms):
            out[key] = (beta, coeff(beta, mults, points))
    return [QExpansion(field, n, w, cusp.label, trace_bound, f.ring, t)
            for (f, w), t in zip(jobs, terms)]


def _job_coefficient(f, w, n, field, precision):
    """The job's accumulator, (beta, mults, points) -> coefficient."""
    by_term = partial(_ring_coefficient, f, w, n, field, precision)
    if not (isinstance(f.ring, RationalRing) and isinstance(f, MonomialFunction)
            and isinstance(f.coef, (int, Fraction))):  # else evaluate raises
        return by_term
    r = 1 if field.mode == "symplectic" else 2  # relnorm(x) = x^r
    return partial(_power_sum, f, f.e_xs + f.e_xb - r * n * f.e_det - w.k,
                   f.e_det + w.k - n, {}, by_term)


def _power_sum(f, e, dexp, powers, by_term, beta, mults, points) -> Fraction:
    """coef * det(beta)^dexp * the sum of mult * x^e over beta's view (y
    invertible, if the monomial asks), each x^e from the sweep's ``powers``:
    at (x, x^-r * beta) det(y) = det(beta) * x^-rn, so this sums mult * f(pt)
    * (det(beta)/x)^k / det(beta)^n.  Unless each x is a rational unit the
    view is False (not stored, if a test raises) and ``by_term`` sums f(pt)."""
    if (view := beta._power_view) is None:
        try:
            view = beta._power_view = (
                tuple([(mult, pt.x.a, pt.x.d, pt.y_is_invertible)
                       for mult, pt in zip(mults, points)])
                if all(not pt.x.b and pt.x_is_unit for pt in points) else False)
        except EisMeasureError:
            view = False
    if view is False:
        return by_term(beta, mults, points)
    num, den, y_invertible, get = 0, 1, f.y_invertible, powers.get
    for mult, a, d, y_inv in view:
        if y_invertible and not y_inv:
            continue
        tn, td = get((a, d)) or powers.setdefault(  # (a/d)^e = (d/a)^-e
            (a, d), (a ** e, d ** e) if e >= 0 else (d ** -e, a ** -e))
        if td == den:  # every integral x when e >= 0
            num += mult * tn
        else:  # over the lcm of the denominators
            g = math.gcd(den, td)
            num, den = num * (td // g) + mult * tn * (den // g), den // g * td
    detb = beta.det_exact
    dn, dd = (detb.a, detb.d) if dexp >= 0 else (detb.d, detb.a)
    return Fraction(num * f.coef.numerator * dn ** abs(dexp),
                    den * f.coef.denominator * dd ** abs(dexp))


def _ring_coefficient(f, w, n, field, precision, beta, mults, points):
    """The coefficient in the function's ring, term by term."""
    ring, c, detb = f.ring, f.ring.zero(), beta.det_exact
    for mult, pt in zip(mults, points):
        fval = evaluate(f, pt, precision)
        if ring.is_zero(fval):
            continue
        c = c + ring.coerce(mult) * fval * ring.weight_factor(
            detb, pt.x, w, n, field)
    return c


# -- cusp change ---------------------------------------------------------------


class ChiData:
    """Exact scalar prefactor with tracked powers of lambda and det(h)."""

    def __init__(self, scalar: Fraction = Fraction(1), lam_power: int = 0,
                 det_h_norm_power: int = 0):
        self.scalar, self.lam_power = scalar, lam_power
        self.det_h_norm_power = det_h_norm_power

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
    at most that bound.  An h that is not n x n is rejected, and so is a
    singular h or lam = 0, because it would merge distinct indices.
    """
    if len(h) != q.n or any(len(row) != q.n for row in h):
        raise ShapeMismatch(f"h is not {q.n} x {q.n}")
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


class NormalizationConstant:
    """Exact bookkeeping of the scalar in front of an expansion.

    Transcendental and unknown pieces stay symbolic: powers of i, 2 and pi
    are integer exponents per place, Gamma values are exact factorials, and
    p-stabilized L-values are opaque tokens that enter inversely.
    """

    def __init__(self, rational_part: Fraction, two_power: int, i_power: int,
                 two_pi_power: int, pi_power: int,
                 gamma_factorials: tuple[int, ...], disc_powers: tuple,
                 lvalue_tokens: tuple[str, ...], euler_polynomials: dict):
        self.rational_part = rational_part
        self.two_power = two_power  # all powers of 2, including the 2-part of (2*pi)^(nk)
        self.i_power = i_power
        self.two_pi_power = two_pi_power  # recorded exponent of (2*pi); informational
        self.pi_power = pi_power  # net power of pi
        self.gamma_factorials = gamma_factorials
        self.disc_powers = disc_powers  # symbolic leftovers: (base, Fraction exponent)
        self.lvalue_tokens = lvalue_tokens
        self.euler_polynomials = euler_polynomials


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
