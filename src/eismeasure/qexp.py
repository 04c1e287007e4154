"""q-expansions indexed by positive-definite lattice matrices.

The coefficient of an expansion at index beta is a finite sum over the
cusp rule: multiplicity times the coefficient function at the point
(a, relnorm(a)^-1 * beta), times the weight norm of a^-1 * det(beta),
times det(beta)^-n.  Everything downstream (integration against the
measure, moments, congruence checks) goes through one sweep,
``_expansions``, which sums every expansion of the same context at each
index.  An index stores what the rule last swept there gave, so the rule
runs and each point is built at most once per enumeration and rule.  A
rational monomial's coefficient is a power sum of x over the rule's
(a, mult) pairs with x = a/d a rational unit: it reads their integers,
stored scaled to a common denominator (``_power_view``), and det(beta),
builds no point, and takes each integer power from a table of the job's
own that lives for one sweep (``_power_sum``).  Any other
coefficient is summed over the points in its ring, each term times the
ring's monomial xs^(-k-nu) * xb^nu * det(beta)^(k-n) (``ring.monomial``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from operator import mul

from .errors import (
    EquivarianceViolation,
    FieldDataError,
    LatticeMismatch,
    RingMismatch,
    ShapeMismatch,
)
from .fields import FieldData, KNum, Weight, _json_objects, _json_value
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
        return all(c == other.terms[k][1]
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
        for _, (beta, c) in sorted(self.terms.items()):
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
        if (p := _json_value(data, "p")) != field.p:
            raise FieldDataError(f"an expansion over p = {p} read with "
                                 f"p = {field.p}")
        ring = ring_from_tag(_json_value(data, "ring", str), field)
        n = _json_value(data, "n")
        terms = {}
        for t in _json_objects(data, "terms"):
            pairs = _json_value(t, "beta", None)
            if not (isinstance(pairs, list) and len(pairs) == n and all(
                    isinstance(row, list) and len(row) == n for row in pairs)):
                raise ShapeMismatch(f"index {pairs} is not {n} x {n}")
            if not all(isinstance(c, list) and len(c) == 2
                       and all(type(u) is int for u in c)
                       for row in pairs for c in row):
                raise ShapeMismatch(f"index {pairs} is not made of [u, v] "
                                    "pairs of integers")
            beta = HermitianMatrix.from_pairs(field, pairs)
            coeff = ring.from_json(_json_value(t, "coeff", None))
            terms[beta.key()] = (beta, coeff)
        w = data.get("weight")
        if not (isinstance(w, list) and len(w) == 2
                and all(type(c) is int for c in w)):
            raise ShapeMismatch(f"weight {w!r} is not a pair of integers")
        return cls(field, n, Weight(*w),
                   _json_value(data, "cusp", str),
                   _json_value(data, "trace_bound"), ring, terms)


def _rule_point(field: FieldData, a, beta: HermitianMatrix) -> GnPoint:
    """The point (a, relnorm(a)^-1 * beta), relnorm(a) = nn/nd unreduced:
    y is beta itself at norm 1, with its stored det, else each entry times
    nd/nn (an a of norm 0 raises ZeroDivisionError)."""
    nn, nd = ((a.a, a.d) if field.mode == "symplectic"
              else (a._norm_num(), a.d * a.d))
    if nn == nd:
        return GnPoint(field, a, beta.entries,
                       det_y_exact=beta.det_exact)
    y = tuple([tuple([KNum(e.a * nd, e.b * nd, e.d * nn, e.s, e.t)
                      for e in row]) for row in beta.entries])
    return GnPoint(field, a, y)


def _rule_terms(rule, beta: HermitianMatrix) -> list:
    """[rule, its (a, mult) pairs, points, view] for the last rule swept at
    beta, stored there so that the rule runs once; points and view are None
    until read.  Nothing is stored if the rule raises."""
    terms = beta._rule_terms
    if terms is None or terms[0] is not rule:
        terms = beta._rule_terms = [rule, tuple(rule(beta)), None, None]
    return terms


def _rule_points(field: FieldData, beta: HermitianMatrix, terms):
    """The points of beta's rule terms (x is a), built on first read and
    stored with them; none is stored if one raises (an a of norm 0)."""
    if terms[2] is None:
        terms[2] = tuple([_rule_point(field, a, beta) for a, _ in terms[1]])
    return terms[2]


def _sample_points(field: FieldData, cusp: CuspData, betas):
    return [pt for beta in betas[:4] for pt in _rule_points(
        field, beta, _rule_terms(cusp.rule, beta))[:2]]


def eisenstein_qexp(f: GnFunction, w: Weight, cusp: CuspData,
                    trace_bound: int, field: FieldData) -> QExpansion:
    """Expansion of weight (k, nu) of an equivariant f, checked by the sweep."""
    return _expansions([(f, w)], cusp, trace_bound, field)[0]


def _expansions(jobs, cusp: CuspData, trace_bound: int, field: FieldData,
                validate: bool = True,
                integrand: GnFunction | None = None) -> list[QExpansion]:
    """The expansions of several (f, w) jobs over one context, in one sweep;
    a continuous function is swept through a truncation, ``truncate(j)``.

    The one validation step: the integrand's unit invariance and, with
    ``validate``, each job's equivariance, on one ``_sample_points`` set; a
    bound that leaves the set empty is a ``ValueError``.

    The indices are enumerated once; at each index the rule's stored pairs
    are read (``_rule_terms`` runs the rule once), then every job sums over
    them, in cusp-rule order whatever the other jobs are, so each expansion
    equals the one computed alone.  Each job's accumulator is chosen once
    (``_job_coefficient``): a rational monomial sums x-powers
    (``_power_sum``), any other job its terms, each weighted by
    ``ring.monomial``; a ring without one (cyclotomic) is rejected before
    the sweep.
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
    checks = [] if integrand is None else [
        (integrand, Weight(0, 0), "integrand is not unit invariant")]
    checks += [(f, w, "coefficient function fails unit equivariance")
               for f, w in jobs if validate]
    if checks and not (pts := _sample_points(field, cusp, betas)):
        raise ValueError(f"trace bound {trace_bound} leaves no point to check")
    for g, w, failure in checks:
        report = check_equivariance(g, w, pts)
        if not report.passed:
            raise EquivarianceViolation(f"{failure} at {report.witness_text()}")
    coefficient = [_job_coefficient(f, w, n, field) for f, w in jobs]
    terms = [{} for _ in jobs]
    for beta in betas:
        key, rule_terms = beta.key(), _rule_terms(cusp.rule, beta)
        for coeff, out in zip(coefficient, terms):
            out[key] = (beta, coeff(beta, rule_terms))
    return [QExpansion(field, n, w, cusp.label, trace_bound, f.ring, t)
            for (f, w), t in zip(jobs, terms)]


def _job_coefficient(f, w, n, field):
    """The job's accumulator, (beta, rule terms) -> coefficient.  A rational
    monomial's is ``_power_sum`` with its constants bound and a power table
    of its own, m -> m^|e|, that lives as long as the accumulator: one
    sweep, never an index."""
    # N_w(det(beta)/x) / det(beta)^n as exponents of (xs, xb, det(beta))
    e = (-w.k - w.nu, w.nu, w.k - n)
    by_term = partial(_ring_coefficient, f, e, field)
    if not (isinstance(f.ring, RationalRing) and isinstance(f, MonomialFunction)
            and isinstance(f.coef, (int, Fraction))):  # else evaluate raises
        return by_term
    r = 1 if field.mode == "symplectic" else 2  # relnorm(x) = x^r
    xexp = f.e_xs + f.e_xb - r * n * f.e_det - w.k
    dexp = f.e_det + w.k - n
    return partial(_power_sum, _Powers(abs(xexp)).__getitem__,
                   2 if xexp >= 0 else 3, abs(dexp), dexp >= 0,
                   f.coef.numerator, f.coef.denominator, f.y_invertible,
                   field.p, by_term)


class _Powers(dict):
    """m -> m^e, each power computed on its first read."""

    __slots__ = ("e",)

    def __init__(self, e: int):
        self.e = e

    def __missing__(self, m: int) -> int:
        power = self[m] = m ** self.e
        return power


def _power_sum(power, side, dexp, det_up, cnum, cden, y_invertible, p,
               by_term, beta, terms) -> Fraction:
    """coef * det(beta)^(dexp if det_up else -dexp) * the sum of mult * x^e
    over beta's pairs, x^e = (n / D)^|e| for the view's scaled integers n
    and their common denominator D (``_power_view``; ``side`` picks the
    form for the sign of e), each n^|e| and D^|e| read from the job's
    table ``power``; 0 where y is not invertible and the monomial asks
    that.  At (x, x^-r * beta) det(y) = det(beta) * x^-rn, so this sums
    mult * f(pt) * (det(beta)/x)^k / det(beta)^n.  Where the view is False
    ``by_term`` sums f(pt)."""
    view = terms[3]
    if view is None:
        view = terms[3] = _power_view(beta, terms[1], p)
    if view is False:
        return by_term(beta, terms)
    ns, den = view[side] or _inverse_form(view, terms[1])
    if y_invertible and not view[0]:
        num = 0
    elif view[1] is None:
        num = sum(map(power, ns))
    else:
        num = sum(map(mul, view[1], map(power, ns)))
    detb = beta.det_exact  # rational, so its residue at a root is a/d
    dn, dd = (detb.a, detb.d) if det_up else (detb.d, detb.a)
    return Fraction(num * cnum * dn ** dexp, power(den) * cden * dd ** dexp)


def _power_view(beta, pairs, p):
    """beta's power view, read from the rule's (a, mult) pairs and
    det(beta), not from points: [y invertible, the multiplicities or None
    if all are 1, (n, D), (n', A)], where each x = a/d is n / D over D =
    lcm(d), for e >= 0, and A / n' over A = lcm(a), for e < 0; the second
    form is None until an e < 0 job reads it (``_inverse_form``).  x = a/d
    is a rational unit iff a.b = 0 and p divides neither a.a nor a.d, and
    then v_p(det y) = v_p(det beta).  Otherwise, or if beta is not
    p-integral, the view is False."""
    if not all(e.d % p for row in beta.entries for e in row):
        return False
    # the divisor rule's pairs: integral x, each of multiplicity 1
    nums = tuple([a.a for a, mult in pairs
                  if mult == 1 and a.d == 1 and not a.b])
    if len(nums) == len(pairs):
        mults, form = None, (nums, 1)
    else:
        nums, bs, dens, mults = zip(*[(a.a, a.b, a.d, mult)
                                      for a, mult in pairs])
        if any(bs) or not all(map(p.__rmod__, dens)):
            return False
        lcm_d = math.lcm(*dens)
        form = tuple(map(mul, nums, map(lcm_d.__floordiv__, dens))), lcm_d
        mults = None if mults.count(1) == len(mults) else mults
    if not all(map(p.__rmod__, nums)):
        return False
    return [beta.det_exact.a % p != 0, mults, form, None]


def _inverse_form(view, pairs):
    """The view's e < 0 form (n', A), stored on first read: 1/x = d/a =
    n' / A with A = lcm(a) and n' = d * A / a."""
    lcm_a = math.lcm(*[a.a for a, _ in pairs])
    view[3] = form = tuple([a.d * (lcm_a // a.a) for a, _ in pairs]), lcm_a
    return form


def _ring_coefficient(f, e, field, beta, terms):
    """The coefficient in the function's ring, term by term over the
    points, each nonzero term times the ring's monomial of exponents e at
    (x, det(beta))."""
    points = terms[2] or _rule_points(field, beta, terms)
    ring, c, detb = f.ring, f.ring.zero(), beta.det_exact
    for (_, mult), pt in zip(terms[1], points):
        fval = evaluate(f, pt)
        if ring.is_zero(fval):
            continue
        c = c + ring.coerce(mult) * fval * ring.monomial(pt.x, detb, e, field)
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
    singular h or lam = 0, because it would merge distinct indices, and a
    lam < 0, because its images are negative definite and index nothing.
    """
    if len(h) != q.n or any(len(row) != q.n for row in h):
        raise ShapeMismatch(f"h is not {q.n} x {q.n}")
    if mat_det(h).is_zero or lam == 0:
        raise LatticeMismatch("the Levi element (h, lam) is singular")
    if lam < 0:
        raise LatticeMismatch(f"lam = {lam} is negative: it maps positive "
                              "definite indices to negative definite ones")
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
