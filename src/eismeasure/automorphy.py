"""Double-precision checks of automorphy-factor identities on the tube domain.

Group elements are words in block generators (Levi elements, Hermitian
translations, and the Weyl involution), so membership in the similitude
group is by construction.  All identities are verified numerically at
tolerance 1e-9 on points of the tube domain where the factors are well
conditioned.

The numerical kernels take stacks of matrices, shape ``(m, ...)``, and make
one ``np.linalg`` call per stack; the public functions on one element or one
point run the same kernels on a stack of one.  ``selftest`` draws its samples
in chunks of up to ``CHUNK`` passes, from the ``random.Random(seed)`` stream
in the order of a pass-by-pass loop, checks the chunk's points against the
domain in one call, verifies the chunk with the kernels, and folds the
chunk's residuals as arrays.  Every pass draws the same, rejected or not, so
the chunks are independent.  Stacked ``det``, ``inv``, ``svd``, ``eigvalsh``
and ``@`` give the same bits as calls on single matrices, so a seed gives the
same residuals as the pass-by-pass loop; ``_ill`` asks LAPACK's ``cond`` only
where det and norm cannot settle it.

The residuals are defined by a per-pass fold in Python's scalar arithmetic
(``_Cocycle.residuals`` and ``_Section.value``), and numpy's complex ``*``,
``/`` and ``**`` differ from Python's in the last bit.  So the array fold
writes out CPython's own complex product, Smith's quotient and its integer
power by squaring (for exponents up to 100) in float arrays, takes ``abs()``
as ``np.hypot``, and leaves real powers to Python's ``**``, element by
element.  It stops at the first pass that the per-pass fold would not fold:
one where that raises other than by rejecting the pass (a point off the
domain, an overflow, a division by zero), or has a value that is not
finite.  That pass and the rest of the chunk go through the per-pass code,
so every error keeps its type, its text and its pass.  A weight with an
integer power above 100, which CPython computes in polar form, sends every
chunk there.

The draws call ``rng.getrandbits`` and ``rng.random`` directly and follow
CPython's ``random`` algorithms bit for bit: ``randrange``, ``randint`` and
``choice`` are rejection sampling on ``getrandbits``, and ``uniform(a, b)`` is
``a + (b - a) * random()``.  So they use the same Mersenne Twister words, and
give the same words and points, as the ``randrange``, ``randint``, ``choice``
and ``uniform`` calls the self-test was defined with.  A test in
``tests/test_automorphy.py`` compares the generator's state with those calls'
pass by pass, so a ``random`` module that draws differently fails it.
"""

from __future__ import annotations

import math
import os

# tiny matrices need one OpenBLAS thread; idle ones busy-wait as numpy loads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
import numpy as np  # noqa: E402

from .errors import NearSingularAutomorphyFactor

TOL_COND = 1e8

#: Most passes that ``selftest`` draws and verifies together.
CHUNK = 256


def _t(x: np.ndarray) -> np.ndarray:
    """The transpose of every matrix of a stack."""
    return np.swapaxes(x, -1, -2)


class GroupElement:
    """A 2n-by-2n complex matrix with its similitude factor."""

    def __init__(self, matrix: np.ndarray, nu: float):
        self.matrix, self.nu = matrix, nu


# -- generators and words ------------------------------------------------------
# A drawn generator is a row of 2 + 2n^2 small integers: its kind (0 a Levi
# element, 1 a translation, 2 the Weyl involution), the index of its
# similitude factor in _LAMS (1, the factor 1.0, unless it is a Levi
# element), and 2 plus the real and imaginary parts of its n-by-n block b,
# entry by entry in row-major order (b = 0 for the Weyl involution).  A Levi
# element has the block h = b, a translation the Hermitian block
# (b + conj(b)^T) / 2.  A word is a run of consecutive rows, multiplied left
# to right.

_LAMS = np.array([0.5, 1.0, 2.0])


def _generators(n: int, kinds: np.ndarray, blocks: np.ndarray,
                lams: np.ndarray) -> np.ndarray:
    """The stack of generator matrices for kinds, blocks and factors lam."""
    m = np.zeros((len(kinds), 2 * n, 2 * n), dtype=complex)
    levi = np.flatnonzero(kinds == 0)
    if levi.size:
        h = blocks[levi]
        # block diag(conj(h)^-T, lam * h)
        m[levi, :n, :n] = _t(np.linalg.inv(np.conj(h)))
        m[levi, n:, n:] = lams[levi][:, None, None] * h
    trans = np.flatnonzero(kinds == 1)
    if trans.size:  # _words makes each translation block exactly Hermitian
        m[trans] = np.eye(2 * n)
        m[trans, :n, n:] = blocks[trans]
    weyl = np.flatnonzero(kinds == 2)
    if weyl.size:
        m[weyl, :n, n:] = -np.eye(n)
        m[weyl, n:, :n] = np.eye(n)
    return m


def _words(n: int, data: list, lengths: list):
    """Matrices (a stack) and similitude factors (floats) of words.

    ``data`` holds the generator rows of all the words, flat and in order,
    and ``lengths`` the number of generators in each word.
    """
    rows = np.frombuffer(bytes(data), dtype=np.uint8).reshape(-1, 2 + 2 * n * n)
    kinds = rows[:, 0]
    parts = rows[:, 2:].astype(int) - 2
    re = parts[:, 0::2].reshape(-1, n, n)
    im = parts[:, 1::2].reshape(-1, n, n)
    trans = (kinds == 1)[:, None, None]
    blocks = np.empty(re.shape, dtype=complex)
    # the Hermitian part of a translation block is exact in halves
    blocks.real = np.where(trans, (re + _t(re)) / 2, re)
    blocks.imag = np.where(trans, (im - _t(im)) / 2, im)
    lams = _LAMS[rows[:, 1]]
    mats = _generators(n, kinds, blocks, lams)
    lengths = np.array(lengths)
    starts = np.cumsum(lengths) - lengths
    # multiplied left to right, the longest words first, so that the words
    # still growing at each step lead the stack
    order = np.argsort(-lengths, kind="stable")
    first = starts[order]
    prod = mats[first]
    for step in range(1, int(lengths.max())):
        c = np.count_nonzero(lengths > step)
        prod[:c] = prod[:c] @ mats[first[:c] + step]
    out = np.empty_like(prod)
    out[order] = prod
    # the factors are powers of two, so their products are exact in any order
    return out, np.multiply.reduceat(lams, starts).tolist()


# -- points -----------------------------------------------------------------------

def eta_matrix(z: np.ndarray) -> np.ndarray:
    return 1j * (_t(np.conj(z)) - z)


def _outside(z: np.ndarray):
    """Per point of a stack (or for one point): is eta(z) not positive definite?"""
    return np.linalg.eigvalsh(eta_matrix(z)).min(axis=-1) <= 0


def _delta(z: np.ndarray) -> np.ndarray:
    """det(eta(z) / 2) at every point of a stack."""
    return np.real(np.linalg.det(eta_matrix(z) / 2))


def delta(z: np.ndarray):
    """det(eta(z) / 2): a float for a point, a list of floats for a stack."""
    return _delta(z).tolist()


class DomainPoint:
    """A point of the tube domain: i*(conj(z)^T - z) positive definite."""

    def __init__(self, z: np.ndarray):
        if _outside(z).any():
            raise ValueError("point is not in the tube domain")
        self.z = z


def base_point(n: int) -> DomainPoint:
    return DomainPoint(1j * np.eye(n, dtype=complex))


# -- stacked kernels ---------------------------------------------------------------
# m is a stack of 2n-by-2n matrices, z a stack of points or one point.

def _ill(m: np.ndarray, det: np.ndarray) -> np.ndarray:
    """Per matrix of a stack, with det its determinants: cond(m) > TOL_COND?

    cond(m) = s_1 / s_n <= s_1^n / |det m| <= |m|_F^n / |det m|.  Where that
    bound is under TOL_COND / 2, LAPACK's cond is under TOL_COND too (it and
    det are good to about n eps cond, far inside the factor 2); every other
    matrix, a singular one included, goes to LAPACK's cond.
    """
    ill = ~(np.linalg.norm(m, axis=(-2, -1)) ** m.shape[-1]
            < TOL_COND / 2 * np.abs(det))
    rest = np.flatnonzero(ill)
    if rest.size:
        ill[rest] = np.linalg.cond(m[rest]) > TOL_COND
    return ill


def _act(m: np.ndarray, z: np.ndarray, mu: np.ndarray, ill: np.ndarray):
    """The points m.z, with mu = c z + d and its ill flags from ``_factors``.

    An ill-conditioned row is rejected by the caller; its point is computed
    from the identity so the stacked inverse cannot fail.
    """
    n = z.shape[-1]
    a, b = m[:, :n, :n], m[:, :n, n:]
    den = np.where(ill[:, None, None], np.eye(n), mu)
    return (a @ z + b) @ np.linalg.inv(den)


def _factors(m: np.ndarray, z: np.ndarray):
    """lambda, mu, det mu and whether mu is ill conditioned, at the points."""
    n = z.shape[-1]
    c, d = m[:, n:, :n], m[:, n:, n:]
    lam = np.conj(c) @ _t(z) + np.conj(d)
    mu = c @ z + d
    det = np.linalg.det(mu)
    return lam, mu, det, _ill(mu, det)


def _check_action(ill: bool, outside: bool):
    """Raise as act does: an ill-conditioned denominator, then a point off
    the domain."""
    if ill:
        raise NearSingularAutomorphyFactor("denominator block is ill conditioned")
    if outside:
        raise ValueError("point is not in the tube domain")


def _check_factor(jj: complex, ill: bool):
    if abs(jj) < 1e-12 or ill:
        raise NearSingularAutomorphyFactor("factor of automorphy is near singular")


def _factor_rows(jj_abs: np.ndarray, ill: np.ndarray):
    """``_check_factor`` at every row, from abs(jj): (rejected, raising).

    abs() raises OverflowError where it is not finite, before ill is read.
    """
    finite = np.isfinite(jj_abs)
    return finite & ((jj_abs < 1e-12) | ill), ~finite


def _absmax(x: np.ndarray) -> np.ndarray:
    """max |entry| of every matrix of a stack."""
    return np.abs(x).max(axis=(-2, -1))


def _rel_parts(a: np.ndarray, b: np.ndarray):
    """Per row: max |a|, max |b| and max |a - b|, for the relative residual."""
    return _absmax(a), _absmax(b), _absmax(a - b)


def _rel(a: complex, b: complex) -> float:
    # np.abs of a complex number can differ from abs() in the last bit; the
    # residuals are defined with np.abs
    scale = max(1.0, float(np.abs(a)), float(np.abs(b)))
    return float(np.abs(a - b)) / scale


def _rel_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``_rel`` at every row of two arrays; np.abs of an array gives the
    bits of np.abs of each of its numbers."""
    return np.abs(a - b) / np.maximum(np.maximum(1.0, np.abs(a)), np.abs(b))


# -- CPython's complex arithmetic on arrays ------------------------------------------
# numpy's complex *, / and ** differ from CPython's in the last bit.  These
# helpers repeat Objects/complexobject.c operation by operation on a pair
# (re, im) of float arrays (or floats), so every element has the bits of
# Python's own complex arithmetic.  Where Python raises, the element is not
# finite: a zero divisor gives nan, an overflow inf or nan.  abs() is
# np.hypot, as _Py_c_abs calls hypot.

_ONE = (1.0, 0.0)


def _parts(x: np.ndarray):
    return x.real, x.imag


def _complex(x) -> np.ndarray:
    """The complex array with the parts of x."""
    out = np.empty(np.shape(x[0]), dtype=complex)
    out.real, out.imag = x
    return out


def _c_prod(a, b):
    """a * b, as _Py_c_prod; a float f is the pair (f, 0.0)."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _c_quot(a, b):
    """a / b, as _Py_c_quot: divided through by the larger part of b (Smith)."""
    (ar, ai), (br, bi) = a, b
    by_re = np.abs(br) >= np.abs(bi)  # false at a nan part: the result is nan
    big, small = np.where(by_re, br, bi), np.where(by_re, bi, br)
    ratio = small / big  # nan where b is 0, which Python raises on
    denom = big + small * ratio
    return (np.where(by_re, ar + ai * ratio, ar * ratio + ai) / denom,
            np.where(by_re, ai - ar * ratio, ai * ratio - ar) / denom)


def _c_powi(x, e: int):
    """x ** e for an integer |e| <= 100, as c_powi: binary powering from
    (1, 0) (c_powu), then 1 / that for e <= 0.  Beyond 100 CPython takes the
    polar _Py_c_pow instead."""
    r, p, bits = _ONE, x, abs(e)
    while bits:
        if bits & 1:
            r = _c_prod(r, p)
        bits >>= 1
        if bits:
            p = _c_prod(p, p)
    return r if e > 0 else _c_quot(_ONE, r)


def _pow(xs: list, e) -> np.ndarray:
    """Python's float ``x ** e`` for each x, nan where it raises or is complex."""
    out = []
    for x in xs:
        try:
            x = x ** e
        except (ArithmeticError, ValueError):
            x = math.nan
        out.append(x if type(x) is float else math.nan)
    return np.array(out, dtype=float)


def _finite(*parts) -> np.ndarray:
    """Where all of the float arrays (or floats) are finite."""
    ok = np.isfinite(parts[0])
    for x in parts[1:]:
        ok = ok & np.isfinite(x)
    return ok


class _Cocycle:
    """The stacked factor identities at (beta, alpha, z), one row per sample."""

    def __init__(self, alpha, nu_alpha, beta, z):
        self.n = z.shape[-1]
        self.nu_alpha = nu_alpha
        lam_a, mu_a, j_a, ill_a = _factors(alpha, z)
        az = _act(alpha, z, mu_a, ill_a)
        self.az_outside = _outside(az)
        lam_b, mu_b, j_b, ill_b = _factors(beta, az)
        lam_ba, mu_ba, j_ba, ill_ba = _factors(beta @ alpha, z)
        # the factors of alpha at z, of beta at alpha.z and of beta alpha at
        # z; alpha's ill flag is also the action's
        self.j, self.ill = (j_a, j_b, j_ba), (ill_a, ill_b, ill_ba)
        self.lam = _rel_parts(lam_ba, lam_b @ lam_a)
        self.mu = _rel_parts(mu_ba, mu_b @ mu_a)
        self.det_lam_a = np.linalg.det(lam_a)
        self.det_conj_a = np.linalg.det(np.conj(alpha))
        self.delta_az = _delta(az)
        self.delta_z = _delta(z)

    def residuals(self, i: int):
        """Row i's residuals (lambda, mu, det, det_lambda, delta).

        Raises as the single-sample checks do, in the same order: an
        ill-conditioned action, a point off the domain, then a near-singular
        factor of alpha, of beta at alpha.z, or of beta alpha.
        """
        _check_action(self.ill[0][i], self.az_outside[i])
        j_a, j_b, j_ba = (complex(jj[i]) for jj in self.j)
        for jj, ill in zip((j_a, j_b, j_ba), self.ill):
            _check_factor(jj, ill[i])
        lam_ba, lam_prod, lam_diff = (float(x[i]) for x in self.lam)
        mu_ba, mu_prod, mu_diff = (float(x[i]) for x in self.mu)
        r1 = lam_diff / max(1.0, lam_ba, lam_prod)
        r2 = mu_diff / max(1.0, mu_ba, mu_prod)
        r3 = _rel(j_ba, j_b * j_a)
        # determinant relation: det(lambda) = det(conj(alpha)) nu^-n j
        n, nu = self.n, self.nu_alpha[i]
        r4 = _rel(complex(self.det_lam_a[i]),
                  complex(self.det_conj_a[i]) * nu ** (-n) * j_a)
        # volume factor transformation
        r5 = _rel(float(self.delta_az[i]),
                  nu ** n * abs(j_a) ** (-2) * float(self.delta_z[i]))
        return r1, r2, r3, r4, r5

    def rows(self):
        """``max(residuals(i))`` at every row in one array, with two masks:
        the rows whose residuals are computed, and the rows that ``residuals``
        must take because it raises there other than by rejecting them, or a
        value is not finite."""
        reach = ~self.ill[0]
        left = reach & self.az_outside
        reach &= ~self.az_outside
        j_a, j_b, j_ba = (_parts(jj) for jj in self.j)
        abs_a = np.hypot(*j_a)
        for jj, ill in zip((abs_a, np.hypot(*j_b), np.hypot(*j_ba)), self.ill):
            rejected, raising = _factor_rows(jj, ill)
            left |= reach & raising
            reach &= ~rejected & ~raising
        n, nu = self.n, self.nu_alpha
        r3 = _rel_rows(self.j[2], _complex(_c_prod(j_b, j_a)))
        prod = _c_prod(_parts(self.det_conj_a), (_pow(nu, -n), 0.0))
        r4 = _rel_rows(self.det_lam_a, _complex(_c_prod(prod, j_a)))
        r5 = _rel_rows(self.delta_az, _pow(nu, n) * _pow(abs_a.tolist(), -2)
                       * self.delta_z)
        res = r3
        for big_ba, big_prod, diff in (self.lam, self.mu):  # r1 and r2
            res = np.maximum(res, diff / np.maximum(np.maximum(1.0, big_ba),
                                                    big_prod))
        res = np.maximum(np.maximum(res, r4), r5)  # nan wins, as it should
        return res, reach, left | reach & ~np.isfinite(res)


class _Section:
    """Stacked factors of the normalized elements alpha / sqrt(nu(alpha))."""

    def __init__(self, alpha, nu_alpha, z):
        scaled = alpha / np.sqrt(np.array(nu_alpha))[:, None, None]
        lam, _, self.jj, self.ill = _factors(scaled, z)
        self.det_lam = np.linalg.det(lam)

    def value(self, i: int, delta_z: float, k: int, nu: int, s: float) -> complex:
        jj = complex(self.jj[i])
        _check_factor(jj, self.ill[i])
        # the weighted factor j^(k+nu) * det(lambda)^(-nu)
        jkv = jj ** (k + nu) * complex(self.det_lam[i]) ** (-nu)
        return (1 / jkv) * abs(jj ** (-2)) ** (s - k / 2) * delta_z ** (s - k / 2)

    def values(self, delta_pow: np.ndarray, k: int, nu: int, s: float):
        """``value`` at every row, with delta_pow the rows' delta_z ** (s - k/2),
        for |k + nu| and |nu| at most 100: the values, the rows that its
        factor check rejects, and the rows that ``value`` must take because it
        raises there other than by rejecting them, or a value is not finite."""
        jj = _parts(self.jj)
        rejected, raising = _factor_rows(np.hypot(*jj), self.ill)
        p1, p2, p3 = (_c_powi(jj, k + nu), _c_powi(_parts(self.det_lam), -nu),
                      _c_powi(jj, -2))
        inv = _c_quot(_ONE, _c_prod(p1, p2))
        a = np.hypot(*p3)
        v = _c_prod(_c_prod(inv, (_pow(a.tolist(), s - k / 2), 0.0)),
                    (delta_pow, 0.0))
        finite = _finite(*p1, *p2, *inv, *p3, a, *v)
        return v, rejected, raising | ~rejected & ~finite


# -- single elements: stacks of one ----------------------------------------------------

def act(alpha: GroupElement, pt: DomainPoint) -> DomainPoint:
    _, mu, _, ill = _factors(alpha.matrix[None], pt.z[None])
    az = _act(alpha.matrix[None], pt.z[None], mu, ill)
    _check_action(ill[0], False)  # DomainPoint checks the domain
    return DomainPoint(az[0])


def factors(alpha: GroupElement, pt: DomainPoint):
    """(lambda, mu, j) at the point: conj-linear factor, linear factor, det mu."""
    lam, mu, jj, ill = _factors(alpha.matrix[None], pt.z[None])
    jj = complex(jj[0])
    _check_factor(jj, ill[0])
    return lam[0], mu[0], jj


def section_infty(alpha: GroupElement, pt: DomainPoint, k: int, nu: int,
                  s: float) -> complex:
    """The archimedean section at the normalized element alpha / sqrt(nu(alpha))."""
    if alpha.nu <= 0:
        raise ValueError("positive similitude factor required")
    sec = _Section(alpha.matrix[None], [alpha.nu], pt.z[None])
    return sec.value(0, delta(pt.z), k, nu, s)


class CocycleReport:
    def __init__(self, residual: float, details: dict):
        self.residual, self.details = residual, details


def cocycle_check(alpha: GroupElement, beta: GroupElement,
                  pt: DomainPoint) -> CocycleReport:
    """Max residual over the factor identities at (beta, alpha, z)."""
    res = _Cocycle(alpha.matrix[None], [alpha.nu], beta.matrix[None],
                   pt.z[None]).residuals(0)
    return CocycleReport(max(res), dict(zip(
        ("lambda", "mu", "det", "det_lambda", "delta"), res)))


# -- random samples -----------------------------------------------------------------
# The calls the draws stand for are rng.randrange(3) (the kind),
# rng.randint(-2, 2) (each part of an entry), rng.choice([0.5, 1.0, 2.0])
# (lam), rng.randrange(8) (the extra generators of a word) and
# rng.uniform(a, b).  A draw below m takes r = getrandbits(m.bit_length())
# again while r >= m.

def _randints(bits, count: int) -> list:
    """count draws of randint(-2, 2), each plus 2."""
    out = []
    for _ in range(count):
        r = bits(3)
        while r >= 5:
            r = bits(3)
        out.append(r)
    return out


def _det_nonzero(e: list, n: int) -> bool:
    """Is det h != 0 for the Gaussian-integer block h with parts e?

    e holds the real and imaginary parts of the entries in row-major order.
    The decision is the pass-by-pass loop's, abs(np.linalg.det(h)) > 0.5 on
    the same complex array.  det h is a Gaussian integer, of modulus 0 or at
    least 1, so for n <= 2 and entries in [-2, 2] it is decided exactly.
    """
    if n == 1:
        return e[0] != 0 or e[1] != 0
    if n == 2:
        a, b, c, d, f, g, p, q = e
        # (a + bi)(p + qi) - (c + di)(f + gi)
        return a * p - b * q != c * f - d * g or a * q + b * p != c * g + d * f
    h = np.array(e, dtype=float).view(complex).reshape(n, n)
    return bool(abs(np.linalg.det(h)) > 0.5)


def _draw_generator(n: int, bits, data: list):
    """Append one generator's row to data."""
    kind = bits(2)  # randrange(3)
    while kind == 3:
        kind = bits(2)
    if kind == 2:
        data += [2, 1] + [2] * (2 * n * n)
        return
    while True:
        e = _randints(bits, 2 * n * n)
        # a Levi block is drawn again until it is invertible
        if kind == 1 or _det_nonzero([r - 2 for r in e], n):
            break
    lam = 1
    if kind == 0:
        lam = bits(2)  # choice over the three factors
        while lam == 3:
            lam = bits(2)
    data += [kind, lam]
    data += e


def _draw_word(n: int, rng, data: list, lengths: list):
    """Append one word's rows to data and its length (1 to 8) to lengths."""
    bits = rng.getrandbits
    _draw_generator(n, bits, data)
    extra = bits(4)  # randrange(8)
    while extra >= 8:
        extra = bits(4)
    for _ in range(extra):
        _draw_generator(n, bits, data)
    lengths.append(extra + 1)


def random_word(n: int, rng) -> GroupElement:
    data, lengths = [], []
    _draw_word(n, rng, data, lengths)
    mats, nus = _words(n, data, lengths)
    return GroupElement(mats[0], nus[0])


def random_point(n: int, rng) -> np.ndarray:
    """z = x + iy with x = (u + u^T) / 2 and y = (v + v^T) / 2 + t I, for u,
    v and t uniform in [-1, 1], [-0.3, 0.3] and [1, 2]; not checked against
    the domain, which ``selftest`` does for a chunk's points at once."""
    rand = rng.random
    # rng.uniform(a, b) is a + (b - a) * rng.random()
    u = [-1 + (1 - -1) * rand() for _ in range(n * n)]
    v = [-0.3 + (0.3 - -0.3) * rand() for _ in range(n * n)]
    t = 1.0 + (2.0 - 1.0) * rand()
    z = [complex((u[i * n + j] + u[j * n + i]) / 2,
                 (v[i * n + j] + v[j * n + i]) / 2 + (t if i == j else 0.0))
         for i in range(n) for j in range(n)]
    return np.array(z).reshape(n, n)


# -- the self-test ------------------------------------------------------------------

def _draw_pass(n: int, rng, data: list, lengths: list) -> np.ndarray:
    """One pass's draws in stream order: alpha, beta, the point, then g.

    The three words go to data and lengths; returns the point.
    """
    _draw_word(n, rng, data, lengths)
    _draw_word(n, rng, data, lengths)
    pt = random_point(n, rng)
    _draw_word(n, rng, data, lengths)
    return pt


def _fold(cocycle: _Cocycle, sections: _Section, ill_gz, gz_outside, delta_gz,
          delta_base: float, k: int, nu: int, s: float, worst: dict):
    """The array form of ``_verify``'s loop, over its rows up to the first
    one that the loop would not fold: one where it raises other than by
    rejecting the pass, or a value is not finite.

    Folds those rows into ``worst`` and returns how many there are and how
    many of them count.
    """
    res, reach, left = cocycle.rows()
    m, delta_gz = len(res), delta_gz.tolist()
    e = s - k / 2
    base_pow = _pow([delta_base], e)
    values, rejected, raising = sections.values(
        np.concatenate([np.repeat(base_pow, m), _pow(delta_gz, e),
                        np.repeat(base_pow, m)]), k, nu, s)
    # the section stage, in the loop's order: the action on the base point,
    # then the factors of alpha g, alpha and g
    counts = reach & ~ill_gz
    left |= counts & gz_outside
    counts &= ~gz_outside
    for part in range(3):
        cut = slice(part * m, (part + 1) * m)
        left |= counts & raising[cut]
        counts &= ~rejected[cut] & ~raising[cut]
    (lhs_re, a_re, g_re), (lhs_im, a_im, g_im) = (np.split(x, 3) for x in values)
    rhs = _c_prod(_c_prod((a_re, a_im), (g_re, g_im)),
                  (_pow(delta_gz, k / 2 - s), 0.0))
    lhs_abs, rhs_abs = np.hypot(lhs_re, lhs_im), np.hypot(*rhs)
    diff = np.hypot(lhs_re - rhs[0], lhs_im - rhs[1])
    left |= counts & ~_finite(lhs_abs, rhs_abs, diff)
    stop = int(np.argmax(left)) if left.any() else m
    reach, counts = reach[:stop], counts[:stop]
    if reach.any():
        worst["cocycle"] = max(worst["cocycle"], float(res[:stop][reach].max()))
    if counts.any():
        scale = np.maximum(np.maximum(1.0, lhs_abs), rhs_abs)[:stop][counts]
        worst["section"] = max(worst["section"],
                               float((diff[:stop][counts] / scale).max()))
    return stop, int(np.count_nonzero(counts))


def _verify(n: int, data: list, lengths: list, points: np.ndarray,
            base: DomainPoint, k: int, nu: int, s: float, worst: dict):
    """Fold the passes' residuals into ``worst`` in pass order.

    Pass i has the point points[i] and the words 3i, 3i + 1 and 3i + 2 of
    data and lengths: alpha, beta and g.  Returns the number of passes that
    count.  A pass rejected at the cocycle stage folds nothing; one rejected
    at the section stage folds its cocycle residual.  Neither counts.

    ``_fold`` takes the passes up to the first that it cannot fold as the
    loop would; that pass and the rest go through the loop.
    """
    mats, nus = _words(n, data, lengths)
    alpha, beta, g = mats[0::3], mats[1::3], mats[2::3]
    nu_a, nu_g = nus[0::3], nus[2::3]
    m = len(points)
    cocycle = _Cocycle(alpha, nu_a, beta, points)
    _, mu_g, _, ill_gz = _factors(g, base.z)
    gz = _act(g, base.z, mu_g, ill_gz)
    gz_outside = _outside(gz)
    delta_gz = _delta(gz)
    # the section's factors at (alpha g, base), (alpha, g.z) and (g, base):
    # rows i, m + i and 2m + i for pass i
    base_z = np.broadcast_to(base.z, gz.shape)
    sections = _Section(np.concatenate([alpha @ g, alpha, g]),
                        [a * b for a, b in zip(nu_a, nu_g)] + nu_a + nu_g,
                        np.concatenate([base_z, gz, base_z]))
    delta_base = delta(base.z)
    start = counted = 0
    if max(abs(k + nu), abs(nu)) <= 100:  # else CPython's powers are polar
        with np.errstate(all="ignore"):
            start, counted = _fold(cocycle, sections, ill_gz, gz_outside,
                                   delta_gz, delta_base, k, nu, s, worst)
    for i in range(start, m):
        try:
            res = max(cocycle.residuals(i))
        except NearSingularAutomorphyFactor:
            continue
        worst["cocycle"] = max(worst["cocycle"], res)
        # section factorization against the base point
        try:
            _check_action(ill_gz[i], gz_outside[i])
            delta_i = float(delta_gz[i])
            lhs = sections.value(i, delta_base, k, nu, s)
            rhs = (sections.value(m + i, delta_i, k, nu, s)
                   * sections.value(2 * m + i, delta_base, k, nu, s)
                   * delta_i ** (k / 2 - s))
        except NearSingularAutomorphyFactor:
            continue
        scale = max(1.0, abs(lhs), abs(rhs))
        worst["section"] = max(worst["section"], abs(lhs - rhs) / scale)
        counted += 1
    return counted


def selftest(n: int, cases: int, seed: int, k: int = 4, nu: int = 1,
             s: float = 3.0) -> dict:
    """Random words and points; returns the worst residuals over all cases.

    A pass draws alpha, beta, a point and g, and counts if both identities
    were evaluated.  A pass with a near-singular factor, at either stage, is
    not counted, and the next pass goes on from the stream where it ended.
    """
    if n < 1 or cases < 1 or not math.isfinite(s):  # nan drops out of max()
        raise ValueError("the self-test needs n >= 1, at least one case and a "
                         f"finite s, got n = {n}, cases = {cases}, s = {s}")
    import random

    rng = random.Random(seed)
    worst = {"cocycle": 0.0, "section": 0.0, "base_delta": 0.0}
    base = base_point(n)
    done = 0
    while done < cases:
        data, lengths = [], []
        points = np.array([_draw_pass(n, rng, data, lengths)
                           for _ in range(min(CHUNK, cases - done))])
        # a point off the domain is raised once the passes before it are
        # verified, as the pass-by-pass loop would
        outside = _outside(points).tolist()
        m = outside.index(True) if True in outside else len(outside)
        if m:
            del lengths[3 * m:]
            del data[sum(lengths) * (2 + 2 * n * n):]
            done += _verify(n, data, lengths, points[:m], base, k, nu, s, worst)
        if m < len(outside):
            raise ValueError("point is not in the tube domain")
    worst["base_delta"] = abs(delta(base.z) - 1.0)
    return worst
