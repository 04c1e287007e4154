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
residuals pass by pass in scalar Python arithmetic.  Every pass draws the
same, rejected or not, so the chunks are independent.  Stacked ``det``,
``inv``, ``svd``, ``eigvalsh`` and ``@`` give the same bits as calls on
single matrices, so a seed gives the same residuals as the pass-by-pass
loop; ``_ill`` asks LAPACK's ``cond`` only where det and norm cannot settle it.

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
CHUNK = 64


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


def delta(z: np.ndarray):
    """det(eta(z) / 2): a float for a point, a list of floats for a stack."""
    return np.real(np.linalg.det(eta_matrix(z) / 2)).tolist()


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


def _absmax(x: np.ndarray) -> list:
    """max |entry| of every matrix of a stack."""
    return np.abs(x).max(axis=(-2, -1)).tolist()


def _rel_parts(a: np.ndarray, b: np.ndarray):
    """Per row: max |a|, max |b| and max |a - b|, for the relative residual."""
    return list(zip(_absmax(a), _absmax(b), _absmax(a - b)))


def _rel(a: complex, b: complex) -> float:
    # np.abs of a complex number can differ from abs() in the last bit; the
    # residuals are defined with np.abs
    scale = max(1.0, float(np.abs(a)), float(np.abs(b)))
    return float(np.abs(a - b)) / scale


class _Cocycle:
    """The stacked factor identities at (beta, alpha, z), one row per sample."""

    def __init__(self, alpha, nu_alpha, beta, z):
        self.n = z.shape[-1]
        self.nu_alpha = nu_alpha
        lam_a, mu_a, j_a, ill_a = _factors(alpha, z)
        az = _act(alpha, z, mu_a, ill_a)
        self.ill_act = ill_a.tolist()
        self.az_outside = _outside(az).tolist()
        lam_b, mu_b, j_b, ill_b = _factors(beta, az)
        lam_ba, mu_ba, j_ba, ill_ba = _factors(beta @ alpha, z)
        self.factors = list(zip(j_a.tolist(), ill_a.tolist(), j_b.tolist(),
                                ill_b.tolist(), j_ba.tolist(), ill_ba.tolist()))
        self.lam = _rel_parts(lam_ba, lam_b @ lam_a)
        self.mu = _rel_parts(mu_ba, mu_b @ mu_a)
        self.det_lam_a = np.linalg.det(lam_a).tolist()
        self.det_conj_a = np.linalg.det(np.conj(alpha)).tolist()
        self.delta_az = delta(az)
        self.delta_z = delta(z)

    def residuals(self, i: int):
        """Row i's residuals (lambda, mu, det, det_lambda, delta).

        Raises as the single-sample checks do, in the same order: an
        ill-conditioned action, a point off the domain, then a near-singular
        factor of alpha, of beta at alpha.z, or of beta alpha.
        """
        _check_action(self.ill_act[i], self.az_outside[i])
        j_a, ill_a, j_b, ill_b, j_ba, ill_ba = self.factors[i]
        _check_factor(j_a, ill_a)
        _check_factor(j_b, ill_b)
        _check_factor(j_ba, ill_ba)
        lam_ba, lam_prod, lam_diff = self.lam[i]
        mu_ba, mu_prod, mu_diff = self.mu[i]
        r1 = lam_diff / max(1.0, lam_ba, lam_prod)
        r2 = mu_diff / max(1.0, mu_ba, mu_prod)
        r3 = _rel(j_ba, j_b * j_a)
        # determinant relation: det(lambda) = det(conj(alpha)) nu^-n j
        n, nu = self.n, self.nu_alpha[i]
        r4 = _rel(self.det_lam_a[i], self.det_conj_a[i] * nu ** (-n) * j_a)
        # volume factor transformation
        r5 = _rel(self.delta_az[i],
                  nu ** n * abs(j_a) ** (-2) * self.delta_z[i])
        return r1, r2, r3, r4, r5


class _Section:
    """Stacked factors of the normalized elements alpha / sqrt(nu(alpha))."""

    def __init__(self, alpha, nu_alpha, z):
        scaled = alpha / np.sqrt(np.array(nu_alpha))[:, None, None]
        lam, _, jj, ill = _factors(scaled, z)
        self.rows = list(zip(jj.tolist(), np.linalg.det(lam).tolist(),
                             ill.tolist()))

    def value(self, i: int, delta_z: float, k: int, nu: int, s: float) -> complex:
        jj, det_lam, ill = self.rows[i]
        _check_factor(jj, ill)
        # the weighted factor j^(k+nu) * det(lambda)^(-nu)
        jkv = jj ** (k + nu) * det_lam ** (-nu)
        return (1 / jkv) * abs(jj ** (-2)) ** (s - k / 2) * delta_z ** (s - k / 2)


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


def _verify(n: int, data: list, lengths: list, points: np.ndarray,
            base: DomainPoint, k: int, nu: int, s: float, worst: dict):
    """Fold the passes' residuals into ``worst`` in pass order.

    Pass i has the point points[i] and the words 3i, 3i + 1 and 3i + 2 of
    data and lengths: alpha, beta and g.  Returns the number of passes that
    count.  A pass rejected at the cocycle stage folds nothing; one rejected
    at the section stage folds its cocycle residual.  Neither counts.
    """
    mats, nus = _words(n, data, lengths)
    alpha, beta, g = mats[0::3], mats[1::3], mats[2::3]
    nu_a, nu_g = nus[0::3], nus[2::3]
    cocycle = _Cocycle(alpha, nu_a, beta, points)
    _, mu_g, _, ill_gz = _factors(g, base.z)
    gz = _act(g, base.z, mu_g, ill_gz)
    ill_gz, gz_outside = ill_gz.tolist(), _outside(gz).tolist()
    delta_gz = delta(gz)
    lhs_f = _Section(alpha @ g, [a * b for a, b in zip(nu_a, nu_g)], base.z)
    alpha_f = _Section(alpha, nu_a, gz)
    g_f = _Section(g, nu_g, base.z)
    delta_base = delta(base.z)
    counted = 0
    for i in range(len(points)):
        try:
            res = max(cocycle.residuals(i))
        except NearSingularAutomorphyFactor:
            continue
        worst["cocycle"] = max(worst["cocycle"], res)
        # section factorization against the base point
        try:
            _check_action(ill_gz[i], gz_outside[i])
            lhs = lhs_f.value(i, delta_base, k, nu, s)
            rhs = (alpha_f.value(i, delta_gz[i], k, nu, s)
                   * g_f.value(i, delta_base, k, nu, s)
                   * delta_gz[i] ** (k / 2 - s))
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
