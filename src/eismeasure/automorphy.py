"""Double-precision checks of automorphy-factor identities on the tube domain.

Group elements are words in block generators (Levi elements, Hermitian
translations, and the Weyl involution), so membership in the similitude
group is by construction.  All identities are verified numerically at
tolerance 1e-9 on points of the tube domain where the factors are well
conditioned.

The numerical kernels take stacks of matrices, shape ``(m, ...)``, and make
one ``np.linalg`` call per stack; the public functions on one element or one
point run the same kernels on a stack of one.  ``selftest`` draws its samples
in chunks of ``CHUNK`` passes, from the ``random.Random(seed)`` stream in the
order of a pass-by-pass loop, verifies each chunk with the kernels, and folds
the residuals pass by pass in scalar Python arithmetic.  Stacked ``det``,
``inv``, ``svd``, ``eigvalsh`` and ``@`` give the same bits as calls on single
matrices, so a seed gives the same residuals as the pass-by-pass loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NearSingularAutomorphyFactor

TOL_COND = 1e8

#: Most passes that ``selftest`` draws and verifies together.  A chunk is cut
#: at its first rejected pass and the rest is drawn again, so after a
#: rejection the next chunk is half as long, and after a clean one twice as
#: long again, up to CHUNK.
CHUNK = 64


def _t(x: np.ndarray) -> np.ndarray:
    """The transpose of every matrix of a stack."""
    return np.swapaxes(x, -1, -2)


@dataclass(frozen=True)
class GroupElement:
    """A 2n-by-2n complex matrix with its similitude factor."""

    matrix: np.ndarray
    nu: float

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.matrix @ other.matrix, self.nu * other.nu)


# -- generators and words ------------------------------------------------------
# A generator is drawn as raw data (kind, block, nu): kind 0 is a Levi element
# with an invertible block h and factor lam = nu, kind 1 a translation with a
# Hermitian block b, kind 2 the Weyl involution (block None).  A word is a
# list of generators, multiplied left to right.

def _generators(n: int, gens) -> np.ndarray:
    """The stack of generator matrices for raw generator data."""
    m = np.zeros((len(gens), 2 * n, 2 * n), dtype=complex)
    levi = [i for i, g in enumerate(gens) if g[0] == 0]
    if levi:
        h = np.array([gens[i][1] for i in levi], dtype=complex)
        lam = np.array([gens[i][2] for i in levi])
        # block diag(conj(h)^-T, lam * h)
        m[levi, :n, :n] = _t(np.linalg.inv(np.conj(h)))
        m[levi, n:, n:] = lam[:, None, None] * h
    trans = [i for i, g in enumerate(gens) if g[0] == 1]
    if trans:
        b = np.array([gens[i][1] for i in trans], dtype=complex)
        if not np.allclose(b, np.conj(_t(b))):
            raise ValueError("translation block must be Hermitian")
        m[trans] = np.eye(2 * n)
        m[trans, :n, n:] = b
    weyl = [i for i, g in enumerate(gens) if g[0] == 2]
    if weyl:
        m[weyl, :n, n:] = -np.eye(n)
        m[weyl, n:, :n] = np.eye(n)
    return m


def _words(n: int, words):
    """Matrices (a stack) and similitude factors (floats) of the words."""
    mats = _generators(n, [g for w in words for g in w])
    lengths = np.array([len(w) for w in words])
    starts = np.cumsum(lengths) - lengths
    out = mats[starts]
    for step in range(1, int(lengths.max())):
        rows = np.flatnonzero(lengths > step)
        out[rows] = out[rows] @ mats[starts[rows] + step]
    nus = []
    for w in words:
        nu = w[0][2]
        for g in w[1:]:
            nu = nu * g[2]
        nus.append(nu)
    return out, nus


def levi_element(h: np.ndarray, lam: float) -> GroupElement:
    """Block diag(conj(h)^-T, lam * h); similitude factor lam."""
    return GroupElement(_generators(h.shape[0], [(0, h, lam)])[0], lam)


def translation_element(b: np.ndarray) -> GroupElement:
    """Upper unipotent with Hermitian block b."""
    return GroupElement(_generators(b.shape[0], [(1, b, 1.0)])[0], 1.0)


def weyl_element(n: int) -> GroupElement:
    return GroupElement(_generators(n, [(2, None, 1.0)])[0], 1.0)


# -- points -----------------------------------------------------------------------

def eta_matrix(z: np.ndarray) -> np.ndarray:
    return 1j * (_t(np.conj(z)) - z)


def _outside(z: np.ndarray):
    """Per point of a stack (or for one point): is eta(z) not positive definite?"""
    return np.linalg.eigvalsh(eta_matrix(z)).min(axis=-1) <= 0


def delta(z: np.ndarray):
    """det(eta(z) / 2): a float for a point, a list of floats for a stack."""
    return np.real(np.linalg.det(eta_matrix(z) / 2)).tolist()


@dataclass(frozen=True)
class DomainPoint:
    """A point of the tube domain: i*(conj(z)^T - z) positive definite."""

    z: np.ndarray

    def __post_init__(self):
        if np.any(_outside(self.z)):
            raise ValueError("point is not in the tube domain")


def base_point(n: int) -> DomainPoint:
    return DomainPoint(1j * np.eye(n, dtype=complex))


# -- stacked kernels ---------------------------------------------------------------
# m is a stack of 2n-by-2n matrices, z a stack of points or one point.

def _act(m: np.ndarray, z: np.ndarray):
    """The points m.z and the condition numbers of their denominators.

    A row whose denominator has cond above TOL_COND is rejected by the caller;
    its point is computed from the identity so the stacked inverse cannot fail.
    """
    n = z.shape[-1]
    a, b, c, d = m[:, :n, :n], m[:, :n, n:], m[:, n:, :n], m[:, n:, n:]
    den = c @ z + d
    cond = np.linalg.cond(den)
    den = np.where((cond > TOL_COND)[:, None, None], np.eye(n), den)
    return (a @ z + b) @ np.linalg.inv(den), cond


def _factors(m: np.ndarray, z: np.ndarray):
    """lambda, mu, det mu and cond mu at the points."""
    n = z.shape[-1]
    c, d = m[:, n:, :n], m[:, n:, n:]
    lam = np.conj(c) @ _t(z) + np.conj(d)
    mu = c @ z + d
    return lam, mu, np.linalg.det(mu), np.linalg.cond(mu)


def _check_action(cond: float, outside: bool):
    """Raise as act does: an ill-conditioned denominator, then a point off
    the domain."""
    if cond > TOL_COND:
        raise NearSingularAutomorphyFactor("denominator block is ill conditioned")
    if outside:
        raise ValueError("point is not in the tube domain")


def _check_factor(jj: complex, cond: float):
    if abs(jj) < 1e-12 or cond > TOL_COND:
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
        az, cond_act = _act(alpha, z)
        self.cond_act = cond_act.tolist()
        self.az_outside = _outside(az).tolist()
        lam_a, mu_a, j_a, cond_a = _factors(alpha, z)
        lam_b, mu_b, j_b, cond_b = _factors(beta, az)
        lam_ba, mu_ba, j_ba, cond_ba = _factors(beta @ alpha, z)
        self.factors = list(zip(j_a.tolist(), cond_a.tolist(), j_b.tolist(),
                                cond_b.tolist(), j_ba.tolist(), cond_ba.tolist()))
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
        _check_action(self.cond_act[i], self.az_outside[i])
        j_a, cond_a, j_b, cond_b, j_ba, cond_ba = self.factors[i]
        _check_factor(j_a, cond_a)
        _check_factor(j_b, cond_b)
        _check_factor(j_ba, cond_ba)
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
        lam, _, jj, cond = _factors(scaled, z)
        self.rows = list(zip(jj.tolist(), np.linalg.det(lam).tolist(),
                             cond.tolist()))

    def value(self, i: int, delta_z: float, k: int, nu: int, s: float) -> complex:
        jj, det_lam, cond = self.rows[i]
        _check_factor(jj, cond)
        # the weighted factor j^(k+nu) * det(lambda)^(-nu)
        jkv = jj ** (k + nu) * det_lam ** (-nu)
        return (1 / jkv) * abs(jj ** (-2)) ** (s - k / 2) * delta_z ** (s - k / 2)


# -- single elements: stacks of one ----------------------------------------------------

def act(alpha: GroupElement, pt: DomainPoint) -> DomainPoint:
    az, cond = _act(alpha.matrix[None], pt.z[None])
    _check_action(cond[0], False)  # DomainPoint checks the domain
    return DomainPoint(az[0])


def factors(alpha: GroupElement, pt: DomainPoint):
    """(lambda, mu, j) at the point: conj-linear factor, linear factor, det mu."""
    lam, mu, jj, cond = _factors(alpha.matrix[None], pt.z[None])
    jj = complex(jj[0])
    _check_factor(jj, cond[0])
    return lam[0], mu[0], jj


def section_infty(alpha: GroupElement, pt: DomainPoint, k: int, nu: int,
                  s: float) -> complex:
    """The archimedean section at the normalized element alpha / sqrt(nu(alpha))."""
    if alpha.nu <= 0:
        raise ValueError("positive similitude factor required")
    sec = _Section(alpha.matrix[None], [alpha.nu], pt.z[None])
    return sec.value(0, delta(pt.z), k, nu, s)


@dataclass(frozen=True)
class CocycleReport:
    residual: float
    details: dict


def cocycle_check(alpha: GroupElement, beta: GroupElement,
                  pt: DomainPoint) -> CocycleReport:
    """Max residual over the factor identities at (beta, alpha, z)."""
    res = _Cocycle(alpha.matrix[None], [alpha.nu], beta.matrix[None],
                   pt.z[None]).residuals(0)
    return CocycleReport(max(res), dict(zip(
        ("lambda", "mu", "det", "det_lambda", "delta"), res)))


# -- random samples -----------------------------------------------------------------

def _gaussian_block(n: int, rng) -> list:
    return [[complex(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n)]
            for _ in range(n)]


def _draw_generator(n: int, rng) -> tuple:
    kind = rng.randrange(3)
    if kind == 0:
        while True:
            h = _gaussian_block(n, rng)
            if abs(np.linalg.det(h)) > 0.5:
                break
        return kind, h, rng.choice([0.5, 1.0, 2.0])
    if kind == 1:
        b = _gaussian_block(n, rng)
        return kind, [[(b[i][j] + b[j][i].conjugate()) / 2 for j in range(n)]
                      for i in range(n)], 1.0
    return kind, None, 1.0


def _draw_word(n: int, rng, max_len: int = 8) -> list:
    word = [_draw_generator(n, rng)]
    for _ in range(rng.randrange(max_len)):
        word.append(_draw_generator(n, rng))
    return word


def random_word(n: int, rng, max_len: int = 8) -> GroupElement:
    mats, nus = _words(n, [_draw_word(n, rng, max_len)])
    return GroupElement(mats[0], nus[0])


def random_point(n: int, rng) -> DomainPoint:
    x = np.array([[complex(rng.uniform(-1, 1), 0) for _ in range(n)]
                  for _ in range(n)])
    x = (x + x.T) / 2
    y = np.array([[rng.uniform(-0.3, 0.3) for _ in range(n)] for _ in range(n)])
    y = (y + y.T) / 2 + np.eye(n) * rng.uniform(1.0, 2.0)
    return DomainPoint(x + 1j * y)


# -- the self-test ------------------------------------------------------------------

def _draw_pass(n: int, rng, with_g: bool = True):
    """One pass's draws in stream order: alpha, beta, the point, then g."""
    alpha, beta = _draw_word(n, rng), _draw_word(n, rng)
    pt = random_point(n, rng)
    return alpha, beta, pt, (_draw_word(n, rng) if with_g else None)


def _verify(n: int, passes, base: DomainPoint, k: int, nu: int, s: float,
            worst: dict):
    """Fold the passes' residuals into ``worst`` in pass order.

    Stops at the first rejected pass.  Returns the number of passes verified
    before it (all of them if none is rejected) and whether the rejected pass
    drew g: a pass rejected at the section stage still counts its cocycle
    residual.
    """
    alpha, nu_a = _words(n, [p[0] for p in passes])
    beta, _ = _words(n, [p[1] for p in passes])
    g, nu_g = _words(n, [p[3] for p in passes])
    cocycle = _Cocycle(alpha, nu_a, beta, np.array([p[2].z for p in passes]))
    gz, cond_gz = _act(g, base.z)
    cond_gz, gz_outside = cond_gz.tolist(), _outside(gz).tolist()
    delta_gz = delta(gz)
    lhs_f = _Section(alpha @ g, [a * b for a, b in zip(nu_a, nu_g)], base.z)
    alpha_f = _Section(alpha, nu_a, gz)
    g_f = _Section(g, nu_g, base.z)
    delta_base = delta(base.z)
    for i in range(len(passes)):
        try:
            res = max(cocycle.residuals(i))
        except NearSingularAutomorphyFactor:
            return i, False
        worst["cocycle"] = max(worst["cocycle"], res)
        # section factorization against the base point
        if nu_g[i] <= 0:
            return i, True
        try:
            _check_action(cond_gz[i], gz_outside[i])
            lhs = lhs_f.value(i, delta_base, k, nu, s)
            rhs = (alpha_f.value(i, delta_gz[i], k, nu, s)
                   * g_f.value(i, delta_base, k, nu, s)
                   * delta_gz[i] ** (k / 2 - s))
        except NearSingularAutomorphyFactor:
            return i, True
        scale = max(1.0, abs(lhs), abs(rhs))
        worst["section"] = max(worst["section"], abs(lhs - rhs) / scale)
    return len(passes), False


def selftest(n: int, cases: int, seed: int, k: int = 4, nu: int = 1,
             s: float = 3.0) -> dict:
    """Random words and points; returns the worst residuals over all cases.

    A pass draws alpha, beta, a point and g, and counts once both identities
    were evaluated; a pass whose factors are near singular is drawn again.
    """
    if n < 1 or cases < 1:
        raise ValueError("the self-test needs n >= 1 and at least one case, "
                         f"got n = {n}, cases = {cases}")
    import random

    rng = random.Random(seed)
    worst = {"cocycle": 0.0, "section": 0.0, "base_delta": 0.0}
    base = base_point(n)
    done, size = 0, CHUNK
    while done < cases:
        state = rng.getstate()
        passes, pending = [], None
        for _ in range(min(size, cases - done)):
            try:
                passes.append(_draw_pass(n, rng))
            except ValueError as exc:
                # a point off the domain (random_point can draw one from
                # n = 16 or so): raised once the passes before it are
                # verified, unless one of them is rejected and redrawn
                pending = exc
                break
        verified, g_drawn = (_verify(n, passes, base, k, nu, s, worst)
                             if passes else (0, False))
        done += verified
        if verified < len(passes):
            size = max(1, size // 2)
            # put the stream where the rejected pass left it
            rng.setstate(state)
            for _ in range(verified):
                _draw_pass(n, rng)
            _draw_pass(n, rng, with_g=g_drawn)
        elif pending is not None:
            raise pending
        else:
            size = min(CHUNK, 2 * size)
    worst["base_delta"] = abs(delta(base.z) - 1.0)
    return worst
