"""Frozen pass-by-pass automorphy self-test: the reference for ``selftest``.

This is the per-pass implementation that ``eismeasure.automorphy`` replaced
with stacked kernels, kept verbatim (apart from this docstring, and g drawn
before the cocycle check, so that every pass draws alpha, beta, the point
and g) so the tests can require the stacked ``selftest`` to return equal
residuals for the same arguments.  Do not change it to follow the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from eismeasure.errors import NearSingularAutomorphyFactor

TOL_COND = 1e8


@dataclass(frozen=True)
class GroupElement:
    """A 2n-by-2n complex matrix with its similitude factor."""

    matrix: np.ndarray
    nu: float

    @property
    def n(self) -> int:
        return self.matrix.shape[0] // 2

    def blocks(self):
        n = self.n
        m = self.matrix
        return m[:n, :n], m[:n, n:], m[n:, :n], m[n:, n:]

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.matrix @ other.matrix, self.nu * other.nu)


def levi_element(h: np.ndarray, lam: float) -> GroupElement:
    """Block diag(conj(h)^-T, lam * h); similitude factor lam."""
    n = h.shape[0]
    top = np.linalg.inv(np.conj(h)).T
    m = np.zeros((2 * n, 2 * n), dtype=complex)
    m[:n, :n] = top
    m[n:, n:] = lam * h
    return GroupElement(m, lam)


def translation_element(b: np.ndarray) -> GroupElement:
    """Upper unipotent with Hermitian block b."""
    n = b.shape[0]
    if not np.allclose(b, np.conj(b).T):
        raise ValueError("translation block must be Hermitian")
    m = np.eye(2 * n, dtype=complex)
    m[:n, n:] = b
    return GroupElement(m, 1.0)


def weyl_element(n: int) -> GroupElement:
    m = np.zeros((2 * n, 2 * n), dtype=complex)
    m[:n, n:] = -np.eye(n)
    m[n:, :n] = np.eye(n)
    return GroupElement(m, 1.0)


@dataclass(frozen=True)
class DomainPoint:
    """A point of the tube domain: i*(conj(z)^T - z) positive definite."""

    z: np.ndarray

    def __post_init__(self):
        vals = np.linalg.eigvalsh(eta_matrix(self.z))
        if vals.min() <= 0:
            raise ValueError("point is not in the tube domain")


def base_point(n: int) -> DomainPoint:
    return DomainPoint(1j * np.eye(n, dtype=complex))


def eta_matrix(z: np.ndarray) -> np.ndarray:
    return 1j * (np.conj(z).T - z)


def delta(z: np.ndarray) -> float:
    return float(np.real(np.linalg.det(eta_matrix(z) / 2)))


def act(alpha: GroupElement, pt: DomainPoint) -> DomainPoint:
    a, b, c, d = alpha.blocks()
    den = c @ pt.z + d
    if np.linalg.cond(den) > TOL_COND:
        raise NearSingularAutomorphyFactor("denominator block is ill conditioned")
    return DomainPoint((a @ pt.z + b) @ np.linalg.inv(den))


def factors(alpha: GroupElement, pt: DomainPoint):
    """(lambda, mu, j) at the point: conj-linear factor, linear factor, det mu."""
    _, _, c, d = alpha.blocks()
    lam = np.conj(c) @ pt.z.T + np.conj(d)
    mu = c @ pt.z + d
    jj = complex(np.linalg.det(mu))
    if abs(jj) < 1e-12 or np.linalg.cond(mu) > TOL_COND:
        raise NearSingularAutomorphyFactor("factor of automorphy is near singular")
    return lam, mu, jj


def weighted_factor(alpha: GroupElement, pt: DomainPoint, k: int, nu: int) -> complex:
    """j^(k+nu) * det(lambda)^(-nu)."""
    lam, _, jj = factors(alpha, pt)
    return jj ** (k + nu) * complex(np.linalg.det(lam)) ** (-nu)


def section_infty(alpha: GroupElement, pt: DomainPoint, k: int, nu: int,
                  s: float) -> complex:
    """The archimedean section at the normalized element alpha / sqrt(nu(alpha))."""
    if alpha.nu <= 0:
        raise ValueError("positive similitude factor required")
    a1 = GroupElement(alpha.matrix / np.sqrt(alpha.nu), 1.0)
    jkv = weighted_factor(a1, pt, k, nu)
    _, _, jj = factors(a1, pt)
    return (1 / jkv) * abs(jj ** (-2)) ** (s - k / 2) * delta(pt.z) ** (s - k / 2)


@dataclass(frozen=True)
class CocycleReport:
    residual: float
    details: dict


def cocycle_check(alpha: GroupElement, beta: GroupElement,
                  pt: DomainPoint) -> CocycleReport:
    """Max residual over the factor identities at (beta, alpha, z)."""
    az = act(alpha, pt)
    lam_a, mu_a, j_a = factors(alpha, pt)
    lam_b, mu_b, j_b = factors(beta, az)
    prod = beta @ alpha
    lam_ba, mu_ba, j_ba = factors(prod, pt)
    def rel(a, b):
        scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
        return float(np.max(np.abs(a - b))) / scale

    r1 = rel(lam_ba, lam_b @ lam_a)
    r2 = rel(mu_ba, mu_b @ mu_a)
    r3 = rel(j_ba, j_b * j_a)
    # determinant relation: det(lambda) = det(conj(alpha)) nu^-n j
    n = alpha.n
    r4 = rel(complex(np.linalg.det(lam_a)),
             complex(np.linalg.det(np.conj(alpha.matrix)))
             * alpha.nu ** (-n) * j_a)
    # volume factor transformation
    r5 = rel(delta(az.z), alpha.nu ** n * abs(j_a) ** (-2) * delta(pt.z))
    res = max(r1, r2, r3, r4, r5)
    return CocycleReport(res, {"lambda": r1, "mu": r2, "det": r3,
                               "det_lambda": r4, "delta": r5})


def random_generator(n: int, rng) -> GroupElement:
    kind = rng.randrange(3)
    if kind == 0:
        while True:
            h = np.array([[complex(rng.randint(-2, 2), rng.randint(-2, 2))
                           for _ in range(n)] for _ in range(n)])
            if abs(np.linalg.det(h)) > 0.5:
                break
        lam = rng.choice([0.5, 1.0, 2.0])
        return levi_element(h, lam)
    if kind == 1:
        b = np.array([[complex(rng.randint(-2, 2), rng.randint(-2, 2))
                       for _ in range(n)] for _ in range(n)])
        b = (b + np.conj(b).T) / 2
        return translation_element(b)
    return weyl_element(n)


def random_word(n: int, rng, max_len: int = 8) -> GroupElement:
    out = random_generator(n, rng)
    for _ in range(rng.randrange(max_len)):
        out = out @ random_generator(n, rng)
    return out


def random_point(n: int, rng) -> DomainPoint:
    x = np.array([[complex(rng.uniform(-1, 1), 0) for _ in range(n)]
                  for _ in range(n)])
    x = (x + x.T) / 2
    y = np.array([[rng.uniform(-0.3, 0.3) for _ in range(n)] for _ in range(n)])
    y = (y + y.T) / 2 + np.eye(n) * rng.uniform(1.0, 2.0)
    return DomainPoint(x + 1j * y)


def selftest(n: int, cases: int, seed: int, k: int = 4, nu: int = 1,
             s: float = 3.0) -> dict:
    """Random words and points; returns the worst residuals over all cases."""
    import random

    rng = random.Random(seed)
    worst = {"cocycle": 0.0, "section": 0.0, "base_delta": 0.0}
    done = 0
    while done < cases:
        try:
            alpha = random_word(n, rng)
            beta = random_word(n, rng)
            pt = random_point(n, rng)
            g = random_word(n, rng)
            rep = cocycle_check(alpha, beta, pt)
            worst["cocycle"] = max(worst["cocycle"], rep.residual)
            # section factorization against the base point
            if g.nu <= 0:
                continue
            base = base_point(n)
            z = act(g, base)
            lhs = section_infty(alpha @ g, base, k, nu, s)
            rhs = (section_infty(alpha, z, k, nu, s)
                   * section_infty(g, base, k, nu, s)
                   * delta(z.z) ** (k / 2 - s))
            scale = max(1.0, abs(lhs), abs(rhs))
            worst["section"] = max(worst["section"], abs(lhs - rhs) / scale)
            done += 1
        except NearSingularAutomorphyFactor:
            continue
    worst["base_delta"] = abs(delta(base_point(n).z) - 1.0)
    return worst
