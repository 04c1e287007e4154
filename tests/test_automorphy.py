"""Numeric factor-of-automorphy identities on the tube domain."""

import random

import numpy as np
import pytest

import automorphy_oracle as oracle
from eismeasure import automorphy
from eismeasure.errors import NearSingularAutomorphyFactor
from eismeasure.automorphy import (
    DomainPoint,
    GroupElement,
    act,
    base_point,
    cocycle_check,
    delta,
    eta_matrix,
    factors,
    random_point,
    random_word,
    section_infty,
    selftest,
)

TOL = 1e-9


def test_generators_preserve_the_hermitian_form():
    # g must satisfy conj(g)^T J g = nu J for J the standard skew form
    rng = random.Random(0)
    for n in (1, 2):
        jmat = np.block([[np.zeros((n, n)), -np.eye(n)],
                         [np.eye(n), np.zeros((n, n))]])
        for _ in range(50):
            g = random_word(n, rng)
            lhs = np.conj(g.matrix).T @ jmat @ g.matrix
            assert np.max(np.abs(lhs - g.nu * jmat)) < TOL * max(
                1.0, float(np.max(np.abs(lhs))))


def test_action_stays_in_the_domain():
    rng = random.Random(3)
    for _ in range(100):
        g = random_word(2, rng)
        pt = DomainPoint(random_point(2, rng))
        try:
            z2 = act(g, pt)
        except NearSingularAutomorphyFactor:
            continue
        assert np.linalg.eigvalsh(eta_matrix(z2.z)).min() > 0


def test_base_point_delta_is_one():
    for n in (1, 2, 3):
        assert delta(base_point(n).z) == pytest.approx(1.0, abs=1e-14)


def test_cocycle_relations():
    rng = random.Random(5)
    done = 0
    while done < 200:
        try:
            rep = cocycle_check(random_word(2, rng), random_word(2, rng),
                                DomainPoint(random_point(2, rng)))
        except NearSingularAutomorphyFactor:
            continue
        assert rep.residual < TOL, rep.details
        done += 1


def test_weyl_at_base_point():
    w = GroupElement(*[v[0] for v in automorphy._words(1, [2, 1, 2, 2], [1])])
    pt = base_point(1)
    lam, mu, jj = factors(w, pt)
    assert jj == pytest.approx(1j)
    assert act(w, pt).z[0][0] == pytest.approx(1j)


def test_section_positivity_requirement():
    g = GroupElement(-np.eye(2, dtype=complex), -1.0)
    with pytest.raises(ValueError):
        section_infty(g, base_point(1), 4, 0, 3.0)


def test_selftest_meets_tolerance():
    worst = selftest(2, 200, seed=11)
    assert max(worst.values()) < TOL


# -- the stacked self-test against the frozen pass-by-pass loop ------------------

#: (k, nu, s) triples, cycled over the seeds
WEIGHTS = [(4, 1, 3.0), (2, 0, 1.5), (6, -1, 4.25)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_selftest_matches_the_pass_by_pass_oracle(n):
    # 65 cases cross the boundary between the first two chunks
    for seed in range(21):
        k, nu, s = WEIGHTS[seed % len(WEIGHTS)]
        assert (selftest(n, 65, seed, k, nu, s)
                == oracle.selftest(n, 65, seed, k, nu, s)), (n, seed)


@pytest.mark.parametrize("cases", [1, 63, 64, 65, 1000])  # around CHUNK = 64
def test_selftest_matches_the_oracle_at_chunk_boundaries(cases):
    assert selftest(2, cases, 7) == oracle.selftest(2, cases, 7)


def _oracle_rejections(monkeypatch, n, cases, seed):
    """The oracle's residuals and its (cocycle-stage, section-stage) rejections.

    Every pass draws one point; a cocycle-stage rejection raises out of
    cocycle_check, and a pass that draws a point without counting or raising
    there was rejected at the section stage.
    """
    calls = {"random_point": 0, "cocycle_check": 0}
    draw, check = oracle.random_point, oracle.cocycle_check

    def random_point(*args):
        calls["random_point"] += 1
        return draw(*args)

    def cocycle_check(*args):
        try:
            return check(*args)
        except NearSingularAutomorphyFactor:
            calls["cocycle_check"] += 1
            raise

    with monkeypatch.context() as mp:
        mp.setattr(oracle, "random_point", random_point)
        mp.setattr(oracle, "cocycle_check", cocycle_check)
        worst = oracle.selftest(n, cases, seed)
    at_cocycle = calls["cocycle_check"]
    return worst, at_cocycle, calls["random_point"] - cases - at_cocycle


def test_forced_rejections_match_the_oracle(monkeypatch):
    # TOL_COND = 20 rejects many passes at both stages, and the cocycle
    # residual of passes rejected at the section stage is folded
    for mod in (automorphy, oracle):
        monkeypatch.setattr(mod, "TOL_COND", 20.0)
    worst, at_cocycle, at_section = _oracle_rejections(monkeypatch, 2, 300, 0)
    assert (at_cocycle, at_section) == (173, 111)
    assert at_cocycle > 0 and at_section > 0
    assert selftest(2, 300, 0) == worst
    for n, cases in ((1, 65), (2, 65), (3, 20)):
        for seed in range(1, 4):
            assert (selftest(n, cases, seed)
                    == oracle.selftest(n, cases, seed)), (n, seed)


def test_point_off_the_domain_raises_where_the_loop_would(monkeypatch):
    # a point drawn after a rejected pass of the same chunk must not raise:
    # the loop never draws it
    def off_domain(z):
        # eta(conj(z)) = -eta(z) is negative definite
        return np.conj(z) if z[0, 0].real > 0.9 else z

    draw, oracle_draw = automorphy.random_point, oracle.random_point
    monkeypatch.setattr(automorphy, "random_point",
                        lambda n, rng: off_domain(draw(n, rng)))
    monkeypatch.setattr(
        oracle, "random_point",
        lambda n, rng: oracle.DomainPoint(off_domain(oracle_draw(n, rng).z)))
    for mod in (automorphy, oracle):
        monkeypatch.setattr(mod, "TOL_COND", 20.0)
    for seed in range(8):
        outcomes = []
        for run in (selftest, oracle.selftest):
            try:
                outcomes.append(run(2, 200, seed))
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], seed


@pytest.mark.parametrize("n", [16, 20])
def test_real_off_domain_draws_end_as_the_loop_does(n):
    # at n = 16 some seeds draw a point off the domain before any pass
    # overflows, others overflow first; every seed at n = 20 overflows first
    ends = set()
    for seed in range(6):
        outcomes = []
        for run in (selftest, oracle.selftest):
            try:
                outcomes.append(run(n, 30, seed))
            except (ValueError, ArithmeticError) as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1], seed
        ends.add(outcomes[0][0] if isinstance(outcomes[0], tuple) else dict)
    assert ends == ({ValueError, OverflowError} if n == 16 else {OverflowError})


def test_selftest_draws_one_point_per_pass(monkeypatch):
    # the benchmark's traced check counts random_point calls as passes; a
    # rejected pass, forced with TOL_COND = 20, draws its one point and is
    # not drawn again
    calls = []
    draw = automorphy.random_point

    def counted(n, rng):
        calls.append(n)
        return draw(n, rng)

    monkeypatch.setattr(automorphy, "random_point", counted)
    for tol_cond in (automorphy.TOL_COND, 20.0):
        for mod in (automorphy, oracle):
            monkeypatch.setattr(mod, "TOL_COND", tol_cond)
        for seed in range(3):
            _, at_cocycle, at_section = _oracle_rejections(monkeypatch, 2,
                                                           200, seed)
            calls.clear()
            selftest(2, 200, seed)
            assert len(calls) == 200 + at_cocycle + at_section
            assert (at_cocycle > 0 and at_section > 0) == (tol_cond == 20.0)


@pytest.mark.parametrize("n, cases", [(2, 0), (2, -3), (0, 5)])
def test_selftest_needs_a_case(n, cases):
    with pytest.raises(ValueError, match="at least one case"):
        selftest(n, cases, 0)


@pytest.mark.parametrize("s", [float("nan"), float("inf"), float("-inf")])
def test_selftest_needs_a_finite_s(s):
    with pytest.raises(ValueError,
                       match=f"a finite s, got n = 2, cases = 5, s = {s}"):
        selftest(2, 5, 0, s=s)


def test_single_sample_functions_match_the_oracle():
    for n in (1, 2, 3):
        rng, ref = random.Random(n), random.Random(n)
        for _ in range(40):
            a, a0 = random_word(n, rng), oracle.random_word(n, ref)
            b, b0 = random_word(n, rng), oracle.random_word(n, ref)
            pt = DomainPoint(random_point(n, rng))
            pt0 = oracle.random_point(n, ref)
            assert np.array_equal(a.matrix, a0.matrix) and a.nu == a0.nu
            assert np.array_equal(b.matrix, b0.matrix) and b.nu == b0.nu
            assert np.array_equal(pt.z, pt0.z)
            try:
                ref_az = oracle.act(a0, pt0)
                ref_factors = oracle.factors(a0, pt0)
                ref_report = oracle.cocycle_check(a0, b0, pt0)
                ref_section = oracle.section_infty(a0, pt0, 4, 1, 3.0)
            except NearSingularAutomorphyFactor:
                with pytest.raises(NearSingularAutomorphyFactor):
                    act(a, pt)
                    factors(a, pt)
                    cocycle_check(a, b, pt)
                    section_infty(a, pt, 4, 1, 3.0)
                continue
            assert np.array_equal(act(a, pt).z, ref_az.z)
            lam, mu, jj = factors(a, pt)
            assert (np.array_equal(lam, ref_factors[0])
                    and np.array_equal(mu, ref_factors[1])
                    and jj == ref_factors[2])
            report = cocycle_check(a, b, pt)
            assert (report.residual, report.details) == (ref_report.residual,
                                                         ref_report.details)
            assert section_infty(a, pt, 4, 1, 3.0) == ref_section


# -- conditioning from det and norm against LAPACK --------------------------------


@pytest.mark.parametrize("tol", [20.0, 1e8])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_ill_matches_lapack_cond(monkeypatch, n, tol):
    # U diag(1, ..., 1, 1/c) V has cond c: c spread over [tol/20, 20 tol] and
    # bunched within 1e-9 of tol and of tol/2, at scales from 1e-6 to 1e6,
    # then zero and rank-deficient matrices
    monkeypatch.setattr(automorphy, "TOL_COND", tol)
    rng = np.random.default_rng(n)

    def unitary(k):
        return np.linalg.qr(rng.normal(size=(k, n, n))
                            + 1j * rng.normal(size=(k, n, n)))[0]

    near = rng.uniform(-1e-9, 1e-9, 1000)
    c = np.concatenate([np.exp(rng.uniform(np.log(tol / 20),
                                           np.log(20 * tol), 2000)),
                        tol * (1 + near), tol / 2 * (1 + near)])
    sv = np.ones((len(c) + 200, n))
    sv[:len(c), -1] = 1 / c
    sv[len(c):len(c) + 100] = 0
    sv[len(c) + 100:, -1] = 0
    sv *= 10.0 ** rng.uniform(-6, 6, (len(sv), 1))
    m = unitary(len(sv)) @ (sv[:, :, None] * unitary(len(sv)))
    ill = automorphy._ill(m, np.linalg.det(m))
    assert ill.tolist() == (np.linalg.cond(m) > tol).tolist()
    assert 0 < np.count_nonzero(ill) < len(ill)


def test_ill_settles_a_default_chunk_by_the_bound(monkeypatch):
    # at the default TOL_COND no matrix of a chunk reaches LAPACK's cond
    calls = []
    cond = np.linalg.cond

    def counted(m):
        calls.append(len(m))
        return cond(m)

    monkeypatch.setattr(np.linalg, "cond", counted)
    worst = selftest(2, automorphy.CHUNK, 0)
    assert calls == []
    monkeypatch.undo()
    assert worst == oracle.selftest(2, automorphy.CHUNK, 0)


# -- the draws against random.Random's own calls ------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_draws_leave_the_stream_where_random_random_does(n):
    # the oracle draws with rng.randrange, randint, choice and uniform; after
    # every pass the direct draws must leave the generator in the same state,
    # so a random module that draws differently fails here instead of
    # silently changing the residuals
    for seed in range(4):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(40):
            data, lengths = [], []
            pt = automorphy._draw_pass(n, rng, data, lengths)
            words = [oracle.random_word(n, ref), oracle.random_word(n, ref)]
            ref_pt = oracle.random_point(n, ref)
            words.append(oracle.random_word(n, ref))
            assert rng.getstate() == ref.getstate(), seed
            assert pt.tobytes() == ref_pt.z.tobytes()
            mats, nus = automorphy._words(n, data, lengths)
            assert [m.tobytes() for m in mats] == [
                w.matrix.tobytes() for w in words]
            assert nus == [w.nu for w in words]


def _blocks(parts: np.ndarray, n: int) -> np.ndarray:
    """The complex n-by-n blocks whose real and imaginary parts are the rows."""
    return parts.astype(float).view(complex).reshape(-1, n, n)


def test_exact_determinant_decision_matches_lapack():
    # every 1x1 and 2x2 block with parts in [-2, 2], as the draws make them
    for n in (1, 2):
        parts = np.stack(np.meshgrid(*[np.arange(-2, 3)] * (2 * n * n),
                                     indexing="ij"), -1).reshape(-1, 2 * n * n)
        lapack = (np.abs(np.linalg.det(_blocks(parts, n))) > 0.5).tolist()
        exact = [automorphy._det_nonzero(e, n) for e in parts.tolist()]
        assert len(exact) == 5 ** (2 * n * n)
        assert exact == lapack
        assert 0 < exact.count(False) < len(exact)


@pytest.mark.parametrize("n", [3, 4])
def test_levi_decision_at_n3_and_n4_matches_lapack_on_a_sample(n):
    rng = np.random.default_rng(n)
    blocks = rng.integers(-2, 3, size=(2000, n, n, 2))
    # a zero first entry (a pivot search), a zero column, a repeated row,
    # and a row that is (1 + i) times another
    blocks[:400, 0, 0] = 0
    blocks[400:600, :, 1] = 0
    blocks[600:800, 1] = blocks[600:800, 0]
    re, im = blocks[800:1000, 0, :, 0], blocks[800:1000, 0, :, 1]
    blocks[800:1000, 2, :, 0], blocks[800:1000, 2, :, 1] = re - im, re + im
    parts = blocks.reshape(len(blocks), -1)
    lapack = (np.abs(np.linalg.det(_blocks(parts, n))) > 0.5).tolist()
    decided = [automorphy._det_nonzero(e, n) for e in parts.tolist()]
    assert decided == lapack
    assert decided.count(False) >= 600


@pytest.mark.parametrize("given, expected", [(None, "1"), ("2", "2")])
def test_loading_the_module_defaults_blas_to_one_thread(given, expected):
    import os
    import subprocess
    import sys

    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    code = ("import os, eismeasure.automorphy; print("
            "os.environ['OPENBLAS_NUM_THREADS'], "
            "len(os.listdir('/proc/self/task')) "
            "if os.path.isdir('/proc/self/task') else 1)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    # a user's value wins; without one, numpy starts no worker thread
    assert out[0] == expected
    if given is None:
        assert out[1] == "1"
