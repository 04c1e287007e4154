"""Cusp-rule points stored on the memoised enumeration.

A point whose y is the index itself is built once per enumeration and keeps
its flags, coset keys and unit translates.  These tests hold the sweeps that
reuse it to ``tests/qexp_oracle.py``, which builds fresh points on every call,
check that an error is never stored, and bound what the memo keeps.
"""

import gc
import random
import weakref
from fractions import Fraction

import pytest

from eismeasure.errors import EisMeasureError, PrecisionUnavailable
from eismeasure.fields import FieldData, Weight
from eismeasure.functions import (
    GnPoint,
    LCFunction,
    MonomialFunction,
    norm_rel_exact,
    random_lc_function,
    symmetrize,
    weight_twist,
    y_det_key,
)
from eismeasure.hermitian import CuspData, enumerate_positive
from eismeasure.measure import kummer_check
from eismeasure.padic import PadicElt
from eismeasure.qexp import _expansions
from eismeasure.rings import QQ, PadicRing
from qexp_oracle import oracle_qexp

G3 = FieldData(p=5, k_disc=-4, precision=3)
G12 = FieldData(p=5, k_disc=-4, precision=12)
SYMPL = FieldData(p=5, mode="symplectic")


def _fresh_point(field, a, beta):
    """The cusp-rule point as the oracle builds it."""
    na = norm_rel_exact(a, field)
    return GnPoint.from_exact(
        field, a, tuple(tuple(e / na for e in row) for row in beta.entries))


def _tables(field, n, cusp, bound, seed):
    """Level-2 tables over Z_p and Q, with and without y_invertible, valued
    at the cosets of every cusp-rule point (singular ones included)."""
    rng = random.Random(seed)
    padic, rational = {}, {}
    for beta in enumerate_positive(field, n, bound):
        for a, _ in cusp.rule(beta):
            pt = _fresh_point(field, a, beta)
            key = (pt.x_key(2), pt.y_key(2))
            padic[key] = PadicElt(5, 0, rng.choice([1, 2, 3, 4, 6, 7, 8]), 2)
            rational[key] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return [LCFunction(field, n, ring, 2, values=values, y_invertible=inv)
            for ring, values in ((PadicRing(5, 2), padic), (QQ, rational))
            for inv in (True, False)]


def _jobs(field, n, cusp, bound, seed):
    """(f, w) jobs: tables, monomials over Q and Z_p, and weight twists of
    both, each twist at the base weight (n, 0)."""
    w = Weight(n + 2, 1 if field.mode == "unitary" else 0)
    tables = _tables(field, n, cusp, bound, seed)
    monos = [MonomialFunction(field, n, ring, Fraction(3, 2), e_xs=3, e_xb=1,
                              e_det=-1) for ring in (QQ, PadicRing(5, 24))]
    jobs = [(f, w) for f in tables + monos]
    # a table twists only where its y cosets are invertible
    invertible = {k: v for k, v in tables[0].values.items()
                  if y_det_key(k[1], n, 25) % 5}
    for f in [LCFunction(field, n, tables[0].ring, 2, values=invertible,
                         y_invertible=inv) for inv in (True, False)] + monos:
        jobs.append((weight_twist(f, w), Weight(n, 0)))
    jobs.append((symmetrize(tables[0], w), w))  # passes validation
    # a second level, read at the same points
    jobs.append((LCFunction(field, n, PadicRing(5, 3), 3, rule=lambda xk, yk:
                            PadicElt.from_int(xk[0] + 2 * yk[-1], 5, 3)), w))
    return jobs


def _fresh_translate(pt, e):
    """GnPoint.unit_translate without the store: a new point per call."""
    return pt._translate(e)


def _fresh_coset_key(pt, j):
    """GnPoint.coset_key without the store."""
    return pt.x_key(j), pt.y_key(j)


#: context -> (field, cusp, trace bound)
CONTEXTS = [
    (field, cusp, bound)
    for field in (G3, G12)
    for cusp, bound in ((CuspData.single_term(field, 1), 12),
                        (CuspData.single_term(field, 2), 5),
                        (CuspData.divisor_rule(field), 20))
] + [(SYMPL, CuspData.single_term(SYMPL, 1), 12),
     (SYMPL, CuspData.divisor_rule(SYMPL), 30),
     # two norm-one points per index, stored side by side
     (G3, CuspData("units", 2, lambda beta: [(G3.K(1), 1), (G3.K(0, 1), 2)]),
      4)]


def _outcome(fn):
    """fn()'s value, or the type and text of the package error it raises."""
    try:
        return fn()
    except EisMeasureError as exc:
        return type(exc), str(exc)


def _assert_same(got, want):
    if isinstance(want, tuple):  # an error
        assert got == want
        return
    assert list(got.terms) == list(want.terms)
    for key, (beta, c) in want.terms.items():
        got_beta, got_c = got.terms[key]
        assert got_beta == beta and type(got_c) is type(c)
        if isinstance(c, PadicElt):
            assert (got_c.val, got_c.unit, got_c.prec) == (c.val, c.unit, c.prec)
        else:
            assert got_c == c


def test_interleaved_sweeps_over_stored_points_match_the_oracle(monkeypatch):
    """Sweeps in shuffled order, alone and in groups, with and without
    validation and truncation, over every context twice: each expansion
    (or error) equals the oracle's, run by run.  The oracle's points store
    neither coset keys nor translates."""
    jobs = [_jobs(field, cusp.n, cusp, bound, 7 + i)
            for i, (field, cusp, bound) in enumerate(CONTEXTS)]
    enumerate_positive.cache_clear()  # the first round starts cold
    runs = [(c, (j,), prec, validate)
            for c, ctx_jobs in enumerate(jobs)
            for j in range(len(ctx_jobs))
            for prec, validate in ((None, False), (2, False), (None, True))]
    oracle = {}

    def want(c, j, prec, validate):
        if (c, j, prec, validate) not in oracle:
            field, cusp, bound = CONTEXTS[c]
            f, w = jobs[c][j]
            with monkeypatch.context() as m:
                m.setattr(GnPoint, "unit_translate", _fresh_translate)
                m.setattr(GnPoint, "coset_key", _fresh_coset_key)
                oracle[c, j, prec, validate] = _outcome(lambda: oracle_qexp(
                    f, w, cusp, bound, field, prec, validate=validate))
        return oracle[c, j, prec, validate]

    for c, (j,), prec, validate in runs:
        want(c, j, prec, validate)
    rng = random.Random(12)
    for c, ctx_jobs in enumerate(jobs):  # groups of jobs that succeed alone
        good = [j for j in range(len(ctx_jobs))
                if not isinstance(want(c, j, None, False), tuple)]
        assert len(good) >= 5
        for _ in range(3):
            runs.append((c, tuple(rng.sample(good, 3)), None, False))
    failed = 0
    for _ in range(2):
        rng.shuffle(runs)
        for c, group, prec, validate in runs:
            field, cusp, bound = CONTEXTS[c]
            got = _outcome(lambda: _expansions(
                [jobs[c][j] for j in group], cusp, bound, field, prec,
                validate=validate))
            if len(group) == 1:
                got = got if isinstance(got, tuple) else got[0]
                _assert_same(got, want(c, group[0], prec, validate))
                failed += isinstance(got, tuple)
                continue
            for j, q in zip(group, got):
                _assert_same(q, want(c, j, prec, False))
    # the validated raw tables fail the check, and so are compared as errors
    assert failed > 0


def test_a_key_that_raises_raises_on_every_sweep():
    """A level-4 table on a precision-3 field needs residues the field does
    not have.  The error is not stored: every sweep raises it, no stored
    point keeps a level-4 key, and a level-3 sweep afterwards matches the
    oracle."""
    field = G3
    cusp = CuspData.single_term(field, 2)
    enumerate_positive.cache_clear()
    f4 = random_lc_function(field, 2, 4, random.Random(1))
    for _ in range(3):
        with pytest.raises(PrecisionUnavailable,
                           match=r"\(0\+-1w\) is known mod p\^3, asked mod p\^4"):
            _expansions([(f4, Weight(2, 0))], cusp, 4, field, validate=False)
    # a stored level-4 key is one that exists; the others still raise
    points = [pt for b in enumerate_positive(field, 2, 4)
              for pt in b._points.values()]
    missing = [pt for pt in points if 4 not in pt._coset_keys]
    assert missing
    for pt in missing:
        with pytest.raises(PrecisionUnavailable):
            pt.coset_key(4)
        assert 4 not in pt._coset_keys
    f3 = random_lc_function(field, 2, 3, random.Random(1))
    got, = _expansions([(f3, Weight(2, 0))], cusp, 4, field, validate=False)
    _assert_same(got, oracle_qexp(f3, Weight(2, 0), cusp, 4, field,
                                  validate=False))
    assert all(3 in pt._coset_keys for pt in points if pt.y_is_invertible)


def test_each_index_keeps_one_point_for_as_long_as_its_enumeration():
    """After the Kummer check and a rank-two single-term sweep every index
    stores exactly one point; a new enumeration stores none, and the old
    points go with the old memo entry."""
    gauss = FieldData(p=5, k_disc=-4)
    enumerate_positive.cache_clear()
    assert kummer_check(SYMPL, 4, 24, 1, 200).passed
    mono = MonomialFunction(gauss, 2, QQ, Fraction(1), e_det=-1)
    _expansions([(mono, Weight(2, 0))], CuspData.single_term(gauss, 2), 6,
                gauss, validate=False)
    old = [enumerate_positive(SYMPL, 1, 200), enumerate_positive(gauss, 2, 6)]
    assert all(len(b._points) == 1 for betas in old for b in betas)
    stored = weakref.ref(next(iter(old[0][0]._points.values())))
    enumerate_positive.cache_clear()
    del old
    gc.collect()
    assert stored() is None
    for betas in (enumerate_positive(SYMPL, 1, 200),
                  enumerate_positive(gauss, 2, 6)):
        assert not any("_points" in b.__dict__ for b in betas)
