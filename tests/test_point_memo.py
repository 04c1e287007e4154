"""Cusp-rule points stored on the memoised enumeration.

Every index keeps what the cusp rule it was last swept with gave, one slot
``[rule, pairs, points, view]``: the rule's (a, mult) pairs, its points once
a term-by-term job or validation reads them, and the power-sum view, read
from the pairs' integers.  Each point is built at most once per enumeration
and rule and keeps its flags, coset keys and unit translates; a power-sum
sweep builds none.  These tests hold the sweeps that reuse them to
``tests/qexp_oracle.py``, which builds fresh points on every call, hold the
view to one built from fresh points' flags, check that an error is never
stored, and bound what the memo keeps.
"""

import collections
import gc
import math
import random
import weakref
from fractions import Fraction

import pytest

from eismeasure.errors import (
    DenominatorDivisibleByP,
    EisMeasureError,
    LatticeMismatch,
    PrecisionUnavailable,
)
from eismeasure.fields import FieldData, Weight
from eismeasure.functions import (
    GnPoint,
    LCFunction,
    MonomialFunction,
    check_equivariance,
    h_to_f,
    norm_rel_exact,
    random_lc_function,
    symmetrize,
    weight_twist,
    y_det_key,
)
from eismeasure.hermitian import CuspData, HermitianMatrix, enumerate_positive
from eismeasure.measure import kummer_check
from eismeasure.padic import PadicElt
from eismeasure.qexp import _expansions, _job_sweep, _rule_terms
from eismeasure.rings import QQ, PadicRing
from qexp_oracle import oracle_qexp

G3 = FieldData(p=5, k_disc=-4, precision=3)
G12 = FieldData(p=5, k_disc=-4, precision=12)
GAUSS = FieldData(p=5, k_disc=-4)
SYMPL = FieldData(p=5, mode="symplectic")


def _live_points():
    """The number of GnPoint objects alive."""
    gc.collect()
    return sum(type(o) is GnPoint for o in gc.get_objects())


def _fresh_point(field, a, beta):
    """The cusp-rule point as the oracle builds it."""
    na = norm_rel_exact(a, field)
    return GnPoint(
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
     # single-term cusps on the divisor contexts' enumerations: a sweep of
     # either replaces the other's stored points
     (G3, CuspData.single_term(G3, 1), 20),
     (SYMPL, CuspData.single_term(SYMPL, 1), 30),
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
    validation, over every context twice: each expansion (or error) equals
    the oracle's, run by run.  The oracle's points store neither coset keys
    nor translates."""
    jobs = [_jobs(field, cusp.n, cusp, bound, 7 + i)
            for i, (field, cusp, bound) in enumerate(CONTEXTS)]
    enumerate_positive.cache_clear()  # the first round starts cold
    runs = [(c, (j,), validate)
            for c, ctx_jobs in enumerate(jobs)
            for j in range(len(ctx_jobs))
            for validate in (False, True)]
    oracle = {}

    def want(c, j, validate):
        if (c, j, validate) not in oracle:
            field, cusp, bound = CONTEXTS[c]
            f, w = jobs[c][j]
            with monkeypatch.context() as m:
                m.setattr(GnPoint, "unit_translate", _fresh_translate)
                m.setattr(GnPoint, "coset_key", _fresh_coset_key)
                oracle[c, j, validate] = _outcome(lambda: oracle_qexp(
                    f, w, cusp, bound, field, validate=validate))
        return oracle[c, j, validate]

    for c, (j,), validate in runs:
        want(c, j, validate)
    rng = random.Random(12)
    for c, ctx_jobs in enumerate(jobs):  # groups of jobs that succeed alone
        good = [j for j in range(len(ctx_jobs))
                if not isinstance(want(c, j, False), tuple)]
        assert len(good) >= 5
        for _ in range(3):
            runs.append((c, tuple(rng.sample(good, 3)), False))
    failed = 0
    for _ in range(2):
        rng.shuffle(runs)
        for c, group, validate in runs:
            field, cusp, bound = CONTEXTS[c]
            got = _outcome(lambda: _expansions(
                [jobs[c][j] for j in group], cusp, bound, field,
                validate=validate))
            if len(group) == 1:
                got = got if isinstance(got, tuple) else got[0]
                _assert_same(got, want(c, group[0], validate))
                failed += isinstance(got, tuple)
                continue
            for j, q in zip(group, got):
                _assert_same(q, want(c, j, False))
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
    # a stored level-4 key is one that exists, and the others still raise
    betas = enumerate_positive(field, 2, 4)
    swept = [b for b in betas if b._rule_terms is not None]
    assert swept and all(b._rule_terms[0] is cusp.rule for b in swept)
    points = [pt for b in swept for pt in b._rule_terms[2]]
    missing = [pt for pt in points if 4 not in (pt._coset_keys or {})]
    assert missing
    for pt in missing:
        with pytest.raises(PrecisionUnavailable):
            pt.coset_key(4)
        assert 4 not in (pt._coset_keys or {})
    f3 = random_lc_function(field, 2, 3, random.Random(1))
    got, = _expansions([(f3, Weight(2, 0))], cusp, 4, field, validate=False)
    _assert_same(got, oracle_qexp(f3, Weight(2, 0), cusp, 4, field,
                                  validate=False))
    # the level-3 sweep kept the points stored before it
    kept = [pt for b in swept for pt in b._rule_terms[2]]
    assert len(kept) == len(points)
    assert all(pt is old for pt, old in zip(kept, points))
    _slot_counts(cusp.rule, betas)
    points = [pt for b in betas for pt in b._rule_terms[2]]
    assert all(3 in pt._coset_keys for pt in points if pt.y_is_invertible)


def _slot_counts(rule, betas):
    """(indices, built points) of the slots on betas, each checked against
    rule: the slot's rule is rule, its pairs are the rule's, and each built
    point's x is its pair's a itself (points are None until read)."""
    points = 0
    for b in betas:
        slot_rule, pairs, pts, _ = b._rule_terms
        assert slot_rule is rule
        assert pairs == tuple(rule(b))
        if pts is not None:
            assert len(pts) == len(pairs)
            assert all(pt.x is a for pt, (a, _) in zip(pts, pairs))
            points += len(pts)
    return len(betas), points


#: a term-by-term job at any rank-one point with a unit x
X_TABLE = {field: LCFunction(field, 1, QQ, 1,
                             rule=lambda xk, yk: Fraction(xk[0]))
           for field in (G3, G12, GAUSS, SYMPL)}


def test_each_index_keeps_one_slot_for_as_long_as_its_enumeration():
    """After the Kummer check, a term-by-term sweep of its cusp and a
    rank-two single-term sweep every index keeps one slot: the rule it was
    swept with, its pairs and all of its points, the divisor rule's d > 1
    points included.  The Kummer check alone stores the pairs and builds no
    point.  The built-in cusps are made once per argument tuple, so the
    Kummer check's rule is the divisor rule.  The old points go with the old
    memo entry, and a new enumeration stores none."""
    enumerate_positive.cache_clear()
    assert kummer_check(SYMPL, 4, 24, 1, 200).passed
    divisor = CuspData.divisor_rule(SYMPL)
    assert divisor is CuspData.divisor_rule(SYMPL)
    assert _slot_counts(divisor.rule,
                        enumerate_positive(SYMPL, 1, 200)) == (200, 0)
    _expansions([(X_TABLE[SYMPL], Weight(1, 0))], divisor, 200, SYMPL,
                validate=False)
    single = CuspData.single_term(GAUSS, 2)
    mono = MonomialFunction(GAUSS, 2, PadicRing(5, 24), Fraction(1),
                            e_det=-1)
    _expansions([(mono, Weight(2, 0))], single, 6, GAUSS, validate=False)
    assert single is CuspData.single_term(GAUSS, 2)
    assert single is not CuspData.single_term(GAUSS, 1)
    indices, points = _slot_counts(divisor.rule,
                                   enumerate_positive(SYMPL, 1, 200))
    assert points > indices == 200  # d > 1 points are stored too
    indices2, points2 = _slot_counts(single.rule,
                                     enumerate_positive(GAUSS, 2, 6))
    assert points2 == indices2 > 0
    before = _live_points()
    enumerate_positive.cache_clear()
    assert before - _live_points() == points + points2
    for betas in (enumerate_positive(SYMPL, 1, 200),
                  enumerate_positive(GAUSS, 2, 6)):
        assert all(b._rule_terms is None for b in betas)


def test_a_new_rule_per_sweep_keeps_one_slot_per_index():
    """Twenty Kummer-style sweeps with a term-by-term job, each with a new
    rule closure (as a traced run makes one per job): each index keeps one
    slot, the last rule's, the earlier rules' points are collected, and
    every sweep gives the same expansions as the oracle."""
    divisor = CuspData.divisor_rule(SYMPL)
    jobs = [(h_to_f(MonomialFunction(SYMPL, 1, QQ, Fraction(1), e_xs=e)),
             Weight(1, 0)) for e in (3, 23)] + [(X_TABLE[SYMPL], Weight(1, 0))]
    enumerate_positive.cache_clear()
    betas = enumerate_positive(SYMPL, 1, 200)
    base = _live_points()
    want = [oracle_qexp(f, w, divisor, 200, SYMPL, validate=False)
            for f, w in jobs]
    for _ in range(20):
        cusp = CuspData("divisor", 1, lambda beta: divisor.rule(beta))
        for got, q in zip(_expansions(jobs, cusp, 200, SYMPL, validate=False),
                          want):
            _assert_same(got, q)
        indices, points = _slot_counts(cusp.rule, betas)
        assert _live_points() - base == points > indices


def _halved_divisors(beta):
    """The divisor rule at beta / 2 from trace 7 on: trace 7 is the first
    index whose rule raises LatticeMismatch (non-integral trace)."""
    m = beta.entries[0][0].a
    half = HermitianMatrix(SYMPL, ((SYMPL.K(Fraction(m, 2 if m > 6 else 1)),),))
    return CuspData.divisor_rule(SYMPL).rule(half)


def _zero_at_seven(beta):
    """The divisor rule, with an element of norm 0 at trace 7, after 1 and
    7: the point (0, ...) cannot be built."""
    extra = [(SYMPL.K(0), 1)] if beta.entries[0][0].a == 7 else []
    return CuspData.divisor_rule(SYMPL).rule(beta) + extra


@pytest.mark.parametrize("rule, error, text", [
    (_halved_divisors, LatticeMismatch,
     r"Her\(\(\(\(7/2\+0w\),\),\)\) is not a rank-one index of integral trace"),
    (_zero_at_seven, ZeroDivisionError, "KNum with denominator zero"),
])
def test_errors_are_never_stored(rule, error, text):
    """A rule that raises, or whose element of norm 0 gives no point,
    raises on every sweep, with and without validation.  A rule that raises
    leaves no slot at that index; an element of norm 0 leaves the rule's
    pairs and no view and no point.  The indices before it keep their
    complete slots.  The oracle raises the same error type."""
    cusp = CuspData("broken", 1, rule)
    mono = MonomialFunction(SYMPL, 1, QQ, Fraction(1), e_xs=2, e_det=-1)
    enumerate_positive.cache_clear()
    betas = enumerate_positive(SYMPL, 1, 12)
    rule_runs_at_seven = error is ZeroDivisionError
    for validate in (False, True, False):
        with pytest.raises(error, match=text):
            _expansions([(mono, Weight(3, 0))], cusp, 12, SYMPL,
                        validate=validate)
        assert [b._rule_terms is not None for b in betas] == \
            [m < 7 or m == 7 and rule_runs_at_seven for m in range(1, 13)]
        if rule_runs_at_seven:
            _slot_counts(rule, betas[6:7])
            assert betas[6]._rule_terms[2:] == [None, False]
        _slot_counts(rule, betas[:6])
    with pytest.raises(error):
        oracle_qexp(mono, Weight(3, 0), cusp, 12, SYMPL, validate=False)


def test_cusps_swept_alternately_match_the_oracle():
    """Three cusps on one enumeration, swept in turn twice: the divisor
    rule, the single-term cusp and a new closure around the divisor rule
    (same label, another rule).  Each sweep replaces the slots with its own
    rule's terms, and equals the oracle, in value or error, with and
    without validation."""
    passed = 0
    for i, field in enumerate((G12, SYMPL)):
        divisor = CuspData.divisor_rule(field)
        cusps = [divisor, CuspData.single_term(field, 1),
                 CuspData("divisor", 1, lambda beta, r=divisor.rule: r(beta))]
        w = Weight(3, 1 if field.mode == "unitary" else 0)
        jobs = [(MonomialFunction(field, 1, QQ, Fraction(1), e_xs=2, e_det=-1),
                 w),
                (MonomialFunction(field, 1, PadicRing(5, 12), Fraction(1),
                                  e_xs=4, e_det=-2), Weight(5, 0)),
                (symmetrize(random_lc_function(field, 1, 2, random.Random(i),
                                               entries=8), w), w)]
        enumerate_positive.cache_clear()
        betas = enumerate_positive(field, 1, 20)
        for validate in (False, True, False, True):
            for cusp in cusps:
                for f, w in jobs:
                    got = _outcome(lambda: _expansions(
                        [(f, w)], cusp, 20, field, validate=validate)[0])
                    _assert_same(got, _outcome(lambda: oracle_qexp(
                        f, w, cusp, 20, field, validate=validate)))
                    passed += validate and not isinstance(got, tuple)
                _slot_counts(cusp.rule, betas)
    assert passed > 0


def _counting_tests(monkeypatch):
    """Count the calls of each point's unit and invertibility tests."""
    calls = collections.Counter()
    for name in ("x_is_unit", "y_is_invertible"):
        def counted(pt, name=name, fget=getattr(GnPoint, name).fget):
            calls[name] += 1
            return fget(pt)
        monkeypatch.setattr(GnPoint, name, property(counted))
    return calls


def _view_of(beta, inverse=False):
    """The power view ``qexp._power_sum`` stores, from fresh points' unit
    and invertibility tests: False unless every point can be built and its
    x is a rational unit, else [y invertible, the multiplicities or None if
    all are 1, (x * D per pair, D), (A / x per pair, A) or None], with D
    the lcm of the x's denominators and A that of their numerators, where
    every point's y, and beta itself, is invertible alike.  The last form
    is None unless ``inverse``: a sweep stores it once a job of negative
    x-exponent reads it."""
    field, pairs = beta.field, beta._rule_terms[1]
    try:
        points = [_fresh_point(field, a, beta) for a, _ in pairs]
        if not all(not pt.x.b and pt.x_is_unit for pt in points):
            return False
        flags = {pt.y_is_invertible
                 for pt in points + [GnPoint(field, field.K(1), beta.entries)]}
    except (ZeroDivisionError, EisMeasureError):
        return False
    assert len(flags) == 1
    xs = [Fraction(pt.x.a, pt.x.d) for pt in points]
    lcm_d = math.lcm(*(x.denominator for x in xs))
    lcm_a = math.lcm(*(x.numerator for x in xs))
    mults = tuple(mult for _, mult in pairs)
    return [flags.pop(), None if all(m == 1 for m in mults) else mults,
            (tuple(int(x * lcm_d) for x in xs), lcm_d),
            (tuple(int(lcm_a / x) for x in xs), lcm_a) if inverse else None]


def test_a_warm_kummer_sweep_tests_no_point(monkeypatch):
    """The first Kummer check stores each index's power view from the rule's
    integers, with no unit or invertibility test, equal to the view from
    fresh points' tests; the second reads the views and calls neither
    test."""
    calls = _counting_tests(monkeypatch)
    enumerate_positive.cache_clear()
    assert kummer_check(SYMPL, 4, 24, 1, 200).passed
    assert not calls
    betas = enumerate_positive(SYMPL, 1, 200)
    views = [b._rule_terms[3] for b in betas]
    assert views == [_view_of(b) for b in betas]
    assert calls["x_is_unit"] > 0 and calls["y_is_invertible"] > 0
    assert {v[0] for v in views} == {True, False}
    calls.clear()
    assert kummer_check(SYMPL, 6, 26, 1, 200).passed
    assert not calls
    assert all(b._rule_terms[3] is v for b, v in zip(betas, views))


def test_a_new_rule_drops_the_power_view():
    """A sweep with another rule drops each index's view with its old
    terms, whatever its jobs; the next monomial sweep stores the view of
    the new points and matches the oracle."""
    divisor, single = (CuspData.divisor_rule(SYMPL),
                       CuspData.single_term(SYMPL, 1))
    mono = MonomialFunction(SYMPL, 1, QQ, Fraction(1), e_xs=2, e_det=-1)
    table = LCFunction(SYMPL, 1, QQ, 2, rule=lambda xk, yk: Fraction(xk[0]))
    w = Weight(3, 0)
    enumerate_positive.cache_clear()
    betas = enumerate_positive(SYMPL, 1, 30)
    _expansions([(mono, w)], divisor, 30, SYMPL, validate=False)
    assert all(b._rule_terms[3] for b in betas)
    _expansions([(table, Weight(1, 0))], single, 30, SYMPL, validate=False)
    assert all(b._rule_terms[3] is None for b in betas)
    for cusp in (single, divisor):
        got, = _expansions([(mono, w)], cusp, 30, SYMPL, validate=False)
        _assert_same(got, oracle_qexp(mono, w, cusp, 30, SYMPL,
                                      validate=False))
        assert [b._rule_terms[3] for b in betas] == \
            [_view_of(b) for b in betas]


def _fifth_at_seven(beta):
    """The divisor rule, with x = 1/5 after 1 and 7 at trace 7: a point's
    unit test of that x raises."""
    extra = [(SYMPL.K(Fraction(1, 5)), 1)] if beta.entries[0][0].a == 7 else []
    return CuspData.divisor_rule(SYMPL).rule(beta) + extra


def test_a_unit_test_that_raises_leaves_no_view():
    """At trace 7 x = 1/5 is no rational unit, so that index's view is
    False (the point's unit test raises there); the sweep raises the
    oracle's error on every run, and the indices before it keep their
    views."""
    cusp = CuspData("fifth", 1, _fifth_at_seven)
    mono = MonomialFunction(SYMPL, 1, QQ, Fraction(1), e_xs=2, e_det=-1)
    w = Weight(3, 0)
    enumerate_positive.cache_clear()
    betas = enumerate_positive(SYMPL, 1, 12)
    want = _outcome(lambda: oracle_qexp(mono, w, cusp, 12, SYMPL,
                                        validate=False))
    assert want == (DenominatorDivisibleByP, "5 is divisible by 5")
    for _ in range(3):
        assert _outcome(lambda: _expansions([(mono, w)], cusp, 12, SYMPL,
                                            validate=False)) == want
        views = [b._rule_terms and b._rule_terms[3] for b in betas]
        assert views[:6] == [_view_of(b) for b in betas[:6]] and all(views[:6])
        assert views[6] is False is _view_of(betas[6])
        assert views[7:] == [None] * 5


def test_stored_points_are_lean_and_equal_fresh_points():
    """Every stored point, d > 1 included, has no ``__dict__`` and equals
    the oracle's fresh point in x, y, det(y), flags and coset keys; its unit
    translates have no ``__dict__`` either.  A failing check names a stored
    d > 1 point in the pinned witness text.  The points are built by a
    term-by-term job swept with a power sum."""
    for field, bound in ((G3, 20), (G12, 20), (GAUSS, 12), (SYMPL, 30)):
        cusp = CuspData.divisor_rule(field)
        mono = MonomialFunction(field, 1, QQ, Fraction(1), e_xs=2, e_det=-1)
        enumerate_positive.cache_clear()
        _expansions([(mono, Weight(3, 0)), (X_TABLE[field], Weight(3, 0))],
                    cusp, bound, field, validate=False)
        for b in enumerate_positive(field, 1, bound):
            for pt in b._rule_terms[2]:
                want = _fresh_point(field, pt.x, b)
                assert not hasattr(pt, "__dict__")
                assert (pt.n, pt.x, pt.y) == (want.n, want.x, want.y)
                assert pt.det_y_exact == want.det_y_exact
                assert pt.x_is_unit == want.x_is_unit
                assert pt.y_is_invertible == want.y_is_invertible
                assert pt.coset_key(2) == (want.x_key(2), want.y_key(2))
                for e in field.unit_group:
                    assert not hasattr(pt.unit_translate(e), "__dict__")
        if field is GAUSS:  # the witness at the first failing d > 1 point
            points = [pt for b in enumerate_positive(GAUSS, 1, 12)
                      for pt in b._rule_terms[2] if pt.x != GAUSS.K(1)]
            bad = random_lc_function(GAUSS, 1, 1, random.Random(2), entries=20)
            assert check_equivariance(bad, Weight(3, 1),
                                      points).witness_text() == (
                "unit (-1+0w), x = (3+0w), y = (((1/3+0w),),): O(5^1) != "
                "5^0*1 + O(5^1)")
            assert check_equivariance(bad, Weight(0, 0),
                                      points).witness_text() == (
                "unit (-1+0w), x = (3+0w), y = (((1/3+0w),),): O(5^1) != "
                "5^0*4 + O(5^1)")


VIEW_FIELDS = [GAUSS, FieldData(p=7, k_disc=-3), FieldData(p=11, k_disc=-7),
               SYMPL]


def _view_cusps(field):
    """(cusp, n) for the view oracle: the single-term, two-unit and divisor
    cusps, and hand rules that add x = 1/p, p, 0, 2/3, an irrational unit
    or 1 + w (a p-adic unit, not rational) after x = 1 at every other
    trace."""
    K, ranks = field.K, (1, 2) if field.mode == "unitary" else (1,)
    irrational = [e for e in field.unit_group if e.b]
    second = (irrational or [K(-1)])[0]  # i, or -1 where no unit is irrational
    extras = [K(Fraction(1, field.p)), K(field.p), K(0), K(Fraction(2, 3))]
    if field.mode == "unitary":
        extras += [irrational[0], K(1, 1)] if irrational else [K(1, 1)]
    cusps = [(CuspData.divisor_rule(field), 1)]
    for n in ranks:
        cusps.append((CuspData.single_term(field, n), n))
        cusps.append((CuspData("units", n, lambda beta, u=second: [
            (K(1), 1), (u, 2)]), n))
        cusps += [(CuspData("hand", n, lambda beta, x=x: [(K(1), 1)] + (
            [(x, 3)] if beta.trace() % 2 else [])), n)
                  for x in extras]
    return cusps


def _p_denominator_indices(field, n):
    """Hermitian indices with p in a denominator (no sweep enumerates one)."""
    p, K = field.p, field.K
    if n == 1:
        return [HermitianMatrix(field, ((K(Fraction(m, p)),),))
                for m in (1, 2, p + 1)]
    b = K(Fraction(1, p), Fraction(1, p))
    return [HermitianMatrix(field, ((K(3), b), (b.conj(), K(2)))),
            HermitianMatrix(field, ((K(Fraction(1, p)), K(0)),
                                    (K(0), K(1))))]


@pytest.mark.parametrize("field", VIEW_FIELDS,
                         ids=["gauss", "eisenstein", "disc-7", "symplectic"])
def test_the_view_from_the_rules_integers_equals_the_one_from_points(field):
    """At every index of each cusp, the view the power sum reads from the
    rule's pairs and det(beta), or False, equals the one built from fresh
    points' unit and invertibility tests (``_view_of``), on the enumerated
    indices and on indices with p in a denominator, before and after a job
    of negative x-exponent reads it.  Each kind of view occurs: y
    invertible, y not invertible, and False."""
    kinds = collections.Counter()
    for cusp, n in _view_cusps(field):
        w = Weight(n + 2, 0)
        monos = [MonomialFunction(field, n, QQ, Fraction(1), e_xs=e, e_det=-1)
                 for e in (2, -1)]  # x-exponents e >= 0 and e < 0
        enumerate_positive.cache_clear()
        betas = [*enumerate_positive(field, n, 12 if n == 1 else 5)]
        if cusp.label != "divisor":  # it needs an integral trace
            betas += _p_denominator_indices(field, n)
        for beta in betas:
            terms = _rule_terms(cusp.rule, beta)
            for inverse, mono in enumerate(monos):
                try:  # False views sum term by term, where x = 1/p or 0 raise
                    _job_sweep(mono, w, n, field, [(beta, terms)], [])
                except (ZeroDivisionError, EisMeasureError):
                    pass
                view = terms[3]
                assert view == _view_of(beta, inverse)
            kinds["none" if view is False
                  else "invertible" if view[0] else "singular"] += 1
    assert set(kinds) == {"none", "invertible", "singular"}


@pytest.mark.parametrize("field, n, bound", [(SYMPL, 1, 200), (GAUSS, 1, 40),
                                             (GAUSS, 2, 5)])
def test_a_power_sum_sweep_builds_no_point(monkeypatch, field, n, bound):
    """A cold sweep of rational monomials only, such as the Kummer check's,
    constructs no GnPoint.  With a term-by-term job in the same sweep each
    rule point is built exactly once, and a warm sweep builds none."""
    built = collections.Counter()
    init = GnPoint.__init__

    def counted(pt, *args, **kwargs):
        built["points"] += 1
        init(pt, *args, **kwargs)

    monkeypatch.setattr(GnPoint, "__init__", counted)
    cusp = (CuspData.divisor_rule(field) if n == 1
            else CuspData.single_term(field, n))
    monos = [(MonomialFunction(field, n, QQ, Fraction(1), e_xs=e, e_det=-1),
              Weight(n + 2, 0)) for e in (2, 6)]
    enumerate_positive.cache_clear()
    if field is SYMPL:
        assert kummer_check(field, 4, 24, 1, bound).passed
        assert not built
    _expansions(monos, cusp, bound, field, validate=False)
    assert not built
    by_term = (MonomialFunction(field, n, PadicRing(field.p, 12), Fraction(1),
                                e_xs=2, e_det=-1), Weight(n + 2, 0))
    enumerate_positive.cache_clear()
    _expansions(monos + [by_term], cusp, bound, field, validate=False)
    pairs = sum(len(b._rule_terms[1])
                for b in enumerate_positive(field, n, bound))
    assert built["points"] == pairs > 0
    built.clear()
    _expansions([by_term] + monos, cusp, bound, field, validate=False)
    assert not built
