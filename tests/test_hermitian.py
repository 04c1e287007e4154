"""Positive definite Hermitian matrices and their enumeration.

The enumeration oracle below is an independent box scan using the explicit
binary norm forms of each field, so any indexing slip in the production
enumerator shows up as a set difference.
"""

import pytest
from fractions import Fraction

from eismeasure.errors import LatticeMismatch, UnsupportedSize
from eismeasure.fields import FieldData
from eismeasure.hermitian import (
    CuspData,
    HermitianMatrix,
    enumerate_positive,
    is_positive_definite,
    gl_conjugate,
    gl_conjugate_inverse,
)

GAUSS = FieldData(p=5, k_disc=-4)
EISEN = FieldData(p=7, k_disc=-3)

NORM_FORMS = {
    -4: lambda u, v: u * u + v * v,
    -3: lambda u, v: u * u + u * v + v * v,
    -7: lambda u, v: u * u + u * v + 2 * v * v,
}


def oracle_rank2(field, bound):
    """Box scan of positive definite 2x2 integral Hermitian matrices."""
    norm = NORM_FORMS[field.k_disc]
    out = set()
    for a in range(1, bound):
        for c in range(1, bound - a + 1):
            for u in range(-bound * bound, bound * bound + 1):
                for v in range(-bound * bound, bound * bound + 1):
                    if a + c <= bound and a * c - norm(u, v) > 0:
                        b = field.K(u, v)
                        m = HermitianMatrix(field, ((field.K(a), b),
                                                    (b.conj(), field.K(c))))
                        out.add(m.key())
    return out


@pytest.mark.parametrize("field", [GAUSS, EISEN])
@pytest.mark.parametrize("bound", [2, 3, 4])
def test_rank2_enumeration_matches_box_scan(field, bound):
    got = {m.key() for m in enumerate_positive(field, 2, bound)}
    assert got == oracle_rank2(field, bound)


def test_pinned_counts():
    assert len(enumerate_positive(GAUSS, 2, 2)) == 1
    only = enumerate_positive(GAUSS, 2, 2)[0]
    assert only.key() == ((1, 0), (0, 0), (0, 0), (1, 0))
    assert len(enumerate_positive(GAUSS, 2, 3)) == 11


def test_enumeration_is_a_shared_tuple():
    ms = enumerate_positive(GAUSS, 2, 4)
    assert isinstance(ms, tuple)
    assert enumerate_positive(FieldData(p=5, k_disc=-4), 2, 4) is ms
    assert enumerate_positive(GAUSS, 2, 3) is not ms


def test_rank1_enumeration():
    got = [m.entries[0][0].u for m in enumerate_positive(GAUSS, 1, 6)]
    assert got == [1, 2, 3, 4, 5, 6]


def test_sorted_by_trace_then_key():
    ms = enumerate_positive(GAUSS, 2, 4)
    keys = [(m.trace(), m.key()) for m in ms]
    assert keys == sorted(keys)


def test_hermitian_constraints():
    b = GAUSS.K(1, 1)
    with pytest.raises(LatticeMismatch):
        HermitianMatrix(GAUSS, ((GAUSS.K(1), b), (b, GAUSS.K(1))))
    with pytest.raises(LatticeMismatch):
        HermitianMatrix(GAUSS, ((GAUSS.K(0, 1), b), (b.conj(), GAUSS.K(1))))


def test_determinant_and_minors():
    b = GAUSS.K(1, 1)
    m = HermitianMatrix(GAUSS, ((GAUSS.K(3), b), (b.conj(), GAUSS.K(2))))
    assert m.det_exact.u == Fraction(4)  # 6 - norm(1+i)
    assert m.leading_minor(1) == Fraction(3)
    assert is_positive_definite(m)


def test_gl_conjugate_roundtrip():
    b = GAUSS.K(1, 1)
    beta = HermitianMatrix(GAUSS, ((GAUSS.K(3), b), (b.conj(), GAUSS.K(2))))
    h = ((GAUSS.K(1), GAUSS.K(0, 1)), (GAUSS.K(0), GAUSS.K(1)))
    lam = Fraction(2)
    gamma = gl_conjugate(beta, h, lam)
    back = gl_conjugate_inverse(gamma, h, lam)
    assert back.key() == beta.key()
    # the transform scales determinants by norm(det h) / lam^n
    assert gamma.det_exact.u == beta.det_exact.u / lam**2


def test_cusp_rules():
    single = CuspData.single_term(GAUSS, 2)
    beta = enumerate_positive(GAUSS, 2, 3)[0]
    terms = single.rule(beta)
    assert len(terms) == 1
    a, mult = terms[0]
    assert a == GAUSS.K(1) and mult == Fraction(1)

    fs = FieldData(p=5, mode="symplectic")
    div = CuspData.divisor_rule(fs)
    beta6 = HermitianMatrix(fs, ((fs.K(6),),))
    ds = sorted(a.u for a, _ in div.rule(beta6))
    assert ds == [1, 2, 3, 6]
    beta10 = HermitianMatrix(fs, ((fs.K(10),),))
    assert sorted(a.u for a, _ in div.rule(beta10)) == [1, 2]


def test_divisor_rule_matches_trial_division_in_order():
    fs = FieldData(p=5, mode="symplectic")
    rule = CuspData.divisor_rule(fs).rule
    for m in list(range(1, 130)) + [625, 1000, 997, 30 * 30]:
        beta = HermitianMatrix(fs, ((fs.K(m),),))
        want = [d for d in range(1, m + 1) if m % d == 0 and d % 5 != 0]
        assert [a.u for a, _ in rule(beta)] == want
        assert all(mult == 1 for _, mult in rule(beta))


def test_divisor_rule_rejects_an_index_of_non_integral_trace():
    """The rule reads the trace as an integer; 5/2 is not truncated to 2."""
    fs = FieldData(p=5, mode="symplectic")
    rule = CuspData.divisor_rule(fs).rule
    with pytest.raises(LatticeMismatch, match="integral trace"):
        rule(HermitianMatrix(fs, ((fs.K(Fraction(5, 2)),),)))
    assert [a.u for a, _ in rule(HermitianMatrix(fs, ((fs.K(2),),)))] == [1, 2]


@pytest.mark.parametrize("bound", [1, 2, 6])
def test_symplectic_rank_two_enumeration_is_unsupported(bound):
    """Symplectic mode has no imaginary part, so its rank-two forms are not
    the Hermitian lattice scanned here: the enumeration refuses at any bound
    instead of dividing by the zero discriminant."""
    with pytest.raises(UnsupportedSize, match="symplectic"):
        enumerate_positive(FieldData(p=5, mode="symplectic"), 2, bound)
