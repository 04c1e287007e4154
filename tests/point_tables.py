"""Tables that are nonzero at a sweep's points, shared by the expansion
and acceptance tests: a random sparse table is zero at almost all of
them, so an identity checked on it compares zeros."""

import random

from eismeasure.functions import LCFunction, symmetrize
from eismeasure.hermitian import CuspData, enumerate_positive
from eismeasure.padic import PadicElt
from eismeasure.qexp import _rule_point
from eismeasure.rings import PadicRing

#: The weights of the weight-shift benchmark, as in acceptance 04.
WS_WEIGHTS = tuple((k, nu) for k in range(2, 7) for nu in (-1, 0, 1))


def sweep_points(field, n, cusp, bound):
    """The sweep's points with invertible y, in sweep order."""
    return [pt for beta in enumerate_positive(field, n, bound)
            for pt in (_rule_point(field, a, beta) for a, _ in cusp.rule(beta))
            if pt.y_is_invertible]


def table_at_points(field, n, cusp, bound, w, seed):
    """A symmetrized level-2 table over Z_5 with unit values at the
    sweep's points."""
    rng = random.Random(seed)
    values = {}
    for pt in sweep_points(field, n, cusp, bound):
        values[(pt.x_key(2), pt.y_key(2))] = PadicElt(
            5, 0, rng.choice([1, 2, 3, 4, 6, 7, 8, 9, 11, 12]), 2)
    table = LCFunction(field, n, PadicRing(5, 2), 2, values=values,
                       y_invertible=True)
    return symmetrize(table, w)


def one_plus_w_cusp(field, n):
    """The rule [(1, 1), (1 + w, 3)] at every index.  Its x = 1 + w is not
    rational, so nu does not cancel from the weight twist there, as it does
    at a rational x; at x = i it would too on Q(i), where i^(4 nu) = 1."""
    pairs = [(field.K(1), 1), (field.K(1, 1), 3)]
    return CuspData("1+w", n, lambda beta: pairs)
