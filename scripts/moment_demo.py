#!/usr/bin/env python3
"""Determinant-power moments of the rank-one measure, printed as a table.

The d-th moment multiplies each coefficient by det(beta)^d and carries the
shifted weight (n + 2d, -d); the script shows both routes agreeing.

Usage: python scripts/moment_demo.py [--p 5] [--k 4] [--bound 12]
"""

import argparse
from fractions import Fraction

from eismeasure.fields import FieldData
from eismeasure.functions import MonomialFunction
from eismeasure.measure import MeasureContext, integrate, moment_detd
from eismeasure.rings import QQ


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--p", type=int, default=5)
    ap.add_argument("--k", type=int, default=4)
    ap.add_argument("--bound", type=int, default=12)
    ap.add_argument("--max-d", type=int, default=3, dest="max_d")
    args = ap.parse_args()

    field = FieldData(p=args.p, mode="symplectic")
    ctx = MeasureContext.rank_one(field, args.bound)
    h = MonomialFunction(field, 1, QQ, Fraction(1), e_xs=args.k - 1)
    base = integrate(h, ctx)
    moments = [moment_detd(h, d, ctx) for d in range(1, args.max_d + 1)]

    header = f"{'beta':>5} {'c(beta)':>12}"
    for d in range(1, args.max_d + 1):
        header += f" {'d=' + str(d):>14}"
    print(f"integrand x^{args.k - 1}, p={args.p}")
    print(header)
    for key in sorted(base.terms):
        beta, c = base.terms[key]
        row = f"{int(beta.trace()):>5} {str(c):>12}"
        for q in moments:
            row += f" {str(q.terms[key][1]):>14}"
        print(row)
    for d, q in enumerate(moments, start=1):
        print(f"moment d={d}: weight ({q.weight.k}, {q.weight.nu})")


if __name__ == "__main__":
    main()
