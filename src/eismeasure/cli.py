"""Command line front end.

Exit codes: 0 on success, 1 when a verification fails, 2 on usage errors.
Outputs are deterministic JSON (sorted keys) written to stdout or --out.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .errors import EisMeasureError, EquivarianceViolation
from .fields import FieldData, Weight
from .functions import LCFunction, MonomialFunction, character_decompose
from .hermitian import CuspData
from .measure import MeasureContext, integrate, kummer_check, moment_detd
from .qexp import ChiData, QExpansion, cusp_transform, eisenstein_qexp
from .rings import RINGS, PadicRing, ring_from_tag

_MONO_RE = re.compile(
    r"^(?:(?P<coef>-?\d+(?:/\d+)?)\*?)?"
    r"(?:x\^(?P<ex>-?\d+))?\*?"
    r"(?:xbar\^(?P<exb>-?\d+))?\*?"
    r"(?:ydet\^(?P<ed>-?\d+))?$")


def parse_function(expr: str, field: FieldData, n: int, ring):
    """Parse 'const1', monomials like '2*x^3*ydet^-1', or '@table.json'."""
    expr = expr.strip()
    if expr.startswith("@"):
        with open(expr[1:]) as fh:
            return LCFunction.from_json(json.load(fh), field)
    if expr in ("1", "const1"):
        return MonomialFunction(field, n, ring, Fraction(1))
    m = _MONO_RE.match(expr.replace(" ", ""))
    if not m or not any(m.group(g) for g in ("coef", "ex", "exb", "ed")):
        raise EisMeasureError(f"cannot parse function expression {expr!r}")
    coef = Fraction(m.group("coef") or 1)
    return MonomialFunction(field, n, ring, coef,
                            e_xs=int(m.group("ex") or 0),
                            e_xb=int(m.group("exb") or 0),
                            e_det=int(m.group("ed") or 0))


def _fraction(text: str) -> Fraction:
    """An argparse type: a rational number with a nonzero denominator."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _pair_matrix(text: str) -> list:
    """An argparse type: a JSON matrix of [u, v] pairs of rational numbers."""
    return [[(_fraction(u), _fraction(v)) for u, v in row]
            for row in json.loads(text)]


def _field_from_args(args) -> FieldData:
    if getattr(args, "config", None):
        return FieldData.from_config(args.config)
    return FieldData(p=args.p, k_disc=args.k_disc, mode=args.mode,
                     precision=args.precision)


def _emit(data: dict, out: str | None):
    text = json.dumps(data, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _add_field_opts(sp):
    sp.add_argument("--config", help="JSON field config file")
    sp.add_argument("--p", type=int, default=5)
    sp.add_argument("--k-disc", type=int, default=-4, dest="k_disc")
    sp.add_argument("--mode", choices=["unitary", "symplectic"], default="unitary")
    sp.add_argument("--precision", type=int, default=24)


def _add_expansion_opts(sp):
    _add_field_opts(sp)
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--ring", choices=sorted(RINGS), default=PadicRing.tag)
    sp.add_argument("--bound", type=int, default=6)
    sp.add_argument("--out")
    sp.add_argument("--cusp", choices=["single", "divisor"], default="single")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="eismeasure")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("qexp", help="expansion from a coefficient function")
    _add_expansion_opts(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--nu", type=int, default=0)
    sp.add_argument("--function", required=True)

    sp = sub.add_parser("integrate", help="integrate a unit-invariant function")
    _add_expansion_opts(sp)
    sp.add_argument("--function", required=True)

    sp = sub.add_parser("moment", help="determinant-power moment")
    _add_expansion_opts(sp)
    sp.add_argument("--function", required=True)
    sp.add_argument("--det-power", type=int, default=1, dest="det_power")

    sp = sub.add_parser("kummer", help="weight congruence check")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--k2", type=int, required=True)
    sp.add_argument("--m", type=int, default=0)
    sp.add_argument("--bound", type=int, default=50)
    sp.add_argument("--out")

    sp = sub.add_parser("transform-cusp", help="re-index an expansion")
    sp.add_argument("--input", required=True, dest="infile")
    sp.add_argument("--h", required=True, type=_pair_matrix,
                    help="JSON matrix of [u, v] basis pairs")
    sp.add_argument("--lam", type=_fraction, default="1")
    sp.add_argument("--scalar", type=_fraction, default="1")
    sp.add_argument("--lam-power", type=int, default=0, dest="lam_power")
    sp.add_argument("--deth-power", type=int, default=0, dest="deth_power")
    _add_field_opts(sp)
    sp.add_argument("--out")

    sp = sub.add_parser("decompose", help="x-group character components")
    sp.add_argument("--table", required=True)
    _add_field_opts(sp)
    sp.add_argument("--out")

    sp = sub.add_parser("automorphy-selftest", help="numeric factor identities")
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--cases", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--k", type=int, default=4)
    sp.add_argument("--nu", type=int, default=1)
    sp.add_argument("--s", type=float, default=3.0)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--out")
    return ap


def run_command(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except EquivarianceViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EisMeasureError, OSError, ValueError, KeyError,
            ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    cmd = args.command
    if cmd in ("qexp", "integrate", "moment"):
        field = _field_from_args(args)
        ring = ring_from_tag(args.ring, field)
        cusp = (CuspData.divisor_rule(field) if args.cusp == "divisor"
                else CuspData.single_term(field, args.n))
        g = parse_function(args.function, field, args.n, ring)
        if cmd == "qexp":
            q = eisenstein_qexp(g, Weight(args.k, args.nu), cusp, args.bound,
                                field)
        elif cmd == "integrate":
            q = integrate(g, MeasureContext(field, cusp, args.bound))
        else:
            q = moment_detd(g, args.det_power,
                            MeasureContext(field, cusp, args.bound), verify=True)
        _emit(q.to_json(), args.out)
        return 0
    if cmd == "kummer":
        field = FieldData(p=args.p, mode="symplectic")
        rep = kummer_check(field, args.k, args.k2, args.m, args.bound)
        _emit({"passed": rep.passed, "checked": rep.checked,
               "modulus_exponent": rep.modulus_exponent,
               "witness": rep.witness}, args.out)
        return 0 if rep.passed else 1
    if cmd == "transform-cusp":
        field = _field_from_args(args)
        with open(args.infile) as fh:
            q = QExpansion.from_json(json.load(fh), field)
        hm = tuple(tuple(field.K(u, v) for u, v in row) for row in args.h)
        chi = ChiData(args.scalar, args.lam_power, args.deth_power)
        q2 = cusp_transform(q, hm, args.lam, chi)
        _emit(q2.to_json(), args.out)
        return 0
    if cmd == "decompose":
        field = _field_from_args(args)
        with open(args.table) as fh:
            f = LCFunction.from_json(json.load(fh), field)
        comps = character_decompose(f)
        data = {"level": f.level, "components": [
            {"label": list(label), "entries": len(g.values)}
            for label, g in comps]}
        _emit(data, args.out)
        return 0
    if cmd == "automorphy-selftest":
        if not 0 < args.tol < float("inf"):
            raise ValueError(f"tolerance must be finite and > 0, got {args.tol}")
        from .automorphy import selftest
        try:
            worst = selftest(args.n, args.cases, args.seed, args.k, args.nu, args.s)
        except ArithmeticError as exc:  # overflow, or underflow to 0 then 1/0
            raise ValueError(f"--k {args.k}, --nu {args.nu}, --s {args.s} take the "
                             "self-test out of float range "
                             f"({type(exc).__name__}: {exc})") from exc
        _emit({"residuals": worst, "tolerance": args.tol}, args.out)
        return 0 if max(worst.values()) < args.tol else 1
    raise EisMeasureError(f"unknown command {cmd}")


def main():
    sys.exit(run_command())


if __name__ == "__main__":
    main()
