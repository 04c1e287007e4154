"""Command line front end.

Exit codes: 0 on success, 1 when a verification fails, 2 on usage errors.
Outputs are deterministic JSON (sorted keys) written to stdout or --out;
exact coefficients are written and read in full, whatever their size.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import re
import sys
from fractions import Fraction

from .errors import (EisMeasureError, EquivarianceViolation, FieldDataError,
                     NotRational)
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
    given = {key: getattr(args, key) for key in (
        "p", "k_disc", "mode", "precision") if getattr(args, key) is not None}
    if args.config is not None:
        if given:
            raise FieldDataError("--config does not combine with " + ", ".join(
                "--" + key.replace("_", "-") for key in given))
        return FieldData.from_config(args.config)
    # an option left out takes FieldData's own default, and p is 5
    return FieldData(**{"p": 5, **given})


def _emit(data: dict, out: str | None):
    text = json.dumps(data, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _add_field_opts(sp):
    sp.add_argument("--config", help="JSON field config file; it takes the "
                    "place of --p, --k-disc, --mode and --precision")
    sp.add_argument("--p", type=int, help="default 5")
    sp.add_argument("--k-disc", type=int, dest="k_disc")
    sp.add_argument("--mode", choices=["unitary", "symplectic"])
    sp.add_argument("--precision", type=int)


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
    sp.add_argument("--lam", type=_fraction, default="1",
                    help="similitude factor; a negative one as --lam=-1/3")
    sp.add_argument("--scalar", type=_fraction, default="1",
                    help="rational scalar; a negative one as --scalar=-1/3")
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
    sp.add_argument("--s", type=float, default=3.0,
                    help="section exponent; a negative one in exponent form "
                         "as --s=-1e3")
    sp.add_argument("--tol", type=float, default=1e-9,
                    help="a residual below it passes; a value with a minus "
                         "in exponent form as --tol=-1e-9")
    sp.add_argument("--out")
    return ap


@contextlib.contextmanager
def _exact_digits():
    """Lift CPython's limit on int <-> str digits (4,300 since 3.10.7) for
    the block, so that exact coefficients of any size are written and read
    in full; the limit is restored after it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def run_command(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _exact_digits():
            return _dispatch(args)
    except EquivarianceViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EisMeasureError, OSError, ValueError, KeyError,
            ArithmeticError) as exc:
        # only the rational ring raises NotRational
        hint = ("; --ring qq holds only rational values, use --ring zp"
                if isinstance(exc, NotRational) else "")
        print(f"error: {exc}{hint}", file=sys.stderr)
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
                            MeasureContext(field, cusp, args.bound))
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
            raise ValueError(f"--n {args.n}, --k {args.k}, --nu {args.nu}, "
                             f"--s {args.s} take the self-test out of float "
                             f"range ({type(exc).__name__}: {exc})") from exc
        _emit({"residuals": worst, "tolerance": args.tol}, args.out)
        if max(worst.values()) < args.tol:
            return 0
        # the residuals a failure rests on, in stdout's order
        over = ", ".join(f"{name} {r!r}" for name, r in sorted(worst.items())
                         if not r < args.tol)
        print(f"error: self-test residuals at or above --tol {args.tol!r}: "
              f"{over} (--n {args.n}, --cases {args.cases}, "
              f"--seed {args.seed})", file=sys.stderr)
        return 1
    raise EisMeasureError(f"unknown command {cmd}")


def main():
    sys.exit(run_command())


if __name__ == "__main__":
    main()
