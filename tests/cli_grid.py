"""A grid of CLI commands and their results, for byte-for-byte comparisons.

Each command runs in process through ``cli.run_command``.  Its result is
recorded as its exit code, the SHA-256 of its stdout and its last
``error:`` line, with the temporary directory's path written ``<tmp>``.
The grid covers qexp, integrate and moment over qq and zp, in the three
fields (Gaussian p = 5, Eisenstein p = 7, symplectic p = 5), at n = 1 and
2, at every built-in cusp; kummer; seeded ``table_at_points`` tables read
back by the sweeps; ``transform-cusp`` on expansions the grid wrote; and
``decompose`` on tables over qq (the cyclotomic ring) and over zp.  The
self-test is left out: its residual bytes depend on the numpy build.
Every function is passed as ``--function=FN``, so that one with a leading
minus reaches the program instead of argparse's option parsing.

``tests/cli_grid_digests.json`` holds the results recorded from the code
the grid guards; ``tests/record_cli_grid.py`` rewrites it, and
``tests/test_cli.py::test_the_cli_grid_matches_its_recorded_digests``
compares.
"""

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction

from eismeasure.cli import run_command
from eismeasure.fields import FieldData, Weight
from eismeasure.functions import LCFunction, random_lc_function
from eismeasure.hermitian import CuspData
from eismeasure.rings import QQ
from point_tables import table_at_points

DIGESTS = os.path.join(os.path.dirname(__file__), "cli_grid_digests.json")

#: name -> (field options, ranks); rank two is refused in symplectic mode
FIELDS = {
    "gauss": (["--p", "5"], (1, 2)),
    "eisenstein": (["--p", "7", "--k-disc", "-3"], (1, 2)),
    "symplectic": (["--mode", "symplectic", "--p", "5"], (1, 2)),
}
FIELD_DATA = {"gauss": FieldData(p=5), "eisenstein": FieldData(p=7, k_disc=-3),
              "symplectic": FieldData(p=5, mode="symplectic")}

#: monomials with x-exponents of each sign, so that the rational power sum
#: sees E > 0, E = 0 and E < 0; some fail equivariance, on purpose
FUNCTIONS = ["1", "x^3", "x^-2*ydet^-1", "3/2*x^2*xbar^1*ydet^-1",
             "-5/3*x^4*ydet^2"]


def _expansion_commands():
    for name, (opts, ranks) in FIELDS.items():
        for ring in ("qq", "zp"):
            for n in ranks:
                for cusp in ("single", "divisor"):
                    bound = 8 if n == 1 else 3
                    base = [*opts, "--ring", ring, "--n", str(n), "--cusp",
                            cusp, "--bound", str(bound)]
                    for fn in FUNCTIONS:
                        for k, nu in ((n + 2, 0), (n + 3, -1)):
                            yield ["qexp", *base, "--k", str(k), "--nu",
                                   str(nu), f"--function={fn}"]
                        yield ["integrate", *base, f"--function={fn}"]
                        for d in (0, 1, 2, 3):
                            yield ["moment", *base, f"--function={fn}",
                                   "--det-power", str(d)]


def _power_sum_commands():
    """Rational monomials at the divisor cusp, the sweep's power sums, with
    x-exponents E of each sign and multiplicities folded by the weight."""
    for e in (-4, -1, 0, 1, 5):
        for d in (-1, 0, 2):
            for k in range(1, 7):
                yield ["qexp", "--mode", "symplectic", "--p", "5", "--ring",
                       "qq", "--cusp", "divisor", "--bound", "40", "--k",
                       str(k), f"--function=2/3*x^{e}*ydet^{d}"]


def _kummer_commands():
    for k, k2, m, bound in ((4, 24, 1, 60), (4, 8, 0, 40), (3, 7, 0, 40),
                            (4, 24, 1, 0), (4, 5, 0, 20), (2, 102, 2, 30)):
        yield ["kummer", "--p", "5", "--k", str(k), "--k2", str(k2),
               "--m", str(m), "--bound", str(bound)]
    yield ["kummer", "--p", "7", "--k", "3", "--k2", "9", "--m", "0",
           "--bound", "40"]
    yield ["kummer", "--p", "5", "--k", "4", "--k2", "24", "--m", "1",
           "--bound", "60", "--out", "<tmp>/kummer.json"]


def _write(tmp, name, data):
    path = os.path.join(tmp, name)
    with open(path, "w") as fh:
        json.dump(data, fh)
    return path


def _qq_table(field, n, level, keys, seed, y_invertible):
    rng = random.Random(seed)
    return LCFunction(field, n, QQ, level, y_invertible=y_invertible, values={
        key: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        for key in sorted(keys)})


def _tables(tmp):
    """(field name, n, cusp, path) of seeded tables: symmetrized level-2
    tables over Z_5 at the sweep's points and their cosets valued in Q, and
    level-1 random tables over Z_p and their cosets valued in Q."""
    out = []
    for i, (name, n, cusp, bound) in enumerate((
            ("gauss", 1, "divisor", 8), ("gauss", 2, "single", 3),
            ("symplectic", 1, "divisor", 8), ("eisenstein", 1, "single", 6))):
        field = FIELD_DATA[name]
        rule = (CuspData.divisor_rule(field) if cusp == "divisor"
                else CuspData.single_term(field, n))
        tables = {}
        if field.p == 5:
            t = table_at_points(field, n, rule, bound, Weight(0, 0), 31 + i)
            tables["zp2"] = t
            tables["qq2"] = _qq_table(field, n, 2, t.values, i, i % 2 == 0)
        r = random_lc_function(field, n, 1, random.Random(40 + i), entries=6)
        tables["zp1"] = r
        tables["qq1"] = _qq_table(field, n, 1, r.values, 50 + i, True)
        for label, t in tables.items():
            out.append((name, n, cusp, _write(tmp, f"{label}-{i}.json",
                                              t.to_json())))
    return out


def _table_commands(tmp):
    for name, n, cusp, path in _tables(tmp):
        opts = FIELDS[name][0]
        label = os.path.basename(path)[:3]
        base = [*opts, "--ring", label[:2], "--n", str(n), "--cusp", cusp,
                "--bound", "8" if n == 1 else "3", "--function=@" + path]
        yield ["integrate", *base]
        yield ["moment", *base, "--det-power", "1"]
        yield ["qexp", *base, "--k", str(n + 1), "--nu", "0"]
        if label != "qq2":  # the cyclotomic ring at level 2 takes minutes
            yield ["decompose", *opts, "--table", path]
    # a table read with another prime, and a missing table
    yield ["decompose", "--p", "7", "--k-disc", "-3", "--table",
           os.path.join(tmp, "zp1-0.json")]
    yield ["integrate", "--p", "5", "--function=@" + os.path.join(
        tmp, "missing.json")]


def _transform_commands(tmp):
    """Expansions written with --out, then re-indexed."""
    sources = [
        ("gauss", 1, ["--ring", "zp", "--cusp", "divisor", "--k", "3",
                      "--function=x^3"]),
        ("symplectic", 1, ["--ring", "qq", "--cusp", "divisor", "--k", "3",
                           "--function=x^2*ydet^-1"]),
        ("gauss", 2, ["--ring", "zp", "--cusp", "single", "--k", "4",
                      "--function=1"]),
        ("eisenstein", 1, ["--ring", "zp", "--cusp", "divisor", "--k", "3",
                           "--function=x^3"]),
    ]
    for i, (name, n, args) in enumerate(sources):
        opts = FIELDS[name][0]
        path = os.path.join(tmp, f"q{i}.json")
        yield ["qexp", *opts, "--n", str(n), "--bound", "8" if n == 1 else "3",
               *args, "--out", path]
        one = json.dumps([[[1, 0] if r == c else [0, 0] for c in range(n)]
                          for r in range(n)])
        two = json.dumps([[[2, 0] if r == c else [0, 0] for c in range(n)]
                          for r in range(n)])
        for h, extra in ((one, []), (one, ["--lam", "3", "--lam-power", "2"]),
                         (two, ["--scalar=-1/2", "--deth-power", "1"]),
                         (one, ["--lam", "1/2"]), (one, ["--lam=-1"])):
            yield ["transform-cusp", *opts, "--input", path, "--h", h, *extra]


def _refusal_commands():
    yield ["qexp", "--p", "5", "--k", "4", "--function=x^2", "--bound", "0"]
    yield ["integrate", "--config", "missing.json", "--p", "5",
           "--function=1"]
    yield ["qexp", "--p", "5", "--k", "1", "--n", "2", "--function=1"]
    yield ["qexp", "--p", "5", "--k", "4", "--function=x^^2"]
    yield ["qexp", "--p", "6", "--k", "4", "--function=1"]
    yield ["integrate", "--p", "5", "--ring", "zp", "--function=x^3"]
    yield ["moment", "--p", "5", "--function=1", "--det-power", "-1"]
    yield ["qexp", "--p", "5", "--precision", "0", "--k", "4",
           "--function=1"]
    # exact coefficients of more than 4300 digits
    yield ["qexp", "--mode", "symplectic", "--p", "5", "--ring", "qq",
           "--function=x^4", "--bound", "3", "--k", "10000"]


def commands(tmp):
    """The grid's argument lists, in run order; tables are written to tmp."""
    yield from _expansion_commands()
    yield from _power_sum_commands()
    for argv in _kummer_commands():
        yield [a.replace("<tmp>", tmp) for a in argv]
    yield from _table_commands(tmp)
    yield from _transform_commands(tmp)
    yield from _refusal_commands()


def run_one(argv, tmp):
    """(exit code, SHA-256 of stdout, last error: line) of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run_command(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    errors = [line for line in err.getvalue().splitlines() if "error:" in line]
    return {"exit": code,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "error": errors[-1].replace(tmp, "<tmp>") if errors else None}


def run_grid(tmp):
    """{command line: result} over the whole grid, the tmp path as <tmp>."""
    results = {}
    for argv in commands(tmp):
        key = " ".join(argv).replace(tmp, "<tmp>")
        assert key not in results, f"the grid runs {key} twice"
        results[key] = run_one(argv, tmp)
    return results
