"""Inputs that must be refused: a moment of an integrand that is not unit
invariant (exit 1), and JSON files whose prime, integer fields, p-adic
values, containers or field configs do not match what the package writes
(exit 2)."""

import json
import random

import pytest

from eismeasure.cli import run_command
from eismeasure.errors import EquivarianceViolation
from eismeasure.fields import FieldData
from eismeasure.functions import MonomialFunction, random_lc_function
from eismeasure.hermitian import CuspData
from eismeasure.measure import MeasureContext, moment_detd
from eismeasure.rings import PadicRing

GAUSS = FieldData(p=5, k_disc=-4)
NOT_INVARIANT = ("error: integrand is not unit invariant at unit (-1+0w), "
                 "x = (1+0w)")


def run(capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("d", ["0", "1"])
def test_a_moment_of_an_integrand_that_is_not_unit_invariant_fails(capsys, d):
    """x^3 is not invariant under the unit -1 of Q(i); ``integrate`` refuses
    it, and so does ``moment``."""
    code, out, err = run(capsys, "moment", "--function", "x^3", "--bound",
                         "4", "--det-power", d)
    assert code == 1 and out == ""
    assert err.startswith(NOT_INVARIANT)


@pytest.mark.parametrize("d", [0, 1, 2])
def test_moment_detd_checks_unit_invariance(d):
    h = MonomialFunction(GAUSS, 1, PadicRing(5, 8), 1, e_xs=3)
    ctx = MeasureContext(GAUSS, CuspData.single_term(GAUSS, 1), 4)
    with pytest.raises(EquivarianceViolation, match="not unit invariant"):
        moment_detd(h, d, ctx)


def _expansion_file(capsys, tmp_path, p="5", **edits):
    code, out, _ = run(capsys, "qexp", "--mode", "symplectic", "--p", p,
                       "--ring", "qq", "--cusp", "divisor", "--bound", "6",
                       "--k", "4", "--function", "x^4*ydet^-3")
    assert code == 0
    return _write(tmp_path, {**json.loads(out), **edits})


def _write(tmp_path, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    return str(path)


def _transform(capsys, path):
    return run(capsys, "transform-cusp", "--mode", "symplectic",
               "--input", path, "--h", "[[[1,0]]]", "--lam", "2")


def test_an_expansion_over_another_prime_is_refused(capsys, tmp_path):
    code, out, err = _transform(capsys, _expansion_file(capsys, tmp_path,
                                                        p="13"))
    assert code == 2 and out == ""
    assert err == "error: an expansion over p = 13 read with p = 5\n"


@pytest.mark.parametrize("key, value", [("trace_bound", 4.7), ("n", True)])
def test_an_expansion_with_a_non_integer_field_is_refused(
        capsys, tmp_path, key, value):
    path = _expansion_file(capsys, tmp_path, **{key: value})
    code, out, err = _transform(capsys, path)
    assert code == 2 and out == ""
    assert err == f"error: {key} {value!r} is not an integer\n"


@pytest.mark.parametrize("key, value", [("level", 1.9), ("n", "1")])
def test_a_table_with_a_non_integer_field_is_refused(
        capsys, tmp_path, key, value):
    f = random_lc_function(GAUSS, 1, 1, random.Random(1), entries=4)
    data = f.to_json()
    assert run(capsys, "decompose", "--table", _write(tmp_path, data))[0] == 0
    data[key] = value
    code, out, err = run(capsys, "decompose", "--table",
                         _write(tmp_path, data))
    assert code == 2 and out == ""
    assert err == f"error: {key} {value!r} is not an integer\n"


def _zp_expansion(capsys):
    code, out, _ = run(capsys, "qexp", "--mode", "symplectic", "--p", "5",
                       "--ring", "zp", "--cusp", "divisor", "--bound", "6",
                       "--k", "4", "--function", "x^4*ydet^-3")
    assert code == 0
    return json.loads(out)


#: case -> (a p-adic JSON value, the error it must give)
ZP_VALUES = {
    "val-string": ({"val": "0", "unit": 1, "prec": 24},
                   "val '0' is not an integer"),
    "unit-float": ({"val": 0, "unit": 2.0, "prec": 24},
                   "unit 2.0 is not an integer"),
    "prec-float": ({"val": 0, "unit": 1, "prec": 2.5},
                   "prec 2.5 is not an integer"),
    "prec-bool": ({"val": 0, "unit": 1, "prec": True},
                  "prec True is not an integer"),
    "unit-above-p^prec": ({"val": 0, "unit": 5 ** 30 + 1, "prec": 24}, None),
    "unit-negative": ({"val": 0, "unit": -1, "prec": 24}, None),
    "zero-with-a-unit": ({"val": None, "unit": 3, "prec": 24}, None),
}


@pytest.mark.parametrize("case", sorted(ZP_VALUES))
def test_a_padic_value_that_is_not_written_is_refused(capsys, tmp_path, case):
    """A p-adic value is read only as written: integers val (null for zero),
    0 <= unit < p^prec (0 for zero) and prec >= 1; nothing is coerced or
    reduced."""
    value, error = ZP_VALUES[case]
    data = _zp_expansion(capsys)
    data["terms"][0]["coeff"] = value
    code, out, err = _transform(capsys, _write(tmp_path, data))
    assert code == 2 and out == ""
    assert err == f"error: {error or f'{value!r} is not a zp value'}\n"


def test_a_table_value_with_a_float_precision_is_refused(capsys, tmp_path):
    data = random_lc_function(GAUSS, 1, 1, random.Random(1),
                              entries=4).to_json()
    data["entries"][0]["value"]["prec"] = 1.5
    code, out, err = run(capsys, "decompose", "--table",
                         _write(tmp_path, data))
    assert code == 2 and out == ""
    assert err == "error: prec 1.5 is not an integer\n"


#: case -> (the first term's new index, or None for no list of terms,
#: and the error it must give)
MALFORMED_TERMS = {
    "terms": (None, "terms is not a list of objects"),
    "beta-row": ([[5]], "index [[5]] is not made of [u, v] pairs of integers"),
    "beta-float": ([[[1.5, 0]]], "index [[[1.5, 0]]] is not made of [u, v] "
                                 "pairs of integers"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TERMS))
def test_a_malformed_expansion_is_refused(capsys, tmp_path, case):
    beta, error = MALFORMED_TERMS[case]
    data = _zp_expansion(capsys)
    if beta is None:
        data["terms"] = 5
    else:
        data["terms"][0]["beta"] = beta
    code, out, err = _transform(capsys, _write(tmp_path, data))
    assert code == 2 and out == ""
    assert err == f"error: {error}\n"


@pytest.mark.parametrize("case", ["entries", "entry-list"])
def test_a_malformed_table_is_refused(capsys, tmp_path, case):
    data = random_lc_function(GAUSS, 1, 1, random.Random(1),
                              entries=4).to_json()
    if case == "entries":
        data["entries"] = 5
    else:
        data["entries"][0] = list(data["entries"][0].values())
    code, out, err = run(capsys, "decompose", "--table",
                         _write(tmp_path, data))
    assert code == 2 and out == ""
    assert err == "error: entries is not a list of objects\n"


@pytest.mark.parametrize("key, value", [
    ("p", 5.9), ("p", "5"), ("precision", 6.7), ("precision", True),
    ("k_disc", -4.2)])
def test_a_field_config_with_a_non_integer_is_refused(
        capsys, tmp_path, key, value):
    """A config's p, k_disc and precision are read as written, not
    truncated; a missing k_disc or precision still takes its default."""
    cfg = tmp_path / "field.json"
    argv = ("qexp", "--config", str(cfg), "--ring", "zp", "--bound", "3",
            "--k", "4", "--function", "x^4*ydet^-3")
    cfg.write_text(json.dumps({"p": 5}))
    assert run(capsys, *argv)[0] == 0
    cfg.write_text(json.dumps({"p": 5, key: value}))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {key} {value!r} is not an integer\n"
