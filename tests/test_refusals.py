"""Inputs that must be refused: a moment of an integrand that is not unit
invariant (exit 1), and JSON files whose prime or integer fields do not
match what the package writes (exit 2)."""

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
