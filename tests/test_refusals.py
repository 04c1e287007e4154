"""Inputs that must be refused: a moment of an integrand that is not unit
invariant or whose bridged function is not equivariant (exit 1), a field
option beside a config, a trace bound that leaves no point to check,
JSON files whose top level, keys, prime, integer or string fields, p-adic
values, containers or field configs do not match what the package
writes, precisions and levels above ``MAX_PRECISION``, and irrational
values asked of the rational ring (exit 2)."""

import json
import random

import pytest

from eismeasure.cli import run_command
from eismeasure.errors import EquivarianceViolation
from eismeasure.fields import FieldData
from eismeasure.functions import MonomialFunction, random_lc_function
from eismeasure.hermitian import CuspData
from eismeasure.measure import MeasureContext, moment_detd
from eismeasure.padic import MAX_PRECISION
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


def test_moment_checks_the_bridged_function_as_integrate_does(capsys,
                                                               tmp_path):
    """A table on one x coset is not unit invariant, but at bound 6 the
    integrand check reads it at the y cosets 1 to 4 mod 25, where it is
    zero; the bridged function reads it at y^-1, and 2^-1 = 13 mod 25.
    Both commands refuse it with the bridged check's witness."""
    table = {"p": 5, "level": 2, "n": 1, "support": "all", "ring": "zp",
             "entries": [
        {"x_coset": [1, 1], "y_coset": [13],
         "value": {"val": 0, "unit": 3, "prec": 2}}]}
    path = "@" + _write(tmp_path, table)
    for command in ("integrate", "moment"):
        code, out, err = run(capsys, command, "--p", "5", "--ring", "zp",
                             "--bound", "6", "--function", path)
        assert code == 1 and out == ""
        assert err == ("error: coefficient function fails unit equivariance "
                       "at unit (-1+0w), x = (1+0w), y = (((2+0w),),): "
                       "O(5^24) != 5^0*11 + O(5^2)\n")


@pytest.mark.parametrize("d", [0, 1, 2])
def test_moment_detd_checks_unit_invariance(d):
    h = MonomialFunction(GAUSS, 1, PadicRing(5, 8), 1, e_xs=3)
    ctx = MeasureContext(GAUSS, CuspData.single_term(GAUSS, 1), 4)
    with pytest.raises(EquivarianceViolation, match="not unit invariant"):
        moment_detd(h, d, ctx)


@pytest.mark.parametrize("command", ["qexp", "integrate", "moment"])
@pytest.mark.parametrize("n, bound", [(1, "0"), (1, "-3"), (2, "1")])
def test_a_bound_with_no_index_to_check_is_refused(capsys, command, n, bound):
    """No index of rank n has trace at most the bound, so the sweep has no
    point to check x^3 at (not unit invariant at rank one): a check over no
    point does not pass."""
    extra = ["--k", "4"] if command == "qexp" else []
    code, out, err = run(capsys, command, "--n", str(n), "--function", "x^3",
                         "--bound", bound, *extra)
    assert code == 2 and out == ""
    assert err == f"error: trace bound {bound} leaves no point to check\n"


def test_invariance_is_checked_at_the_values_precision(capsys, tmp_path):
    """A table whose values agree under the unit -1 mod 5^4 but not mod
    5^10 is not invariant, though the field's precision is 4: the unit's
    factor 1 is not placed in Z_p, where it would cut the values to 4
    digits."""
    # i moves the x coset (1, 1) to (2, 3), and -i to (3, 2)
    values = {(1, 1): 1, (4, 4): 1 + 5 ** 5, (2, 3): 1, (3, 2): 1}
    table = {"p": 5, "level": 1, "n": 1, "support": "all", "ring": "zp",
             "entries": [
        {"x_coset": list(xk), "y_coset": [1],
         "value": {"val": 0, "unit": u, "prec": 10}}
        for xk, u in values.items()]}
    code, out, err = run(capsys, "integrate", "--precision", "4", "--bound",
                         "3", "--function", "@" + _write(tmp_path, table))
    assert code == 1 and out == ""
    assert err == ("error: integrand is not unit invariant at unit (-1+0w), "
                   "x = (1+0w), y = (((1+0w),),): 5^0*3126 + O(5^10) != "
                   "5^0*1 + O(5^10)\n")


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


@pytest.mark.parametrize("p, error", [
    (5, "a table over p = 5 read with p = 7"), (None, "p is missing")])
def test_a_table_over_another_prime_is_refused(capsys, tmp_path, p, error):
    """A table records its prime: a p = 5 table read under a p = 7 config,
    or one without p, is refused before its cosets are read."""
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"p": 7, "k_disc": -3}))
    data = random_lc_function(FieldData(p=5), 1, 1, random.Random(7),
                              entries=6).to_json()
    assert data.pop("p") == 5
    if p is not None:
        data["p"] = p
    code, out, err = run(capsys, "decompose", "--config", str(config),
                         "--table", _write(tmp_path, data))
    assert code == 2 and out == ""
    assert err == f"error: {error}\n"


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
    "prec-above-the-bound": ({"val": 0, "unit": 1, "prec": 10 ** 40},
                             f"prec {10 ** 40} is above {MAX_PRECISION}"),
    "val-above-the-bound": ({"val": 10 ** 40, "unit": 1, "prec": 24},
                            f"val {10 ** 40} is above {MAX_PRECISION}"),
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


def test_a_table_value_with_a_valuation_above_the_bound_is_refused(
        capsys, tmp_path):
    """Refused before p^val is formed, which would not end at 10^40."""
    data = random_lc_function(GAUSS, 1, 1, random.Random(1),
                              entries=4).to_json()
    data["entries"][0]["value"]["val"] = 10 ** 40
    code, out, err = run(capsys, "decompose", "--table",
                         _write(tmp_path, data))
    assert code == 2 and out == ""
    assert err == f"error: val {10 ** 40} is above {MAX_PRECISION}\n"


#: case -> (the first term's new index, or None for no list of terms,
#: and the error it must give)
MALFORMED_TERMS = {
    "terms": (None, "terms is not a list of objects"),
    "beta-row": ([[5]], "index [[5]] is not made of [u, v] pairs of integers"),
    "beta-float": ([[[1.5, 0]]], "index [[[1.5, 0]]] is not made of [u, v] "
                                 "pairs of integers"),
    "beta-missing": (..., "beta is missing"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TERMS))
def test_a_malformed_expansion_is_refused(capsys, tmp_path, case):
    beta, error = MALFORMED_TERMS[case]
    data = _zp_expansion(capsys)
    if beta is None:
        data["terms"] = 5
    elif beta is ...:
        del data["terms"][0]["beta"]
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


# -- readers: the top level, string fields, and integers past the bound --------


def _reader_argv(reader, path):
    return {"function": ["qexp", "--k", "1", "--function", "@" + path],
            "table": ["decompose", "--table", path],
            "config": ["qexp", "--config", path, "--k", "4", "--function",
                       "x^4*ydet^-3"],
            "input": ["transform-cusp", "--mode", "symplectic", "--input",
                      path, "--h", "[[[1,0]]]", "--lam", "2"]}[reader]


@pytest.mark.parametrize("reader, key", [
    ("function", "level"), ("table", "level"), ("config", "p"),
    ("input", "p")])
def test_a_file_that_is_not_an_object_is_refused(capsys, tmp_path, reader,
                                                 key):
    code, out, err = run(capsys, *_reader_argv(reader, _write(tmp_path, [])))
    assert code == 2 and out == ""
    assert err == f"error: expected a JSON object with {key}, got []\n"


@pytest.mark.parametrize("case", ["table-ring", "expansion-ring", "cusp"])
def test_a_ring_or_cusp_that_is_not_a_string_is_refused(capsys, tmp_path,
                                                        case):
    if case == "table-ring":
        data = random_lc_function(GAUSS, 1, 1, random.Random(1),
                                  entries=4).to_json()
        argv = _reader_argv("table", _write(tmp_path, {**data, "ring": []}))
        error = "ring [] is not a string"
    elif case == "expansion-ring":
        argv = _reader_argv("input", _expansion_file(capsys, tmp_path,
                                                     ring=[]))
        error = "ring [] is not a string"
    else:
        argv = _reader_argv("input", _expansion_file(capsys, tmp_path,
                                                     cusp={"a": 1}))
        error = "cusp {'a': 1} is not a string"
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {error}\n"


@pytest.mark.parametrize("options, named", [
    (["--mode", "symplectic", "--p", "11"], "--p, --mode"),
    (["--p", "5"], "--p"), (["--k-disc", "-3"], "--k-disc"),
    (["--precision", "6"], "--precision")])
def test_a_field_option_beside_a_config_is_refused(capsys, tmp_path, options,
                                                   named):
    """A config sets the whole field, so a field option beside it is not
    silently dropped, even one that repeats the config's value."""
    path = _write(tmp_path, {"p": 7, "k_disc": -3})
    argv = ["qexp", "--config", path, "--k", "4", "--function", "x^4",
            "--bound", "2"]
    assert run(capsys, *argv)[0] == 0
    code, out, err = run(capsys, *argv, *options)
    assert code == 2 and out == ""
    assert err == f"error: --config does not combine with {named}\n"


def test_an_empty_config_path_is_refused(capsys):
    """An empty --config is a file that cannot be opened, not no config."""
    code, out, err = run(capsys, "qexp", "--config", "", "--k", "4",
                         "--function", "x^4", "--bound", "2")
    assert code == 2 and out == ""
    assert err == "error: [Errno 2] No such file or directory: ''\n"


@pytest.mark.parametrize("source", ["option", "config"])
def test_a_field_precision_above_the_bound_is_refused(capsys, tmp_path,
                                                      source):
    """Refused before p^precision is formed; the bound itself is taken."""
    def qexp(precision):
        if source == "option":
            field = ["--precision", str(precision)]
        else:
            field = ["--config", _write(tmp_path, {"p": 5,
                                                   "precision": precision})]
        return run(capsys, "qexp", *field, "--bound", "3", "--k", "4",
                   "--function", "x^4*ydet^-3")

    assert qexp(MAX_PRECISION)[0] == 0
    code, out, err = qexp(10 ** 40)
    assert code == 2 and out == ""
    assert err == f"error: precision {10 ** 40} is above {MAX_PRECISION}\n"


def test_a_table_level_above_the_bound_is_refused(capsys, tmp_path):
    data = random_lc_function(GAUSS, 1, 1, random.Random(1),
                              entries=4).to_json()
    code, out, err = run(capsys, *_reader_argv(
        "table", _write(tmp_path, {**data, "level": 10 ** 40})))
    assert code == 2 and out == ""
    assert err == f"error: level {10 ** 40} is above {MAX_PRECISION}\n"


def test_an_irrational_value_over_qq_names_the_fix(capsys):
    code, out, err = run(capsys, "integrate", "--ring", "qq", "--function",
                         "const1", "--bound", "3")
    assert code == 2 and out == ""
    assert err == ("error: (0+1w) is not rational; --ring qq holds only "
                   "rational values, use --ring zp\n")
