"""Command line interface: exit codes and output schema."""

import importlib.util
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cli_grid
import eismeasure
from eismeasure.cli import run_command


def run(capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_kummer_success(capsys):
    code, out, _ = run(capsys, "kummer", "--p", "5", "--k", "4",
                       "--k2", "24", "--m", "1", "--bound", "30")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True and data["modulus_exponent"] == 2


def test_kummer_over_no_coefficients_fails(capsys):
    code, out, _ = run(capsys, "kummer", "--p", "5", "--k", "4",
                       "--k2", "24", "--m", "1", "--bound", "0")
    assert code == 1
    data = json.loads(out)
    assert data["passed"] is False and data["checked"] == 0


def test_kummer_bad_hypothesis_is_usage_error(capsys):
    code, _, err = run(capsys, "kummer", "--p", "5", "--k", "4", "--k2", "5")
    assert code == 2
    assert "congruent" in err


def test_kummer_negative_m_is_usage_error(capsys):
    code, out, err = run(capsys, "kummer", "--p", "5", "--k", "4",
                         "--k2", "4", "--m", "-1", "--bound", "30")
    assert code == 2 and out == ""
    assert "m >= 0" in err


def test_integrate_emits_sorted_terms(capsys):
    code, out, _ = run(capsys, "integrate", "--mode", "symplectic",
                       "--p", "5", "--n", "1", "--ring", "qq",
                       "--cusp", "divisor", "--bound", "6",
                       "--function", "x^3")
    assert code == 0
    data = json.loads(out)
    assert data["cusp"] == "divisor" and data["n"] == 1
    traces = [t["beta"][0][0][0] for t in data["terms"]]
    assert traces == sorted(traces)
    by_trace = {t["beta"][0][0][0]: t["coeff"] for t in data["terms"]}
    assert by_trace[6] == "42"
    assert by_trace[5] == "0"


def test_moment_command(capsys):
    code, out, _ = run(capsys, "moment", "--mode", "symplectic", "--p", "5",
                       "--n", "1", "--ring", "qq", "--cusp", "divisor",
                       "--bound", "6", "--function", "x^3",
                       "--det-power", "1")
    assert code == 0
    data = json.loads(out)
    by_trace = {t["beta"][0][0][0]: t["coeff"] for t in data["terms"]}
    assert by_trace[6] == "252"
    assert data["weight"] == [3, -1]


def test_moment_with_a_negative_det_power_is_usage_error(capsys):
    # it used to print the det^1 moment labelled weight (n - 2, 1)
    code, out, err = run(capsys, "moment", "--mode", "symplectic", "--p", "5",
                         "--n", "1", "--ring", "qq", "--cusp", "divisor",
                         "--bound", "3", "--function", "x^3",
                         "--det-power", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "determinant power" in err


def test_qexp_with_monomial_expression(capsys):
    code, out, _ = run(capsys, "qexp", "--mode", "symplectic", "--p", "5",
                       "--n", "1", "--ring", "qq", "--cusp", "divisor",
                       "--bound", "6", "--k", "4",
                       "--function", "x^4*ydet^-3")
    assert code == 0
    data = json.loads(out)
    by_trace = {t["beta"][0][0][0]: t["coeff"] for t in data["terms"]}
    assert by_trace[6] == str(1 + 8 + 27 + 216)


def test_bad_function_expression_is_usage_error(capsys):
    code, _, err = run(capsys, "qexp", "--mode", "symplectic", "--p", "5",
                       "--n", "1", "--k", "4", "--function", "det+nonsense")
    assert code == 2 and "cannot parse" in err


def test_automorphy_selftest_command(capsys):
    code, out, _ = run(capsys, "automorphy-selftest", "--n", "1",
                       "--cases", "50", "--seed", "2")
    assert code == 0
    data = json.loads(out)
    assert max(data["residuals"].values()) < data["tolerance"]


def test_automorphy_selftest_above_its_tolerance_is_a_failed_verification(
        capsys):
    """A worst residual at or above --tol exits 1 and still prints the
    residuals with the tolerance they were held to; stderr names them."""
    code, out, err = run(capsys, "automorphy-selftest", "--n", "2",
                         "--cases", "20", "--tol", "1e-30")
    assert code == 1
    data = json.loads(out)
    assert sorted(data) == ["residuals", "tolerance"]
    assert data["tolerance"] == 1e-30
    over = [f"{name} {r!r}" for name, r in data["residuals"].items()
            if r >= 1e-30]
    assert over
    assert err == (f"error: self-test residuals at or above --tol 1e-30: "
                   f"{', '.join(over)} (--n 2, --cases 20, --seed 0)\n")


def test_a_failed_automorphy_selftest_names_its_witness_on_stderr(capsys):
    """Seed 27 fails on rounding (ROADMAP item 1).  Stdout is the residual
    JSON alone; the one stderr line names each residual over --tol by its
    repr, with the run's n, cases and seed."""
    code, out, err = run(capsys, "automorphy-selftest", "--n", "2",
                         "--cases", "1000", "--seed", "27")
    assert code == 1
    assert out == (
        '{\n  "residuals": {\n    "base_delta": 0.0,\n'
        '    "cocycle": 4.4987792935380355e-09,\n'
        '    "section": 4.147177671447248e-10\n  },\n'
        '  "tolerance": 1e-09\n}\n')
    assert err == ("error: self-test residuals at or above --tol 1e-09: "
                   "cocycle 4.4987792935380355e-09 "
                   "(--n 2, --cases 1000, --seed 27)\n")


@pytest.mark.parametrize("cases", ["0", "-3"])
def test_automorphy_selftest_over_no_cases_is_usage_error(capsys, cases):
    code, out, err = run(capsys, "automorphy-selftest", "--cases", cases)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "at least one case" in err


@pytest.mark.parametrize("option, text", [
    ("--s=nan", "finite s, got n = 2, cases = 50, s = nan"),
    ("--s=inf", "finite s, got n = 2, cases = 50, s = inf"),
    ("--s=-inf", "finite s, got n = 2, cases = 50, s = -inf"),
    ("--tol=nan", "tolerance must be finite and > 0, got nan"),
    ("--tol=inf", "tolerance must be finite and > 0, got inf"),
    ("--tol=0", "tolerance must be finite and > 0, got 0.0"),
    ("--tol=-1e-9", "tolerance must be finite and > 0, got -1e-09"),
    ("--s=1e308", "Numerical result out of range"),  # an OverflowError
    ("--s=1e308", "--k 4, --nu 1, --s 1e+308 take the self-test out of float"
                  " range (OverflowError: "),
    ("--k=100000", "--k 100000, --nu 1, --s 3.0 take the self-test out of "
                   "float range (ZeroDivisionError: complex division by zero)"),
    # at the default weights it is the rank that overflows
    ("--n=12 --seed=1", "--n 12, --k 4, --nu 1, --s 3.0 take the self-test "
                        "out of float range (OverflowError: complex "
                        "exponentiation)"),
])
def test_automorphy_selftest_with_a_bad_number_is_usage_error(capsys, option,
                                                               text):
    """A non-finite s left every section residual out of the worst case (a
    nan never wins max), a nan tolerance printed non-JSON, a huge s ended in
    a traceback and then in bare Python text, as did a huge k or n: each is
    an error line naming the numbers, and exit 2, no output."""
    code, out, err = run(capsys, "automorphy-selftest", "--n", "2",
                         "--cases", "50", *option.split())
    assert (code, out) == (2, "")
    assert err.startswith("error:") and text in err


@pytest.mark.parametrize("option, value, text", [
    ("--s", "-1e308", "--k 4, --nu 1, --s -1e+308 take the self-test out of "
                      "float range (OverflowError: "),
    ("--tol", "-1e-9", "tolerance must be finite and > 0, got -1e-09"),
])
def test_automorphy_selftest_negative_exponent_form_needs_the_equals_sign(
        capsys, monkeypatch, option, value, text):
    """argparse reads a separate "-1e308" as an option, so "--s -1e308" is
    argparse's usage error; "--s=-1e308" reaches the self-test, and --help
    names that form for --s and --tol."""
    argv = ["automorphy-selftest", "--n", "2", "--cases", "50"]
    with pytest.raises(SystemExit) as exc:
        run_command(argv + [option, value])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"error: argument {option}: expected one argument" in out.err
    code, out, err = run(capsys, *argv, f"{option}={value}")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and text in err
    monkeypatch.setenv("COLUMNS", "200")  # no help line wraps at a hyphen
    with pytest.raises(SystemExit) as exc:
        run_command(["automorphy-selftest", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "--s=-1e3" in text and "--tol=-1e-9" in text


def test_equivariance_violation_is_a_failed_verification(capsys):
    # x^3 is not invariant under the unit -1 of Q(i) in unitary mode
    code, out, err = run(capsys, "integrate", "--function", "x^3")
    assert code == 1 and out == ""
    assert err.startswith("error: integrand is not unit invariant at unit (-1+0w)")
    assert "x = (1+0w), y = (((1+0w),),)" in err and " != " in err
    assert "GnPoint" not in err and "FieldData" not in err
    assert len(err) < 160


def test_decompose_command(tmp_path, capsys):
    import random

    from eismeasure.fields import FieldData
    from eismeasure.functions import random_lc_function

    fld = FieldData(p=5, k_disc=-4)
    f = random_lc_function(fld, 1, 1, random.Random(1), entries=4)
    table = tmp_path / "table.json"
    table.write_text(json.dumps(f.to_json()))
    code, out, _ = run(capsys, "decompose", "--table", str(table),
                       "--p", "5", "--k-disc", "-4")
    assert code == 0
    data = json.loads(out)
    assert data["level"] == 1 and len(data["components"]) >= 1


def test_output_file(tmp_path, capsys):
    dest = tmp_path / "out.json"
    code, out, _ = run(capsys, "kummer", "--p", "5", "--k", "4", "--k2", "8",
                       "--m", "0", "--bound", "20", "--out", str(dest))
    assert code == 0 and out == ""
    assert json.loads(dest.read_text())["passed"] is True


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_command([])
    assert exc.value.code == 2


@pytest.fixture
def rank_one_input(tmp_path, capsys):
    code, out, _ = run(capsys, "qexp", "--mode", "symplectic", "--p", "5",
                       "--ring", "qq", "--cusp", "divisor", "--bound", "6",
                       "--k", "4", "--function", "x^4*ydet^-3")
    assert code == 0
    path = tmp_path / "q.json"
    path.write_text(out)
    return str(path)


@pytest.mark.parametrize("h, lam", [("[[[0,0]]]", "1"), ("[[[1,0]]]", "0")])
def test_transform_cusp_with_a_singular_levi_element_is_usage_error(
        capsys, rank_one_input, h, lam):
    code, out, err = run(capsys, "transform-cusp", "--mode", "symplectic",
                         "--p", "5", "--input", rank_one_input, "--h", h,
                         "--lam", lam)
    assert code == 2 and out == ""
    assert "singular" in err


@pytest.mark.parametrize("lam", ["-1", "-1/3"])
def test_transform_cusp_with_a_negative_lambda_is_usage_error(
        capsys, rank_one_input, lam):
    """lam * conj(h)^T * gamma * h is negative definite for lam < 0, so it
    indexes no expansion."""
    code, out, err = run(capsys, "transform-cusp", "--mode", "symplectic",
                         "--p", "5", "--input", rank_one_input,
                         "--h", "[[[1,0]]]", f"--lam={lam}")
    assert code == 2 and out == ""
    assert err == (f"error: lam = {lam} is negative: it maps positive "
                   "definite indices to negative definite ones\n")


def test_transform_cusp_keeps_the_source_bound(capsys, rank_one_input):
    code, out, _ = run(capsys, "transform-cusp", "--mode", "symplectic",
                       "--p", "5", "--input", rank_one_input,
                       "--h", "[[[1,0]]]", "--lam", "2")
    assert code == 0
    data = json.loads(out)
    assert data["trace_bound"] == 6
    assert [t["beta"][0][0][0] for t in data["terms"]] == [2, 4, 6, 8, 10, 12]


@pytest.mark.parametrize("option", ["--lam", "--scalar"])
def test_transform_cusp_with_a_zero_denominator_is_usage_error(
        capsys, rank_one_input, option):
    with pytest.raises(SystemExit) as exc:
        run_command(["transform-cusp", "--mode", "symplectic", "--p", "5",
                     "--input", rank_one_input, "--h", "[[[1,0]]]",
                     option, "1/0"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"error: argument {option}: not a rational number: '1/0'" in out.err


def test_transform_cusp_help_names_the_negative_fraction_form(capsys,
                                                            rank_one_input):
    """argparse reads a separate "-1/3" as an option, so --help names the
    --scalar=-1/3 and --lam=-1/3 forms; the first scales every coefficient."""
    with pytest.raises(SystemExit) as exc:
        run_command(["transform-cusp", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--scalar=-1/3" in text and "--lam=-1/3" in text
    argv = ["transform-cusp", "--mode", "symplectic", "--p", "5",
            "--input", rank_one_input, "--h", "[[[1,0]]]"]
    plain = json.loads(run(capsys, *argv)[1])["terms"]
    code, out, _ = run(capsys, *argv, "--scalar=-1/3")
    assert code == 0
    scaled = json.loads(out)["terms"]
    assert [t["beta"] for t in scaled] == [t["beta"] for t in plain]
    assert [Fraction(t["coeff"]) for t in scaled] == [
        -Fraction(t["coeff"]) / 3 for t in plain]
    assert sum(Fraction(t["coeff"]) != 0 for t in plain) >= 5


@pytest.mark.parametrize("h, message", [
    ('[[["1/0",0]]]', "not a rational number: '1/0'"),
    ('[[[1,"1/0"]]]', "not a rational number: '1/0'"),
    ("[[1]]", "invalid _pair_matrix value: '[[1]]'"),
    ("5", "invalid _pair_matrix value: '5'")])
def test_transform_cusp_with_a_bad_matrix_is_usage_error(
        capsys, rank_one_input, h, message):
    """A zero denominator in either coordinate, or a matrix that is not of
    [u, v] pairs, exits 2 with an error line, not a traceback."""
    with pytest.raises(SystemExit) as exc:
        run_command(["transform-cusp", "--mode", "symplectic", "--p", "5",
                     "--input", rank_one_input, "--h", h])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"error: argument --h: {message}" in out.err


@pytest.mark.parametrize("rank, h", [
    (2, "[[[1,0]]]"),
    (1, "[[[1,0],[0,0]],[[0,0],[1,0]]]"),
    (1, "[[[1,0],[0,0]]]")])
def test_transform_cusp_with_an_h_of_the_wrong_shape_is_usage_error(
        tmp_path, capsys, rank_one_input, rank, h):
    """h must be n x n for a rank-n expansion: a 1x1 h on rank two or a 2x2
    h on rank one raised IndexError, and a 1x2 h on rank one wrote 2x2
    indices into a rank-one expansion."""
    if rank == 2:
        code, out, _ = run(capsys, "qexp", "--n", "2", "--k", "4",
                           "--bound", "3", "--function", "const1")
        assert code == 0 and len(json.loads(out)["terms"]) == 11
        path = tmp_path / "q2.json"
        path.write_text(out)
        argv = ["--input", str(path)]
    else:
        argv = ["--mode", "symplectic", "--p", "5", "--input", rank_one_input]
    code, out, err = run(capsys, "transform-cusp", *argv, "--h", h)
    assert code == 2 and out == ""
    assert err == f"error: h is not {rank} x {rank}\n"


@pytest.mark.parametrize("beta", [
    [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
    [[[1, 0], [0, 0]]]])
def test_an_expansion_file_with_an_index_of_the_wrong_shape_is_usage_error(
        tmp_path, capsys, rank_one_input, beta):
    """Every index of an expansion file must be n x n for the file's n: a
    2x2 index in a rank-one file raised IndexError, and a 1x2 one was cut
    down to 1x1 and written out."""
    with open(rank_one_input) as fh:
        data = json.load(fh)
    data["terms"][0]["beta"] = beta
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "transform-cusp", "--mode", "symplectic",
                         "--p", "5", "--input", str(path), "--h", "[[[1,0]]]")
    assert code == 2 and out == ""
    assert err == f"error: index {beta} is not 1 x 1\n"


@pytest.mark.parametrize("command, k", [("qexp", 4), ("integrate", 0)])
def test_a_function_of_another_rank_than_the_cusp_is_usage_error(
        tmp_path, capsys, command, k):
    """A symmetrized rank-one table at a rank-two cusp exits 2 instead of
    writing an expansion whose every coefficient is zero; at rank one the
    same table gives an expansion."""
    import random

    from eismeasure.fields import FieldData, Weight
    from eismeasure.functions import random_lc_function, symmetrize

    fld = FieldData(p=5, k_disc=-4)
    table = tmp_path / "rank1.json"
    table.write_text(json.dumps(symmetrize(
        random_lc_function(fld, 1, 1, random.Random(1)),
        Weight(k, 0)).to_json()))
    extra = ["--k", str(k)] if command == "qexp" else []
    argv = [command, "--bound", "3", "--function", f"@{table}", *extra]
    code, out, _ = run(capsys, *argv, "--n", "1")
    assert code == 0 and json.loads(out)["n"] == 1
    code, out, err = run(capsys, *argv, "--n", "2")
    assert code == 2 and out == ""
    assert err == "error: a rank-1 function at a rank-2 cusp\n"


@pytest.mark.parametrize("command", ["integrate", "moment"])
@pytest.mark.parametrize("ring", ["qq", "zp"])
def test_a_rank_two_integrand_at_the_divisor_cusp_names_the_ranks(
        capsys, command, ring):
    """The divisor cusp is rank one, so a rank-two integrand there exits 2
    naming both ranks before its unit invariance is checked; over qq that
    check used to fail first and name a symptom, not the mistake."""
    code, out, err = run(capsys, command, "--n", "2", "--cusp", "divisor",
                         "--ring", ring, "--bound", "4", "--function",
                         "const1")
    assert (code, out) == (2, "")
    assert err == "error: a rank-2 function at a rank-1 cusp\n"


def test_importing_the_cli_loads_neither_numpy_nor_automorphy():
    """numpy is for ``automorphy-selftest`` alone, which imports it when it
    runs: every other command would pay its load time.  No class is a
    dataclass, so ``dataclasses`` (and its ``inspect``) is not loaded either."""
    src = os.path.dirname(os.path.dirname(eismeasure.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, eismeasure.cli; print(sorted(m for m in "
            "('numpy', 'eismeasure.automorphy', 'dataclasses') "
            "if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("command, extra", [
    ("qexp", ["--k", "4"]), ("integrate", []), ("moment", [])])
@pytest.mark.parametrize("ring", ["qq", "zp"])
def test_symplectic_rank_two_is_usage_error(capsys, command, extra, ring):
    code, out, err = run(capsys, command, "--mode", "symplectic", "--p", "5",
                         "--n", "2", "--ring", ring, "--bound", "4",
                         "--function", "const1", *extra)
    assert code == 2 and out == ""
    assert err.startswith("error: no enumeration for n = 2 in symplectic mode")


def _relabel(path, tmp_path, tag):
    data = json.loads(open(path).read())
    data["ring"] = tag
    out = tmp_path / f"as_{tag}.json"
    out.write_text(json.dumps(data))
    return str(out)


@pytest.fixture
def padic_input(tmp_path, capsys):
    code, out, _ = run(capsys, "qexp", "--mode", "symplectic", "--p", "5",
                       "--ring", "zp", "--cusp", "divisor", "--bound", "6",
                       "--k", "4", "--function", "x^4*ydet^-3")
    assert code == 0
    path = tmp_path / "qz.json"
    path.write_text(out)
    return str(path)


@pytest.mark.parametrize("source, tag, message", [
    ("rank_one_input", "zp", "'1' is not a zp value"),
    ("padic_input", "qq", "{'prec': 24, 'unit': 1, 'val': 0} is not a qq value")])
def test_transform_cusp_with_values_that_do_not_match_the_ring_is_usage_error(
        request, tmp_path, capsys, source, tag, message):
    """The ring tag decides how each coefficient is read, so a file whose
    values belong to the other ring is refused when it is loaded."""
    path = _relabel(request.getfixturevalue(source), tmp_path, tag)
    code, out, err = run(capsys, "transform-cusp", "--mode", "symplectic",
                         "--p", "5", "--input", path, "--h", "[[[1,0]]]",
                         "--lam", "2")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}")


def test_decompose_with_values_that_do_not_match_the_ring_is_usage_error(
        tmp_path, capsys):
    import random

    from eismeasure.fields import FieldData
    from eismeasure.functions import random_lc_function

    fld = FieldData(p=5, k_disc=-4)
    data = random_lc_function(fld, 1, 1, random.Random(1), entries=4).to_json()
    assert data["ring"] == "zp"
    data["ring"] = "qq"
    table = tmp_path / "table.json"
    table.write_text(json.dumps(data))
    code, out, err = run(capsys, "decompose", "--table", str(table),
                         "--p", "5", "--k-disc", "-4")
    assert code == 2 and out == ""
    assert err.startswith("error: {'val': 0, 'unit': ")
    assert err.endswith("} is not a qq value\n")


def _with_zero_denominator(path, tmp_path, where):
    """The expansion at path with '1/0' as its first coefficient or as the
    first coordinate of its first index."""
    data = json.loads(open(path).read())
    if where == "coeff":
        data["terms"][0]["coeff"] = "1/0"
    else:
        data["terms"][0]["beta"][0][0][0] = "1/0"
    out = tmp_path / f"zero_{where}.json"
    out.write_text(json.dumps(data))
    return str(out)


def _table_with_zero_denominator(tmp_path):
    from fractions import Fraction

    from eismeasure.fields import FieldData
    from eismeasure.functions import LCFunction
    from eismeasure.rings import QQ

    table = LCFunction(FieldData(p=5, k_disc=-4), 1, QQ, 1,
                       values={((1, 1), (1,)): Fraction(1, 2)}).to_json()
    table["entries"][0]["value"] = "1/0"
    path = tmp_path / "zero_table.json"
    path.write_text(json.dumps(table))
    return str(path)


@pytest.mark.parametrize("case", ["function", "table", "decompose", "coeff",
                                  "beta"])
def test_a_zero_denominator_in_the_input_is_usage_error(
        tmp_path, capsys, rank_one_input, case):
    """'1/0' in a function expression, a table value, or an expansion's
    coefficient or index exits 2 with an error line, not a traceback; in an
    index it is refused as a coordinate that is not a JSON integer."""
    if case == "function":
        argv = ["qexp", "--k", "1", "--function", "1/0*x^1"]
    elif case in ("table", "decompose"):
        table = _table_with_zero_denominator(tmp_path)
        argv = (["qexp", "--k", "1", "--ring", "qq", "--bound", "4",
                 "--function", "@" + table] if case == "table"
                else ["decompose", "--table", table])
    else:
        argv = ["transform-cusp", "--mode", "symplectic", "--p", "5",
                "--input", _with_zero_denominator(rank_one_input, tmp_path,
                                                  case),
                "--h", "[[[1,0]]]"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == ("error: index [[['1/0', 0]]] is not made of [u, v] pairs "
                   "of integers\n" if case == "beta"
                   else "error: Fraction(1, 0)\n")


def test_a_table_finer_than_the_field_precision_is_usage_error(
        tmp_path, capsys):
    """A level-4 table on a precision-3 field needs residues the field does
    not have: the sweep raises PrecisionUnavailable at its first rank-two
    index with an irrational entry, and the command exits 2 naming it."""
    import random

    from eismeasure.fields import FieldData
    from eismeasure.functions import random_lc_function

    fld = FieldData(p=5, k_disc=-4, precision=3)
    table = tmp_path / "level4.json"
    table.write_text(json.dumps(
        random_lc_function(fld, 2, 4, random.Random(1)).to_json()))
    for command, extra in (("qexp", ["--k", "2"]), ("integrate", []),
                           ("moment", [])):
        code, out, err = run(capsys, command, "--n", "2", "--precision", "3",
                             "--bound", "4", "--function", f"@{table}",
                             *extra)
        assert code == 2 and out == ""
        assert err == "error: (0+-1w) is known mod p^3, asked mod p^4\n"


def _edited_table(tmp_path, edit, mode="unitary"):
    """A p = 5, rank-one, level-1 table (Gaussian when unitary) after
    ``edit`` of its JSON."""
    import random

    from eismeasure.fields import FieldData
    from eismeasure.functions import random_lc_function

    data = random_lc_function(FieldData(p=5, k_disc=-4, mode=mode), 1, 1,
                              random.Random(1), entries=3).to_json()
    edit(data)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    return str(path)


def _each_entry(change):
    def edit(data):
        for ent in data["entries"]:
            change(ent)
    return edit


@pytest.mark.parametrize("mode,change", [
    ("unitary", lambda ent: ent.update(
        x_coset=[r + 5 for r in ent["x_coset"]])),
    ("unitary", lambda ent: ent.update(y_coset=ent["y_coset"] * 4)),
    ("unitary", lambda ent: ent.update(x_coset=ent["x_coset"][:1])),
    ("unitary", lambda ent: ent.update(y_coset=[-1])),
    ("unitary", lambda ent: ent.update(x_coset=[0, ent["x_coset"][1]])),
    ("unitary", lambda ent: ent.update(
        x_coset=[[r] for r in ent["x_coset"]])),
    ("symplectic", lambda ent: ent.update(x_coset=[1, 2])),
], ids=["x-residue-out-of-range", "y-coset-too-long", "x-coset-too-short",
        "negative-y-residue", "x-residue-divisible-by-p", "nested-x-coset",
        "symplectic-unequal-x-residues"])
@pytest.mark.parametrize("command", ["integrate", "decompose"])
def test_a_table_with_a_coset_no_point_reaches_is_usage_error(
        tmp_path, capsys, mode, change, command):
    """Such a table would integrate to zero or fail as a verification:
    it is refused at load, naming the entry."""
    table = _edited_table(tmp_path, _each_entry(change), mode)
    argv = (["integrate", "--mode", mode, "--bound", "4",
             "--function", "@" + table]
            if command == "integrate"
            else ["decompose", "--mode", mode, "--table", table])
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: table entry x_coset ")


@pytest.mark.parametrize("support", ["al", None])
def test_a_table_support_that_is_not_named_is_usage_error(
        tmp_path, capsys, support):
    def edit(data):
        if support is None:
            del data["support"]
        else:
            data["support"] = support
    table = _edited_table(tmp_path, edit)
    code, out, err = run(capsys, "integrate", "--bound", "4",
                         "--function", "@" + table)
    assert code == 2 and out == ""
    assert err == f"error: table support {support!r} is not 'all' or " \
                  "'y_invertible'\n"


def test_an_expansion_file_without_its_weight_is_usage_error(
        tmp_path, capsys, rank_one_input):
    data = json.loads(open(rank_one_input).read())
    del data["weight"]
    path = tmp_path / "no_weight.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "transform-cusp", "--mode", "symplectic",
                         "--p", "5", "--input", str(path), "--h", "[[[1,0]]]",
                         "--lam", "2")
    assert code == 2 and out == ""
    assert err == "error: weight None is not a pair of integers\n"


def test_the_readme_commands_are_the_ones_the_benchmark_times():
    """The README's command block, read as argv lists, is
    ``perfbench/workloads.README_COMMANDS``: editing one without the other
    would time commands the README no longer shows."""
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    readme = (root / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    commands = [shlex.split(line) for line in
                block.replace("\\\n", " ").strip().splitlines()]
    assert all(argv[0] == "eismeasure" for argv in commands)
    assert [argv[1:] for argv in commands] == [
        argv for _, argv in workloads.README_COMMANDS]


def test_the_cli_grid_matches_its_recorded_digests(tmp_path):
    """Every command of ``tests/cli_grid.py`` gives the exit code, stdout
    digest and error line recorded in ``tests/cli_grid_digests.json``."""
    with open(cli_grid.DIGESTS) as fh:
        want = json.load(fh)
    got = cli_grid.run_grid(str(tmp_path))
    assert got.keys() == want.keys()
    changed = {key: (want[key], got[key]) for key in want
               if got[key] != want[key]}
    assert not changed


#: an exact expansion with a coefficient of more than 4,300 digits
BIG_QEXP = ("qexp", "--mode", "symplectic", "--p", "5", "--ring", "qq",
            "--function", "x^4", "--bound", "3", "--k", "10000")


def test_exact_coefficients_of_any_size_are_written_and_read(tmp_path,
                                                             capsys):
    """The expansion exits 0 and prints every digit; read back through
    ``transform-cusp`` with the identity h it gives the same coefficients.
    The interpreter's digit limit is the caller's again after each command,
    also after one that fails."""
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, *BIG_QEXP)
    assert code == 0 and err == ""
    assert sys.get_int_max_str_digits() == limit
    data = json.loads(out)
    assert max(len(t["coeff"]) for t in data["terms"]) > 4300
    path = tmp_path / "big.json"
    path.write_text(out)
    code, back, err = run(capsys, "transform-cusp", "--mode", "symplectic",
                          "--p", "5", "--input", str(path), "--h", "[[[1, 0]]]")
    assert code == 0 and err == ""
    assert sys.get_int_max_str_digits() == limit
    assert json.loads(back)["terms"] == data["terms"]
    assert run(capsys, "kummer", "--p", "5", "--k", "4", "--k2", "5")[0] == 2
    assert sys.get_int_max_str_digits() == limit
    with pytest.raises(ValueError, match="4300"):
        str(10 ** 5000)
