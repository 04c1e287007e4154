"""The scripts under ``scripts/`` run end to end on small inputs."""

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, capsys, name, *argv):
    """Run scripts/<name> as ``__main__`` with argv; return its stdout lines."""
    path = SCRIPTS / name
    monkeypatch.setattr(sys, "argv", [str(path), *argv])
    runpy.run_path(str(path), run_name="__main__")
    return capsys.readouterr().out.splitlines()


def test_kummer_sweep_passes_at_the_guaranteed_modulus(monkeypatch, capsys):
    lines = run_script(monkeypatch, capsys, "kummer_sweep.py",
                       "--bound", "30", "--k-max", "3", "--max-m", "1")
    assert lines[0] == "p=5, bound=30"
    # a row per (k, m), k from 2 to 3 and m from 0 to 1, each perhaps
    # followed by a note on the probe one level past the guarantee
    rows = [line.split() for line in lines[2:] if "note:" not in line]
    assert [(int(r[0]), int(r[2])) for r in rows] == [
        (2, 0), (2, 1), (3, 0), (3, 1)]
    for k, k2, m, mod, passed, checked in rows:
        assert int(k2) == int(k) + 4 * 5 ** int(m)
        assert mod == f"5^{int(m) + 1}"
        assert passed == "True" and int(checked) > 0


def test_moment_demo_ends_with_the_shifted_weights(monkeypatch, capsys):
    lines = run_script(monkeypatch, capsys, "moment_demo.py",
                       "--bound", "6", "--max-d", "2")
    assert lines[0] == "integrand x^3, p=5"
    assert lines[-2:] == ["moment d=1: weight (3, -1)",
                          "moment d=2: weight (5, -2)"]
    assert len(lines) == 2 + 6 + 2  # title, header, traces 1..6, weights


def test_automorphy_report_residuals_are_small(monkeypatch, capsys):
    lines = run_script(monkeypatch, capsys, "automorphy_report.py",
                       "--cases", "5")
    rows = [line.split() for line in lines[1:]]
    assert len(rows) == 9  # n in 1..3, three weights each
    for n, k, nu, cocycle, section in rows:
        assert float(cocycle) < 1e-9 and float(section) < 1e-9
