"""Tests of the benchmark's own checks, statistics and tracer.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import io
import json
import os
import sys
from contextlib import redirect_stdout
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (puts src/ on the path)
import tracing  # noqa: E402
import workloads  # noqa: E402


def tampered_goldens(tmp_path, edit):
    goldens = workloads.load_goldens()
    edit(goldens)
    path = tmp_path / "goldens.json"
    path.write_text(json.dumps(goldens))
    return str(path)


def test_weight_shift_golden_passes_and_tampered_golden_fails(tmp_path):
    wl = run.make_workload("weight-shift-rank2", 3)
    out = wl.run_job(0)
    assert wl.check(0, out) is None
    key = out[0]

    def flip(goldens):
        digests = goldens["weight-shift-rank2"]["digests"]
        digests[key] = "0" * len(digests[key])

    bad = workloads.WeightShift(3, tampered_goldens(tmp_path, flip))
    bad.setup()
    assert "differs from the golden" in bad.check(0, bad.run_job(0))


def test_cli_outputs_pass_and_tampered_golden_fails(tmp_path):
    wl = run.make_workload("readme-cli", 3)
    out = wl.run_job_in_process(0)
    assert wl.check(0, out) is None

    def edit(goldens):
        goldens["readme-cli"]["kummer"] = goldens["readme-cli"]["kummer"].replace(
            "true", "false")

    bad = workloads.ReadmeCli(3, tampered_goldens(tmp_path, edit))
    bad.setup()
    assert bad.check(0, out) == "kummer stdout differs from the golden"
    failing = [(n, 1 if n == "moment" else rc, s) for n, rc, s in out]
    assert wl.check(0, failing) == "moment exited 1"


def test_checks_over_zero_cases_fail():
    wl = workloads.Kummer(0)
    vacuous = SimpleNamespace(passed=True, checked=0, witness=None,
                              modulus_exponent=2)
    assert wl.check(0, vacuous) == "checked zero coefficients"
    zeros = {"cocycle": 0.0, "section": 0.0, "base_delta": 0.0}
    assert workloads.check_residuals(zeros, 0, 1e-9) == "no cases were requested"
    assert workloads.check_residuals(zeros, 10, 1e-9) is None
    assert workloads.check_residuals({**zeros, "section": float("nan")},
                                     10, 1e-9) is not None


def test_a_job_that_raises_counts_as_failed():
    class Broken(workloads.Workload):
        def check(self, index, out):
            return None

    def job(index):
        raise ZeroDivisionError("inverse of zero")

    runner = run.Runner(Broken(0), job)
    runner.one()
    assert runner.attempted == 1
    assert runner.failures == ["job 0: raised ZeroDivisionError: inverse of zero"]


def test_tail_and_spread():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([float(i) for i in range(1, 11)]) == (8.0, 80.0)
    assert run.tail([5.0]) == (5.0, 100.0)
    assert run.spread([1.0, 1.0, 1.0]) == 0.0
    assert abs(run.spread([1.0, 2.0, 3.0, 4.0, 5.0]) - 3.0 / 3.0) < 1e-12


def test_tracer_patches_callers_and_self_times_add_up():
    wl = run.make_workload("weight-shift-rank2", 5)
    from eismeasure import hermitian, qexp
    original = hermitian.enumerate_positive
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert qexp.enumerate_positive is hermitian.enumerate_positive
        assert qexp.enumerate_positive is not original
        out = tracer.job(wl.run_job, 0)
    finally:
        tracer.uninstall()
    assert hermitian.enumerate_positive is original
    assert qexp.enumerate_positive is original
    assert wl.check(0, out) is None
    c = tracer.counts
    assert c["hermitian.enumerate_positive.calls"] == 2
    assert c["qexp.eisenstein_qexp.indices"] == 2 * workloads.WS_INDICES
    assert c["hermitian.cusp_rule.calls"] > 0
    root = tracer.end[0] - tracer.start[0]
    assert tracer.names[tracer.name_col[0]] == tracing.ROOT_SPAN
    assert abs(sum(tracer.self_times().values()) - root) < 1e-6


def test_result_line_and_stamped_file(tmp_path):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = run.main(["--workload", "weight-shift-rank2", "--seed", "2",
                       "--seconds", "0.3", "--results", str(tmp_path)])
    assert rc == 0
    line = json.loads(buf.getvalue().splitlines()[-1])
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    assert line["correct"] and line["failed"] == 0
    names = {m["name"] for m in json.load(open(run.BENCHMARK))["end_to_end"]}
    assert set(line["metrics"]) == names
    doc = json.load(open(tmp_path / "weight-shift-rank2" / "trace0" / "seed2.json"))
    for key in ("git_sha", "dirty", "python", "numpy", "nproc", "seed", "params"):
        assert key in doc["stamp"]
    assert doc["failed_frac"] == 0.0


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = run.main(["--workload", "weight-shift-rank2", "--seed", "2",
                       "--seconds", "0.6", "--trace", "1",
                       "--results", str(tmp_path)])
    assert rc == 0
    line = json.loads(buf.getvalue().splitlines()[-1])
    bench = json.load(open(run.BENCHMARK))
    assert set(line["metrics"]) == {m["name"] for m in bench["per_layer"]}
    for m in bench["per_layer"]:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    assert metrics["hermitian.enumerate_positive.calls"] == 2
    assert metrics["hermitian.divisor_rule_b1000_ms"] > 0
    layers = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert abs(layers - metrics["trace.traced_job_s.mean"]) < 1e-6
    assert abs(metrics["trace.self_s_sum"] - layers) < 1e-6
    assert (tmp_path / "weight-shift-rank2" / "trace1" / "seed2.json.spans.bin").exists()
