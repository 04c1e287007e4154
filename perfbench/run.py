#!/usr/bin/env python3
"""Benchmark of eismeasure: end-to-end metrics per workload, or per-layer ones.

Run from the repository root:

    python3 perfbench/run.py --workload kummer-b1000 --seed 1 --seconds 18 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
is a separate run that wraps the layer functions (see ``tracing.py``) and
reports the per-layer metrics, the micro-benchmarks of ``micro.py`` and the
tracing overhead.  Either way the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``, and the full
result, stamped with the code version and machine, goes to
``<results>/<workload>/trace<0|1>/seed<n>.json``.

    python3 perfbench/run.py --summary OUT.json        # medians and spreads
    python3 perfbench/run.py --compare OLD.json [NEW.json]

``--summary`` folds every result file under ``--results`` into medians and
quartile spreads; ``--compare`` prints, per workload and metric, both
medians, their ratio and a verdict against the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import glob
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
RESULTS = os.path.join(ROOT, ".bench_results")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import micro  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Fresh interpreters that each time a set-up and a first job, besides the
#: run's own; set-up and first-job times are medians over all of them.
COLD_CHILDREN = 3
#: Fresh interpreters timing ``import eismeasure.cli`` in a traced readme-cli run.
CLI_IMPORT_CHILDREN = 3
#: Share of a traced run's seconds spent traced; the rest runs untraced jobs
#: in the same process, for the tracing overhead.
TRACED_SHARE = 2 / 3


# -- statistics ----------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with samples beyond it.

    Ten samples lie beyond it when there are at least 40; with fewer, a
    quarter of them do, so a short run still reports a tail above its median.
    """
    s = sorted(values)
    n = len(s)
    beyond = min(10, n // 4)
    return s[n - 1 - beyond], 100.0 * (n - beyond) / n


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


# -- one run -------------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def git_stamp() -> tuple[str | None, bool | None]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None, None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=60)
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    if sha.returncode != 0 or status.returncode != 0:
        return None, None
    return sha.stdout.strip(), bool(status.stdout.strip())


def stamp(args, wl=None) -> dict:
    sha, dirty = git_stamp()
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    out = {"git_sha": sha, "dirty": dirty,
           "python": platform.python_version(), "numpy": numpy_version,
           "nproc": len(os.sched_getaffinity(0)),
           "machine": platform.machine(),
           "written_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    if wl is not None:
        out.update({"workload": wl.name, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace,
                    "params": wl.params()})
    return out


def make_workload(name: str, seed: int):
    wl = workloads.WORKLOADS[name](seed)
    wl.setup()
    loaded = os.path.abspath(wl.em.__file__)
    if not loaded.startswith(SRC + os.sep):
        raise ImportError(f"eismeasure loaded from {loaded}, not from {SRC}")
    return wl


def child_json(argv: list[str], key: str):
    """``key`` of the JSON line a fresh interpreter prints last."""
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[:2]} failed: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout.splitlines()[-1])[key]


class Runner:
    """Runs jobs, times and checks each one, and keeps the tally."""

    def __init__(self, wl=None, run_job=None):
        self.wl = wl
        self.run_job = run_job
        self.attempted = 0
        self.failures: list[str] = []
        self.index = 0

    def one(self, wrap=None):
        """Run the next job; returns (timing, output).

        The timing is (reference s, wall s, loop s), or None if the job
        raised.  Jobs whose work runs in child processes are not rescaled:
        their reference time is the wall time and the loop time is None.
        """
        index = self.index
        self.index += 1
        self.attempted += 1
        timing, out = None, None
        args = (wrap, self.run_job, index) if wrap else (self.run_job, index)
        try:
            if self.wl.in_process:
                timing, out = calibrate.timed(*args)
            else:
                t0 = time.perf_counter()
                out = args[0](*args[1:])
                wall = time.perf_counter() - t0
                timing = (wall, wall, None)
            reason = self.wl.check(index, out)
        except Exception as exc:  # a job that raises counts as failed
            reason = f"raised {type(exc).__name__}: {exc}"
        self.record(index, reason)
        return timing, out

    def record(self, index, reason: str | None):
        if reason:
            self.failures.append(f"job {index}: {reason}")

    def for_seconds(self, seconds: float, wrap=None, each=None) -> list:
        """Jobs until ``seconds`` have passed, at least one; their timings."""
        timings = []
        deadline = time.perf_counter() + seconds
        first = self.index
        while self.index == first or time.perf_counter() < deadline:
            timing, out = self.one(wrap)
            if timing is not None:
                timings.append(timing)
                if each is not None:
                    each(out)
        return timings


def reference(timings: list) -> list[float]:
    return [t[0] for t in timings] or [0.0]


def cold_start(args, runner) -> tuple:
    """Set-up and first job in this interpreter: their timings."""
    setup, wl = calibrate.timed(make_workload, args.workload, args.seed)
    runner.wl, runner.run_job = wl, wl.run_job
    first, _ = runner.one()
    return setup, first


def run_untraced(args, wl, runner, cold):
    # fresh interpreters time more cold starts, spread over the run so that
    # they do not all fall in one phase of the machine's speed
    colds = [cold]
    timings = []
    for i in range(COLD_CHILDREN + 1):
        timings += runner.for_seconds(args.seconds / (COLD_CHILDREN + 1))
        if i == COLD_CHILDREN:
            break
        child = child_json([os.path.join(HERE, "run.py"), "--cold-start",
                            "--workload", wl.name, "--seed", str(args.seed)],
                           "cold")
        runner.attempted += 1
        runner.record("0 (fresh interpreter)", child["failure"])
        colds.append((child["setup"], child["first_job"]))
    peak_kb = (max(wl.command_rss_kb) if wl.name == "readme-cli"
               else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    times = reference(timings)
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": metric(statistics.median(reference([s for s, _ in colds])),
                          "s"),
        "first_job_s": metric(statistics.median(
            reference([f for _, f in colds if f is not None])), "s"),
        "job_s.p50": metric(statistics.median(times), "s"),
        "job_s.tail": metric(tail_s, "s"),
        "items_per_s": metric(wl.items_per_job * len(times) / sum(times)
                              if sum(times) else 0.0, "1/s"),
        "peak_rss_mb": metric(peak_kb / 1024, "MB"),
    }
    detail = {"timings": "reference s, wall s, loop s (loop null: not rescaled)",
              "cold_starts": colds, "jobs": timings,
              "wall_job_s.p50": statistics.median(
                  [t[1] for t in timings] or [0.0]),
              "tail_pct": tail_pct, "samples": len(timings),
              "items_per_job": wl.items_per_job,
              "peak_rss_of": "command processes" if wl.name == "readme-cli"
              else "self"}
    if wl.name == "readme-cli":
        detail["command_s.p50"] = {
            name: statistics.median(ts) for name, ts in wl.command_times.items()}
    return metrics, detail


def run_traced(args, wl, runner):
    cli_import = 0.0
    if wl.name == "readme-cli":
        cli_import = statistics.median(
            child_json(["-c", CLI_IMPORT_PROBE], "import_s")
            for _ in range(CLI_IMPORT_CHILDREN))
    untraced = runner.for_seconds(args.seconds * (1 - TRACED_SHARE))
    micros = micro.run_all()

    tracer = tracing.Tracer()
    marks = []  # (lo, hi) span range of each traced job
    extra: dict[str, float] = {}

    def traced_job(run_job, index):
        lo = len(tracer)
        try:
            return tracer.job(run_job, index)
        finally:
            marks.append((lo, len(tracer)))

    def each(out):
        for key, value in wl.work_counts(out).items():
            extra[key] = extra.get(key, 0) + value
        lo, hi = marks[-1]
        runner.record(runner.index - 1, wl.check_trace(tracer, lo, hi))

    t_origin = time.perf_counter()
    tracer.install()
    try:
        traced = runner.for_seconds(args.seconds * TRACED_SHARE,
                                    wrap=traced_job, each=each)
    finally:
        tracer.uninstall()

    jobs = max(len(traced), 1)
    metrics = layer_metrics(tracer, jobs, extra, micros, cli_import)
    traced_p50 = statistics.median(reference(traced))
    untraced_p50 = statistics.median(reference(untraced))
    metrics.update({
        "trace.traced_job_s.p50": metric(traced_p50, "s"),
        "trace.untraced_job_s.p50": metric(untraced_p50, "s"),
        "trace.overhead_s": metric(traced_p50 - untraced_p50, "s"),
        "trace.traced_jobs": metric(len(traced), "count"),
        "trace.spans_per_job": metric(len(tracer) / jobs, "count/job"),
    })
    detail = {"timings": "reference s, wall s, loop s", "traced": traced,
              "untraced": untraced, "spans": len(tracer)}
    return metrics, detail, tracer, t_origin


CLI_IMPORT_PROBE = (
    "import json, sys, time; sys.path.insert(0, 'src'); "
    "t = time.perf_counter(); import eismeasure.cli; "
    "print(json.dumps({'import_s': time.perf_counter() - t}))")

PER_JOB = "count/job"


def layer_metrics(tracer, jobs: int, extra: dict, micros: dict,
                  cli_import: float) -> dict:
    """Per-layer metrics, per traced job, from the spans and counts."""
    c = tracer.counts
    selfs = tracer.self_times()
    totals = tracer.total_times()

    def count(key):
        return metric(c.get(key, 0) / jobs, PER_JOB)

    def busy(name):
        return metric(totals.get(name, 0.0) / jobs, "s/job")

    def self_s(layer):
        return metric(sum(v for k, v in selfs.items()
                          if k.split(".", 1)[0] == layer) / jobs, "s/job")

    def micro_metric(name):
        return metric(micros[name], "us" if name.endswith("_us") else "ms")

    evaluated = c.get("functions.evaluate.calls", 0)
    points = c.get("automorphy.random_point.calls", 0)
    rejected = tracer.raised_under("automorphy.selftest", 0, len(tracer))
    m = {
        "hermitian.cusp_rule.calls": count("hermitian.cusp_rule.calls"),
        "hermitian.cusp_rule.terms": count("hermitian.cusp_rule.terms"),
        "hermitian.cusp_rule.s": busy("hermitian.cusp_rule"),
        "hermitian.enumerate_positive.calls":
            count("hermitian.enumerate_positive.calls"),
        "hermitian.enumerate_positive.matrices":
            count("hermitian.enumerate_positive.matrices"),
        "hermitian.enumerate_positive.s": busy("hermitian.enumerate_positive"),
        "hermitian.self_s": self_s("hermitian"),
        "fields.KNum.ops": count("fields.KNum.ops"),
        "fields.sigma_residue.calls": count("fields.sigma_residue.calls"),
        "fields.CMElt.embed.calls": count("fields.CMElt.embed.calls"),
        "fields.norm_weight.calls": count("fields.norm_weight.calls"),
        "fields.self_s": self_s("fields"),
        "padic.PadicElt.ops": count("padic.PadicElt.ops"),
        "padic.self_s": self_s("padic"),
        "rings.coerce.calls": count("rings.coerce.calls"),
        "rings.self_s": self_s("rings"),
        "functions.evaluate.calls": count("functions.evaluate.calls"),
        "functions.evaluate.s": busy("functions.evaluate"),
        "functions.evaluate.nonzero_frac": metric(
            c.get("functions.evaluate.nonzero", 0) / evaluated
            if evaluated else 0.0, "frac"),
        "functions.symmetrize.s": busy("functions.symmetrize"),
        "functions.weight_twist.s": busy("functions.weight_twist"),
        "functions.random_lc_function.s": busy("functions.random_lc_function"),
        "functions.check_equivariance.s": busy("functions.check_equivariance"),
        "functions.check_equivariance.samples":
            count("functions.check_equivariance.samples"),
        "functions.self_s": self_s("functions"),
        "qexp.eisenstein_qexp.calls": count("qexp.eisenstein_qexp.calls"),
        "qexp.eisenstein_qexp.indices": count("qexp.eisenstein_qexp.indices"),
        "qexp.eisenstein_qexp.s": busy("qexp.eisenstein_qexp"),
        "qexp.congruent_mod.s": busy("qexp.congruent_mod"),
        "qexp.to_json.s": busy("qexp.to_json"),
        "qexp.to_json.bytes": metric(c.get("qexp.to_json.bytes", 0) / jobs,
                                     "B/job"),
        "qexp.self_s": self_s("qexp"),
        "diffops.theta_apply.s": busy("diffops.theta_apply"),
        "diffops.eval_matrix.calls": count("diffops.eval_matrix.calls"),
        "diffops.self_s": self_s("diffops"),
        "measure.integrate.s": busy("measure.integrate"),
        "measure.moment_detd.s": busy("measure.moment_detd"),
        "measure.kummer_check.s": busy("measure.kummer_check"),
        "measure.self_s": self_s("measure"),
        "automorphy.selftest.s": busy("automorphy.selftest"),
        "automorphy.cocycle_check.calls": count("automorphy.cocycle_check.calls"),
        "automorphy.cocycle_check.s": busy("automorphy.cocycle_check"),
        "automorphy.section_infty.calls": count("automorphy.section_infty.calls"),
        "automorphy.section_infty.s": busy("automorphy.section_infty"),
        "automorphy.act.calls": count("automorphy.act.calls"),
        "automorphy.factors.calls": count("automorphy.factors.calls"),
        "automorphy.random_word.s": busy("automorphy.random_word"),
        "automorphy.accept_frac": metric(
            (points - rejected) / points if points else 0.0, "frac"),
        "automorphy.self_s": self_s("automorphy"),
        "cli.import_s": metric(cli_import, "s"),
        "cli.run_command.s": busy("cli.run_command"),
        "cli.stdout_bytes": metric(extra.get("cli.stdout_bytes", 0) / jobs,
                                   "B/job"),
        "cli.self_s": self_s("cli"),
        "bench.self_s": self_s("bench"),
        "trace.self_s_sum": metric(sum(selfs.values()) / jobs, "s/job"),
        "trace.traced_job_s.mean": busy(tracing.ROOT_SPAN),
    }
    m.update({name: micro_metric(name) for name in micros})
    return m


def write_result(args, wl, runner, metrics, detail, tracer=None, t_origin=0.0):
    folder = os.path.join(args.results, wl.name, f"trace{args.trace}")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, f"seed{args.seed}.json")
    attempted, failed = runner.attempted, len(runner.failures)
    doc = {"stamp": stamp(args, wl),
           "correct": failed == 0, "attempted": attempted, "failed": failed,
           "failed_frac": failed / attempted, "failures": runner.failures[:20],
           "metrics": metrics, "detail": detail}
    if tracer is not None:
        doc["spans_file"] = os.path.basename(path) + ".spans"
        tracer.dump(path + ".spans", t_origin)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def run(args) -> int:
    cli_in_process = args.trace and args.workload == "readme-cli"
    if cli_in_process:
        # the traced run calls the CLI in-process; load it before patching
        import eismeasure.cli  # noqa: F401
    runner = Runner()
    setup, first = cold_start(args, runner)
    wl = runner.wl
    if cli_in_process:
        wl.in_process = True
        runner.run_job = wl.run_job_in_process
    if args.cold_start:
        print(json.dumps({"cold": {
            "setup": setup, "first_job": first,
            "failure": runner.failures[0] if runner.failures else None}}))
        return 0
    tracer, t_origin = None, 0.0
    if args.trace:
        metrics, detail, tracer, t_origin = run_traced(args, wl, runner)
    else:
        metrics, detail = run_untraced(args, wl, runner, (setup, first))
    path = write_result(args, wl, runner, metrics, detail, tracer, t_origin)
    for line in runner.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"result file: {os.path.relpath(path, ROOT)}", file=sys.stderr)
    correct = not runner.failures
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": len(runner.failures), "metrics": metrics}))
    return 0 if correct else 1


# -- summaries and comparison --------------------------------------------------


def summarize(results: str) -> dict:
    """Medians and spreads per workload, trace mode and metric."""
    groups: dict = {}
    for path in sorted(glob.glob(os.path.join(results, "*", "trace[01]",
                                              "seed*.json"))):
        with open(path) as fh:
            doc = json.load(fh)
        st = doc["stamp"]
        key = f"{st['workload']}/trace{st['trace']}"
        g = groups.setdefault(key, {"seeds": [], "failed": 0, "metrics": {}})
        g["seeds"].append(st["seed"])
        g["failed"] += doc["failed"]
        for name, m in doc["metrics"].items():
            entry = g["metrics"].setdefault(name, {"unit": m["unit"],
                                                   "values": []})
            entry["values"].append(m["value"])
    for g in groups.values():
        for entry in g["metrics"].values():
            vals = entry["values"]
            entry["median"] = statistics.median(vals)
            entry["spread"] = spread(vals)
    return {"stamp": stamp(None), "results": os.path.relpath(results, ROOT),
            "groups": groups}


def load_bounds() -> dict:
    with open(BENCHMARK) as fh:
        bench = json.load(fh)
    out = {m["name"]: (m.get("bound"), m["better"]) for m in bench["end_to_end"]}
    out.update({m["name"]: (None, m["better"]) for m in bench["per_layer"]})
    return out


def verdict(old: dict, new: dict, bound, better: str) -> str:
    o, n = old["median"], new["median"]
    if bound is None:
        return "-"
    sign = 1 if better == "lower" else -1
    worse = sign * (n - o) / o if o else 0.0
    if max(old["spread"], new["spread"]) > bound:
        if better == "lower":
            every = max(new["values"]) < min(old["values"])
        else:
            every = min(new["values"]) > max(old["values"])
        return "better (every run)" if every else "unresolved"
    if worse > bound:
        return "worse"
    if -worse > bound:
        return "better"
    return "within bound"


def compare(old_path: str, new_path: str | None, results: str) -> int:
    with open(old_path) as fh:
        old = json.load(fh)
    if new_path:
        with open(new_path) as fh:
            new = json.load(fh)
    else:
        new = summarize(results)
    bounds = load_bounds()
    print(f"old {old['stamp'].get('git_sha')}  new {new['stamp'].get('git_sha')}"
          f" (dirty={new['stamp'].get('dirty')})")
    for key in sorted(set(old["groups"]) | set(new["groups"])):
        og, ng = old["groups"].get(key), new["groups"].get(key)
        if og is None or ng is None:
            print(f"{key}: only in {'new' if og is None else 'old'}")
            continue
        print(f"{key}: old seeds {sorted(og['seeds'])}, new seeds {sorted(ng['seeds'])}")
        for name in sorted(set(og["metrics"]) & set(ng["metrics"])):
            om, nm = og["metrics"][name], ng["metrics"][name]
            bound, better = bounds.get(name, (None, "lower"))
            ratio = nm["median"] / om["median"] if om["median"] else float("nan")
            print(f"  {name:40s} old {om['median']:<12.6g} new "
                  f"{nm['median']:<12.6g} ratio {ratio:<8.4f} spread "
                  f"{om['spread']:.3f}/{nm['spread']:.3f} bound "
                  f"{'-' if bound is None else bound}  "
                  f"{verdict(om, nm, bound, better)}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=18.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", default=RESULTS,
                    help="folder of per-run result files")
    ap.add_argument("--cold-start", action="store_true",
                    help="time one set-up and first job here, print them, exit")
    ap.add_argument("--summary", metavar="OUT.json",
                    help="fold the result files into medians and spreads")
    ap.add_argument("--compare", nargs="+", metavar="SUMMARY.json",
                    help="OLD [NEW]; NEW defaults to the current results")
    args = ap.parse_args(argv)
    if args.summary:
        doc = summarize(args.results)
        with open(args.summary, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0
    if args.compare:
        if len(args.compare) > 2:
            ap.error("--compare takes OLD [NEW]")
        return compare(args.compare[0], args.compare[1:] and args.compare[1],
                       args.results)
    if not args.workload:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        return run(args)
    except ImportError as exc:
        print(f"error: cannot load eismeasure from {SRC}: {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
