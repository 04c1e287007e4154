"""The four benchmark workloads and the checks on their outputs.

A workload builds its inputs from the benchmark seed in ``setup``, runs one
job per call of ``run_job`` (the timed part) and judges that job's output in
``check`` (untimed).  Layer functions are always looked up through their
module at call time, so the tracer's patches on those names take effect.

Job inputs are fixed by ``(seed, job index)``: the same seed gives the same
sequence of inputs.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDENS = os.path.join(HERE, "goldens.json")

#: Number of recorded weight-shift inputs; a job's input is one of them.
WS_KEYS = 150
#: The weights that a weight-shift job cycles over, as in acceptance 04.
WS_WEIGHTS = tuple((k, nu) for k in range(2, 7) for nu in (-1, 0, 1))
WS_TRACE_BOUND = 6
WS_INDICES = 191

KUMMER_BOUND = 1000
KUMMER_CHECKED = 800  # traces up to 1000 prime to 5

AUTOMORPHY_CASES = 1000
AUTOMORPHY_TOL = 1e-9

#: The README commands, in README order.  The automorphy command also gets
#: ``--seed`` from the benchmark seed: it is the only one with random input.
README_COMMANDS = (
    ("integrate", ["integrate", "--mode", "symplectic", "--p", "5", "--n", "1",
                   "--ring", "qq", "--cusp", "divisor", "--bound", "12",
                   "--function", "x^3"]),
    ("moment", ["moment", "--mode", "symplectic", "--p", "5", "--ring", "qq",
                "--cusp", "divisor", "--bound", "12", "--function", "x^3",
                "--det-power", "2"]),
    ("kummer", ["kummer", "--p", "5", "--k", "4", "--k2", "24", "--m", "1",
                "--bound", "200"]),
    ("automorphy-selftest", ["automorphy-selftest", "--n", "2",
                             "--cases", str(AUTOMORPHY_CASES)]),
)


def load_goldens(path: str = GOLDENS) -> dict:
    with open(path) as fh:
        return json.load(fh)


def expansion_digest(data: dict) -> str:
    """Short digest of an expansion's JSON form."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def ws_job_key(seed: int, index: int) -> int:
    return (seed * 7919 + index) % WS_KEYS


class Workload:
    name = ""
    items_per_job = 1
    #: Whether a job's work runs in this interpreter (see calibrate.py).
    in_process = True

    def __init__(self, seed: int, goldens_path: str = GOLDENS):
        self.seed = seed
        self.goldens_path = goldens_path

    def setup(self):
        """Import the package and build fields, seeded inputs and goldens."""
        import eismeasure  # noqa: F401  (the import is part of set-up)
        self.em = sys.modules["eismeasure"]

    def params(self) -> dict:
        raise NotImplementedError

    def run_job(self, index: int):
        raise NotImplementedError

    def check(self, index: int, out) -> str | None:
        """None when the output is right, else a short reason."""
        raise NotImplementedError

    def check_trace(self, tracer, lo: int, hi: int) -> str | None:
        """Checks that need the spans of one traced job, spans[lo:hi]."""
        return None

    def work_counts(self, out) -> dict:
        """Counts read from a job's output, for the traced run."""
        return {}


class Kummer(Workload):
    """Rank-one Kummer congruence at trace bound 1000 over qq."""

    name = "kummer-b1000"
    items_per_job = 2 * KUMMER_BOUND  # coefficients of both expansions

    def setup(self):
        super().setup()
        from eismeasure import fields, measure
        self.measure = measure
        self.field = fields.FieldData(p=5, mode="symplectic")

    def params(self):
        return {"p": 5, "mode": "symplectic", "k_range": [2, 12],
                "k2": "k+20", "m": 1, "trace_bound": KUMMER_BOUND}

    def run_job(self, index):
        k = random.Random(f"{self.seed}:{index}").randint(2, 12)
        return self.measure.kummer_check(self.field, k, k + 20, 1, KUMMER_BOUND)

    def check(self, index, rep):
        if rep.checked == 0:
            return "checked zero coefficients"
        if not rep.passed:
            return f"congruence failed at {rep.witness}"
        if rep.modulus_exponent != 2:
            return f"modulus exponent {rep.modulus_exponent} != 2"
        if rep.checked != KUMMER_CHECKED:
            return f"checked {rep.checked} != {KUMMER_CHECKED}"
        return None


class WeightShift(Workload):
    """Rank-two weight-shift identity over Z_p at trace bound 6."""

    name = "weight-shift-rank2"
    items_per_job = 2 * WS_INDICES  # direct and shifted coefficients

    def setup(self):
        self.build()
        self.digests = load_goldens(self.goldens_path)["weight-shift-rank2"]["digests"]
        if len(self.digests) != WS_KEYS:
            raise ValueError("weight-shift goldens do not match WS_KEYS")

    def build(self):
        """Everything but the goldens."""
        super().setup()
        from eismeasure import fields, functions, hermitian, qexp
        self.functions, self.qexp = functions, qexp
        self.field = fields.FieldData(p=5, k_disc=-4)
        self.hermitian = hermitian
        self.weights = {w: fields.Weight(*w) for w in WS_WEIGHTS}
        self.base = fields.Weight(2, 0)
        # kept from before any tracing, so the check is never traced
        self.to_json = qexp.QExpansion.to_json

    def params(self):
        return {"p": 5, "k_disc": -4, "n": 2, "level": 2, "entries": 10,
                "weights": [list(w) for w in WS_WEIGHTS],
                "trace_bound": WS_TRACE_BOUND, "ring": "zp",
                "recorded_inputs": WS_KEYS}

    def run_job(self, index):
        return self.expansions(ws_job_key(self.seed, index))

    def expansions(self, key: int):
        """Direct and weight-twisted expansions of recorded input ``key``.

        The key seeds the random table and picks the weight.
        """
        k, nu = WS_WEIGHTS[key % len(WS_WEIGHTS)]
        fn, qx = self.functions, self.qexp
        w = self.weights[(k, nu)]
        cusp = self.hermitian.CuspData.single_term(self.field, 2)
        rng = random.Random(key)
        f = fn.symmetrize(fn.random_lc_function(self.field, 2, 2, rng,
                                                entries=10), w)
        direct = qx.eisenstein_qexp(f, w, cusp, WS_TRACE_BOUND, self.field)
        shifted = qx.eisenstein_qexp(fn.weight_twist(f, w), self.base,
                                     cusp, WS_TRACE_BOUND, self.field)
        return key, direct, shifted

    def check(self, index, out):
        key, direct, shifted = out
        if len(direct.terms) != WS_INDICES:
            return f"{len(direct.terms)} indices != {WS_INDICES}"
        if not direct == shifted:
            return "direct and weight-twisted expansions differ"
        if expansion_digest(self.to_json(direct)) != self.digests[key]:
            return f"digest of input {key} differs from the golden"
        return None


class Automorphy(Workload):
    """Numeric automorphy self-test, n = 2, 1000 cases."""

    name = "automorphy-n2"
    items_per_job = AUTOMORPHY_CASES

    def setup(self):
        super().setup()
        from eismeasure import automorphy
        self.automorphy = automorphy

    def params(self):
        return {"n": 2, "cases": AUTOMORPHY_CASES, "tolerance": AUTOMORPHY_TOL,
                "selftest_seed": self.seed}

    def run_job(self, index):
        return self.automorphy.selftest(2, AUTOMORPHY_CASES, self.seed)

    def check(self, index, worst):
        return check_residuals(worst, AUTOMORPHY_CASES, AUTOMORPHY_TOL)

    def check_trace(self, tracer, lo, hi):
        # every loop pass draws one point; a rejected pass raises exactly
        # once out of a call made directly by selftest
        points = sum(1 for i in range(lo, hi) if tracer.names[
            tracer.name_col[i]] == "automorphy.random_point")
        accepted = points - tracer.raised_under("automorphy.selftest", lo, hi)
        if accepted != AUTOMORPHY_CASES:
            return f"{accepted} cases verified, {AUTOMORPHY_CASES} requested"
        return None


def check_residuals(worst: dict, cases: int, tol: float) -> str | None:
    if cases < 1:
        return "no cases were requested"
    if set(worst) != {"cocycle", "section", "base_delta"}:
        return f"unexpected residual keys {sorted(worst)}"
    for key, val in worst.items():
        if not (isinstance(val, float) and math.isfinite(val) and val < tol):
            return f"residual {key} = {val!r} not under {tol}"
    return None


class ReadmeCli(Workload):
    """The README commands, each in a fresh interpreter, one at a time."""

    name = "readme-cli"
    items_per_job = len(README_COMMANDS)
    in_process = False

    def setup(self):
        super().setup()
        self.goldens = load_goldens(self.goldens_path)["readme-cli"]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC + (
            os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH")
            else "")
        self.command_times = {name: [] for name, _ in README_COMMANDS}
        self.command_rss_kb = [0]

    def params(self):
        return {"commands": [" ".join(argv) for _, argv in README_COMMANDS],
                "runner": "python -m eismeasure.cli, PYTHONPATH=src",
                "automorphy_seed": self.seed}

    def argv(self, index: int):
        for name, argv in README_COMMANDS:
            if name == "automorphy-selftest":
                argv = argv + ["--seed", str(self.seed)]
            yield name, argv

    def run_job(self, index):
        out = []
        for name, argv in self.argv(index):
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "eismeasure.cli", *argv], cwd=ROOT,
                env=self.env, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL)
            stdout = proc.stdout.read()
            proc.stdout.close()
            # wait4 gives this one process's peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.command_times[name].append(time.perf_counter() - t0)
            self.command_rss_kb.append(usage.ru_maxrss)
            out.append((name, proc.returncode, stdout))
        return out

    def run_job_in_process(self, index):
        """The same commands through ``cli.run_command`` with stdout captured."""
        from eismeasure import cli
        out = []
        for name, argv in self.argv(index):
            buf = io.StringIO()
            with redirect_stdout(buf):
                rc = cli.run_command(argv)
            out.append((name, rc, buf.getvalue().encode()))
        return out

    def check(self, index, out):
        return check_cli_outputs(out, self.goldens)

    def work_counts(self, out):
        return {"cli.stdout_bytes": sum(len(stdout) for _, _, stdout in out)}


def check_cli_outputs(out, goldens: dict) -> str | None:
    if len(out) != len(README_COMMANDS):
        return f"{len(out)} commands ran, expected {len(README_COMMANDS)}"
    for name, rc, stdout in out:
        if rc != 0:
            return f"{name} exited {rc}"
        if name in goldens:
            if stdout != goldens[name].encode():
                return f"{name} stdout differs from the golden"
            continue
        try:
            data = json.loads(stdout)
            reason = check_residuals(data["residuals"], AUTOMORPHY_CASES,
                                     float(data["tolerance"]))
        except (ValueError, KeyError, TypeError) as exc:
            return f"{name} output unreadable: {exc}"
        if reason:
            return f"{name}: {reason}"
    return None


WORKLOADS = {cls.name: cls for cls in (Kummer, WeightShift, Automorphy,
                                        ReadmeCli)}
