#!/usr/bin/env python3
"""Record the outputs the benchmark checks against, from the current code.

Run from the repository root, on the commit that defines the goldens:

    python3 perfbench/record_goldens.py

It writes ``perfbench/goldens.json``: the digest of the direct expansion of
every recorded weight-shift input, and the stdout of the README commands
whose output is deterministic (integrate, moment, kummer).
"""

import json
import os
import subprocess
import sys

import run  # puts src/ on the path
import workloads


def git_sha():
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=workloads.ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main():
    ws = workloads.WeightShift(0)
    ws.build()
    digests = []
    for key in range(workloads.WS_KEYS):
        _, direct, shifted = ws.expansions(key)
        if not direct == shifted or len(direct.terms) != workloads.WS_INDICES:
            sys.exit(f"weight-shift input {key} fails its own identity")
        digests.append(workloads.expansion_digest(direct.to_json()))

    env = dict(os.environ, PYTHONPATH=workloads.SRC)
    cli = {}
    for name, argv in workloads.README_COMMANDS:
        if name == "automorphy-selftest":
            continue  # residuals are checked against the tolerance instead
        proc = subprocess.run([sys.executable, "-m", "eismeasure.cli", *argv],
                              cwd=workloads.ROOT, env=env, capture_output=True,
                              text=True, check=True)
        cli[name] = proc.stdout

    doc = {"recorded_from": git_sha(),
           "weight-shift-rank2": {"digests": digests},
           "readme-cli": cli}
    with open(workloads.GOLDENS, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(workloads.GOLDENS, workloads.ROOT)}: "
          f"{len(digests)} digests, {len(cli)} command outputs")


if __name__ == "__main__":
    main()
