#!/usr/bin/env python3
"""Record the CLI grid's results from the current code.

Run from the repository root, on the commit whose results the grid guards:

    PYTHONPATH=src:tests python3 tests/record_cli_grid.py

It writes ``tests/cli_grid_digests.json``: per command of
``tests/cli_grid.py``, its exit code, the SHA-256 of its stdout and its
last ``error:`` line.
"""

import collections
import json
import os
import tempfile

import cli_grid


def main():
    with tempfile.TemporaryDirectory() as tmp:
        results = cli_grid.run_grid(tmp)
    with open(cli_grid.DIGESTS, "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
        fh.write("\n")
    codes = collections.Counter(r["exit"] for r in results.values())
    print(f"wrote {os.path.relpath(cli_grid.DIGESTS)}: {len(results)} "
          f"commands, exit codes {dict(sorted(codes.items()))}")


if __name__ == "__main__":
    main()
