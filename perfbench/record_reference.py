"""Record reference.json from the current sources.

    python3 perfbench/record_reference.py

Runs the first pass of every workload at the default seed and stores the
output values its checks read (estimates, standard errors, oracle values,
counts). Measured runs at the default seed compare against them with a
relative tolerance of 1e-6 (integers exactly). Re-record only in a change
that is meant to alter the program's numbers, and say so.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import ROOT, Runner
from workloads import DEFAULT_SEED, REFERENCE_PATH, WORKLOADS


def main() -> int:
    reference = {}
    for name in WORKLOADS:
        args = argparse.Namespace(workload=name, seed=DEFAULT_SEED, seconds=0.0)
        runner = Runner(args, ROOT / ".perfbench" / f"reference-{name}")
        try:
            res = runner.spawn("reference")
        finally:
            shutil.rmtree(runner.workdir, ignore_errors=True)
        failures = runner.crashes + [f for t in (res or {}).get("tasks", []) for f in t["failures"]]
        if res is None or failures:
            print(f"{name}: not recorded: {failures}", file=sys.stderr)
            return 1
        reference[name] = res["values"]
        print(f"{name}: {sum(len(v) for v in res['values'].values())} values")
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
