#!/usr/bin/env python3
"""Regenerate ``reference/seed0.json``: one checked seed-0 pass of every
workload, recording each scenario's key values and the sha256 of each
output file (every CSV and verdict.txt), or its failure.

Run from the root of a checkout: ``python3 perfbench/make_reference.py``.
Only regenerate when a change is meant to move the outputs, and say so.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    root = os.getcwd()
    sys.path.insert(0, HERE)
    import run

    run.configure(root)
    import checks
    import heatlab.cli as cli
    import workloads

    out = {}
    for workload in workloads.WORKLOADS:
        scenarios, workdir, _ = run.prepare(root, workload, 0)
        runner = run.Runner(cli, checks, scenarios, workdir)
        _, values = runner.run_pass()
        failed = dict(runner.failed)
        for sc in scenarios:
            entry = {"values": values.get(sc.key, {}), "sha256": runner.files.get(sc.key, {})}
            if sc.key in failed:
                entry["failed"] = failed[sc.key]
            out[sc.key] = entry
            print(sc.key, failed.get(sc.key, "ok"))
        if runner.incorrect:
            print(f"error: unexpected failures: {runner.incorrect}", file=sys.stderr)
            return 1
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
