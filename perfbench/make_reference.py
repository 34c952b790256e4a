"""Regenerate reference.json: the pinned-seed hit counts of every workload's op.

    python3 perfbench/make_reference.py

The benchmark checks every op at the pinned seed against this file.  Rerun it
only for a change that is meant to alter the accuracies, and say so.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads


def main():
    reference = {"seed": workloads.PINNED_SEED, "workloads": {}}
    for name, workload in workloads.WORKLOADS.items():
        work_dir = os.path.join(run.WORK_DIR, f"reference-{name}")
        try:
            bench = run.Bench(workload, workloads.PINNED_SEED, work_dir)
            bench.setup()
            bench.op()
            if bench.failures:
                print(f"{name}: {bench.failures[0]}", file=sys.stderr)
                return 1
            reference["workloads"][name] = workloads.hit_counts(bench.out_dir, bench.doc)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    with open(run.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {run.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
