"""Regenerate reference.json from the fixed-seed reference pass.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter these outputs (a new
generator, a different model), and say so in CHANGES.md: the benchmark's
correctness check compares every run against this file.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def main() -> int:
    run.apply_shims()
    edue = run.import_edue()
    work = run.ROOT / ".perfbench_work" / "reference"
    bench = workloads.Bench(edue, work, workloads.SCALES["full"], seed=0)
    try:
        doc = {"seed": workloads.REFERENCE_SEED, "tolerances": workloads.TOLERANCES,
               "desk": workloads.desk_reference(bench, record=True),
               "riga": workloads.riga_reference(bench, record=True)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if bench.problems:
        print("\n".join(bench.problems), file=sys.stderr)
        return 1
    workloads.REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
