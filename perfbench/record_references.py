"""Record the correctness references in references.json.

Run from the repository root with the library on the path:

    PYTHONPATH=src python3 perfbench/record_references.py

CLI jobs record their exit code and, per report, the row count, per-column
sums and a SHA-256 digest (informational; checks compare values).  The
equivalence jobs record (bounded, c_full).  generated-spectral is checked
against invariants, not recorded values; its known failures are the
(job, check key) pairs that fail those invariants when the references are
recorded.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import sftgeom.cli

import workloads

HERE = Path(__file__).resolve().parent
# Equivalence values are compared at the solenoid-check tolerance.
EQUIV_TOL = sftgeom.cli.DEFAULT_TOL["solenoid-check"]
KNOWN_FAILURE_SEED = 0


def record(workload: str, size: str, out: Path) -> dict:
    if workload == "generated-spectral":
        jobs = workloads.build(workload, KNOWN_FAILURE_SEED, size, out)
        failing = {j.name: sorted(workloads.check(workload, j, j.run(), {})) for j in jobs}
        return {"jobs": {}, "known_failures": {n: keys for n, keys in failing.items() if keys}}
    entry: dict = {"jobs": {}}
    if workload == "equivalence":
        entry["tol"] = EQUIV_TOL
    for job in workloads.build(workload, 0, size, out):
        obs = job.run()
        if "task" in job.meta:
            workloads.observe_reports(job, obs)
            obs["tol"] = sftgeom.cli.DEFAULT_TOL[job.meta["task"]]
        entry["jobs"][job.name] = obs
    return entry


def main() -> int:
    refs: dict = {}
    for workload in workloads.WORKLOADS:
        refs[workload] = {}
        for size in workloads.SIZES:
            out = HERE.parent / ".bench_out" / f"refs-{workload}-{size}"
            try:
                refs[workload][size] = record(workload, size, out)
            finally:
                shutil.rmtree(out, ignore_errors=True)
            print(f"recorded {workload} ({size})", file=sys.stderr)
    (HERE / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
