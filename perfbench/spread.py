"""Run-to-run spread of the end-to-end metrics, as the acceptance check
computes it.

    python3 perfbench/spread.py [--trace-seed N] [--out FILE]

Runs the benchmark command of BENCHMARK.json once per seed (1 to 10) and
workload of BENCHMARK.json, with tracing off, and prints for each
end-to-end metric the median of the runs and the distance between their
first and third quartiles as a share of that median, next to a third of
the metric's bound.  With --trace-seed
it also makes one traced run per workload.  --out saves everything,
with the host's nproc and the Python and numpy versions, as a trajectory
point.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)


def _run(workload: str, seed: int, trace: int) -> dict:
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    return result


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trace-seed", type=int, help="also make one traced run with this seed")
    ap.add_argument("--out", help="save the runs and their summary here")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    report: dict = {"workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(_run(workload, seed, 0))
            print(f"{workload} seed {seed}: {runs[-1]['elapsed_s']:.1f} s", file=sys.stderr)
        summary = {}
        print(f"{workload}: {len(runs)} runs, failed {[r['failed'] for r in runs]}, "
              f"correct {all(r['correct'] for r in runs)}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            flag = "ok" if spread < bound / 3 else "WIDE"
            print(f"  {name:12s} median {med:.6g}  spread {spread:.4f}  "
                  f"bound/3 {bound / 3:.4f}  {flag}")
        entry = {"summary": summary, "runs": runs}
        if args.trace_seed is not None:
            entry["traced"] = _run(workload, args.trace_seed, 1)
        report["workloads"][workload] = entry
    if args.out:
        import numpy

        report["host"] = {
            "nproc": os.cpu_count(),
            "cpu": _cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
        }
        report["date"] = time.strftime("%Y-%m-%d", time.gmtime())
        report["run_seconds"] = SPEC["run_seconds"]
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
