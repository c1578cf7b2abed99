"""One pass (or one set-up probe) of a workload, in a fresh process.

Started by run.py, never imported.  It reports one JSON line on stdout:
set-up seconds measured from the parent's spawn time, and for a pass the
wall and CPU seconds of the job loop, peak RSS, attempted and failed jobs
and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", required=True)
    ap.add_argument("--mode", choices=("pass", "setup"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, required=True, help="parent's time.time() at spawn")
    ap.add_argument("--src", required=True, help="directory that must provide sftgeom")
    ap.add_argument("--out", required=True)
    ap.add_argument("--references", required=True)
    ap.add_argument("--spans", help="where a traced pass saves its spans")
    args = ap.parse_args()

    import sftgeom

    src = Path(args.src).resolve()
    if src not in Path(sftgeom.__file__).resolve().parents:
        print(f"sftgeom was imported from {sftgeom.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    out = Path(args.out)
    jobs = workloads.build(args.workload, args.seed, args.size, out)
    setup_s = time.time() - args.spawned
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    observations = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for job in jobs:
        try:
            obs = job.run()
        except Exception as exc:  # a failing job is counted, never fatal
            obs = {"error": "".join(traceback.format_exception_only(exc)).strip()}
        observations.append(obs)
    wall_s, cpu_s = time.perf_counter() - wall0, time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        tracer.write_spans(Path(args.spans))

    refs = json.loads(Path(args.references).read_text())[args.workload][args.size]
    failures = {}
    digests = [0, 0]
    for job, obs in zip(jobs, observations):
        if "out" in job.meta and "error" not in obs:
            workloads.observe_reports(job, obs)
            want = refs["jobs"][job.name]["report"]
            if obs["report"] is not None and want is not None:
                digests[0] += obs["report"]["sha256"] == want["sha256"]
                digests[1] += 1
        bad = workloads.check(args.workload, job, obs, refs)
        if bad:
            failures[job.name] = bad
    result.update(
        attempted=len(jobs),
        failures=failures,
        known_failures=refs.get("known_failures", {}),
        digests_matched=digests,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
