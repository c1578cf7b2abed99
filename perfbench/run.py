"""The sftgeom benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src.  The
load is a closed loop: one caller, one job at a time, a single process
per pass.  Every pass (and every set-up probe) runs in a fresh
subprocess, so set-up time and peak memory belong to that pass alone.

With --trace 0 the run makes as many rounds of one set-up-only process
and one pass as fit in --seconds (at least one), then more set-up-only
processes until there are SETUP_PROBES, and prints the end-to-end
metrics: medians of wall_s, cpu_s, setup_s and peak_rss_mb, and
ok_share, the share of jobs that met their checks.

With --trace 1 it alternates untraced and traced passes and prints the
per-layer metrics of the traced passes (medians) plus trace.overhead_s,
the traced minus the untraced median wall time.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  `failed` counts jobs that raised, exited
with an unexpected code or missed a check; `correct` is false when a job
raises or fails a check that references.json does not record as a known
failure of that job.  Lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCES = HERE / "references.json"

# The host's speed drifts by seconds-long spells; set-up takes about
# 0.2 s, so many probes, spread over the run, steady its median.
SETUP_PROBES = 20
PASS_TIMEOUT_S = 170

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
)


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    # One thread: the closed loop has a single caller and no helpers.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(args, mode: str, trace: int, tag: str) -> dict:
    out = OUT / f"{args.workload}-{os.getpid()}-{tag}"
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--size", args.size,
        "--mode", mode,
        "--trace", str(trace),
        "--src", str(SRC),
        "--out", str(out),
        "--references", str(REFERENCES),
        "--spans", str(OUT / f"spans-{args.workload}.npz"),
        "--spawned", repr(time.time()),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{mode} process exceeded {PASS_TIMEOUT_S} s") from None
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        raise HarnessError(f"{mode} process exited {proc.returncode}:\n{proc.stderr}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise HarnessError(f"{mode} process printed no result:\n{proc.stderr}") from None


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _probe(args, i: int) -> float:
    return _spawn(args, "setup", 0, f"setup{i}")["setup_s"]


def _passes(args, traced_pattern: tuple[int, ...], probes: list[float] | None = None) -> list[dict]:
    """Repeat the pattern of passes while another round fits in --seconds.

    With a `probes` list, every round starts with one set-up probe."""
    deadline = time.perf_counter() + args.seconds
    passes: list[dict] = []
    rounds: list[float] = []
    while True:
        t0 = time.perf_counter()
        if probes is not None:
            probes.append(_probe(args, len(probes)))
        for trace in traced_pattern:
            res = _spawn(args, "pass", trace, f"pass{len(passes)}")
            res["traced"] = trace
            passes.append(res)
        rounds.append(time.perf_counter() - t0)
        if time.perf_counter() + statistics.median(rounds) > deadline:
            return passes


def _outcome(passes: list[dict]) -> tuple[bool, int, int]:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    # Correct while every failed check is a recorded failure of its job.
    correct = all(
        set(bad) <= set(p["known_failures"].get(job, ()))
        for p in passes
        for job, bad in p["failures"].items()
    )
    return correct, attempted, failed


def _report_failures(passes: list[dict]) -> None:
    seen: dict[tuple[str, str], str] = {}
    for p in passes:
        for job, bad in p["failures"].items():
            for key, msg in bad.items():
                seen.setdefault((job, key), msg)
    known = passes[0]["known_failures"]
    for (job, key), msg in sorted(seen.items()):
        tag = "known" if key in known.get(job, ()) else "UNEXPECTED"
        print(f"  failed ({tag}) {job} [{key}]: {msg}")


def run_untraced(args) -> dict:
    probes: list[float] = []
    passes = _passes(args, (0,), probes)
    probes += [_probe(args, i) for i in range(len(probes), SETUP_PROBES)]
    correct, attempted, failed = _outcome(passes)
    samples = {
        "wall_s": [p["wall_s"] for p in passes],
        "cpu_s": [p["cpu_s"] for p in passes],
        "setup_s": probes + [p["setup_s"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    print(f"# {args.workload} seed={args.seed} size={args.size}: {len(passes)} passes")
    for name, vals in samples.items():
        q1, med, q3 = _quartiles(vals)
        print(f"  {name:12s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(vals)}")
    matched = [sum(p["digests_matched"][i] for p in passes) for i in (0, 1)]
    print(f"  failed_share {failed / attempted:.6g} share ({failed} of {attempted} jobs)")
    print(f"  report digests equal to the recorded ones: {matched[0]} of {matched[1]}")
    _report_failures(passes)
    metrics = {name: statistics.median(vals) for name, vals in samples.items()}
    metrics["ok_share"] = 1.0 - failed / attempted
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END},
    }


def run_traced(args) -> dict:
    import tracer

    passes = _passes(args, (0, 1))
    correct, attempted, failed = _outcome(passes)
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    layers = {
        name: statistics.median(p["layers"][name] for p in traced)
        for name, _ in tracer.PER_LAYER
        if name != "trace.overhead_s"
    }
    layers["trace.overhead_s"] = statistics.median(
        p["wall_s"] for p in traced
    ) - statistics.median(p["wall_s"] for p in untraced)
    print(f"# {args.workload} seed={args.seed} size={args.size}: "
          f"{len(traced)} traced and {len(untraced)} untraced passes")
    _report_failures(passes)
    units = dict(tracer.PER_LAYER)
    for name, value in layers.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in layers.items()},
    }


def main(argv=None) -> int:
    if not (SRC / "sftgeom" / "__init__.py").is_file():
        print(f"error: no sftgeom package under {SRC}", file=sys.stderr)
        return 2
    if not REFERENCES.is_file():
        print(f"error: missing {REFERENCES}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                    help="tiny shrinks every workload for the smoke test")
    args = ap.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    try:
        result = run_traced(args) if args.trace else run_untraced(args)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
