"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/smoke_test.py

Checks that every declared metric is printed with its unit, that failing
jobs are counted rather than raised, that a known failure of a job hides
no other failing check of that job, that the generated inputs depend on
the seed alone, and that the benchmark refuses to run without the library
sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--size", "tiny", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace))
    result = _result(proc)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    assert result["correct"]


def test_failures_are_counted_not_raised():
    proc = _bench("--workload", "generated-spectral", "--seed", "3", "--seconds", "1", "--trace", "0")
    result = _result(proc)
    # The small-gap chains miss the 1e-12 stationary-law tolerance.
    assert result["failed"] >= 2
    assert result["correct"]
    assert "failed (known) small-gap-0.001 [law]" in proc.stdout
    assert result["metrics"]["ok_share"]["value"] < 1.0


def test_a_known_failure_hides_no_other_failure_of_its_job(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import run
    import workloads

    refs = json.loads((HERE / "references.json").read_text())
    known = refs["generated-spectral"]["full"]["known_failures"]
    assert known["small-gap-0.001"] == ["law"]
    job = workloads.Job("small-gap-0.001", None, {"kind": "small-gap"})

    def outcome(obs: dict) -> tuple[bool, int, int]:
        bad = workloads.check("generated-spectral", job, obs, {})
        return run._outcome([{"attempted": 30, "failures": {job.name: bad},
                              "known_failures": known}])

    # The recorded defect: the law misses 1e-12, nothing else fails.
    obs = {"law": 2.5e-12, "additivity": 0.0, "spec_problems": 0, "exact": False}
    assert outcome(obs) == (True, 30, 1)
    # A second failing check of the same job is unexpected.
    assert outcome(dict(obs, additivity=1e-9)) == (False, 30, 1)
    assert outcome(dict(obs, spec_problems=1)) == (False, 30, 1)
    # So is an exception.
    assert outcome({"error": "ValueError: boom"}) == (False, 30, 1)


def test_generated_inputs_depend_on_the_seed_only():
    code = (
        "import workloads as w; s = w.SIZES['full'];"
        "print(w.describe(w.generated_inputs(5, s)), w.describe(w.generated_inputs(6, s)))"
    )
    env = {"PYTHONPATH": f"{ROOT / 'src'}:{HERE}", "PYTHONHASHSEED": "random"}
    runs = [
        subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                       check=True).stdout.split()
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    assert runs[0][0] != runs[0][1]


def test_refuses_to_run_without_the_library():
    bare = ROOT / ".bench_out" / "no-library"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench("--workload", "task-sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                      cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
