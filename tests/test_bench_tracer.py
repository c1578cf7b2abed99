"""The traced benchmark run wraps library names from outside; a renamed or
removed name must fail here rather than in the benchmark."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import sftgeom
import sftgeom.builtins
import sftgeom.cli
import sftgeom.cocycle
import sftgeom.gibbs
import sftgeom.realize
import sftgeom.sft
import sftgeom.solenoid
from sftgeom.builtins import builtin

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

OWNERS = (
    sftgeom,
    sftgeom.builtins,
    sftgeom.cli,
    sftgeom.cocycle,
    sftgeom.gibbs,
    sftgeom.realize,
    sftgeom.sft,
    sftgeom.solenoid,
    sftgeom.gibbs.GibbsMeasure,
    sftgeom.realize.RatioTable,
    sftgeom.sft.GapLayout,
    sftgeom.sft.SftSystem,
)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_counts_and_restores():
    before = [dict(vars(owner)) for owner in OWNERS]
    pressure_of = sftgeom.realize.pressure_of
    tracer = load_tracer().Tracer()
    try:
        tracer.install()
        assert sftgeom.realize.pressure_of is not pressure_of
        sftgeom.realize.dimension_report(builtin("horseshoe").u.realization)
        metrics = tracer.metrics()
        # 16 of the 44 bisection steps take a full solve, the other 28 are
        # certified by a Collatz-Wielandt bound; plus both bracket ends and
        # the residual
        assert metrics["realize.pressure_of.calls"] == 19.0
        assert metrics["realize.pressure_of.states"] > 0
    finally:
        tracer.uninstall()
    for owner, names in zip(OWNERS, before):
        after = vars(owner)
        for name, value in names.items():
            assert after[name] is value, f"{owner!r}.{name} was not restored"


def test_synthesize_reads_ratios_per_window_state(tmp_path, capsys):
    """ratio_of is read once per window state and child, however deep the
    report; the tracer's row count is the report's, in either format."""
    for fmt in ("csv", "json"):
        reads = []
        for depth in (6, 10):
            out = tmp_path / f"{fmt}-depth-{depth}"
            argv = ["run", "horseshoe", "synthesize", "--depth", str(depth), "--out", str(out)]
            tracer = load_tracer().Tracer()
            try:
                tracer.install()
                assert sftgeom.cli.main([*argv, "--format", fmt]) == 0
                metrics = tracer.metrics()
            finally:
                tracer.uninstall()
            reads.append(metrics["cocycle.ratio_of.calls"])
            table = sftgeom.cli.load_table(out / f"synthesize.{fmt}")
            assert metrics["cli.report.rows"] == len(table.rows) > 0
        assert reads[0] == reads[1] > 0
