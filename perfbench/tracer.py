"""Per-layer tracing from outside the library.

`Tracer.install()` wraps public functions and methods of the sftgeom
modules in place.  A function is patched in its defining module and in
every sftgeom module that bound the same object at import (for example
``sftgeom.cli.synthesize_ratio``), so calls made from inside the library
are seen too.  Methods are wrapped on their class.

Two kinds of wrapper:

* span wrappers record (name, parent span, start, end) in flat arrays
  kept in memory; `write_spans` saves them once, at the end of the pass;
* count wrappers only bump a counter.  They sit on the hottest methods
  (``is_admissible``, ``ordered_children``, ``ratio_of``), whose time is
  charged to the enclosing span.

`metrics()` turns spans and counters into the per-layer metrics named in
``PER_LAYER`` below.  A layer's self time is its spans' duration minus the
part covered by their direct child spans.
"""

from __future__ import annotations

import functools
import itertools
import os
import time
import weakref
from array import array
from pathlib import Path

import numpy as np

import sftgeom
import sftgeom.builtins
import sftgeom.cli
import sftgeom.cocycle
import sftgeom.gibbs
import sftgeom.realize
import sftgeom.sft
import sftgeom.solenoid

CLI_TASKS = ("gibbs", "solenoid-check", "synthesize", "dimension", "eigenvalues", "livsic", "dual")

# (metric name, unit).  Every traced run prints all of them, 0 where the
# workload does not reach the layer.
PER_LAYER = (
    [
        ("sft.enumerate_cylinders.calls", "count"),
        ("sft.enumerate_cylinders.words", "count"),
        ("sft.enumerate_cylinders.self_s", "s"),
        ("sft.is_admissible.calls", "count"),
        ("sft.ordered_children.calls", "count"),
        ("sft.periodic_orbits.self_s", "s"),
        ("gibbs.construct.count", "count"),
        ("gibbs.construct.self_s", "s"),
        ("gibbs.construct.blocks", "count"),
        ("gibbs.exact.attempted", "count"),
        ("gibbs.exact.taken", "count"),
        ("gibbs.exact.yield", "ratio"),
        ("gibbs.measure.calls", "count"),
        ("gibbs.measure.distinct", "count"),
        ("gibbs.measure.self_s", "s"),
        ("gibbs.measure_exact.calls", "count"),
        ("gibbs.measure_exact.self_s", "s"),
        ("gibbs.scaling.calls", "count"),
        ("gibbs.scaling.self_s", "s"),
        ("cocycle.synthesize_ratio.self_s", "s"),
        ("cocycle.synthesize_ratio.entries", "count"),
        ("cocycle.validate_cocycle.self_s", "s"),
        ("cocycle.cocycle_gap_rows.self_s", "s"),
        ("cocycle.cocycle_gap_rows.rows", "count"),
        ("cocycle.ratio_of.calls", "count"),
        ("solenoid.spec.self_s", "s"),
        ("solenoid.spec.entries", "count"),
        ("solenoid.holder.pairs", "count"),
        ("solenoid.extend_scaling.calls", "count"),
        ("solenoid.extend_scaling.self_s", "s"),
        ("solenoid.bounded_equivalence.self_s", "s"),
        ("solenoid.condition_rows.self_s", "s"),
        ("solenoid.condition_rows.rows", "count"),
        ("realize.lengths_from_ratio.self_s", "s"),
        ("realize.lengths_from_ratio.entries", "count"),
        ("realize.pressure_of.calls", "count"),
        ("realize.pressure_of.self_s", "s"),
        ("realize.pressure_of.states", "count"),
        ("realize.dimension_report.self_s", "s"),
        ("realize.eigenvalue.calls", "count"),
        ("realize.eigenvalue.self_s", "s"),
        ("realize.eigenvalue_via_measure.self_s", "s"),
        ("realize.livsic_sinai_check.self_s", "s"),
        ("realize.dual_pair.self_s", "s"),
        ("realize.additivity_defect.self_s", "s"),
    ]
    + [(f"cli.run.{task}.s", "s") for task in CLI_TASKS]
    + [
        ("cli.render.self_s", "s"),
        ("cli.report.bytes", "bytes"),
        ("cli.report.rows", "count"),
        ("builtins.builtin.calls", "count"),
        ("builtins.builtin.self_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)

_MODULES = (
    sftgeom,
    sftgeom.builtins,
    sftgeom.cli,
    sftgeom.cocycle,
    sftgeom.gibbs,
    sftgeom.realize,
    sftgeom.sft,
    sftgeom.solenoid,
)

# Span layers over module functions: layer name -> (module, function names).
_FUNCTION_SPANS = {
    "sft.enumerate_cylinders": (sftgeom.sft, ("enumerate_cylinders",)),
    "sft.periodic_orbits": (sftgeom.sft, ("periodic_orbits",)),
    "gibbs.scaling": (sftgeom.gibbs, ("measure_scaling", "extended_scaling")),
    "cocycle.synthesize_ratio": (sftgeom.cocycle, ("synthesize_ratio",)),
    "cocycle.validate_cocycle": (sftgeom.cocycle, ("validate_cocycle",)),
    "cocycle.cocycle_gap_rows": (sftgeom.cocycle, ("cocycle_gap_rows",)),
    "solenoid.spec": (sftgeom.solenoid, ("from_gibbs", "from_realization")),
    "solenoid.holder": (sftgeom.solenoid, ("holder_estimate",)),
    "solenoid.extend_scaling": (sftgeom.solenoid, ("extend_scaling",)),
    "solenoid.bounded_equivalence": (sftgeom.solenoid, ("bounded_equivalence",)),
    "solenoid.condition_rows": (
        sftgeom.solenoid,
        ("matching_rows", "boundary_rows", "cylinder_gap_rows", "cylinder_cylinder_rows"),
    ),
    "realize.lengths_from_ratio": (sftgeom.realize, ("lengths_from_ratio",)),
    "realize.pressure_of": (sftgeom.realize, ("pressure_of",)),
    "realize.dimension_report": (sftgeom.realize, ("dimension_report",)),
    "realize.eigenvalue": (sftgeom.realize, ("eigenvalue",)),
    "realize.eigenvalue_via_measure": (sftgeom.realize, ("eigenvalue_via_measure",)),
    "realize.livsic_sinai_check": (sftgeom.realize, ("livsic_sinai_check",)),
    "realize.dual_pair": (sftgeom.realize, ("dual_pair",)),
    "realize.additivity_defect": (sftgeom.realize, ("additivity_defect",)),
    "cli.render": (sftgeom.cli, ("make_table", "write_table")),
    "builtins.builtin": (sftgeom.builtins, ("builtin",)),
}

# Span layers over methods: layer name -> (class, method name).
_METHOD_SPANS = {
    "gibbs.construct": (sftgeom.gibbs.GibbsMeasure, "__init__"),
    "gibbs.measure": (sftgeom.gibbs.GibbsMeasure, "measure"),
    "gibbs.measure_exact": (sftgeom.gibbs.GibbsMeasure, "measure_exact"),
}

# Count-only layers over hot methods.
_METHOD_COUNTS = {
    "sft.is_admissible": (sftgeom.sft.SftSystem, "is_admissible"),
    "sft.ordered_children": (sftgeom.sft.GapLayout, "ordered_children"),
    "cocycle.ratio_of": (sftgeom.cocycle.SynthesizedRatio, "ratio_of"),
}


def word_count(A, n: int) -> int:
    """Admissible n-words of a 0/1 transition matrix: 1^T A^(n-1) 1."""
    if n < 1:
        return 1
    M = np.array(A, dtype=np.int64)
    return int(np.linalg.matrix_power(M, n - 1).sum())


def _symbols(w) -> tuple:
    return w.symbols if isinstance(w, sftgeom.sft.Word) else tuple(w)


class Tracer:
    """Spans and counters for one traced pass; not thread-safe by design
    (the benchmark is a single-threaded closed loop)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = [-1]
        self.counts: dict[str, float] = {}
        self._distinct: dict[int, set] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._clock = time.perf_counter

    # -- recording --------------------------------------------------------

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn, after=None):
        """Wrap fn in a span; `after(result, args, kwargs)` adds counts."""
        nid = self._name_id(name)
        clock, stack = self._clock, self._stack
        names, parents, starts, ends = (
            self.span_name, self.span_parent, self.span_start, self.span_end,
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            starts[sid] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"
        counts[key] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -----------------------------------------------------------

    def _patch_function(self, module, fname: str, wrapper) -> None:
        original = getattr(module, fname)
        for mod in _MODULES:
            if getattr(mod, fname, None) is original:
                self._patched.append((mod, fname, original))
                setattr(mod, fname, wrapper)

    def _patch_method(self, cls, mname: str, wrapper) -> None:
        self._patched.append((cls, mname, cls.__dict__[mname]))
        setattr(cls, mname, wrapper)

    def install(self) -> None:
        after = self._after_hooks()
        for layer, (module, fnames) in _FUNCTION_SPANS.items():
            for fname in fnames:
                fn = getattr(module, fname)
                self._patch_function(module, fname, self.span(layer, fn, after.get(fname)))
        run = sftgeom.cli.run
        per_task = {task: self.span(f"cli.run.{task}", run) for task in CLI_TASKS}
        multi = self.span("cli.run.multi", run)

        @functools.wraps(run)
        def run_by_task(scn, *args, **kwargs):
            wrapped = per_task.get(scn.tasks[0], multi) if len(scn.tasks) == 1 else multi
            return wrapped(scn, *args, **kwargs)

        self._patch_function(sftgeom.cli, "run", run_by_task)
        for layer, (cls, mname) in _METHOD_SPANS.items():
            fn = cls.__dict__[mname]
            self._patch_method(cls, mname, self.span(layer, fn, after.get(layer)))
        for layer, (cls, mname) in _METHOD_COUNTS.items():
            self._patch_method(cls, mname, self.counter(layer, cls.__dict__[mname]))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _after_hooks(self) -> dict:
        count = self.count

        def enumerate_after(result, args, kwargs):
            count("sft.enumerate_cylinders.words", len(result))

        def construct_after(result, args, kwargs):
            g = args[0]
            count("gibbs.construct.blocks", word_count(g.sys.A, g.block_len))
            if g.potential.exact_weights is not None:
                count("gibbs.exact.attempted")
                count("gibbs.exact.taken", int(g.exact))

        serials, serial = weakref.WeakKeyDictionary(), itertools.count()

        def measure_after(result, args, kwargs):
            g, w = args[0], args[1] if len(args) > 1 else kwargs["w"]
            # A serial, not id(g): ids of collected measures are reused.
            key = serials.get(g)
            if key is None:
                key = serials[g] = next(serial)
            self._distinct.setdefault(key, set()).add(_symbols(w))

        def synth_after(result, args, kwargs):
            count("cocycle.synthesize_ratio.entries", len(result.ratios))

        def rows_after(key):
            def hook(result, args, kwargs):
                count(key, len(result))
            return hook

        def spec_after(result, args, kwargs):
            n = len(result.values)
            count("solenoid.spec.entries", n)
            count("solenoid.holder.pairs", n * (n - 1) // 2)

        def holder_after(result, args, kwargs):
            n = len(args[0].values)
            count("solenoid.holder.pairs", n * (n - 1) // 2)

        def lengths_after(result, args, kwargs):
            count("realize.lengths_from_ratio.entries", len(result.lengths) + len(result.gap_lengths))

        def pressure_after(result, args, kwargs):
            src = getattr(args[0], "ratio", args[0])
            count("realize.pressure_of.states", word_count(src.sys.A, src.window_depth))

        def write_after(result, args, kwargs):
            table = args[0]
            path = args[1] if len(args) > 1 else kwargs["path"]
            count("cli.report.rows", len(table.rows))
            count("cli.report.bytes", os.path.getsize(path))

        return {
            "enumerate_cylinders": enumerate_after,
            "gibbs.construct": construct_after,
            "gibbs.measure": measure_after,
            "synthesize_ratio": synth_after,
            "cocycle_gap_rows": rows_after("cocycle.cocycle_gap_rows.rows"),
            "matching_rows": rows_after("solenoid.condition_rows.rows"),
            "boundary_rows": rows_after("solenoid.condition_rows.rows"),
            "cylinder_gap_rows": rows_after("solenoid.condition_rows.rows"),
            "cylinder_cylinder_rows": rows_after("solenoid.condition_rows.rows"),
            "from_gibbs": spec_after,
            "from_realization": spec_after,
            "holder_estimate": holder_after,
            "lengths_from_ratio": lengths_after,
            "pressure_of": pressure_after,
            "write_table": write_after,
        }

    # -- results -------------------------------------------------------------

    def _per_name(self) -> dict[str, tuple[int, float, float]]:
        """name -> (spans, total seconds, self seconds)."""
        n = len(self.span_start)
        out: dict[str, tuple[int, float, float]] = {}
        if n == 0:
            return out
        nid = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        dur = np.frombuffer(self.span_end, dtype=np.float64) - np.frombuffer(
            self.span_start, dtype=np.float64
        )
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        own = np.bincount(nid, weights=dur - covered, minlength=k)
        for i, name in enumerate(self.names):
            out[name] = (int(calls[i]), float(total[i]), float(own[i]))
        return out

    def metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric except trace.overhead_s."""
        spans = self._per_name()
        values = dict(self.counts)
        for name, (calls, total, own) in spans.items():
            values[f"{name}.calls"] = calls
            values[f"{name}.self_s"] = own
            if name.startswith("cli.run."):
                values[f"{name}.s"] = total
        values["gibbs.construct.count"] = values.get("gibbs.construct.calls", 0)
        values["gibbs.measure.distinct"] = sum(len(s) for s in self._distinct.values())
        attempted = values.get("gibbs.exact.attempted", 0)
        taken = values.get("gibbs.exact.taken", 0)
        # No attempt wastes nothing: report a full yield.
        values["gibbs.exact.yield"] = taken / attempted if attempted else 1.0
        return {
            name: float(values.get(name, 0))
            for name, _ in PER_LAYER
            if name != "trace.overhead_s"
        }

    def write_spans(self, path: Path) -> None:
        """Save every span (name id, parent span, start, end) once."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez(
                fh,
                names=np.array(self.names),
                name=np.frombuffer(self.span_name, dtype=np.int32),
                parent=np.frombuffer(self.span_parent, dtype=np.int64),
                start=np.frombuffer(self.span_start, dtype=np.float64),
                end=np.frombuffer(self.span_end, dtype=np.float64),
            )
