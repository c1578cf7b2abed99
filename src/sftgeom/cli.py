"""Command-line front end.

Loads a built-in example or a system file, runs an ordered list of tasks
against it, and writes one report file per task plus a summary.  Reports
are deterministic: identical inputs produce byte-identical files, with
every float rendered at 17 significant digits so values survive a
round trip through text.

Exit codes: 0 all checks within tolerance, 2 unparseable input or unknown
builtin, 3 a residual check exceeded its tolerance, 4 structurally
inadmissible input (no gap layout, empty pair, mismatched sides and the
like, or a measure whose Perron data cannot be certified).  Reports for completed tasks are written even when a later task
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys as _stdsys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Union

from .builtins import BUILTIN_NAMES, Builtin, builtin
from .cocycle import cocycle_gap_rows, constant_pair, pair_from_json, synthesize_ratio
from .errors import ParseError, SftGeomError, UnknownBuiltin
from .gibbs import GibbsMeasure, measure_scaling, potential_from_json, uniform_potential
from .realize import (
    additivity_defect,
    dimension_report,
    dual_pair,
    eigenvalue,
    eigenvalue_via_measure,
    lengths_from_ratio,
    livsic_sinai_check,
)
from .sft import (
    S_SIDE,
    SftSystem,
    U_SIDE,
    Seg,
    cyl,
    deep_extend,
    enumerate_cylinders,
    load_system,
    opposite,
    periodic_orbits,
    walk_levels,
)
from .solenoid import (
    boundary_rows,
    cylinder_cylinder_rows,
    cylinder_gap_rows,
    from_realization,
    matching_rows,
    solenoid_from_json,
)

TASKS = (
    "gibbs",
    "solenoid-check",
    "synthesize",
    "dimension",
    "eigenvalues",
    "livsic",
    "dual",
)

DEFAULT_TOL = {
    "gibbs": 1e-12,
    "solenoid-check": 1e-9,
    "synthesize": 1e-12,
    "dimension": 1e-10,
    "eigenvalues": 1e-9,
    "livsic": 1e-9,
    "dual": 1e-12,
}

MAX_DEPTH = 16
MAX_P = 10


# ----------------------------------------------------------------------
# deterministic rendering

def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _render_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {_render_json(obj[k], indent + 1)}'
            for k in sorted(obj)
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(f"{pad}  {_render_json(v, indent + 1)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, float)):
        return _fmt(obj)
    return json.dumps(obj)


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _dotted(symbols: Sequence[int]) -> str:
    return ".".join(str(s) for s in symbols)


def _descriptor(seg: Seg) -> str:
    if seg.kind == "gap":
        return f"{_dotted(seg.word)}#{seg.ordinal}"
    return _dotted(seg.word)


class ReportTable(NamedTuple):
    """A written report in memory: every cell already a string."""

    version: str
    columns: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]


def make_table(version: str, columns: Sequence[str], rows) -> ReportTable:
    return ReportTable(
        version,
        tuple(columns),
        tuple(tuple(_fmt(v) for v in row) for row in rows),
    )


def write_table(table: ReportTable, path: Union[str, Path], fmt: str) -> None:
    path = Path(path)
    if fmt == "csv":
        lines = [f"# tables-version={table.version}", ",".join(table.columns)]
        lines.extend(",".join(row) for row in table.rows)
        _write_text(path, "\n".join(lines) + "\n")
        return
    obj = {
        "tables_version": table.version,
        "columns": list(table.columns),
        "rows": [list(row) for row in table.rows],
    }
    _write_text(path, _render_json(obj) + "\n")


def load_table(path: Union[str, Path]) -> ReportTable:
    """Reload an exported table; inverse of write_table for both formats."""
    path = Path(path)
    text = path.read_text()
    if path.suffix == ".json":
        obj = json.loads(text)
        return ReportTable(
            obj["tables_version"],
            tuple(obj["columns"]),
            tuple(tuple(row) for row in obj["rows"]),
        )
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# tables-version="):
        raise ParseError(f"{path} does not look like an exported table")
    version = lines[0].split("=", 1)[1]
    columns = tuple(lines[1].split(","))
    rows = tuple(tuple(line.split(",")) for line in lines[2:])
    return ReportTable(version, columns, rows)


def load_json(path: Union[str, Path]) -> dict:
    return json.loads(Path(path).read_text())


# ----------------------------------------------------------------------
# scenario plumbing

@dataclass(frozen=True)
class Scenario:
    source: str
    is_builtin: bool
    tasks: tuple[str, ...]
    out_dir: str = "."
    fmt: str = "csv"
    side: str = "auto"
    depth: int = 8
    p_max: int = 6
    delta: Optional[float] = None
    pressure: Optional[float] = None
    tol: Optional[float] = None
    potential_path: Optional[str] = None
    solenoid_path: Optional[str] = None
    pair_path: Optional[str] = None


class TaskOutcome(NamedTuple):
    task: str
    status: str
    worst: Optional[float]
    report: Optional[str]
    message: str = ""


@dataclass
class _Ctx:
    scn: Scenario
    b: Optional[Builtin]
    system: SftSystem
    measure: GibbsMeasure
    side: str
    out: Path
    version: str

    def tol(self, task: str) -> float:
        return self.scn.tol if self.scn.tol is not None else DEFAULT_TOL[task]


def _read_file(path: str, what: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise ParseError(f"cannot read {what} file {path}: {e}") from None


def _load_with(loader, path: str, what: str):
    """Read and decode one input file, folding any malformed-content
    failure into a ParseError so the runner can exit 2 cleanly."""
    text = _read_file(path, what)
    try:
        return loader(text)
    except (ValueError, KeyError, TypeError) as e:
        raise ParseError(f"malformed {what} file {path}: {e}") from None


def _auto_side(b: Optional[Builtin], system: SftSystem) -> str:
    if b is not None:
        with_pair = [bs.side for bs in (b.u, b.s) if bs.pair is not None]
        if len(with_pair) == 1:
            return with_pair[0]
    gapped = [
        sd
        for sd in (U_SIDE, S_SIDE)
        if system.has_layout(sd) and system.layout(sd).has_gaps
    ]
    if len(gapped) == 1:
        return gapped[0]
    return U_SIDE


def _prepare(scn: Scenario) -> _Ctx:
    if scn.is_builtin:
        b = builtin(scn.source)
        system = b.sys
        version = b.version
    else:
        b = None
        try:
            system = load_system(scn.source)
        except OSError as e:
            raise ParseError(f"cannot read system file {scn.source}: {e}") from None
        except (ValueError, KeyError, TypeError, SftGeomError) as e:
            # SftGeomError: not primitive, or inadmissible boundary data
            raise ParseError(f"malformed system file {scn.source}: {e}") from None
        version = "user"
    if scn.potential_path:
        pot = _load_with(
            lambda text: potential_from_json(text, system), scn.potential_path, "potential"
        )
    elif b is not None:
        pot = b.potential
    else:
        pot = uniform_potential(system)
    measure = GibbsMeasure(system, pot)
    side = scn.side if scn.side != "auto" else _auto_side(b, system)
    out = Path(scn.out_dir)
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as e:
        raise ParseError(f"cannot create output directory {out}: {e}") from None
    return _Ctx(scn, b, system, measure, side, out, version)


def _builtin_side(ctx: _Ctx, task: str):
    if ctx.b is None:
        raise ParseError(f"{task} needs a builtin system (file systems carry no length tables)")
    return ctx.b.side(ctx.side)


def _emit(ctx: _Ctx, task: str, columns, rows, worst: float) -> TaskOutcome:
    fname = f"{task}.{ctx.scn.fmt}"
    table = make_table(ctx.version, columns, rows)
    write_table(table, ctx.out / fname, ctx.scn.fmt)
    ok = worst <= ctx.tol(task)
    return TaskOutcome(task, "ok" if ok else "tolerance-exceeded", worst, fname)


# ----------------------------------------------------------------------
# tasks

def _task_gibbs(ctx: _Ctx) -> TaskOutcome:
    g, system, side = ctx.measure, ctx.system, ctx.side
    nmax = min(ctx.scn.depth, 10)
    rows = []
    worst = 0.0
    for n in range(1, nmax + 1):
        total = 0.0
        for w in enumerate_cylinders(system, n, side):
            m = g.measure(w)
            total += m
            rows.append((_dotted(w.symbols), n, m))
        worst = max(worst, abs(total - 1.0))
    back = opposite(side)
    for n in range(max(g.span - 1, 1), nmax):
        for w in enumerate_cylinders(system, n, side):
            # one-step extensions at the pivot end: the opposite side's deep end
            ends = system.deep_extensions(w.symbols, back)
            exts = [deep_extend(w.symbols, a, back) for a in ends]
            s = sum(measure_scaling(g, system.word(e, side)) for e in exts)
            worst = max(worst, abs(s - 1.0))
    return _emit(ctx, "gibbs", ("word", "depth", "measure"), rows, worst)


def _condition_rows(ctx: _Ctx):
    rows = []
    if ctx.scn.solenoid_path:
        spec = _load_with(solenoid_from_json, ctx.scn.solenoid_path, "solenoid")
        specs = [spec]
    elif ctx.b is not None:
        specs = [
            from_realization(bs.realization)
            for bs in (ctx.b.u, ctx.b.s)
            if ctx.system.has_layout(bs.side)
        ]
    else:
        raise ParseError("solenoid-check needs --solenoid FILE or a builtin system")
    for spec in specs:
        rows.extend(matching_rows(spec, ctx.system))
        rows.extend(boundary_rows(spec, ctx.system))
        if spec.domain_kind == "leaf-gap":
            rows.extend(cylinder_gap_rows(spec, ctx.system))
    rows.extend(cylinder_cylinder_rows(ctx.measure))
    if ctx.b is not None:
        for bs in (ctx.b.u, ctx.b.s):
            if bs.pair is None:
                continue
            rows.extend(
                cocycle_gap_rows(
                    ctx.measure,
                    bs.pair,
                    bs.delta,
                    bs.pressure,
                    min(ctx.scn.depth, 8),
                )
            )
    return rows


def _task_solenoid_check(ctx: _Ctx) -> TaskOutcome:
    rows = _condition_rows(ctx)
    worst = max((r[3] for r in rows), default=0.0)
    return _emit(
        ctx,
        "solenoid-check",
        ("instance", "lhs", "rhs", "residual"),
        [(r[0], r[1], r[2], r[3]) for r in rows],
        worst,
    )


def _task_synthesize(ctx: _Ctx) -> TaskOutcome:
    scn = ctx.scn
    if scn.pair_path:
        pair = _load_with(pair_from_json, scn.pair_path, "cocycle-gap pair")
    elif ctx.b is not None and ctx.b.side(ctx.side).pair is not None:
        pair = ctx.b.side(ctx.side).pair
    else:
        pair = constant_pair(ctx.side)
    if pair.side != ctx.side:
        raise ParseError(
            f"pair is for side {pair.side!r} but the scenario resolved side {ctx.side!r}"
        )
    delta = scn.delta
    pressure = scn.pressure
    if ctx.b is not None:
        bs = ctx.b.side(ctx.side)
        delta = bs.delta if delta is None else delta
        pressure = bs.pressure if pressure is None else pressure
    if delta is None:
        raise ParseError("synthesize needs --delta for a non-builtin system")
    if pressure is None:
        pressure = 0.0
    synth = synthesize_ratio(ctx.measure, pair, delta, pressure, scn.depth)
    tt = lengths_from_ratio(synth)
    rows = []
    worst = 0.0
    # Rows of one depth: each cylinder, then the gaps among its children.
    for n, level in enumerate(walk_levels(ctx.system.layout(ctx.side), scn.depth + 1)):
        for m, kids in level:
            if n > 0:
                rows.append((_dotted(m), synth.ratio_of(cyl(m)), tt.lengths[m], n))
            if n == scn.depth:
                continue
            worst = max(worst, abs(sum(synth.ratio_of(c) for c in kids) - 1.0))
            for c in kids:
                if c.is_gap:
                    length = tt.gap_lengths[(c.word, c.ordinal)]
                    rows.append((_descriptor(c), synth.ratio_of(c), length, n + 1))
    return _emit(
        ctx, "synthesize", ("descriptor", "ratio", "length", "depth"), rows, worst
    )


def _task_dimension(ctx: _Ctx) -> TaskOutcome:
    bs = _builtin_side(ctx, "dimension")
    rep = dimension_report(bs.realization)
    obj = {
        "task": "dimension",
        "tables_version": ctx.version,
        "side": ctx.side,
        "delta": rep.delta,
        "pressure_residual": rep.pressure_residual,
        "iterations": rep.iterations,
    }
    fname = "dimension.json"
    _write_text(ctx.out / fname, _render_json(obj) + "\n")
    ok = rep.pressure_residual <= ctx.tol("dimension")
    return TaskOutcome(
        "dimension", "ok" if ok else "tolerance-exceeded", rep.pressure_residual, fname
    )


def _task_eigenvalues(ctx: _Ctx) -> TaskOutcome:
    bs = _builtin_side(ctx, "eigenvalues")
    rows = []
    worst = 0.0
    for orb in periodic_orbits(ctx.system, ctx.scn.p_max):
        lam_t = eigenvalue(bs.realization, orb)
        lam_m = eigenvalue_via_measure(
            ctx.measure, bs.delta, bs.pressure, orb, ctx.side
        )
        res = abs(lam_t / lam_m - 1.0)
        worst = max(worst, res)
        rows.append((_dotted(orb.representative), orb.period, lam_t, lam_m, res))
    return _emit(
        ctx,
        "eigenvalues",
        ("orbit", "period", "lambda_ratio", "lambda_measure", "residual"),
        rows,
        worst,
    )


def _task_livsic(ctx: _Ctx) -> TaskOutcome:
    if ctx.b is None:
        raise ParseError("livsic needs a builtin system (two realized sides)")
    tt_u, tt_s = ctx.b.u.realization, ctx.b.s.realization
    checked = livsic_sinai_check(tt_u, tt_s, ctx.scn.p_max)
    rows = []
    worst = 0.0
    for orb, res in checked:
        rows.append(
            (
                _dotted(orb.representative),
                orb.period,
                eigenvalue(tt_u, orb),
                eigenvalue(tt_s, orb),
                res,
            )
        )
        worst = max(worst, res)
    return _emit(
        ctx,
        "livsic",
        ("orbit", "period", "lambda_u", "lambda_s", "residual"),
        rows,
        worst,
    )


def _task_dual(ctx: _Ctx) -> TaskOutcome:
    bs = _builtin_side(ctx, "dual")
    dd = dual_pair(ctx.measure, bs.realization)
    rows = []
    for n in range(1, dd.depth + 1):
        for w in enumerate_cylinders(ctx.system, n, dd.side):
            rows.append((_dotted(w.symbols), "cylinder", n, dd.lengths[w.symbols]))
    worst = additivity_defect(dd)
    return _emit(ctx, "dual", ("word", "kind", "depth", "length"), rows, worst)


_TASK_FNS = {
    "gibbs": _task_gibbs,
    "solenoid-check": _task_solenoid_check,
    "synthesize": _task_synthesize,
    "dimension": _task_dimension,
    "eigenvalues": _task_eigenvalues,
    "livsic": _task_livsic,
    "dual": _task_dual,
}


# ----------------------------------------------------------------------
# the runner

def run(scn: Scenario) -> int:
    """Run every task in order; write reports and the summary; return the
    exit code (0 ok, 2 parse, 3 tolerance, 4 inadmissible)."""
    try:
        ctx = _prepare(scn)
    except (ParseError, UnknownBuiltin) as e:
        print(f"error: {e}", file=_stdsys.stderr)
        return 2
    except SftGeomError as e:
        # building the measure, e.g. from a potential whose transfer matrix
        # has no trustworthy Perron data
        print(f"error: {e}", file=_stdsys.stderr)
        return 4
    outcomes: list[TaskOutcome] = []
    parse_failed = False
    saw_inadmissible = False
    for task in scn.tasks:
        try:
            outcomes.append(_TASK_FNS[task](ctx))
        except (ParseError, UnknownBuiltin) as e:
            print(f"{task}: {e}", file=_stdsys.stderr)
            outcomes.append(TaskOutcome(task, "parse-error", None, None, str(e)))
            parse_failed = True
            break
        except SftGeomError as e:
            print(f"{task}: {e}", file=_stdsys.stderr)
            outcomes.append(TaskOutcome(task, "inadmissible", None, None, str(e)))
            saw_inadmissible = True
    if parse_failed:
        code = 2
    elif saw_inadmissible:
        code = 4
    elif any(o.status != "ok" for o in outcomes):
        code = 3
    else:
        code = 0
    summary = {
        "source": scn.source,
        "tables_version": ctx.version,
        "format": scn.fmt,
        "side": ctx.side,
        "exit": code,
        "tasks": [
            {
                "task": o.task,
                "status": o.status,
                "worst_residual": o.worst,
                "report": o.report,
                **({"message": o.message} if o.message else {}),
            }
            for o in outcomes
        ],
    }
    _write_text(ctx.out / "summary.json", _render_json(summary) + "\n")
    for o in outcomes:
        shown = "-" if o.worst is None else _fmt(o.worst)
        print(f"{o.task}: {o.status} (worst residual {shown})")
    return code


# ----------------------------------------------------------------------
# argument parsing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sftgeom",
        description="Run measure, solenoid and realization checks on a "
        "builtin example or a system file.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run tasks against one system")
    runp.add_argument(
        "source",
        nargs="?",
        default=None,
        help=f"builtin name ({', '.join(BUILTIN_NAMES)}); or use --system",
    )
    runp.add_argument("tasks", nargs="+", choices=TASKS, help="tasks, in order")
    runp.add_argument("--system", help="system JSON file instead of a builtin")
    runp.add_argument("--potential", help="potential JSON file")
    runp.add_argument("--solenoid", help="solenoid JSON file for solenoid-check")
    runp.add_argument("--pair", help="cocycle-gap pair JSON file for synthesize")
    runp.add_argument("--side", choices=(U_SIDE, S_SIDE, "auto"), default="auto")
    runp.add_argument("--depth", type=int, default=8)
    runp.add_argument("--p-max", type=int, default=6, dest="p_max")
    runp.add_argument("--delta", type=float, default=None)
    runp.add_argument("--pressure", type=float, default=None)
    runp.add_argument("--tol", type=float, default=None)
    runp.add_argument("--out", default=".")
    runp.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _scenario_from_args(ns: argparse.Namespace) -> Scenario:
    if ns.source is not None and ns.system is not None:
        raise ParseError("give either a builtin name or --system FILE, not both")
    if ns.source is None and ns.system is None:
        raise ParseError("no system given: name a builtin or pass --system FILE")
    if not 1 <= ns.depth <= MAX_DEPTH:
        raise ParseError(f"--depth must be in 1..{MAX_DEPTH}")
    if not 1 <= ns.p_max <= MAX_P:
        raise ParseError(f"--p-max must be in 1..{MAX_P}")
    return Scenario(
        source=ns.source if ns.source is not None else ns.system,
        is_builtin=ns.source is not None,
        tasks=tuple(ns.tasks),
        out_dir=ns.out,
        fmt=ns.format,
        side=ns.side,
        depth=ns.depth,
        p_max=ns.p_max,
        delta=ns.delta,
        pressure=ns.pressure,
        tol=ns.tol,
        potential_path=ns.potential,
        solenoid_path=ns.solenoid,
        pair_path=ns.pair,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        scn = _scenario_from_args(ns)
    except ParseError as e:
        print(f"error: {e}", file=_stdsys.stderr)
        return 2
    return run(scn)


if __name__ == "__main__":
    _stdsys.exit(main())
