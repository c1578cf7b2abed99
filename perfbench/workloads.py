"""Workload definitions: seeded inputs, the jobs of one pass, and their checks.

A workload is built in two steps, so that set-up and the timed pass stay
apart:

* ``build(name, seed, size, out_dir)`` makes the inputs (set-up).
* each returned ``Job`` runs one unit of work and returns an observation
  dict; ``check(workload, job, observation, refs)`` compares it with the
  recorded references or the mathematical invariants afterwards, outside
  the timed region, and returns the failed checks as a dict from check key
  to message (empty when it passed).

Every call into the library goes through a module attribute looked up at
call time (``sg.gibbs.GibbsMeasure``), never through a name bound at import,
so the traced run's wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import sftgeom as sg
import sftgeom.builtins
import sftgeom.cli
import sftgeom.cocycle
import sftgeom.gibbs
import sftgeom.realize
import sftgeom.sft
import sftgeom.solenoid

WORKLOADS = ("synth-deep", "task-sweep", "equivalence", "generated-spectral")

# Sizes: "full" is the benchmark; "tiny" keeps the smoke test fast.
SIZES = {
    "full": {
        "synth_depth": 16,
        "sweep_depth": 16,
        "sweep_p_max": 10,
        "equiv_n_max": 12,
        "gen_k": (3, 4, 5),
        "gen_span": (2, 3, 4),
        "gen_p_max": 6,
    },
    "tiny": {
        "synth_depth": 5,
        "sweep_depth": 5,
        "sweep_p_max": 4,
        "equiv_n_max": 4,
        "gen_k": (3,),
        "gen_span": (2,),
        "gen_p_max": 3,
    },
}

SYNTH_CASES = (("horseshoe", "u"), ("da-attractor-toy", "s"))
SWEEP_TASKS = ("gibbs", "solenoid-check", "dimension", "eigenvalues", "livsic", "dual")
WEIGHT_KINDS = ("stochastic", "integer", "float")
SMALL_GAP_EPS = (1e-2, 1e-3, 3e-4)
# Closed-form stationary law of [[1-e, e], [3e, 1-3e]].
SMALL_GAP_LAW = (0.75, 0.25)
SYNTH_DELTA = 0.7
EQUIV_MARKOV_ROWS = [[0.7, 0.3], [0.4, 0.6]]
EQUIV_KAPPA = {(): 1.0, (0,): 1.0, (1,): 1.2}

# Report columns that hold names (dotted words, kinds), not numbers.
LABEL_COLUMNS = {"word", "descriptor", "orbit", "instance", "kind"}

# Tolerances of the generated-system invariants: the CLI's DEFAULT_TOL of
# the matching task (gibbs, synthesize, dimension, eigenvalues).
GEN_TOL = {
    "cylinder_sum": 1e-12,
    "law": 1e-12,
    "exact_vs_float": 1e-12,
    "children_sum": 1e-12,
    "additivity": 1e-12,
    "pressure_residual": 1e-10,
    "delta": 1e-10,
    "eigenvalue": 1e-9,
}


@dataclass
class Job:
    name: str
    run: Callable[[], dict]
    meta: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# builtin workloads


def _cli_job(name: str, argv: list[str], out: Path, meta: dict) -> Job:
    def run() -> dict:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = sg.cli.main(argv)
        return {"exit": code}

    return Job(name, run, dict(meta, out=str(out)))


def _synth_deep(seed: int, size: dict, out_dir: Path) -> list[Job]:
    depth = str(size["synth_depth"])
    jobs = []
    for b, side in SYNTH_CASES:
        out = out_dir / f"synth-{b}"
        argv = ["run", b, "synthesize", "--depth", depth, "--side", side, "--out", str(out)]
        jobs.append(_cli_job(f"{b}/synthesize", argv, out, {"task": "synthesize"}))
    random.Random(seed).shuffle(jobs)
    return jobs


def _task_sweep(seed: int, size: dict, out_dir: Path) -> list[Job]:
    depth, p_max = str(size["sweep_depth"]), str(size["sweep_p_max"])
    jobs = []
    for b in sg.builtins.BUILTIN_NAMES:
        for task in SWEEP_TASKS:
            out = out_dir / f"sweep-{b}-{task}"
            argv = ["run", b, task, "--depth", depth, "--p-max", p_max, "--out", str(out)]
            jobs.append(_cli_job(f"{b}/{task}", argv, out, {"task": task}))
    random.Random(seed).shuffle(jobs)
    return jobs


def _equivalence(seed: int, size: dict, out_dir: Path) -> list[Job]:
    """The two pairs of acceptance criterion 7, compared at n_max."""
    n_max = size["equiv_n_max"]
    toy = sg.builtins.builtin("da-attractor-toy")
    plain_pair = sg.cocycle.constant_pair("s")
    kappa = sg.cocycle.MeasureLengthCocycle("s", EQUIV_KAPPA)
    varied_pair = sg.cocycle.CocycleGapPair(kappa, plain_pair.gap_ratios)
    specs = []
    for pair in (plain_pair, varied_pair):
        synth = sg.cocycle.synthesize_ratio(toy.measure, pair, 0.5, 0.0, 8)
        specs.append(sg.solenoid.from_realization(sg.realize.lengths_from_ratio(synth)))
    markov = sg.gibbs.GibbsMeasure(
        toy.sys, sg.gibbs.markov_potential(toy.sys, EQUIV_MARKOV_ROWS)
    )
    bern_vs_markov = (
        sg.solenoid.from_gibbs(toy.measure, "u"),
        sg.solenoid.from_gibbs(markov, "u"),
    )

    def job(name: str, a, b) -> Job:
        def run() -> dict:
            bounded, c_full = sg.solenoid.bounded_equivalence(a, b, toy.sys, n_max)
            return {"bounded": bool(bounded), "c_full": c_full}

        return Job(name, run)

    jobs = [
        job("toy-s/plain-vs-kappa", specs[0], specs[1]),
        job("toy-u/bernoulli-vs-markov", *bern_vs_markov),
    ]
    random.Random(seed).shuffle(jobs)
    return jobs


# ----------------------------------------------------------------------
# generated systems


def relabelled_circulant(rng: random.Random, k: int, m: int) -> list[list[int]]:
    """The circulant with ones at offsets 0..m-1, under a random relabelling.

    Every symbol has exactly m successors and m predecessors, and the
    self-loop at offset 0 makes it primitive.  All draws for one (k, m) are
    isomorphic: the number of admissible words and of periodic orbits is
    the same for every seed, which keeps the work per pass steady; the
    seed still decides labels, layouts and weights.
    """
    label = list(range(k))
    rng.shuffle(label)
    A = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(m):
            A[label[i]][label[(i + j) % k]] = 1
    return A


def gapped_layout(rng: random.Random, side: str, k: int, A) -> "sg.sft.GapLayout":
    """Children in a random order with one gap between every two of them."""
    entries = {}
    for key in [None] + list(range(k)):
        if key is None:
            kids = list(range(k))
        elif side == "u":
            kids = [b for b in range(k) if A[key][b]]
        else:
            kids = [a for a in range(k) if A[a][key]]
        rng.shuffle(kids)
        lst = []
        for c in kids:
            if lst:
                lst.append(("gap",))
            lst.append(("cyl", c))
        entries[key] = tuple(lst)
    return sg.sft.GapLayout(side, entries)


def random_system(rng: random.Random, k: int, m: int):
    """A primitive SFT with m >= 2 successors and predecessors per symbol
    and gapped layouts on both sides.  Two or more children under every
    mother keep synthesis admissible at margin 0: each mother has a gap to
    take up the leftover mass."""
    A = relabelled_circulant(rng, k, m)
    layouts = {side: gapped_layout(rng, side, k, A) for side in ("u", "s")}
    return sg.sft.build_sft(k, A, layouts=layouts)


def random_potential(rng: random.Random, sys, span: int, kind: str):
    words = [w.symbols for w in sg.sft.enumerate_cylinders(sys, span, "u")]
    if kind == "stochastic":
        # Weights of the continuations of each (span-1)-prefix sum to one,
        # so the transfer matrix is stochastic and lambda = 1 is rational.
        by_prefix: dict = {}
        for w in words:
            by_prefix.setdefault(w[:-1], []).append(w)
        exact = {}
        for group in by_prefix.values():
            raw = [rng.randint(1, 9) for _ in group]
            total = sum(raw)
            for w, r in zip(group, raw):
                exact[w] = Fraction(r, total)
    elif kind == "integer":
        exact = {w: rng.randint(1, 9) for w in words}
    else:
        exact = None
    if exact is None:
        phi = {w: math.log(rng.uniform(0.5, 2.0)) for w in words}
    else:
        phi = {w: math.log(float(x)) for w, x in exact.items()}
    return sg.gibbs.potential_from_table(sys, phi, exact)


def generated_inputs(seed: int, size: dict) -> list[tuple[str, object, object, dict]]:
    """(name, system, potential, meta) for every generated system.

    The same seed gives the same list, draw for draw; `describe` turns it
    into a digest the smoke test compares across two processes."""
    rng = random.Random(seed)
    out = []
    for k in size["gen_k"]:
        for span in size["gen_span"]:
            for kind in WEIGHT_KINDS:
                sys = random_system(rng, k, min(k - 1, 3))
                pot = random_potential(rng, sys, span, kind)
                out.append((f"k{k}-span{span}-{kind}", sys, pot, {"kind": kind}))
    full2 = [[1, 1], [1, 1]]
    for eps in SMALL_GAP_EPS:
        layouts = {side: gapped_layout(rng, side, 2, full2) for side in ("u", "s")}
        sys = sg.sft.build_sft(2, full2, layouts=layouts)
        rows = [[1.0 - eps, eps], [3.0 * eps, 1.0 - 3.0 * eps]]
        pot = sg.gibbs.markov_potential(sys, rows)
        out.append((f"small-gap-{eps:g}", sys, pot, {"kind": "small-gap"}))
    return out


def describe(inputs) -> str:
    """SHA-256 over the generated matrices, layouts and potentials."""
    h = hashlib.sha256()
    for name, sys, pot, _ in inputs:
        h.update(name.encode())
        h.update(sg.sft.system_to_json(sys).encode())
        h.update(sg.gibbs.potential_to_json(pot).encode())
    return h.hexdigest()


def _spectral_job(name: str, sys, pot, meta: dict, p_max: int) -> Job:
    def run() -> dict:
        obs: dict = {}
        g = sg.gibbs.GibbsMeasure(sys, pot)
        obs["exact"] = g.exact
        worst = 0.0
        for n in range(1, max(pot.span, 2) + 2):
            total = sum(g.measure(w) for w in sg.sft.enumerate_cylinders(sys, n, "u"))
            worst = max(worst, abs(total - 1.0))
        obs["cylinder_sum"] = worst
        if meta["kind"] == "stochastic":
            flt = sg.gibbs.GibbsMeasure(sys, sg.gibbs.Potential(pot.span, pot.phi))
            obs["exact_vs_float"] = max(
                abs(g.measure(w) - flt.measure(w))
                for w in sg.sft.enumerate_cylinders(sys, max(pot.span, 2) + 1, "u")
            )
        if meta["kind"] == "small-gap":
            obs["law"] = max(abs(g.measure((a,)) - p) for a, p in enumerate(SMALL_GAP_LAW))
        spec = sg.solenoid.from_gibbs(g, "u")
        obs["spec_problems"] = len(spec.validate())
        pair = sg.cocycle.constant_pair("s")
        # The window depth synthesize_ratio uses for a constant pair.
        wd = max(pot.span - 1, 1) + 1
        synth = sg.cocycle.synthesize_ratio(g, pair, SYNTH_DELTA, 0.0, wd + 2)
        worst = 0.0
        for n in range(wd + 2):
            mothers = [()] if n == 0 else [
                w.symbols for w in sg.sft.enumerate_cylinders(sys, n, "s")
            ]
            for mw in mothers:
                worst = max(worst, abs(synth.children_sum(mw) - 1.0))
        obs["children_sum"] = worst
        tt = sg.realize.lengths_from_ratio(synth)
        obs["additivity"] = sg.realize.additivity_defect(tt)
        rep = sg.realize.dimension_report(tt)
        obs["delta"] = abs(rep.delta - SYNTH_DELTA)
        obs["pressure_residual"] = rep.pressure_residual
        worst = 0.0
        for orb in sg.sft.periodic_orbits(sys, p_max):
            lam_t = sg.realize.eigenvalue(tt, orb)
            lam_m = sg.realize.eigenvalue_via_measure(g, SYNTH_DELTA, 0.0, orb, "s")
            worst = max(worst, abs(lam_t / lam_m - 1.0))
        obs["eigenvalue"] = worst
        return obs

    return Job(name, run, meta)


def _generated_spectral(seed: int, size: dict, out_dir: Path) -> list[Job]:
    return [
        _spectral_job(name, sys, pot, meta, size["gen_p_max"])
        for name, sys, pot, meta in generated_inputs(seed, size)
    ]


_JOB_LISTS = {
    "synth-deep": _synth_deep,
    "task-sweep": _task_sweep,
    "equivalence": _equivalence,
    "generated-spectral": _generated_spectral,
}


def build(name: str, seed: int, size: str, out_dir: Path) -> list[Job]:
    return _JOB_LISTS[name](seed, SIZES[size], out_dir)


# ----------------------------------------------------------------------
# checks (run after the timed pass)


def report_stats(path: Path) -> dict:
    """Row count, per-column sums and SHA-256 of one CLI report.

    Label columns get no sums.  A JSON report (the dimension task) counts
    as one row of its numeric fields."""
    data = path.read_bytes()
    if path.suffix == ".json":
        obj = json.loads(data)
        columns = sorted(k for k, v in obj.items() if isinstance(v, (int, float)))
        rows = [[obj[c] for c in columns]]
    else:
        lines = data.decode().splitlines()
        columns = lines[1].split(",")
        # Cells are joined by commas unquoted; only the leading label
        # (a solenoid-check instance name) may itself hold commas.
        rows = [line.rsplit(",", len(columns) - 1) for line in lines[2:]]
    sums: dict = {}
    for i, col in enumerate(columns):
        if col in LABEL_COLUMNS:
            continue
        vals = [float(r[i]) for r in rows]
        sums[col] = [math.fsum(vals), math.fsum(abs(v) for v in vals)]
    return {"rows": len(rows), "sums": sums, "sha256": hashlib.sha256(data).hexdigest()}


def report_path(job: Job) -> Path:
    task = job.meta["task"]
    name = "dimension.json" if task == "dimension" else f"{task}.csv"
    return Path(job.meta["out"]) / name


def observe_reports(job: Job, obs: dict) -> None:
    """Add the report statistics of a CLI job to its observation."""
    path = report_path(job)
    obs["report"] = report_stats(path) if path.exists() else None


def _close(value: float, ref: float, tol: float, scale: float) -> bool:
    return abs(value - ref) <= tol * max(1.0, scale)


def check(workload: str, job: Job, obs: dict, refs: dict) -> dict[str, str]:
    """Failed checks of one job, check key -> message; empty when all passed.

    A job that raised fails on the key "error" alone."""
    if "error" in obs:
        return {"error": obs["error"]}
    if workload in ("synth-deep", "task-sweep"):
        return _check_cli(job, obs, refs["jobs"][job.name])
    if workload == "equivalence":
        ref = refs["jobs"][job.name]
        bad = {}
        if obs["bounded"] != ref["bounded"]:
            bad["bounded"] = f"bounded is {obs['bounded']}, expected {ref['bounded']}"
        if not _close(obs["c_full"], ref["c_full"], refs["tol"], abs(ref["c_full"])):
            bad["c_full"] = f"c_full {obs['c_full']!r} differs from {ref['c_full']!r}"
        return bad
    return _check_generated(job, obs)


def _check_cli(job: Job, obs: dict, ref: dict) -> dict[str, str]:
    if obs["exit"] != ref["exit"]:
        return {"exit": f"exit code {obs['exit']}, expected {ref['exit']}"}
    got, want = obs.get("report"), ref["report"]
    if (got is None) != (want is None):
        return {"report": f"report present: {got is not None}, expected {want is not None}"}
    if want is None:
        return {}
    bad = {}
    if got["rows"] != want["rows"]:
        bad["rows"] = f"{got['rows']} report rows, expected {want['rows']}"
    for col, (total, scale) in want["sums"].items():
        mine = got["sums"].get(col)
        if mine is None or not _close(mine[0], total, ref["tol"], scale):
            bad[f"sum:{col}"] = f"column {col} sums to {mine and mine[0]!r}, expected {total!r}"
    return bad


def _check_generated(job: Job, obs: dict) -> dict[str, str]:
    bad = {
        key: f"{key} {obs[key]!r} exceeds {tol!r}"
        for key, tol in GEN_TOL.items()
        if key in obs and not obs[key] <= tol
    }
    if obs["spec_problems"]:
        bad["spec_problems"] = f"from_gibbs spec has {obs['spec_problems']} problems"
    if job.meta["kind"] == "stochastic" and not obs["exact"]:
        bad["exact_route"] = "stochastic rational weights did not take the exact route"
    return bad
