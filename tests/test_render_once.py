"""Report cells are rendered once, where the table is made.

The references below are the per-cell renderer the text rows replaced:
`synthesize` rows of raw values (ratio, length, depth) from the same walk,
and a writer that renders every cell with `_fmt` as it writes it.  The
CLI's bytes must equal them on every builtin and side, on a drawn Markov
potential (thousands of distinct lengths) and on a gap table whose
lengths reach 0.0.
"""

from __future__ import annotations

import json
import random
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sftgeom import cli
from sftgeom.builtins import BUILTIN_NAMES, builtin
from sftgeom.cli import _fmt, _render_json, main
from sftgeom.cocycle import constant_pair, pair_from_json, synthesize_ratio
from sftgeom.errors import SftGeomError
from sftgeom.gibbs import (
    GibbsMeasure,
    markov_potential,
    potential_from_json,
    potential_to_json,
    uniform_potential,
)
from sftgeom.realize import WindowWalk
from sftgeom.sft import U_SIDE, system_from_json

COLUMNS = ("descriptor", "ratio", "length", "depth")
# Sides without gap room: synthesis refuses them.
REFUSED = {("golden-anosov", "u"), ("golden-anosov", "s"), ("da-attractor-toy", "u")}


def reference_rows(measure, pair, delta, pressure, depth):
    """The synthesize report as raw values: each node below the root, then
    the gaps among its children, level by level."""
    walk = WindowWalk(synthesize_ratio(measure, pair, delta, pressure, depth))
    u = pair.side == U_SIDE
    dotted = lambda w, a: (f"{w}.{a}" if u else f"{a}.{w}") if w else str(a)
    rows = []
    for n, level in enumerate(walk.levels(depth, "", dotted)):
        for label, base, state, made in level:
            if n > 0:
                rows.append((label, walk.moves[made][2], base, n))
            if n < depth:
                for i in walk.children(state):
                    gap, key, r, _ = walk.moves[i]
                    if gap:
                        rows.append((f"{label}#{key}", r, base * r, n + 1))
    return rows


def reference_bytes(version, rows, fmt) -> bytes:
    """Every cell rendered with _fmt as it is written."""
    if fmt == "csv":
        lines = [f"# tables-version={version}\n", ",".join(COLUMNS) + "\n"]
        lines += [",".join(map(_fmt, row)) + "\n" for row in rows]
        return "".join(lines).encode()
    out = f'{{\n  "columns": {_render_json(list(COLUMNS), 1)},\n  "rows": ['
    sep = "\n    "
    for row in rows:
        out += sep + _render_json([_fmt(v) for v in row], 2)
        sep = ",\n    "
    out += "]" if sep == "\n    " else "\n  ]"
    out += f',\n  "tables_version": {_render_json(version, 1)}\n}}\n'
    return out.encode()


def assert_report_matches(tmp_path, argv, fmt, version, inputs, depth):
    """Run the CLI's synthesize and compare with the reference; an input the
    reference refuses must exit 4 and write no report."""
    out = tmp_path / fmt
    code = main(["run", *argv, "--depth", str(depth), "--format", fmt, "--out", str(out)])
    try:
        rows = reference_rows(*inputs, depth)
    except SftGeomError:
        assert code == 4 and not (out / f"synthesize.{fmt}").exists()
        return None
    assert code == 0
    assert (out / f"synthesize.{fmt}").read_bytes() == reference_bytes(version, rows, fmt)
    return rows


def builtin_inputs(name, side):
    b = builtin(name)
    bs = b.side(side)
    return b.measure, bs.pair or constant_pair(side), bs.delta, bs.pressure


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("side", ["u", "s"])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_reports_equal_the_per_cell_renderer(tmp_path, name, side, fmt):
    argv = [name, "synthesize", "--side", side]
    inputs = builtin_inputs(name, side)
    rows = assert_report_matches(tmp_path, argv, fmt, builtin(name).version, inputs, 10)
    assert (rows is None) == ((name, side) in REFUSED)


def _write_markov(path, rows) -> None:
    sys = builtin("horseshoe").sys
    path.write_text(potential_to_json(markov_potential(sys, rows)))


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    p=st.floats(0.1, 0.9),
    q=st.floats(0.1, 0.9),
    side=st.sampled_from(["u", "s"]),
    fmt=st.sampled_from(["csv", "json"]),
)
def test_markov_potential_reports_equal_the_per_cell_renderer(tmp_path_factory, p, q, side, fmt):
    tmp = tmp_path_factory.mktemp("markov")
    pot = tmp / "potential.json"
    _write_markov(pot, [[p, 1 - p], [q, 1 - q]])
    b = builtin("horseshoe")
    measure = GibbsMeasure(b.sys, potential_from_json(pot.read_text(), b.sys))
    bs = b.side(side)
    inputs = (measure, bs.pair, bs.delta, bs.pressure)
    argv = ["horseshoe", "synthesize", "--side", side, "--potential", str(pot)]
    rows = assert_report_matches(tmp, argv, fmt, b.version, inputs, 10)
    assert rows


# Three symbols, two gaps under every mother.  The second gap's weight is the
# least positive float, so its synthesized ratio, and every length under it,
# rounds to 0.0.  No input gives -0.0: gap weights, cocycle levels and the
# measure are positive, so every ratio and length is +0.0 or more.
_GAPPED_SYSTEM = {
    "alphabet": 3,
    "matrix": [[1, 1, 1]] * 3,
    "layouts": {
        "u": {
            "side": "u",
            "entries": {
                key: [["cyl", 0], ["gap"], ["cyl", 1], ["gap"], ["cyl", 2]]
                for key in ("root", "0", "1", "2")
            },
        }
    },
}
_ZERO_GAP_PAIR = {
    "side": "u",
    "levels": {"": 1.0},
    "gaps": {"depth": 0, "constant": None, "table": [[["", 1], ["", 0], 5e-324]]},
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_zero_lengths_equal_the_per_cell_renderer(tmp_path, fmt):
    system_file, pair_file = tmp_path / "system.json", tmp_path / "pair.json"
    system_file.write_text(json.dumps(_GAPPED_SYSTEM))
    pair_file.write_text(json.dumps(_ZERO_GAP_PAIR))
    system = system_from_json(system_file.read_text())
    measure = GibbsMeasure(system, uniform_potential(system))
    inputs = (measure, pair_from_json(pair_file.read_text()), 0.9, 0.0)
    argv = ["--system", str(system_file), "synthesize", "--pair", str(pair_file)]
    argv += ["--delta", "0.9"]
    rows = assert_report_matches(tmp_path, argv, fmt, "user", inputs, 6)
    for n in range(1, 7):
        lengths = [row[2] for row in rows if row[3] == n]
        assert 0.0 in lengths and any(x > 0.0 for x in lengths)


def test_signed_zeros_keep_their_texts():
    texts = cli._FloatTexts()
    assert [texts[0.0], texts[-0.0], texts[0.0], texts[0.5]] == ["0", "-0", "0", "0.5"]
    texts = cli._FloatTexts()
    assert [texts[-0.0], texts[0.0], texts[-0.0]] == ["-0", "0", "-0"]


def _fmt_calls(tmp_path, monkeypatch, argv, depth) -> int:
    calls = []
    real = cli._fmt
    monkeypatch.setattr(cli, "_fmt", lambda x: calls.append(x) or real(x))
    out = tmp_path / str(depth)
    assert main(["run", *argv, "--depth", str(depth), "--out", str(out)]) == 0
    monkeypatch.setattr(cli, "_fmt", real)
    return len(calls)


@pytest.mark.parametrize("name, side", [("horseshoe", "u"), ("da-attractor-toy", "s")])
def test_synthesize_renders_no_value_per_row(tmp_path, monkeypatch, name, side):
    """_fmt renders each move's ratio once and the summary's scalars (exit,
    worst residual, the printed residual): the count does not grow with the
    report."""
    argv = [name, "synthesize", "--side", side]
    calls = {d: _fmt_calls(tmp_path, monkeypatch, argv, d) for d in (8, 12)}
    walk = WindowWalk(synthesize_ratio(*builtin_inputs(name, side), 8))
    walk.census(8)
    assert calls[8] == calls[12] <= len(walk.moves) + 3


def test_synthesize_memory_on_a_random_potential_stays_below_the_report_size(tmp_path):
    """Distinct lengths are kept for one level at a time: on a Markov
    potential with thousands of them the depth-12 peak stays below 3x the
    report, as on a builtin.  The bound here is 2.5x: the streamed report
    peaks near 1.7x, and the same rows held in one list pass 3x."""
    rng = random.Random(3)
    p, q = rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)
    pot = tmp_path / "potential.json"
    _write_markov(pot, [[p, 1 - p], [q, 1 - q]])
    argv = ["run", "horseshoe", "synthesize", "--potential", str(pot), "--depth", "12"]
    tracemalloc.start()
    try:
        assert main([*argv, "--out", str(tmp_path)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    report = tmp_path / "synthesize.csv"
    lengths = {line.rsplit(",", 2)[1] for line in report.read_text().splitlines()[2:]}
    assert len(lengths) > 1000
    assert peak < 2.5 * report.stat().st_size
