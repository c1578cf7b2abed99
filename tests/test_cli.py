from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import pytest

from sftgeom import cli, realize
from sftgeom.builtins import BUILTIN_NAMES, builtin
from sftgeom.cli import load_table, main, write_table
from sftgeom.cocycle import pair_to_json
from sftgeom.gibbs import GibbsMeasure, markov_potential, potential_to_json
from sftgeom.sft import SftSystem, periodic_orbits, system_to_json
from sftgeom.solenoid import from_realization, solenoid_to_json


def run_cli(*args: str) -> int:
    return main(["run", *args])


def load_json(path: Path) -> dict:
    return json.loads(path.read_text())


def test_dimension_cantor(tmp_path):
    assert run_cli("cantor-third", "dimension", "--out", str(tmp_path)) == 0
    rep = load_json(tmp_path / "dimension.json")
    assert abs(rep["delta"] - math.log(2.0) / math.log(3.0)) < 1e-9
    assert rep["pressure_residual"] < 1e-10
    assert rep["iterations"] > 0
    assert rep["tables_version"] == "1"
    summary = load_json(tmp_path / "summary.json")
    assert summary["exit"] == 0
    assert summary["tasks"][0]["status"] == "ok"


def test_horseshoe_livsic_deep(tmp_path):
    assert run_cli("horseshoe", "livsic", "--p-max", "8", "--out", str(tmp_path)) == 0
    table = load_table(tmp_path / "livsic.csv")
    assert table.columns == ("orbit", "period", "lambda_u", "lambda_s", "residual")
    assert len(table.rows) == 71
    assert max(float(r[-1]) for r in table.rows) < 1e-10


def test_all_tasks_on_toy(tmp_path):
    code = run_cli(
        "da-attractor-toy",
        "gibbs",
        "solenoid-check",
        "synthesize",
        "dimension",
        "eigenvalues",
        "livsic",
        "dual",
        "--out",
        str(tmp_path),
    )
    assert code == 0
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {
        "gibbs.csv",
        "solenoid-check.csv",
        "synthesize.csv",
        "dimension.json",
        "eigenvalues.csv",
        "livsic.csv",
        "dual.csv",
        "summary.json",
    }
    summary = load_json(tmp_path / "summary.json")
    assert summary["side"] == "s"
    assert all(t["status"] == "ok" for t in summary["tasks"])


def test_eigenvalue_report_columns(tmp_path):
    assert run_cli("da-attractor-toy", "eigenvalues", "--out", str(tmp_path)) == 0
    table = load_table(tmp_path / "eigenvalues.csv")
    assert table.columns == (
        "orbit",
        "period",
        "lambda_ratio",
        "lambda_measure",
        "residual",
    )
    assert len(table.rows) == 23
    by_orbit = {r[0]: r for r in table.rows}
    assert float(by_orbit["0"][2]) == pytest.approx(2.25, abs=1e-12)
    assert float(by_orbit["1"][2]) == pytest.approx(9.0, abs=1e-12)


def test_gibbs_rows(tmp_path):
    assert run_cli("horseshoe", "gibbs", "--depth", "3", "--out", str(tmp_path)) == 0
    table = load_table(tmp_path / "gibbs.csv")
    assert table.version == "1"
    assert table.columns == ("word", "depth", "measure")
    assert len(table.rows) == 2 + 4 + 8
    assert table.rows[0] == ("0", "1", "0.5")


def test_side_flag_switches_tables(tmp_path):
    assert run_cli(
        "da-attractor-toy", "dimension", "--side", "u", "--out", str(tmp_path)
    ) == 0
    assert load_json(tmp_path / "dimension.json")["delta"] == 1.0
    assert run_cli("da-attractor-toy", "dimension", "--out", str(tmp_path)) == 0
    assert load_json(tmp_path / "dimension.json")["delta"] == pytest.approx(
        0.5, abs=1e-9
    )


def test_golden_synthesize_is_inadmissible(tmp_path):
    assert run_cli("golden-anosov", "synthesize", "--out", str(tmp_path)) == 4
    summary = load_json(tmp_path / "summary.json")
    assert summary["exit"] == 4
    assert summary["tasks"][0]["status"] == "inadmissible"
    assert "message" in summary["tasks"][0]


def test_dual_on_gapped_side_is_inadmissible(tmp_path):
    assert run_cli("horseshoe", "dual", "--out", str(tmp_path)) == 4


def test_unknown_builtin(tmp_path):
    assert run_cli("nosuch", "gibbs", "--out", str(tmp_path)) == 2


def test_malformed_input_files_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('"not an object"')
    args = ("gibbs", "--out", str(tmp_path))
    assert run_cli("horseshoe", *args, "--potential", str(bad)) == 2
    assert run_cli("--system", str(bad), *args) == 2
    assert run_cli("horseshoe", "solenoid-check", "--solenoid", str(bad), "--out", str(tmp_path)) == 2
    assert run_cli("da-attractor-toy", "synthesize", "--pair", str(bad), "--out", str(tmp_path)) == 2
    assert run_cli("--system", str(tmp_path / "absent.json"), *args) == 2


def _malformed_file(tmp_path, text, edit):
    obj = json.loads(text)
    edit(obj)
    path = tmp_path / "in.json"
    # json.dumps writes float("inf") as Infinity; 1e999 reads back as inf too
    path.write_text(json.dumps(obj).replace("Infinity", "1e999"))
    return path


def _first_layout(obj):
    return next(iter(obj["layouts"].values()))


def _record(obj, section):
    return obj["boundary"][section][0]


_TOY = builtin("da-attractor-toy")
# per kind of input file: a well-formed file, the command line up to the
# file's path, and the kind as the error message names it
_INPUTS = {
    "pair": (
        pair_to_json(_TOY.s.pair),
        ["da-attractor-toy", "synthesize", "--pair"],
        "cocycle-gap pair",
    ),
    "potential": (
        potential_to_json(builtin("horseshoe").potential),
        ["horseshoe", "gibbs", "--potential"],
        "potential",
    ),
    "system": (system_to_json(_TOY.sys), ["gibbs", "--system"], "system"),
    "solenoid": (
        solenoid_to_json(from_realization(_TOY.s.realization)),
        ["da-attractor-toy", "solenoid-check", "--side", "s", "--solenoid"],
        "solenoid",
    ),
}


@pytest.mark.parametrize(
    "kind, edit",
    [
        ("pair", lambda o: o.update(levels=[1])),
        ("potential", lambda o: _set(o, "weights", "0", "1/0")),
        ("potential", lambda o: o.update(values=[])),
        ("potential", lambda o: o.update(weights=[])),
        ("potential", lambda o: o.update(range=math.inf)),
        ("system", lambda o: o.update(layouts=[])),
        ("system", lambda o: o.update(boundary=[])),
        ("system", lambda o: _first_layout(o).update(entries=[])),
        ("system", lambda o: o.update(alphabet=math.inf)),
        ("system", lambda o: _first_layout(o)["entries"].update(root=[[]])),
        ("solenoid", lambda o: o["values"][0].__setitem__(0, [])),
        ("solenoid", lambda o: o.update(stabilization=math.inf)),
        ("system", lambda o: _record(o, "cylindercylinder").update(split=2.5)),
        ("system", lambda o: _record(o, "cocyclegap").update(m2_pivot=1.5)),
        ("system", lambda o: _record(o, "cylindercylinder")["xi"].__setitem__(-1, 0.5)),
        ("system", lambda o: _record(o, "cylindergap")["gap"].__setitem__(1, [0.5])),
        ("system", lambda o: _record(o, "cylindergap").pop("id")),
        ("system", lambda o: _record(o, "cylindergap").update(segments=5)),
        ("system", lambda o: o.update(alphabet=2.0)),
        ("system", lambda o: o["matrix"][0].__setitem__(0, 1.0)),
        ("system", lambda o: _first_layout(o)["entries"]["root"][0].__setitem__(1, 0.0)),
        ("system", lambda o: _record(o, "cylindergap")["segments"][0][1].__setitem__(0, True)),
        ("solenoid", lambda o: o.update(stabilization=2.9)),
        ("pair", lambda o: o["gaps"].update(depth=0.5)),
        ("potential", lambda o: o.update(range=1.7)),
    ],
    ids=[
        "pair-levels-list",
        "potential-weight-1/0",
        "potential-values-list",
        "potential-weights-list",
        "potential-range-1e999",
        "system-layouts-list",
        "system-boundary-list",
        "system-entries-list",
        "system-alphabet-1e999",
        "system-empty-entry",
        "solenoid-empty-segment",
        "solenoid-stabilization-1e999",
        "system-split-2.5",
        "system-pivot-1.5",
        "system-xi-symbol-0.5",
        "system-gap-mother-symbol-0.5",
        "system-missing-id",
        "system-segments-5",
        "system-alphabet-2.0",
        "system-matrix-entry-1.0",
        "system-layout-symbol-0.0",
        "system-segment-symbol-true",
        "solenoid-stabilization-2.9",
        "pair-depth-0.5",
        "potential-range-1.7",
    ],
)
def test_malformed_file_content_exits_2(tmp_path, capsys, kind, edit):
    text, argv, what = _INPUTS[kind]
    path = _malformed_file(tmp_path, text, edit)
    assert run_cli(*argv, str(path), "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert f"malformed {what} file" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_livsic_computes_each_eigenvalue_once(tmp_path, monkeypatch, name):
    calls = []
    real = realize.eigenvalue

    def counted(tt, orbit):
        calls.append(orbit)
        return real(tt, orbit)

    monkeypatch.setattr(realize, "eigenvalue", counted)
    monkeypatch.setattr(cli, "eigenvalue", counted)
    assert run_cli(name, "livsic", "--p-max", "6", "--out", str(tmp_path)) == 0
    assert len(calls) == 2 * len(periodic_orbits(builtin(name).sys, 6))


def test_livsic_task_reads_its_rows_from_the_library(tmp_path, monkeypatch):
    calls = []
    real = realize.livsic_sinai_check

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "livsic_sinai_check", counted)
    assert run_cli("horseshoe", "livsic", "--p-max", "4", "--out", str(tmp_path)) == 0
    assert len(calls) == 1


def test_builtin_run_builds_one_gibbs_measure(tmp_path, monkeypatch):
    built = []
    real = GibbsMeasure.__init__

    def counted(self, *args):
        built.append(args)
        real(self, *args)

    monkeypatch.setattr(GibbsMeasure, "__init__", counted)
    assert run_cli("horseshoe", "gibbs", "--out", str(tmp_path)) == 0
    assert len(built) == 1


def test_gibbs_task_checks_no_admissibility(tmp_path, monkeypatch):
    # the rows are enumerated cylinders and the one-step extensions of the
    # scaling check come from deep_extensions, admissible as built; the
    # measure reads admissibility off its chain
    calls = []
    real = SftSystem.is_admissible

    def counted(self, w):
        calls.append(w)
        return real(self, w)

    monkeypatch.setattr(SftSystem, "is_admissible", counted)
    assert run_cli("horseshoe", "gibbs", "--depth", "16", "--out", str(tmp_path)) == 0
    assert len(load_table(tmp_path / "gibbs.csv").rows) == 2046 and calls == []


def test_two_tasks_run_on_a_system_file(tmp_path):
    sys_file = tmp_path / "hs.json"
    sys_file.write_text(system_to_json(builtin("horseshoe").sys))
    argv = ["--system", str(sys_file), "gibbs", "synthesize", "--delta", "0.5", "--depth", "3"]
    assert run_cli(*argv, "--out", str(tmp_path)) == 0
    assert (tmp_path / "gibbs.csv").exists() and (tmp_path / "synthesize.csv").exists()


def test_out_that_cannot_be_created_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run_cli("horseshoe", "gibbs", "--out", str(blocker / "sub")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot create output directory")
    assert "Traceback" not in err


def test_layout_under_the_wrong_side_key_exits_2(tmp_path, capsys):
    obj = json.loads(system_to_json(builtin("da-attractor-toy").sys))
    obj["layouts"]["u"]["side"] = "s"
    sys_file = tmp_path / "sys.json"
    sys_file.write_text(json.dumps(obj))
    assert run_cli("--system", str(sys_file), "gibbs", "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed system file") and "key 'u'" in err


def test_non_primitive_system_file_exits_2(tmp_path, capsys):
    obj = json.loads(system_to_json(builtin("horseshoe").sys))
    obj["matrix"] = [[0, 1], [1, 0]]
    obj["layouts"] = {}
    sys_file = tmp_path / "sys.json"
    sys_file.write_text(json.dumps(obj))
    assert run_cli("--system", str(sys_file), "gibbs", "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed system file") and "positive" in err


def test_source_flag_conflicts(tmp_path):
    sys_file = tmp_path / "sys.json"
    sys_file.write_text(system_to_json(builtin("horseshoe").sys))
    assert run_cli("horseshoe", "gibbs", "--system", str(sys_file)) == 2
    assert main(["run", "gibbs"]) == 2  # looks like a source, no tasks left
    assert run_cli("horseshoe", "gibbs", "--depth", "17") == 2
    assert run_cli("horseshoe", "gibbs", "--p-max", "11") == 2


def test_bad_task_name_is_usage_error(tmp_path):
    assert run_cli("horseshoe", "nosuch-task", "--out", str(tmp_path)) == 2


def test_file_system_runs_gibbs(tmp_path):
    sys_file = tmp_path / "sys.json"
    sys_file.write_text(system_to_json(builtin("da-attractor-toy").sys))
    assert run_cli("--system", str(sys_file), "gibbs", "--out", str(tmp_path)) == 0
    summary = load_json(tmp_path / "summary.json")
    assert summary["tables_version"] == "user"
    # tasks that need shipped length tables refuse file systems
    assert run_cli("--system", str(sys_file), "livsic", "--out", str(tmp_path)) == 2


def test_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert run_cli(
            "da-attractor-toy",
            "gibbs",
            "eigenvalues",
            "livsic",
            "--out",
            str(d),
        ) == 0
    for name in ("gibbs.csv", "eigenvalues.csv", "livsic.csv", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_json_table_round_trip(tmp_path):
    assert run_cli(
        "horseshoe", "gibbs", "--format", "json", "--out", str(tmp_path)
    ) == 0
    path = tmp_path / "gibbs.json"
    table = load_table(path)
    write_table(table, tmp_path / "again.json", "json")
    assert path.read_bytes() == (tmp_path / "again.json").read_bytes()


def test_csv_table_round_trip(tmp_path):
    assert run_cli("golden-anosov", "solenoid-check", "--out", str(tmp_path)) == 0
    path = tmp_path / "solenoid-check.csv"
    table = load_table(path)
    write_table(table, tmp_path / "again.csv", "csv")
    assert path.read_bytes() == (tmp_path / "again.csv").read_bytes()
    assert table.columns == ("instance", "lhs", "rhs", "residual")
    assert len(table.rows) == 8  # four matching + four boundary rows


def test_perturbed_solenoid_file_fails_tolerance(tmp_path):
    spec = from_realization(builtin("golden-anosov").u.realization)
    blob = json.loads(solenoid_to_json(spec))
    hits = 0
    for triple in blob["values"]:
        if triple[0] == ["cyl", [0]] and triple[1] == ["cyl", [1]]:
            triple[2] *= 1.1
            hits += 1
    assert hits == 1
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(blob))
    code = run_cli(
        "golden-anosov",
        "solenoid-check",
        "--solenoid",
        str(spec_file),
        "--out",
        str(tmp_path),
    )
    assert code == 3
    table = load_table(tmp_path / "solenoid-check.csv")
    assert max(float(r[-1]) for r in table.rows) > 0.01
    summary = load_json(tmp_path / "summary.json")
    assert summary["exit"] == 3
    assert summary["tasks"][0]["status"] == "tolerance-exceeded"


def test_mismatched_potential_fails_boundary_conditions(tmp_path):
    toy = builtin("da-attractor-toy")
    pot_file = tmp_path / "markov.json"
    pot_file.write_text(
        potential_to_json(markov_potential(toy.sys, [[0.7, 0.3], [0.4, 0.6]]))
    )
    code = run_cli(
        "da-attractor-toy",
        "solenoid-check",
        "--potential",
        str(pot_file),
        "--out",
        str(tmp_path),
    )
    assert code == 3
    table = load_table(tmp_path / "solenoid-check.csv")
    assert max(float(r[-1]) for r in table.rows) > 1.0


def test_synthesize_report_content(tmp_path):
    assert run_cli(
        "cantor-third", "synthesize", "--depth", "4", "--out", str(tmp_path)
    ) == 0
    table = load_table(tmp_path / "synthesize.csv")
    assert table.columns == ("descriptor", "ratio", "length", "depth")
    cells = {r[0]: r for r in table.rows}
    assert float(cells["0"][1]) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert cells["0"][3] == "1"
    assert float(cells["#0"][1]) == pytest.approx(1.0 / 3.0, abs=1e-15)  # root gap
    assert float(cells["0.1"][2]) == pytest.approx(1.0 / 9.0, abs=1e-15)


def test_dual_report_lengths_are_measures(tmp_path):
    assert run_cli("da-attractor-toy", "dual", "--out", str(tmp_path)) == 0
    table = load_table(tmp_path / "dual.csv")
    toy = builtin("da-attractor-toy")
    for word, kind, depth, length in table.rows:
        syms = tuple(int(s) for s in word.split("."))
        assert kind == "cylinder"
        assert float(length) == pytest.approx(toy.measure.measure(syms), abs=1e-15)


def test_help_exits_zero():
    assert main(["--help"]) == 0


def _edited_horseshoe_potential(tmp_path, edit):
    obj = json.loads(potential_to_json(builtin("horseshoe").potential))
    edit(obj)
    path = tmp_path / "pot.json"
    path.write_text(json.dumps(obj))
    return path


def _set(obj, part, key, value):
    obj[part][key] = value


@pytest.mark.parametrize(
    "edit, phrase",
    [
        (lambda o: _set(o, "values", "0", 800.0), "for the word (0,) overflows exp"),
        (lambda o: _set(o, "values", "0", math.nan), "for the word (0,) is not finite"),
        (
            lambda o: [o[part].pop("1") for part in ("values", "weights")],
            "missing the admissible word (1,)",
        ),
        (lambda o: _set(o, "weights", "0", "1/3"), "for the word (0,) disagrees"),
    ],
    ids=["overflow", "nan", "missing-word", "weights-disagree"],
)
def test_bad_potential_values_exit_2_naming_the_word(tmp_path, capsys, edit, phrase):
    pot = _edited_horseshoe_potential(tmp_path, edit)
    out = tmp_path / "out"
    assert run_cli("horseshoe", "gibbs", "--potential", str(pot), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed potential file")
    assert phrase in err
    assert "Traceback" not in err


def test_untrustworthy_measure_exits_4(tmp_path, capsys):
    # a spectral gap of 4e-6: no Perron vector within 1e-12 can be certified
    eps = 1e-6
    rows = [[1 - eps, eps], [3 * eps, 1 - 3 * eps]]
    pot = tmp_path / "pot.json"
    pot.write_text(potential_to_json(markov_potential(builtin("horseshoe").sys, rows)))
    code = run_cli("horseshoe", "gibbs", "--potential", str(pot), "--out", str(tmp_path))
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: Perron vector error bound")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--delta", "nan"),
        ("--delta", "-1"),
        ("--delta", "inf"),
        ("--pressure", "nan"),
        ("--pressure", "1e308"),
        ("--pressure", "-600"),
        ("--tol", "nan"),
        ("--tol", "-1"),
    ],
)
def test_bad_numeric_flags_exit_2(tmp_path, capsys, flag, value):
    argv = ("horseshoe", "synthesize", "--depth", "4", "--out", str(tmp_path))
    assert run_cli(*argv, f"{flag}={value}") == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "synthesize.csv").exists()


def test_failing_synthesis_walk_writes_no_report(tmp_path, monkeypatch, capsys):
    """A bad ratio below the root raises before the report is opened."""
    real = cli.synthesize_ratio

    def with_negative_gap(*args):
        table = real(*args)
        ratios = dict(table.ratios)
        gap = next(s for s in ratios if s.is_gap and len(s.word) == table.window_depth - 1)
        ratios[gap] = -0.25
        return dataclasses.replace(table, ratios=ratios)

    monkeypatch.setattr(cli, "synthesize_ratio", with_negative_gap)
    assert run_cli("horseshoe", "synthesize", "--depth", "6", "--out", str(tmp_path)) == 4
    assert "gap ratio -0.25" in capsys.readouterr().err
    summary = load_json(tmp_path / "summary.json")
    assert summary["tasks"][0]["status"] == "inadmissible"
    assert not list(tmp_path.glob("synthesize.*"))


def _edited_solenoid_file(tmp_path, name, side, edit):
    blob = json.loads(solenoid_to_json(from_realization(builtin(name).side(side).realization)))
    edit(blob)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(blob))
    return path


def _set_ratios(blob, value):
    for triple in blob["values"]:
        triple[2] = value


@pytest.mark.parametrize("name, side", [("golden-anosov", "u"), ("da-attractor-toy", "s")])
@pytest.mark.parametrize(
    "edit, phrase",
    [
        (lambda b: _set_ratios(b, 0.0), "is not a positive float: 0.0"),
        (lambda b: _set_ratios(b, -1.0), "is not a positive float: -1.0"),
        (lambda b: _set_ratios(b, math.inf), "is not a positive float: inf"),
        (lambda b: b.update(side="x"), "side must be one of ('u', 's'), got 'x'"),
        (lambda b: b.update(stabilization=0), "stabilization must be at least 1, got 0"),
    ],
    ids=["zero", "negative", "infinite", "side", "stabilization"],
)
def test_bad_solenoid_files_exit_2(tmp_path, capsys, name, side, edit, phrase):
    spec_file = _edited_solenoid_file(tmp_path, name, side, edit)
    argv = ["--side", side, "--solenoid", str(spec_file), "--out", str(tmp_path)]
    assert run_cli(name, "solenoid-check", *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("solenoid-check: malformed solenoid file")
    assert phrase in err
    if "float" in phrase:
        assert "ratio for (Seg(kind='cyl'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "solenoid-check.csv").exists()


@pytest.mark.parametrize("pressure, depth", [("-25", 14), ("-22", 16)])
def test_underflowing_lengths_exit_2(tmp_path, capsys, pressure, depth):
    argv = ("horseshoe", "synthesize", "--depth", "16", "--delta", "0.5", "--out", str(tmp_path))
    assert run_cli(*argv, f"--pressure={pressure}") == 2
    err = capsys.readouterr().err
    assert f"at depth {depth} is below the float range" in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("synthesize.*"))


def test_deep_normal_lengths_still_report(tmp_path):
    argv = ("horseshoe", "synthesize", "--depth", "16", "--delta", "0.5", "--out", str(tmp_path))
    assert run_cli(*argv, "--pressure=-20") == 0
    lengths = [float(row[2]) for row in load_table(tmp_path / "synthesize.csv").rows]
    assert len(lengths) == 196605
    assert min(lengths) == pytest.approx(2.6e-288, rel=0.1)


def test_csv_labels_that_hold_commas_load_whole(tmp_path, monkeypatch):
    """solenoid-check labels such as "toy-fiber/x0:step:(0,1)" hold commas;
    each row still loads as one cell per column, its label as written."""
    written = []

    def recording(table, path, fmt):
        write_table(table, path, fmt)
        written.append(table)

    monkeypatch.setattr(cli, "write_table", recording)
    assert run_cli("da-attractor-toy", "solenoid-check", "--out", str(tmp_path)) == 0
    table = load_table(tmp_path / "solenoid-check.csv")
    assert all(len(row) == len(table.columns) for row in table.rows)
    assert [row[0] for row in table.rows] == [row[0] for row in written[0].rows]
    assert sum("," in row[0] for row in table.rows) > 200
