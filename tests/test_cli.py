from __future__ import annotations

import json
import math

import pytest

from sftgeom.builtins import builtin
from sftgeom.cli import load_json, load_table, main, write_table
from sftgeom.gibbs import markov_potential, potential_to_json
from sftgeom.sft import system_to_json
from sftgeom.solenoid import from_realization, solenoid_to_json


def run_cli(*args: str) -> int:
    return main(["run", *args])


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
