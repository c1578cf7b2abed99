"""Reports are rendered and written one row at a time.

The reference below is the whole-table renderer the streaming writer
replaced: every cell rendered to a string first, then the file built in
memory.  The streamed bytes must equal it for every report.
"""

from __future__ import annotations

import tracemalloc

import pytest

from sftgeom import cli
from sftgeom.cli import TASKS, _fmt, _render_json, main, make_table, write_table


def reference_text(table: cli.ReportTable, fmt: str) -> str:
    rows = [[_fmt(v) for v in row] for row in table.rows]
    if fmt == "csv":
        lines = [f"# tables-version={table.version}", ",".join(table.columns)]
        lines.extend(",".join(row) for row in rows)
        return "\n".join(lines) + "\n"
    obj = {"tables_version": table.version, "columns": list(table.columns), "rows": rows}
    return _render_json(obj) + "\n"


def written_tables(monkeypatch, argv) -> list:
    """Run the CLI and return (table, path, fmt) for every table it wrote."""
    seen = []

    def recording(table, path, fmt):
        write_table(table, path, fmt)
        seen.append((table, path, fmt))

    monkeypatch.setattr(cli, "write_table", recording)
    main(["run", *argv])
    return seen


def assert_streamed_as_reference(seen) -> None:
    for table, path, fmt in seen:
        assert path.read_bytes() == reference_text(table, fmt).encode(), path.name


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", ["horseshoe", "da-attractor-toy"])
def test_every_task_streams_the_reference_bytes(tmp_path, monkeypatch, name, fmt):
    seen = written_tables(monkeypatch, [name, *TASKS, "--format", fmt, "--out", str(tmp_path)])
    written = {p.name for p in tmp_path.iterdir()} - {"dimension.json", "summary.json"}
    assert {path.name for _, path, _ in seen} == written
    assert len(seen) >= 5
    assert_streamed_as_reference(seen)


@pytest.mark.parametrize(
    "name, side",
    [
        ("horseshoe", "u"),
        ("horseshoe", "s"),
        ("cantor-third", "u"),
        ("cantor-third", "s"),
        ("da-attractor-toy", "s"),
    ],
)
def test_synthesize_json_streams_the_reference_bytes(tmp_path, monkeypatch, name, side):
    argv = [name, "synthesize", "--side", side, "--depth", "6", "--format", "json"]
    seen = written_tables(monkeypatch, [*argv, "--out", str(tmp_path)])
    assert len(seen) == 1 and len(seen[0][0].rows) > 0
    assert_streamed_as_reference(seen)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_empty_table_streams_the_reference_bytes(tmp_path, fmt):
    table = make_table("1", ("word", "depth"), [])
    path = tmp_path / f"empty.{fmt}"
    write_table(table, path, fmt)
    assert path.read_bytes() == reference_text(table, fmt).encode()


def test_synthesize_memory_stays_below_the_report_size(tmp_path):
    """The depth-12 report is never held in memory: rows go to the file as
    the walk makes them."""
    argv = ["run", "horseshoe", "synthesize", "--depth", "12", "--out", str(tmp_path)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * (tmp_path / "synthesize.csv").stat().st_size
