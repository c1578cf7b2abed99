"""Reports are rendered and written one row at a time.

The reference below is the whole-table renderer the streaming writer
replaced: every cell rendered to a string first, then the file built in
memory.  The streamed bytes must equal it for every report.
"""

from __future__ import annotations

import gc
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


def _text_rows_alive() -> int:
    """Tuples of four strings the collector tracks: synthesize's text rows.
    A tuple is tracked from its creation until a collection finds it holds
    only strings, so this counts all of them while collection is off."""
    return sum(
        1
        for o in gc.get_objects()
        if type(o) is tuple and len(o) == 4 and all(type(c) is str for c in o)
    )


def test_synthesize_memory_stays_below_the_report_size(tmp_path, monkeypatch):
    """The depth-12 report is never held in memory: rows go to the file as
    the walk makes them, so when half of them are written only the row in
    hand is alive."""
    alive = []

    def counting(table, path, fmt):
        def watched():
            for i, row in enumerate(table.rows):
                if i == len(table.rows) // 2:
                    alive.append(_text_rows_alive())
                yield row

        write_table(table._replace(rows=cli.LazyRows(len(table.rows), watched)), path, fmt)

    monkeypatch.setattr(cli, "write_table", counting)
    argv = ["run", "horseshoe", "synthesize", "--depth", "12", "--out", str(tmp_path)]
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert peak < 3 * (tmp_path / "synthesize.csv").stat().st_size
    # the row in hand is seen, so a held report would be
    assert len(alive) == 1 and 1 <= alive[0] < 100


@pytest.mark.parametrize("name", ["horseshoe", "da-attractor-toy"])
def test_value_rows_are_rendered_as_they_are_written(tmp_path, monkeypatch, name):
    """make_table and write_table add less memory than the report's size to
    what the gibbs task holds: the text rows of its 2,046 value rows are
    never all held, beside the value rows or in their place."""
    marks = {}
    make, write = cli.make_table, cli.write_table

    def measured_make(*args):
        marks["before"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        return make(*args)

    def measured_write(*args):
        write(*args)
        marks["peak"] = tracemalloc.get_traced_memory()[1]

    monkeypatch.setattr(cli, "make_table", measured_make)
    monkeypatch.setattr(cli, "write_table", measured_write)
    tracemalloc.start()
    try:
        assert main(["run", name, "gibbs", "--depth", "16", "--out", str(tmp_path)]) == 0
    finally:
        tracemalloc.stop()
    assert marks["peak"] - marks["before"] < (tmp_path / "gibbs.csv").stat().st_size
