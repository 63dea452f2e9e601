"""Deterministic file emission: cells, CSV bytes, SVG, manifest lifecycle."""

import json
import math
from hashlib import sha256

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ipasim import __version__
from ipasim.runio import (
    MANIFEST_NAME,
    RunDirError,
    RunWriter,
    format_column,
    render_csv,
)

from oracles import csv_by_rows


def test_format_column_rules():
    assert format_column([True, np.bool_(False)]) == ["true", "false"]
    assert format_column(np.array([False, True])) == ["false", "true"]
    assert format_column([3, np.int64(3)]) == ["3", "3"]
    assert format_column(np.arange(3, dtype=np.uint8)) == ["0", "1", "2"]
    assert format_column([0.1, np.float64(1.0 / 3.0), 3e-9]) == ["0.1", repr(1.0 / 3.0), "3e-09"]
    assert format_column(["text", "total"]) == ["text", "total"]
    assert format_column([]) == []
    # the shortest round-trip repr, signed zero and non-finite values included
    edges = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-5]
    assert format_column(edges) == ["-0.0", "nan", "inf", "-inf", "5e-324", "1e+16", "1e-05"]
    # round trip: parsing the rendered cell recovers the exact float
    values = [0.1, 1e300, 6.63946533203125, -0.0, 5e-324, 1e16, 1e-5]
    assert [float(cell) for cell in format_column(values)] == values


def test_format_column_refuses_cells_that_would_need_quoting():
    for bad in ("a,b", 'say "x"', "two\nlines", "cr\r"):
        with pytest.raises(ValueError, match="never quoted"):
            format_column(["fine", bad])
    with pytest.raises(ValueError, match="never quoted"):
        render_csv(("a,b",), [[1.0]])


def test_render_csv_uses_newline_terminators():
    text = render_csv(("a", "b", "c", "d"), [[1, 2], [2.5, -0.0], [True, False], ["x", "y"]])
    assert text == "a,b,c,d\n1,2.5,true,x\n2,-0.0,false,y\n"
    assert "\r" not in text


def test_render_csv_writes_a_zero_row_table_as_its_header():
    assert render_csv(("a", "b"), [[], np.array([])]) == "a,b\n"


def test_render_csv_refuses_a_ragged_table():
    with pytest.raises(ValueError):
        render_csv(("a", "b"), [[1.0, 2.0], [3.0]])
    with pytest.raises(ValueError):
        render_csv(("a", "b"), [[1.0]])
    with pytest.raises(ValueError):
        render_csv(("a",), [[1.0], [2.0]])


_IDENTIFIERS = st.from_regex(r"[a-z][a-z0-9_]*", fullmatch=True)
_COLUMN_CELLS = (
    st.floats(),
    st.booleans(),
    st.integers(-(2**63), 2**63 - 1),
    _IDENTIFIERS,
)


@st.composite
def _tables(draw):
    rows = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(_COLUMN_CELLS), min_size=1, max_size=5))
    columns = [draw(st.lists(cells, min_size=rows, max_size=rows)) for cells in kinds]
    # library columns arrive as numpy arrays as often as lists
    columns = [np.asarray(c) if draw(st.booleans()) and c else c for c in columns]
    header = draw(st.lists(_IDENTIFIERS, min_size=len(kinds), max_size=len(kinds)))
    return header, columns


@given(_tables())
def test_render_csv_matches_csv_writer_with_per_cell_rules(table):
    header, columns = table
    assert render_csv(header, columns) == csv_by_rows(header, columns)


def test_writer_seals_a_manifest(tmp_path):
    out = tmp_path / "run"
    writer = RunWriter.prepare(out)
    assert writer.created
    writer.write_csv("data.csv", ("x",), [(1,)])
    writer.write_text("notes.txt", "hello\n")
    writer.finish("budget", "cafe" * 16, "2026-01-01T00:00:00+00:00")
    manifest = json.loads((out / MANIFEST_NAME).read_text())
    assert manifest["command"] == "budget"
    assert manifest["tool_version"] == __version__
    names = [entry["name"] for entry in manifest["outputs"]]
    assert names == ["data.csv", "notes.txt"]  # sorted
    for entry in manifest["outputs"]:
        assert sha256((out / entry["name"]).read_bytes()).hexdigest() == entry["sha256"]


def test_prepare_reuses_only_manifested_directories(tmp_path):
    out = tmp_path / "run"
    writer = RunWriter.prepare(out)
    writer.write_text("old.txt", "old")
    writer.finish("budget", "0" * 64, "2026-01-01T00:00:00+00:00")
    # a rerun clears exactly the manifested files
    again = RunWriter.prepare(out)
    assert not (out / "old.txt").exists()
    assert not (out / MANIFEST_NAME).exists()
    again.write_text("new.txt", "new")
    again.finish("budget", "0" * 64, "2026-01-01T00:00:00+00:00")
    assert {p.name for p in out.iterdir()} == {"new.txt", MANIFEST_NAME}


def test_prepare_refuses_unmanifested_content(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    (out / "keep.me").write_text("?")
    with pytest.raises(RunDirError, match="refusing to mix"):
        RunWriter.prepare(out)
    (out / "keep.me").unlink()
    (out / MANIFEST_NAME).write_text("not json")
    with pytest.raises(RunDirError, match="cannot parse"):
        RunWriter.prepare(out)


@pytest.mark.parametrize(
    "bad",
    ["../victim.txt", "sub/file.csv", "..\\victim.txt", "/abs.csv", "..", ".", "", "a\x00b", 7],
)
def test_prepare_refuses_manifest_names_that_are_not_plain(tmp_path, bad):
    out = tmp_path / "run"
    out.mkdir()
    (out / "ours.csv").write_text("x\n")
    outputs = [{"name": "ours.csv", "sha256": "0" * 64}, {"name": bad, "sha256": "0" * 64}]
    (out / MANIFEST_NAME).write_text(json.dumps({"outputs": outputs}))
    with pytest.raises(RunDirError, match="not a plain file name"):
        RunWriter.prepare(out)
    # nothing is deleted when any listed name is refused
    assert {p.name for p in out.iterdir()} == {"ours.csv", MANIFEST_NAME}


def test_prepare_rejects_non_directories(tmp_path):
    target = tmp_path / "file"
    target.write_text("x")
    with pytest.raises(RunDirError, match="not a directory"):
        RunWriter.prepare(target)


def test_abort_removes_partial_output_and_created_dir(tmp_path):
    out = tmp_path / "doomed"
    writer = RunWriter.prepare(out)
    writer.write_text("partial.csv", "x\n")
    writer.abort()
    assert not out.exists()
    # a pre-existing directory survives an abort, just emptied of our files
    kept = tmp_path / "kept"
    kept.mkdir()
    writer = RunWriter.prepare(kept)
    writer.write_text("partial.csv", "x\n")
    writer.abort()
    assert kept.exists() and list(kept.iterdir()) == []
