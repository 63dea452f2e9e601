"""Deterministic file emission: cells, CSV bytes, SVG, manifest lifecycle."""

import json

import numpy as np
import pytest

from ipasim import __version__
from ipasim.runio import (
    MANIFEST_NAME,
    RunDirError,
    RunWriter,
    file_sha256,
    format_cell,
    line_plot_svg,
    render_csv,
)


def test_format_cell_rules():
    assert format_cell(True) == "true"
    assert format_cell(np.bool_(False)) == "false"
    assert format_cell(3) == "3"
    assert format_cell(np.int64(3)) == "3"
    assert format_cell(0.1) == "0.1"
    assert format_cell(np.float64(1.0 / 3.0)) == repr(1.0 / 3.0)
    assert format_cell(3e-9) == "3e-09"
    assert format_cell("text") == "text"
    # round trip: parsing the rendered cell recovers the exact float
    for value in (0.1, 1e300, 6.63946533203125, -0.0):
        assert float(format_cell(value)) == value


def test_render_csv_uses_newline_terminators():
    text = render_csv(("a", "b"), [(1, 2.5), (True, "x")])
    assert text == "a,b\n1,2.5\ntrue,x\n"
    assert "\r" not in text


def test_line_plot_svg_is_deterministic_and_drops_non_finite():
    series = [("s", [0.0, 1.0, 2.0, 3.0], [1.0, float("inf"), float("nan"), 2.0])]
    a = line_plot_svg("t", "x", "y", series)
    b = line_plot_svg("t", "x", "y", series)
    assert a == b
    assert a.count("polyline") == 1
    # only the two finite points survive
    points = a.split('points="')[1].split('"')[0]
    assert len(points.split()) == 2
    empty = line_plot_svg("t", "x", "y", [("nothing", [], [])])
    assert "<svg" in empty and "polyline" not in empty


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
        assert file_sha256(out / entry["name"]) == entry["sha256"]


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
