"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import golden  # noqa: E402
import inputs  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


# -- seeded inputs --------------------------------------------------------------


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_catalogue_is_a_function_of_the_seed(workload):
    first = inputs.catalogue(workload, 123)
    assert first == inputs.catalogue(workload, 123)
    assert inputs.inputs_digest(first) == inputs.inputs_digest(inputs.catalogue(workload, 123))
    assert inputs.inputs_digest(first) != inputs.inputs_digest(inputs.catalogue(workload, 124))
    json.dumps(first)  # specs are plain data


def test_cost_structure_does_not_depend_on_the_seed():
    def shape(op):
        return (op.get("verb"), op.get("decay_mode"), op.get("distance_step_km"), op.get("rows"))

    for workload in inputs.WORKLOADS:
        shapes = {tuple(map(shape, inputs.catalogue(workload, seed))) for seed in (1, 2, 3)}
        assert len(shapes) == 1, workload


def test_every_cli_verb_runs_within_one_cycle():
    ops = inputs.catalogue("cli_cold", 5)
    assert {op["verb"] for op in ops[:8]} == set(inputs.CLI_VERBS)
    assert sum("config_text" in op for op in ops[:16]) >= 1


# -- golden comparator ----------------------------------------------------------


def _trace_csv(rows: int = 2000) -> bytes:
    lines = ["t_s,m_db,steps,converged"]
    lines += [f"{i * 0.5!r},{1.0 + i * 1e-3!r},{i},{'true' if i % 2 else 'false'}" for i in range(rows)]
    return ("\n".join(lines) + "\n").encode()


def _perturb(data: bytes, row: int, column: int, new) -> bytes:
    lines = data.decode().splitlines()
    cells = lines[row + 1].split(",")
    cells[column] = new(cells[column])
    lines[row + 1] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode()


def _fp(data: bytes) -> dict:
    return golden.fingerprint(golden.parse_csv(data), raw=data)


def test_identical_outputs_match_byte_for_byte():
    report = golden.compare(_fp(_trace_csv()), _fp(_trace_csv()))
    assert report["ok"] and report["bytes_identical"]


@pytest.mark.parametrize("row", [0, 1000, 1234, 1999])  # sampled and unsampled rows
def test_perturbed_float_cell_is_flagged(row):
    data = _trace_csv()
    bad = _perturb(data, row, 1, lambda c: repr(float(c) * (1 + 1e-6)))
    report = golden.compare(_fp(data), _fp(bad))
    assert not report["ok"]
    assert report["columns"]["m_db"]["max_rel"] > golden.RTOL


def test_last_digit_noise_is_within_tolerance():
    data = _trace_csv()
    close = _perturb(data, 700, 1, lambda c: repr(float(c) * (1 + 1e-13)))
    report = golden.compare(_fp(data), _fp(close))
    assert report["ok"] and not report["bytes_identical"]


@pytest.mark.parametrize("column, new", [(2, lambda c: str(int(c) + 1)), (3, lambda c: "true")])
def test_int_and_bool_cells_must_match_exactly(column, new):
    data = _trace_csv()
    report = golden.compare(_fp(data), _fp(_perturb(data, 1234, column, new)))
    assert not report["ok"]


def test_compare_dirs_reads_every_row(tmp_path):
    data = _trace_csv()
    for name, content in (("a", data), ("b", _perturb(data, 1234, 1, lambda c: repr(float(c) + 1e-6)))):
        (tmp_path / name).mkdir()
        (tmp_path / name / "trace.csv").write_bytes(content)
    assert golden.compare_dirs(tmp_path / "a", tmp_path / "a")
    assert not golden.compare_dirs(tmp_path / "a", tmp_path / "b")


def test_perturbed_golden_counts_the_op_as_failed(monkeypatch):
    bench_run = run.Run(ROOT, "security_grid", inputs.DEFAULT_SEED)
    try:
        assert bench_run.execute(0) is not None
        store = golden.load_store("security_grid")
        digest = bench_run.digests[0]
        sweep = store[digest]["sweep"]
        sweep["sha256"] = "0" * 64
        sweep["columns"]["q_mu"]["at"][3] *= 1 + 1e-6
        monkeypatch.setattr(golden, "load_store", lambda workload: store)
        report = bench_run.check_golden()
    finally:
        bench_run.runner.close()
    assert bench_run.failed == 1
    assert report["mismatches"] and "q_mu" in report["mismatches"][0]["files"]["sweep"][0]


def test_golden_store_covers_both_recorded_seeds():
    for workload in inputs.WORKLOADS:
        store = golden.load_store(workload)
        for seed in (inputs.DEFAULT_SEED, inputs.HELDOUT_SEED):
            assert all(inputs.op_digest(op) in store for op in inputs.catalogue(workload, seed))


# -- BENCHMARK.json --------------------------------------------------------------


def test_benchmark_json_matches_the_metric_table():
    spec = metrics.load_spec(ROOT)
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(metrics.MOVES)
    assert "setup_s" in metrics.units(spec, "end_to_end")


# -- smoke runs ------------------------------------------------------------------


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.fixture
def quick(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "TRACE_OPS", {"cli_cold": 1, "attack_traces": 2, "security_grid": 2})


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_smoke_run(workload, quick, capsys):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", "0"]) == 0
    result = _last_json(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    units = metrics.units(metrics.load_spec(ROOT), "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["cli_cold", "security_grid"])
def test_traced_counts_repeat_exactly(workload, quick, capsys):
    counts = []
    for _ in range(2):
        assert run.main(["--workload", workload, "--seed", "2", "--seconds", "1", "--trace", "1"]) == 0
        result = _last_json(capsys)
        assert result["correct"]
        assert set(result["metrics"]) == set(metrics.MOVES)
        counts.append({k: v["value"] for k, v in result["metrics"].items() if v["unit"] in ("count", "bytes")})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_refuses_a_directory_without_the_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "cli_cold", "--seed", "1"]) == 2
    assert capsys.readouterr().out == ""
