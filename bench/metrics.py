"""Which end-to-end metric, on which workload, each per-layer metric should move.

Names, units and bounds live in ``BENCHMARK.json`` at the repository root;
this table adds the expected effect, so later changes can cite metric names.
``bench/tests/test_bench.py`` keeps the two in step.
"""

from __future__ import annotations

import json
from pathlib import Path

ALL = "cli_cold,attack_traces,security_grid"
TRACE_MOVES = "trace_rows_per_s,pulse_periods_per_s@attack_traces"
SECURITY_MOVES = "threshold_s.p50,sweep_rows_per_s@security_grid"
CLI_P50 = "scenario_s.p50@cli_cold"

MOVES = {
    "import.numpy_s": f"setup_s@{ALL}; {CLI_P50}",
    "import.scipy_s": f"setup_s@{ALL}; {CLI_P50}",
    "import.ipasim_s": f"setup_s@{ALL}; {CLI_P50}",
    "calibration.default_device_s": f"setup_s@{ALL}",
    "config.load_s": CLI_P50,
    "config.build_s": CLI_P50,
    "cli.validate_s": CLI_P50,
    "photorefractive.evolve_field.calls": TRACE_MOVES,
    "photorefractive.evolve_field.self_s": TRACE_MOVES,
    "device.exposed.calls": TRACE_MOVES,
    "device.exposed.self_s": TRACE_MOVES,
    "device.readout.calls": TRACE_MOVES,
    "device.readout.self_s": TRACE_MOVES,
    "device.voltage_curve.self_s": "scenario_s.p50@cli_cold (voltage-curve and attack init ops)",
    "attack.run_program.rows": TRACE_MOVES,
    "attack.run_program.self_s": TRACE_MOVES,
    "attack.saturate.steps": TRACE_MOVES,
    "attack.saturate.self_s": TRACE_MOVES,
    "attack.pulse.periods": TRACE_MOVES,
    "attack.pulse.self_s": TRACE_MOVES,
    "security.evaluate_scenario.calls": SECURITY_MOVES,
    "security.evaluate_scenario.self_s": SECURITY_MOVES,
    "security.attack_success_probability.calls": SECURITY_MOVES,
    "security.attack_success_probability.self_s": SECURITY_MOVES,
    "security.threshold.evals": SECURITY_MOVES,
    "security.sweep.rows": SECURITY_MOVES,
    "budget.self_s": CLI_P50,
    "runio.csv.bytes": CLI_P50,
    "runio.csv.self_s": CLI_P50,
    "runio.sha256.self_s": CLI_P50,
    "runio.finish.self_s": CLI_P50,
    "trace.overhead_frac": "none: the cost of tracing itself, per workload",
    "trace_rows_per_s": "scenario_s.p50,scenarios_per_s@attack_traces",
    "pulse_periods_per_s": "scenario_s.p50,scenarios_per_s@attack_traces",
    "sweep_rows_per_s": "scenario_s.p50,scenarios_per_s@security_grid",
    "threshold_s.p50": "scenario_s.p50,scenario_s.p90@security_grid",
}


def load_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def units(spec: dict, section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[section]}
