"""Seeded input generator for the benchmark workloads.

``catalogue(workload, seed)`` returns a fixed-size list of operation specs
(plain JSON-serialisable dicts).  A run cycles through its catalogue, so the
same seed always gives the same work, and every spec is recorded in the
result through ``inputs_sha256``.  The program under test only ever sees the
INI text or the parameter values in a spec.

Cost-determining structure (trace row counts, which CLI verb, distance grid)
is fixed by the op index; the seed draws the physical parameters.  That keeps
the per-op cost distribution the same for every seed, so figures from
different seeds are comparable.  In-process op costs are spread evenly over
about a factor of two rather than clustered: a median taken inside a cluster
of equal-cost ops jumps whenever the host's speed shifts during a run, while
over a spread of costs it moves smoothly.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

DEFAULT_SEED = 1
HELDOUT_SEED = 7919

WORKLOADS = ("cli_cold", "attack_traces", "security_grid")

CLI_VERBS = (
    "pe-curve",
    "voltage-curve",
    "attack pre-treat",
    "attack pulse",
    "attack init",
    "security sweep",
    "security threshold",
    "budget",
)
DEMO_CONFIGS = ("demos/configs/default.ini", "demos/configs/pulse_hold_40db.ini")

IN_PROCESS_CATALOGUE = 12  # divisible by the 2 decay modes and the 3 distance steps
TRACE_ROWS = (1000, 2200)  # rows per run_program trace, spread over the catalogue
WORKING_POINT_V = 5.8
DISTANCE_STEPS_KM = (2.0, 5.0, 10.0)
DISTANCE_MAX_KM = (60.0, 140.0)  # grid length, spread over the catalogue


def _spread(bounds: tuple[float, float], index: int) -> float:
    """Evenly spaced value for catalogue position ``index``."""
    lo, hi = bounds
    return lo + (hi - lo) * index / (IN_PROCESS_CATALOGUE - 1)


def _sig(x: float, digits: int = 4) -> float:
    """Round to a few significant digits so specs and INI text stay readable."""
    return float(f"{x:.{digits}g}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return _sig(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return _sig(rng.uniform(lo, hi))


def _fmt_list(values: list[float]) -> str:
    return ", ".join(repr(v) for v in values)


def _override_ini(rng: random.Random) -> str:
    """Sparse INI override touching what each CLI verb reads."""
    powers = sorted(_log_uniform(rng, 1e-9, 2e-5) for _ in range(8))
    voltages = sorted(_uniform(rng, -20.0, 20.0) for _ in range(5))
    lines = [
        "# seeded sparse override",
        "[pe_curve]",
        f"powers_w = {_fmt_list(powers)}",
        "[voltage_curve]",
        f"pretreat_voltages_v = {_fmt_list(voltages)}",
        "[pre_treat]",
        f"v_app_v = {_uniform(rng, -15.0, 15.0)!r}",
        "[pulse]",
        f"target_m_db = {_uniform(rng, 25.0, 42.0)!r}",
        "hold_periods = 120",
        f"noise_db = {_uniform(rng, 0.005, 0.03)!r}",
        f"seed = {rng.randrange(1, 2**31)}",
        "[qkd]",
        f"distance_step_km = {rng.choice(DISTANCE_STEPS_KM)!r}",
        f"distance_max_km = {_uniform(rng, 80.0, 150.0)!r}",
        "[budget]",
        f"fiber_length_km = {_uniform(rng, 0.5, 5.0)!r}",
    ]
    return "\n".join(lines) + "\n"


def _cli_catalogue(rng: random.Random) -> list[dict]:
    sources: list[dict] = [{"config": None}]
    sources += [{"config": path} for path in DEMO_CONFIGS]
    sources.append({"config_text": _override_ini(rng)})
    ops = []
    n_verbs, n_sources = len(CLI_VERBS), len(sources)
    # Verbs advance every op and the source shifts once per verb cycle, so any
    # 8 consecutive ops run every verb and every prefix mixes all sources.
    for i in range(n_verbs * n_sources):
        source = sources[(i + i // n_verbs) % n_sources]
        ops.append({"kind": "cli", "verb": CLI_VERBS[i % n_verbs], **source})
    return ops


def _attack_op(rng: random.Random, index: int) -> dict:
    n_segments = 4
    return {
        "kind": "attack",
        "decay_mode": ("dark_decay", "frozen")[index % 2],
        "v_app_v": WORKING_POINT_V,
        "rows": round(_spread(TRACE_ROWS, index)),
        # per-arm powers land on both sides of the 7 uW photoconductivity bend
        "cw": {"power_w": _log_uniform(rng, 1e-6, 6e-5), "duration_tau": _uniform(rng, 2.0, 6.0)},
        "steps": [
            [0.0 if k == 2 else _log_uniform(rng, 3e-7, 6e-5), _uniform(rng, 0.5, 2.0)]
            for k in range(n_segments)
        ],
        # whole-second periods and duties in sixteenths keep pulse edges exact
        # binary fractions, so every trace row is a full or partial step
        "pulse_train": {
            "peak_power_w": _log_uniform(rng, 3e-6, 6e-5),
            "period_s": float(rng.randint(5, 20)),
            "duty": rng.randint(2, 8) / 16,
        },
        "pre_treat": {"v_app_v": _uniform(rng, -20.0, 20.0), "i_ir_w": _log_uniform(rng, 3e-6, 3e-5)},
        "init": {"power_w": _uniform(rng, 3e-6, 6e-6)},
        "pulse": {
            "target_m_db": _uniform(rng, 25.0, 40.0),
            "noise_db": _uniform(rng, 0.005, 0.03),
            "hold_periods": 200,
            "rng_seed": rng.randrange(1, 2**31),
        },
    }


def _security_op(rng: random.Random, index: int) -> dict:
    step = DISTANCE_STEPS_KM[index % len(DISTANCE_STEPS_KM)]
    return {
        "kind": "security",
        "mu": _uniform(rng, 0.4, 0.9),
        "nu": _uniform(rng, 0.05, 0.2),
        "eta_bob": _uniform(rng, 0.05, 0.3),
        "e_det": _uniform(rng, 0.005, 0.03),
        "alpha_db_per_km": _uniform(rng, 0.16, 0.25),
        "distance_step_km": step,
        "distance_max_km": step * round(_spread(DISTANCE_MAX_KM, index) / step),
        "m_db_grid": [0.0] + sorted(_uniform(rng, 0.5, 12.0) for _ in range(4)),
        "m_search_db": [1.0, 15.0],
        "tol_db": 1e-3,
    }


def catalogue(workload: str, seed: int) -> list[dict]:
    """The ops a run of ``workload`` cycles through for this seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli_cold":
        return _cli_catalogue(rng)
    if workload == "attack_traces":
        return [_attack_op(rng, i) for i in range(IN_PROCESS_CATALOGUE)]
    if workload == "security_grid":
        return [_security_op(rng, i) for i in range(IN_PROCESS_CATALOGUE)]
    raise ValueError(f"unknown workload {workload!r}")


def op_digest(op: dict) -> str:
    return hashlib.sha256(json.dumps(op, sort_keys=True).encode()).hexdigest()


def inputs_digest(ops: list[dict]) -> str:
    """One digest over a whole catalogue: equal digests mean identical work."""
    return hashlib.sha256("\n".join(op_digest(op) for op in ops).encode()).hexdigest()
