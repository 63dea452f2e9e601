"""In-process fuzz of the CLI contract over small random configs.

Whatever the config, ``main`` returns 0, 2 or 3 and never raises; a failed
run leaves no output directory behind, and a successful one leaves exactly
the files its manifest lists.  Every array-sizing key stays small so each
example runs in milliseconds.  A table of extreme values that once overflowed
numpy arithmetic holds ``main`` to the same contract, run by run, and the
corner walk sets each float key alone to each end of its declared window, for
every verb that reads its section: every run exits 0 with finite cells, or
ends for a listed physical cause.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ipasim.attack import PeCurvePlan, PreTreatmentPlan, PulseController
from ipasim.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, VERBS, main
from ipasim.config import _schema
from ipasim.device import CurvePlan, MziDevice
from ipasim.photorefractive import GeometryParams, MaterialParams
from ipasim.runio import MANIFEST_NAME
from ipasim.security import QkdScenario, SweepPlan

BASE = {
    "pe_curve": {"powers_w": "3e-9, 6.26e-6", "trace_points": "40"},
    "voltage_curve": {"points": "41", "pretreat_voltages_v": "-15, 15"},
    "pre_treat": {"max_steps": "2000"},
    "init": {"max_steps": "2000"},
    "pulse": {"max_periods": "300"},
    "qkd": {"m_db_grid": "0, 5", "distance_max_km": "40", "distance_step_km": "10"},
}


def _numbers(lo: float, hi: float, *special: str) -> st.SearchStrategy[str]:
    return st.floats(lo, hi).map(repr) | st.sampled_from(special or ("nan",))


def _counts(hi: int) -> st.SearchStrategy[str]:
    return st.integers(-1, hi).map(str)


KEYS = {
    ("qkd", "m_db_grid"): st.sampled_from(["0, 4000", "0, 5", "3, 400", "-1", ""]),
    ("pre_treat", "dt_s"): st.sampled_from(["1e-320", "1e-300", "60", "1e300", "0", "x"]),
    ("init", "dt_s"): st.sampled_from(["1e-320", "60", "1e6"]),
    ("pe_curve", "trace_points"): _counts(300),
    ("pe_curve", "trace_duration_tau"): _numbers(0.0, 50.0, "1e308"),
    ("voltage_curve", "points"): _counts(500),
    ("voltage_curve", "v_min_v"): _numbers(-30.0, 30.0),
    ("pre_treat", "max_steps"): _counts(3000),
    ("init", "max_steps"): _counts(3000),
    ("pulse", "max_periods"): _counts(500),
    ("pulse", "target_m_db"): _numbers(-10.0, 80.0),
    ("qkd", "mu"): _numbers(0.0, 2.0, "inf"),
    ("qkd", "distance_max_km"): _numbers(0.0, 200.0),
    ("qkd", "distance_step_km"): st.sampled_from(["0.5", "5", "50", "0", "-1"]),
    ("qkd", "m_search_low_db"): _numbers(0.0, 12.0),
    ("qkd", "m_search_high_db"): _numbers(0.0, 12.0),
    # keys whose default and range check come from a domain dataclass
    ("material", "sublinear_exponent"): st.sampled_from(["-1", "0", "1", "2", "3", "1.5"]),
    ("geometry", "electrode_length_m"): st.sampled_from(["0.02", "0.04", "0.05", "0", "-1e-3"]),
    ("device", "v_pi_v"): st.sampled_from(["5.0", "4", "0", "-5", "5e-324"]),
    ("device", "working_point_v"): _numbers(-30.0, 30.0, "1e308", "-1e308"),
    ("device", "decay_mode"): st.sampled_from(["frozen", "dark_decay", "DARK_DECAY", ""]),
    ("pulse", "duty_min"): _numbers(0.0, 1.0, "0", "1", "-0.1"),
    ("pre_treat", "saturation_epsilon"): _numbers(0.0, 0.2, "0", "0.1"),
    ("qkd", "alpha_db_per_km"): _numbers(-0.5, 1.0),
}
OVERRIDES = st.lists(st.sampled_from(sorted(KEYS)), max_size=4, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({key: KEYS[key] for key in keys})
)


def _ini(overrides: dict) -> str:
    sections = {name: dict(keys) for name, keys in BASE.items()}
    for (section, key), raw in overrides.items():
        sections.setdefault(section, {})[key] = raw
    return "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + "\n"
        for name, keys in sections.items()
    )


@settings(max_examples=30, deadline=None)
@given(command=st.sampled_from(sorted(VERBS)), overrides=OVERRIDES)
@example(command="security sweep", overrides={("qkd", "m_db_grid"): "0, 4000"})
@example(
    command="voltage-curve",
    overrides={("voltage_curve", "v_min_v"): "-1e308", ("voltage_curve", "v_max_v"): "1e308"},
)
@example(command="attack pre-treat", overrides={("pre_treat", "dt_s"): "1e-320"})
@example(command="budget", overrides={("device", "v_pi_v"): "0"})
@example(command="budget", overrides={("device", "v_pi_v"): "5e-324"})
@example(command="budget", overrides={("device", "working_point_v"): "1e308"})
@example(command="attack pulse", overrides={("device", "working_point_v"): "-1e308"})
def test_cli_contract_holds_on_random_configs(command, overrides):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        config = root / "fuzz.ini"
        config.write_text(_ini(overrides))
        out = root / "out"
        argv = [*command.split(), "--config", str(config), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_RUNTIME)
        if code != EXIT_OK:
            assert [p.name for p in root.iterdir()] == [config.name]
            return
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        listed = {entry["name"] for entry in manifest["outputs"]}
        assert {p.name for p in out.iterdir()} == listed | {MANIFEST_NAME}


# one extreme value of a key, and each verb whose numpy arithmetic it overflowed
# or made invalid (as a multiply, a cos, a divide, an add or a subtract) before
# the key declared a physical window, which now refuses it
NUMPY_FAILURES = [
    # the [material] rows set the lumped key that replaced the retired constant
    # they once set: r33_m_per_v, mode_overlap and photovoltaic_const at 1e308
    # scaled A, r33_m_per_v at 1e300 too, absorption_per_m scaled B,
    # photocond_per_w a/kappa most, and rel_permittivity the dark time
    ("material", "response_amplitude_per_w", "1e308",
     ("attack init", "attack pre-treat", "pe-curve", "voltage-curve")),
    ("material", "response_amplitude_per_w", "1e300",
     ("attack init", "attack pre-treat", "pe-curve", "voltage-curve")),
    ("material", "response_saturation_per_w", "1e308",
     ("attack init", "attack pre-treat", "pe-curve", "voltage-curve")),
    ("material", "response_saturation_per_w", "5e-324",
     ("attack init", "attack pre-treat", "voltage-curve")),
    ("material", "bias_asymmetry_m_per_v", "1e308", ("voltage-curve",)),
    ("material", "bias_asymmetry_m_per_v", "1e300", ("voltage-curve",)),
    ("material", "dark_relaxation_s", "5e-324", ("attack init", "attack pre-treat", "voltage-curve")),
    ("geometry", "arm_length_m", "1e308", ("attack init", "attack pre-treat", "voltage-curve")),
    ("geometry", "electrode_gap_m", "1e-300", ("attack pulse", "pe-curve", "voltage-curve")),
    ("geometry", "electrode_gap_m", "5e-324", ("voltage-curve",)),
    ("geometry", "signal_wavelength_nm", "1e-300",
     ("attack init", "attack pre-treat", "voltage-curve")),
    ("device", "signal_split", "5e-324", ("voltage-curve",)),
    ("device", "working_point_v", "1e300", ("attack pulse", "pe-curve")),
    ("voltage_curve", "pretreat_voltages_v", "1e300", ("voltage-curve",)),
    ("pre_treat", "v_app_v", "1e300", ("attack init", "attack pre-treat")),
    ("pulse", "period_s", "1e308", ("attack pulse",)),
    ("qkd", "nu", "5e-324", ("security sweep", "security threshold")),
    ("qkd", "alpha_db_per_km", "1e308", ("security sweep", "security threshold")),
]
NUMPY_FAILURE_RUNS = [
    (section, key, raw, command)
    for section, key, raw, commands in NUMPY_FAILURES for command in commands
]


@pytest.mark.parametrize(
    "section, key, raw, command", NUMPY_FAILURE_RUNS,
    ids=[f"{s}.{k}={r}-{c.replace(' ', '-')}" for s, k, r, c in NUMPY_FAILURE_RUNS],
)
def test_a_numpy_overflow_exits_without_a_warning(section, key, raw, command):
    """Under warnings raised as errors, as CI runs the console script: ``main``
    exits 2 naming the key, raises nothing and leaves no output directory."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        config = root / "extreme.ini"
        config.write_text(_ini({(section, key): raw}))
        argv = [*command.split(), "--config", str(config), "--out", str(root / "out")]
        err = io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code == EXIT_CONFIG
        assert err.getvalue().startswith(f"config error: {section}.{key}: ")
        assert [p.name for p in root.iterdir()] == [config.name]


# -- the corner walk -----------------------------------------------------------------

DEVICE_VERBS = ("pe-curve", "voltage-curve", "attack pre-treat", "attack pulse", "attack init")
# each section, the dataclasses that declare its keys' windows, and the verbs that read it
SECTIONS = {
    "material": ((MaterialParams,), DEVICE_VERBS),
    "geometry": ((GeometryParams,), DEVICE_VERBS),
    "device": ((MziDevice,), DEVICE_VERBS),
    "pe_curve": ((PeCurvePlan,), ("pe-curve",)),
    "voltage_curve": ((CurvePlan,), ("voltage-curve", "attack init")),
    "pre_treat": ((PreTreatmentPlan,), ("voltage-curve", "attack pre-treat", "attack init")),
    "init": ((), ("attack init",)),
    "pulse": ((PulseController,), ("attack pulse",)),
    "qkd": ((QkdScenario, SweepPlan), ("security sweep", "security threshold")),
    "budget": ((), ("budget",)),
}
# why a run at a corner may end without its outputs: a target the device
# cannot reach, a threshold outside its search range (exit 3), or a relation
# between the key at its corner and another key at its default (exit 2)
PHYSICAL_EXITS = {
    EXIT_RUNTIME: ("exceeds the saturated magnification", "does not bracket the zero-key point"),
    EXIT_CONFIG: (
        "electrode_length_m: cannot exceed arm_length_m", "v_max_v: must exceed v_min_v",
        "need 0 < nu < mu", "m_search_high_db: must exceed m_search_low_db",
        "need duty_min < duty_max", "distance_max_km: must be >= distance_min_km",
    ),
}


def _float_keys():
    """(section, key, least, most) of every float key, a float list's included,
    its window the config's declaration or the field of a dataclass it builds."""
    for section, keys in _schema().items():
        for key, spec in keys.items():
            default = spec.default
            if not (type(default) is float or type(default) is tuple and type(default[0]) is float):
                continue
            allowed = spec.allowed or next(
                f.metadata["range"] for cls in SECTIONS[section][0] for f in fields(cls)
                if f.name == key
            )
            yield section, key, allowed.least, allowed.most


CORNERS = [
    (section, key, corner)
    for section, key, least, most in _float_keys()
    for corner in (least, most)
]


def _non_finite_cells(out: Path) -> list[str]:
    bad = []
    for table in sorted(out.glob("*.csv")):
        header, *rows = csv.reader(table.read_text().splitlines())
        for row in rows:
            for name, cell in zip(header, row):
                try:
                    if not math.isfinite(float(cell)):
                        bad.append(f"{table.name}:{name}={cell}")
                except ValueError:  # a name or a bool
                    pass
    return bad


def test_every_float_key_declares_a_finite_window():
    assert len(CORNERS) == 2 * 54
    assert all(math.isfinite(corner) for _, _, corner in CORNERS)


@pytest.mark.parametrize(
    "section, key, corner", CORNERS, ids=[f"{s}.{k}={c!r}" for s, k, c in CORNERS]
)
def test_a_float_key_at_a_corner_of_its_window_runs_or_fails_physically(
    tmp_path, section, key, corner
):
    config = tmp_path / "corner.ini"
    config.write_text(_ini({(section, key): repr(corner)}))
    for command in SECTIONS[section][1]:
        out = tmp_path / command.replace(" ", "-")
        err = io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([*command.split(), "--config", str(config), "--out", str(out)])
        if code == EXIT_OK:
            assert _non_finite_cells(out) == [], command
        else:
            causes = PHYSICAL_EXITS.get(code, ())
            assert any(cause in err.getvalue() for cause in causes), (command, err.getvalue())
            assert not out.exists()
