"""In-process fuzz of the CLI contract over small random configs.

Whatever the config, ``main`` returns 0, 2 or 3 and never raises; a failed
run leaves no output directory behind, and a successful one leaves exactly
the files its manifest lists.  Every array-sizing key stays small so each
example runs in milliseconds.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from ipasim.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, VERBS, main
from ipasim.runio import MANIFEST_NAME

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
    ("output", "svg"): st.sampled_from(["true", "false", "maybe"]),
    # keys whose default and range check come from a domain dataclass
    ("material", "sublinear_exponent"): st.sampled_from(["-1", "0", "1", "2", "3", "1.5"]),
    ("geometry", "electrode_length_m"): st.sampled_from(["0.02", "0.04", "0.05", "0", "-1e-3"]),
    ("device", "v_pi_v"): st.sampled_from(["5.0", "4", "0", "-5"]),
    ("device", "decay_mode"): st.sampled_from(["frozen", "dark_decay", "DARK_DECAY", ""]),
    ("pulse", "duty_min"): _numbers(0.0, 1.0, "0", "1", "-0.1"),
    ("pre_treat", "saturation_epsilon"): _numbers(0.0, 0.2, "0", "0.1"),
    ("qkd", "alpha_db_per_km"): _numbers(-0.5, 1.0),
    ("qkd", "n_trunc"): st.sampled_from(["10", "20", "80", "80.0"]),
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
