"""Config parsing: total schema, canonical hashing, object builders."""

import dataclasses
import inspect
import math
import re
from pathlib import Path

import pytest

from ipasim.calibration import default_device, default_material
from ipasim.cli import EXIT_CONFIG, main
from ipasim._ranges import MAX_GRID_POINTS, MAX_STEPS
from ipasim.config import (
    ConfigError,
    _schema,
    build_controller,
    build_device,
    build_distances_km,
    build_geometry,
    build_material,
    build_path,
    build_pretreat_plan,
    build_scenario,
    canonical_text,
    config_sha256,
    default_config,
    load_config,
    parse_config,
    to_ini_text,
    working_point_v,
)
from ipasim.attack import PeCurvePlan
from ipasim.budget import path_loss
from ipasim.device import CurvePlan
from ipasim.security import SweepPlan

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"

# one out-of-range value per range-checked key of the dataclass-backed sections
OUT_OF_RANGE = [
    *(("material", key, raw) for key in (
        "response_amplitude_per_w", "response_saturation_per_w", "bias_asymmetry_m_per_v",
        "dark_relaxation_s", "crossover_power_w",
    ) for raw in ("-1", "1e300")),
    ("material", "sublinear_exponent", "0"),
    *(("geometry", key, "-1") for key in (
        "arm_length_m", "electrode_length_m", "electrode_gap_m", "signal_wavelength_nm",
    )),
    ("device", "v_pi_v", "0"),
    ("device", "signal_split", "1"),
    ("device", "irradiation_split", "0"),
    ("device", "irradiation_coupling_db", "-1"),
    ("device", "polarization_loss_db", "1"),
    ("device", "decay_mode", "sticky"),
    ("device", "residual_bias_rad", "4"),
    ("pre_treat", "i_ir_w", "-1"),
    ("pre_treat", "saturation_epsilon", "0.5"),
    ("pre_treat", "dt_s", "0"),
    ("pre_treat", "max_steps", "0"),
    ("pulse", "duty_min", "0"),
    ("pulse", "duty_max", "1.5"),
    ("pulse", "gain_duty_per_db", "0"),
    ("pulse", "settle_tol_db", "0"),
    ("pulse", "period_s", "0"),
    ("pulse", "peak_power_w", "-1"),
    ("pulse", "noise_db", "-0.1"),
    ("pulse", "max_periods", "0"),
    ("pulse", "hold_periods", "-1"),
    ("pulse", "seed", "-1"),
    ("qkd", "mu", "-1"),
    ("qkd", "nu", "0"),
    ("qkd", "alpha_db_per_km", "-1"),
    ("qkd", "eta_bob", "0"),
    ("qkd", "y0", "1"),
    ("qkd", "e_det", "0.6"),
    ("qkd", "e0", "2"),
    ("qkd", "f_ec", "0.5"),
    ("qkd", "m_db_grid", "-1"),
    ("qkd", "distance_min_km", "-1"),
    ("qkd", "distance_max_km", "-1"),
    ("qkd", "distance_step_km", "0"),
    ("qkd", "m_search_low_db", "-1"),
    ("qkd", "m_search_high_db", "-1"),
    ("qkd", "threshold_tol_db", "0"),
    ("qkd", "estimator", "magic"),
    ("pe_curve", "powers_w", "3e-9, 0"),
    ("pe_curve", "trace_points", "1"),
    ("pe_curve", "trace_duration_tau", "0"),
    ("voltage_curve", "v_min_v", "nan"),
    ("voltage_curve", "v_max_v", "inf"),
    ("voltage_curve", "points", "1"),
    ("voltage_curve", "pretreat_voltages_v", "1, nan"),
]
UNCHECKED = {("device", "working_point_v"), ("pulse", "target_m_db"), ("pre_treat", "v_app_v")}
# each value is in range alone and out of range against another key's default
COUPLED = [
    ("qkd", "distance_min_km", "200"),
    ("qkd", "m_search_low_db", "10"),
    ("qkd", "mu", "0.05"),
    ("voltage_curve", "v_min_v", "20"),
    ("pulse", "duty_min", "1"),
    ("geometry", "arm_length_m", "0.01"),
]


def test_empty_config_is_the_calibrated_default():
    cfg = parse_config("")
    dev = build_device(cfg)
    ref = default_device()
    assert dev.bias_phase_rad == pytest.approx(ref.bias_phase_rad, rel=1e-12)
    assert dev.v_pi_v == ref.v_pi_v
    assert dev.material == ref.material
    assert dev.geometry == ref.geometry
    assert working_point_v(cfg) == 5.8
    assert cfg.get("output", "directory") == "ipasim-out"


def test_overrides_reach_the_built_objects():
    cfg = parse_config(
        "[device]\n"
        "v_pi_v = 4.0\n"
        "working_point_v = 4.6\n"
        "decay_mode = frozen\n"
        "polarization_loss_db = 0.5\n"
        "[pulse]\n"
        "target_m_db = 12.5\n"
        "peak_power_w = 9e-6\n"
        "[qkd]\n"
        "mu = 0.7\n"
        "distance_max_km = 10\n"
        "distance_step_km = 5\n"
    )
    dev = build_device(cfg)
    assert dev.v_pi_v == 4.0
    assert dev.polarization_loss_db == 0.5
    assert dev.decay_mode.value == "frozen"
    assert dev.total_phase(4.6) == pytest.approx(math.pi + 2.5e-3, abs=1e-12)
    ctrl = build_controller(cfg)
    assert ctrl.target_m_db == 12.5 and ctrl.peak_power_w == 9e-6
    assert build_scenario(cfg).mu == 0.7
    assert build_distances_km(cfg) == (0.0, 5.0, 10.0)


def test_total_schema_rejection_names_the_key_path():
    with pytest.raises(ConfigError, match=r"unknown section \[typo\]"):
        parse_config("[typo]\nx = 1\n")
    with pytest.raises(ConfigError, match="device.vpi_v: unknown key"):
        parse_config("[device]\nvpi_v = 5\n")
    with pytest.raises(ConfigError, match="device.v_pi_v: expected a number"):
        parse_config("[device]\nv_pi_v = five\n")
    with pytest.raises(ConfigError, match=r"^device\.v_pi_v: "):
        parse_config("[device]\nv_pi_v = -5\n")
    with pytest.raises(ConfigError, match="pulse.seed: expected an integer"):
        parse_config("[pulse]\nseed = 1.5\n")
    with pytest.raises(ConfigError, match="DEFAULT"):
        parse_config("[DEFAULT]\nv_pi_v = 5\n")
    with pytest.raises(ConfigError, match="config syntax"):
        parse_config("not ini at all")
    with pytest.raises(ConfigError, match="decay_mode: must be one of"):
        parse_config("[device]\ndecay_mode = sticky\n")


def test_cross_field_validation():
    with pytest.raises(ConfigError, match="qkd: need 0 < nu < mu"):
        parse_config("[qkd]\nmu = 0.05\n")
    with pytest.raises(ConfigError, match="duty_min"):
        parse_config("[pulse]\nduty_min = 0.9\nduty_max = 0.5\n")
    with pytest.raises(ConfigError, match="v_max_v"):
        parse_config("[voltage_curve]\nv_min_v = 10\nv_max_v = -10\n")
    with pytest.raises(
        ConfigError, match=r"^budget\.wavelength_nm: component 'coupling:bs_5050' has no loss entry"
    ):
        parse_config("[budget]\nwavelength_nm = 780\ncoupling_scheme = bs_5050\n")
    with pytest.raises(ConfigError, match="unknown component"):
        parse_config("[budget]\ncomponents = warp_core\n")
    with pytest.raises(ConfigError, match="no loss entry at 780"):
        parse_config(
            "[component:tap]\n405_nm_db = 1\n[budget]\nwavelength_nm = 780\ncomponents = tap\n"
        )


def _case_id(case):
    return f"{case[0]}.{case[1]}={case[2]}"


def test_every_checked_key_has_an_out_of_range_case():
    cfg = default_config()
    listed = {(section, key) for section, key, _ in OUT_OF_RANGE}
    for section in (
        "material", "geometry", "device", "pre_treat", "pulse", "qkd", "pe_curve", "voltage_curve"
    ):
        for key in cfg.values[section]:
            assert (section, key) in listed | UNCHECKED, f"{section}.{key}"


@pytest.mark.parametrize("section, key, raw", OUT_OF_RANGE, ids=map(_case_id, OUT_OF_RANGE))
def test_out_of_range_errors_name_the_section_and_the_key(section, key, raw):
    with pytest.raises(ConfigError) as info:
        parse_config(f"[{section}]\n{key} = {raw}\n")
    message = str(info.value)
    assert re.match(rf"{section}[.:]", message), message
    assert re.search(rf"\b{key}\b", message), message


def _typed(section, key, raw):
    default = default_config().get(section, key)
    if isinstance(default, tuple):
        return tuple(float(x) for x in raw.split(","))
    return type(default)(raw)


@pytest.mark.parametrize(
    "section, key, raw", OUT_OF_RANGE + COUPLED, ids=map(_case_id, OUT_OF_RANGE + COUPLED)
)
def test_with_value_rejects_what_parse_config_rejects(section, key, raw):
    with pytest.raises(ConfigError):
        parse_config(f"[{section}]\n{key} = {raw}\n")
    with pytest.raises(ConfigError, match=section):
        default_config().with_value(section, key, _typed(section, key, raw))


# each retired key, a value it took, and what its refusal names in its place
RETIRED = [
    ("voltage_curve", "pretreat_power_w", "1.2e-05", "pre_treat.i_ir_w"),
    ("geometry", "irradiation_wavelength_nm", "405.0", "budget.wavelength_nm"),
    ("geometry", "effective_length_m", "0.0136", "nothing read it"),
    ("qkd", "n_trunc", "80", "nothing is truncated"),
    ("output", "svg", "false", "the CSVs hold the curves"),
    # the microscopic material constants, at their last defaults, and the lumped
    # key that carries the quantity each one scaled
    ("material", "refractive_index", "2.1381", "response_amplitude_per_w"),
    ("material", "r33_m_per_v", "3.08e-11", "response_amplitude_per_w"),
    ("material", "mode_overlap", "0.32", "response_amplitude_per_w"),
    ("material", "photovoltaic_const", "4878.357415143211", "bias_asymmetry_m_per_v"),
    ("material", "absorption_per_m", "0.00035897065649201186", "response_saturation_per_w"),
    ("material", "photocond_per_w", "0.00012195893537858028", "bias_asymmetry_m_per_v"),
    ("material", "dark_conductivity_s_per_m", "1.2395862937920003e-13", "dark_relaxation_s"),
    ("material", "rel_permittivity", "28.0", "dark_relaxation_s"),
]


@pytest.mark.parametrize(
    "section, key, raw, replacement", RETIRED, ids=[f"{s}.{k}" for s, k, *_ in RETIRED]
)
def test_a_retired_key_names_what_became_of_it(tmp_path, capsys, section, key, raw, replacement):
    message = rf"^{section}\.{key}: retired key, .*{re.escape(replacement)}"
    with pytest.raises(ConfigError, match=message):
        parse_config(f"[{section}]\n{key} = {raw}\n")
    with pytest.raises(ConfigError, match=message):
        default_config().with_value(section, key, raw)
    path = tmp_path / "retired.ini"
    path.write_text(f"[{section}]\n{key} = {raw}\n")
    assert main(["--dry-run", "voltage-curve", "--config", str(path)]) == EXIT_CONFIG
    assert f"config error: {section}.{key}: retired key, " in capsys.readouterr().err


def test_with_value_checks_and_copies():
    cfg = default_config()
    bumped = cfg.with_value("pulse", "seed", 42)
    assert bumped.get("pulse", "seed") == 42
    assert cfg.get("pulse", "seed") == 1  # original untouched
    with pytest.raises(ConfigError, match="unknown key"):
        cfg.with_value("pulse", "sead", 42)
    with pytest.raises(ConfigError, match=r"^pulse\.seed: "):
        cfg.with_value("pulse", "seed", -1)


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("qkd", "mu", "0.5"),
        ("qkd", "mu", math.inf),
        ("pulse", "seed", True),
        ("pulse", "seed", 1.0),
        ("output", "directory", Path("elsewhere")),
        ("qkd", "m_db_grid", [0.0, 5.0]),
        ("qkd", "m_db_grid", (0.0, "5")),
        ("budget", "components", "dwdm_c33"),
    ],
)
def test_with_value_rejects_wrongly_typed_values(section, key, value):
    with pytest.raises(ConfigError, match=rf"^{section}\.{key}: "):
        default_config().with_value(section, key, value)


def test_with_value_stores_values_as_a_parsed_config_would():
    cfg = default_config()
    for section, key, value, raw in [
        ("qkd", "mu", 1, "1"),
        ("qkd", "m_db_grid", (0, 5), "0, 5"),
        ("pulse", "seed", 7, "7"),
    ]:
        given = cfg.with_value(section, key, value)
        parsed = parse_config(f"[{section}]\n{key} = {raw}\n")
        assert given.get(section, key) == parsed.get(section, key)
        assert config_sha256(given) == config_sha256(parsed)
    assert type(cfg.with_value("qkd", "mu", 1).get("qkd", "mu")) is float


def test_grid_sizes_are_bounded():
    # in 1 km steps the grid reaches 99999 km, one step more is refused
    grid = "[qkd]\nm_db_grid = 0\ndistance_step_km = 1.0\ndistance_max_km = {!r}\n"
    largest = parse_config(grid.format(float(MAX_GRID_POINTS - 1)))
    assert len(build_distances_km(largest)) == MAX_GRID_POINTS
    with pytest.raises(ConfigError, match=r"^qkd\.distance_max_km: the distance grid"):
        parse_config(grid.format(float(MAX_GRID_POINTS)))
    for section, key, raw in [
        ("qkd", "distance_max_km", "1e300"),
        ("voltage_curve", "points", str(MAX_GRID_POINTS + 1)),
        ("pe_curve", "trace_points", str(MAX_GRID_POINTS + 1)),
    ]:
        with pytest.raises(ConfigError, match=rf"^{section}\.{key}: "):
            parse_config(f"[{section}]\n{key} = {raw}\n")
    # the finest declared step over the default 150 km
    with pytest.raises(ConfigError, match=r"^qkd\.distance_max_km: the distance grid"):
        parse_config("[qkd]\ndistance_step_km = 1e-3\n")


def test_sweep_rows_are_bounded():
    def sweep(magnifications, step_km, max_km=150.0):
        grid = ", ".join(str(float(m)) for m in range(magnifications))
        distances = f"distance_step_km = {step_km}\ndistance_max_km = {max_km}\n"
        return f"[qkd]\nm_db_grid = {grid}\n{distances}"

    # 2 x 50000 rows is the most a sweep may have; one distance more is refused
    largest = parse_config(sweep(2, 2.0, (MAX_GRID_POINTS // 2 - 1) * 2.0))
    assert len(build_distances_km(largest)) == MAX_GRID_POINTS // 2
    with pytest.raises(ConfigError, match=rf"^qkd\.m_db_grid: .* exceeds {MAX_GRID_POINTS} rows"):
        parse_config(sweep(2, 2.0, (MAX_GRID_POINTS // 2) * 2.0))
    # 1000 magnifications over 75001 distances
    with pytest.raises(ConfigError, match=r"^qkd\.m_db_grid: a sweep of 1000 magnifications"):
        parse_config(sweep(1000, 0.002))


def test_curve_verb_rows_are_bounded():
    def rows(cfg, section):
        return parse_config(cfg).values[section]

    # the default 8 pe-curve powers may have 12500 trace points each, not one more
    most = MAX_GRID_POINTS // 8
    assert rows(f"[pe_curve]\ntrace_points = {most}\n", "pe_curve")["trace_points"] == most
    with pytest.raises(ConfigError, match=r"^pe_curve\.powers_w: 8 traces .* 100000 rows"):
        parse_config(f"[pe_curve]\ntrace_points = {most + 1}\n")
    # the pristine curve plus the 5 default pre-treated ones, 16666 points each
    most = MAX_GRID_POINTS // 6
    assert rows(f"[voltage_curve]\npoints = {most}\n", "voltage_curve")["points"] == most
    with pytest.raises(ConfigError, match=r"^voltage_curve\.pretreat_voltages_v: 6 curves"):
        parse_config(f"[voltage_curve]\npoints = {most + 1}\n")
    # one curve of the largest grid leaves no room for a pre-treated one
    full = f"[voltage_curve]\npoints = {MAX_GRID_POINTS}\npretreat_voltages_v ="
    assert rows(full + "\n", "voltage_curve")["pretreat_voltages_v"] == ()
    with pytest.raises(ConfigError, match=r"^voltage_curve\.pretreat_voltages_v: 2 curves"):
        parse_config(full + " 20.0\n")


# each coupled or size constraint of a plan, refused by the plan itself
PLAN_VIOLATIONS = [
    (SweepPlan, {"m_db_grid": ()}, "m_db_grid: needs at least one magnification"),
    (SweepPlan, {"distance_min_km": 200.0}, "distance_max_km must be >= distance_min_km"),
    (SweepPlan, {"distance_step_km": 1e-3}, "distance_max_km: the distance grid .* points"),
    # the finest declared grid over the longest declared link: 1e8 + 1 points
    (SweepPlan, {"distance_max_km": 1e5, "distance_step_km": 1e-3}, "distance_max_km: the"),
    (SweepPlan, {"distance_max_km": 1e5}, "m_db_grid: a sweep of 5 magnifications .* 100000 rows"),
    (SweepPlan, {"m_search_low_db": 9.0}, "m_search_high_db must exceed m_search_low_db"),
    (SweepPlan, {"estimator": "magic"}, "estimator must be one of: decoy, single_photon_true"),
    (CurvePlan, {"v_min_v": 12.0}, "v_max_v must exceed v_min_v"),
    (CurvePlan, {"points": MAX_GRID_POINTS // 6 + 1}, "pretreat_voltages_v: 6 curves .* rows"),
    (PeCurvePlan, {"powers_w": ()}, "powers_w: needs at least one power"),
    (PeCurvePlan, {"trace_points": MAX_GRID_POINTS // 8 + 1}, "powers_w: 8 traces .* 100000 rows"),
]


@pytest.mark.parametrize(
    "plan, changes, message",
    PLAN_VIOLATIONS,
    ids=[f"{plan.__name__}-{'-'.join(changes)}" for plan, changes, _ in PLAN_VIOLATIONS],
)
def test_plans_refuse_coupled_and_oversized_values(plan, changes, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        plan(**changes)


@pytest.mark.parametrize(
    "section, key", [("pre_treat", "max_steps"), ("init", "max_steps"), ("pulse", "max_periods")]
)
def test_step_counts_are_bounded(section, key):
    assert parse_config(f"[{section}]\n{key} = {MAX_STEPS}\n").get(section, key) == MAX_STEPS
    for raw in (str(MAX_STEPS + 1), "1000000000000"):
        with pytest.raises(ConfigError, match=rf"^{section}\.{key}: must be in \[1, {MAX_STEPS}\]"):
            parse_config(f"[{section}]\n{key} = {raw}\n")


def test_hash_ignores_layout_but_not_values():
    a = parse_config("[qkd]\nmu = 0.9\n[device]\nv_pi_v = 5.0\n")
    b = parse_config("# comment\n[device]\nv_pi_v = 5.0\n\n[qkd]\nmu = 0.9\n")
    assert config_sha256(a) == config_sha256(b)
    c = parse_config("[qkd]\nmu = 0.91\n")
    assert config_sha256(a) != config_sha256(c)
    # the seed is part of the scenario identity
    assert config_sha256(a) != config_sha256(a.with_value("pulse", "seed", 2))


def test_hash_excludes_output_directory_only():
    cfg = default_config()
    moved = cfg.with_value("output", "directory", "elsewhere")
    assert config_sha256(cfg) == config_sha256(moved)
    # every other key is a line of the hashed text
    lines = canonical_text(cfg).splitlines()
    assert "output.directory" not in canonical_text(cfg)
    assert len(lines) == sum(map(len, cfg.values.values())) - 1


def test_component_sections():
    cfg = parse_config(
        "[component:splice]\n405_nm_db = 1.5\n532_nm_db = >3\n"
        "[budget]\ncomponents = splice, dwdm_c33\n"
    )
    assert path_loss(build_path(cfg), 405).db == pytest.approx(13.0 + 1.5 + 33.0)
    with pytest.raises(ConfigError, match="shadows a built-in"):
        parse_config("[component:isolator]\n405_nm_db = 1\n")
    with pytest.raises(ConfigError, match="component names"):
        parse_config("[component:Bad Name]\n405_nm_db = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[component:tap]\nloss = 1\n")
    with pytest.raises(ConfigError, match="at least one wavelength"):
        parse_config("[component:tap]\n")
    with pytest.raises(ConfigError, match="neither a number"):
        parse_config("[component:tap]\n405_nm_db = lots\n")


@pytest.mark.parametrize("raw", ["nan", "inf", ">nan", ">inf", "3001", ">3001"])
def test_component_losses_must_be_finite(raw):
    with pytest.raises(ConfigError, match=r"^component:foo\.405_nm_db: "):
        parse_config(f"[component:foo]\n405_nm_db = {raw}\n[budget]\ncomponents = foo\n")


def test_components_whose_losses_sum_past_3000_db_are_refused():
    # the launch power through them, 3e-9 W * 10 ** (3033 / 10), overflowed
    wall = "[component:wall]\n405_nm_db = 3000\n[budget]\nfiber_length_km = 0\ncomponents = wall"
    assert path_loss(build_path(parse_config(wall + "\n")), 405).db == 3000.0
    message = r"^budget\.components: their path loss must be in \[0, 3000\]$"
    with pytest.raises(ConfigError, match=message):
        parse_config(wall + ", dwdm_c33\n")


def test_coupling_scheme_joins_the_path():
    cfg = parse_config("[budget]\ncoupling_scheme = bs_5050\n")
    base = parse_config("")
    extra = path_loss(build_path(cfg), 405).db - path_loss(build_path(base), 405).db
    assert extra == pytest.approx(7.41)


def test_ini_round_trip_preserves_identity():
    cfg = parse_config(
        "[pulse]\ntarget_m_db = 22.5\nseed = 9\n"
        "[component:splice]\n405_nm_db = >2\n"
        "[budget]\ncomponents = splice\n"
    )
    again = parse_config(to_ini_text(cfg))
    assert config_sha256(again) == config_sha256(cfg)
    assert again.values == cfg.values
    assert again.components == cfg.components


def test_default_ini_lists_every_key_at_its_default():
    def significant(text):
        return [line for line in text.splitlines() if line.strip() and not line.startswith("#")]

    shipped = (CONFIGS / "default.ini").read_text()
    assert significant(shipped) == significant(to_ini_text(default_config()))


DEFAULT_SHA256 = "4fc5b89d53ac04a0b6de69d1fa12f4b50076125fd79c8a6e6df637ca72c0fbce"


@pytest.mark.parametrize(
    "name, digest",
    [
        (None, DEFAULT_SHA256),
        ("default.ini", DEFAULT_SHA256),
        ("pulse_hold_40db.ini", "9dd12965c2afa83870791596482edd23b00c80270a70972466297b3568a108df"),
    ],
)
def test_config_hashes_are_pinned(name, digest):
    """An int default where a float was, an Enum stored by name, or a key renamed or
    retired (``[material]`` now takes the lumped set in place of eight microscopic
    constants) moves these."""
    cfg = default_config() if name is None else load_config(CONFIGS / name)
    assert config_sha256(cfg) == digest


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config("/no/such/file.ini")


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text("[qkd]\nmu = 0.75\n")
    cfg = load_config(path)
    assert cfg.get("qkd", "mu") == 0.75


def test_builders_translate_failures_to_config_errors():
    with pytest.raises(ConfigError, match="geometry"):
        default_config().with_value("geometry", "electrode_length_m", 1.0)


@pytest.mark.parametrize(
    "build, section, elsewhere",
    [
        (build_geometry, "geometry", ("signal_wavelength_m",)),
        (build_controller, "pulse", ()),
        (build_scenario, "qkd", ()),
        (build_pretreat_plan, "pre_treat", ()),
    ],
    ids=["geometry", "pulse", "qkd", "pre_treat"],
)
def test_builders_feed_every_field_from_its_section(build, section, elsewhere):
    """A renamed key must fail here, not fall back to the dataclass default."""
    base = default_config()
    for field in dataclasses.fields(build(base)):
        if field.name in elsewhere:
            continue
        assert field.name in base.values[section], f"no {section}.{field.name} key"
        value = base.get(section, field.name)
        if isinstance(value, int):
            nudges = (value + 1,)
        else:
            nudges = (math.nextafter(value, -math.inf), math.nextafter(value, math.inf))
        for nudged in nudges:  # the first one that stays in range
            try:
                built = build(base.with_value(section, field.name, nudged))
            except ConfigError:
                continue
            assert getattr(built, field.name) == nudged, f"{section}.{field.name}"
            break
        else:
            pytest.fail(f"{section}.{field.name}: no nudged value is valid")
    geo = build_geometry(base)
    assert geo.signal_wavelength_m == base.get("geometry", "signal_wavelength_nm") / 1e9


def test_the_material_builder_feeds_every_argument_of_the_split():
    """A renamed key must fail here, not fall back to the split's default."""
    base = default_config()
    assert list(base.values["material"]) == list(inspect.signature(default_material).parameters)
    assert build_material(base) == default_material()
    for key, value in base.values["material"].items():
        doubled = 2 * value
        built = build_material(base.with_value("material", key, doubled))
        assert built == default_material(**{key: doubled}) != default_material(), key


def test_the_material_builder_refuses_a_split_argument_by_its_key():
    with pytest.raises(ConfigError, match=r"^material\.dark_relaxation_s: must be in \["):
        default_config().with_value("material", "dark_relaxation_s", 1e11)
    with pytest.raises(ConfigError, match=r"^material\.crossover_power_w: must be in \["):
        default_config().with_value("material", "crossover_power_w", 2.0)


def test_pretreat_plan_builder():
    cfg = parse_config("[pre_treat]\nv_app_v = -15\ni_ir_w = 1e-5\n")
    plan = build_pretreat_plan(cfg)
    assert plan.v_app_v == -15.0 and plan.i_ir_w == 1e-5


def test_distance_grid_matches_the_default_sweep():
    grid = build_distances_km(default_config())
    assert len(grid) == 76
    assert grid[0] == 0.0 and grid[-1] == 150.0
    assert grid[1] - grid[0] == pytest.approx(2.0)


# extreme finite values, and both zeros, for the walk over every float key
EXTREMES = ("1e308", "-1e308", "1e300", "-1e300", "1e-300", "5e-324", "0", "-0.0")


def test_an_extreme_float_value_is_accepted_or_is_a_config_error():
    """Every float key, a float list a one-entry list, at each of ``EXTREMES``."""
    escaped = []
    for section, keys in _schema().items():
        for key, spec in keys.items():
            if type(spec.default) is not float and not (
                type(spec.default) is tuple and type(spec.default[0]) is float
            ):
                continue
            for raw in EXTREMES:
                try:
                    parse_config(f"[{section}]\n{key} = {raw}\n")
                except ConfigError:
                    pass
                except Exception as exc:  # any other escape is the failure
                    escaped.append(f"{section}.{key} = {raw}: {exc!r}")
    assert escaped == []


@pytest.mark.parametrize(
    "key, raw", [("working_point_v", "1e308"), ("working_point_v", "-1e308"), ("v_pi_v", "5e-324")]
)
def test_a_working_point_bias_that_overflows_is_refused_by_its_key(tmp_path, capsys, key, raw):
    path = tmp_path / "bias.ini"
    path.write_text(f"[device]\n{key} = {raw}\n")
    assert main(["--dry-run", "budget", "--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: device.{key}: ")
