"""Config parsing: total schema, canonical hashing, object builders."""

import dataclasses
import math
import re
from pathlib import Path

import pytest

from ipasim.calibration import default_device
from ipasim.config import (
    MAX_GRID_POINTS,
    MAX_STEPS,
    ConfigError,
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
from ipasim.budget import path_loss

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"

# one out-of-range value per range-checked key of the dataclass-backed sections
OUT_OF_RANGE = [
    *(("material", key, "-1") for key in (
        "refractive_index", "r33_m_per_v", "mode_overlap", "photovoltaic_const",
        "absorption_per_m", "photocond_per_w", "dark_conductivity_s_per_m",
        "rel_permittivity", "crossover_power_w",
    )),
    ("material", "sublinear_exponent", "0"),
    *(("geometry", key, "-1") for key in (
        "arm_length_m", "electrode_length_m", "electrode_gap_m", "effective_length_m",
        "signal_wavelength_nm", "irradiation_wavelength_nm",
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
    ("qkd", "n_trunc", "10"),
    ("qkd", "m_db_grid", "-1"),
    ("qkd", "distance_min_km", "-1"),
    ("qkd", "distance_max_km", "-1"),
    ("qkd", "distance_step_km", "0"),
    ("qkd", "m_search_low_db", "-1"),
    ("qkd", "m_search_high_db", "-1"),
    ("qkd", "threshold_tol_db", "0"),
    ("qkd", "estimator", "magic"),
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
    assert cfg.get("output", "svg") is False


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
    with pytest.raises(ConfigError, match="device: v_pi_v must be positive"):
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
    with pytest.raises(ConfigError, match="coupling schemes"):
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
    for section in ("material", "geometry", "device", "pre_treat", "pulse", "qkd"):
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


def test_with_value_checks_and_copies():
    cfg = default_config()
    bumped = cfg.with_value("pulse", "seed", 42)
    assert bumped.get("pulse", "seed") == 42
    assert cfg.get("pulse", "seed") == 1  # original untouched
    with pytest.raises(ConfigError, match="unknown key"):
        cfg.with_value("pulse", "sead", 42)
    with pytest.raises(ConfigError, match="must be >= 0"):
        cfg.with_value("pulse", "seed", -1)


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("qkd", "mu", "0.5"),
        ("qkd", "mu", math.inf),
        ("pulse", "seed", True),
        ("pulse", "seed", 1.0),
        ("output", "svg", 1),
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
        ("output", "svg", True, "true"),
    ]:
        given = cfg.with_value(section, key, value)
        parsed = parse_config(f"[{section}]\n{key} = {raw}\n")
        assert given.get(section, key) == parsed.get(section, key)
        assert config_sha256(given) == config_sha256(parsed)
    assert type(cfg.with_value("qkd", "mu", 1).get("qkd", "mu")) is float


def test_grid_sizes_are_bounded():
    step = default_config().get("qkd", "distance_step_km")
    largest = parse_config(
        f"[qkd]\nm_db_grid = 0\ndistance_max_km = {(MAX_GRID_POINTS - 1) * step!r}\n"
    )
    assert len(build_distances_km(largest)) == MAX_GRID_POINTS
    for section, key, raw in [
        ("qkd", "distance_max_km", repr(MAX_GRID_POINTS * step)),
        ("qkd", "distance_max_km", "1e300"),
        ("voltage_curve", "points", str(MAX_GRID_POINTS + 1)),
        ("pe_curve", "trace_points", str(MAX_GRID_POINTS + 1)),
    ]:
        with pytest.raises(ConfigError, match=rf"^{section}\.{key}: "):
            parse_config(f"[{section}]\n{key} = {raw}\n")
    with pytest.raises(ConfigError, match=r"^qkd\.distance_max_km: "):
        parse_config("[qkd]\ndistance_step_km = 1e-300\n")


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
    assert "output.directory" not in canonical_text(cfg)
    assert "output.svg" in canonical_text(cfg)
    svg = cfg.with_value("output", "svg", True)
    assert config_sha256(cfg) != config_sha256(svg)


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


DEFAULT_SHA256 = "f9f17e46dfb0642d6999a9648ea028617026ccf517df238ae93dd3ea49b7ab0a"


@pytest.mark.parametrize(
    "name, digest",
    [
        (None, DEFAULT_SHA256),
        ("default.ini", DEFAULT_SHA256),
        ("pulse_hold_40db.ini", "bbd9201376672cb462f1d189c669ff38df4b36a87e617ec226287a06472c1edf"),
    ],
)
def test_config_hashes_are_pinned(name, digest):
    """An int default where a float was, or an Enum stored by name, moves these."""
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
        (build_material, "material", ()),
        (build_geometry, "geometry", ("signal_wavelength_m", "irradiation_wavelength_m")),
        (build_controller, "pulse", ()),
        (build_scenario, "qkd", ("distance_km",)),
        (build_pretreat_plan, "pre_treat", ()),
    ],
    ids=["material", "geometry", "pulse", "qkd", "pre_treat"],
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
    assert geo.irradiation_wavelength_m == 405e-9


def test_pretreat_plan_builder():
    cfg = parse_config("[pre_treat]\nv_app_v = -15\ni_ir_w = 1e-5\n")
    plan = build_pretreat_plan(cfg)
    assert plan.v_app_v == -15.0 and plan.i_ir_w == 1e-5


def test_distance_grid_matches_the_default_sweep():
    grid = build_distances_km(default_config())
    assert len(grid) == 76
    assert grid[0] == 0.0 and grid[-1] == 150.0
    assert grid[1] - grid[0] == pytest.approx(2.0)
