"""Config parsing: total schema, canonical hashing, object builders."""

import dataclasses
import math

import pytest

from ipasim.calibration import default_device
from ipasim.config import (
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
    with pytest.raises(ConfigError, match="device.v_pi_v: must be > 0"):
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
    with pytest.raises(ConfigError, match="qkd.nu"):
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


def test_with_value_checks_and_copies():
    cfg = default_config()
    bumped = cfg.with_value("pulse", "seed", 42)
    assert bumped.get("pulse", "seed") == 42
    assert cfg.get("pulse", "seed") == 1  # original untouched
    with pytest.raises(ConfigError, match="unknown key"):
        cfg.with_value("pulse", "sead", 42)
    with pytest.raises(ConfigError, match="must be >= 0"):
        cfg.with_value("pulse", "seed", -1)


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


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config("/no/such/file.ini")


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text("[qkd]\nmu = 0.75\n")
    cfg = load_config(path)
    assert cfg.get("qkd", "mu") == 0.75


def test_builders_translate_failures_to_config_errors():
    cfg = default_config().with_value("geometry", "electrode_length_m", 1.0)
    with pytest.raises(ConfigError, match="geometry"):
        build_device(cfg)


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
