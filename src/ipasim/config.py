"""Scenario configuration: flat-sectioned INI with a total schema.

Every tunable of the simulator lives under one typed, unit-suffixed key
(``_w``, ``_db``, ``_s``, ``_nm``, ...).  A section backed by a domain
dataclass takes its keys from the dataclass fields: a key's default is the
field's value on the calibrated default instance, its parser follows the type
of that value, and the range the dataclass declares for the field is its only
range check.  Keys no dataclass owns are declared here with their defaults and
ranges, checked by the same rule (``ipasim._ranges``).  A config is accepted
only if every section and key is known, every value parses and passes its
checks, and every domain object builds from it; each error names the section
and the key.  Defaults reproduce the calibrated bench device, so an empty
file, or no file at all, is already a complete scenario.

The canonical serialization (sorted ``section.key = value`` lines with
shortest round-trip float formatting) feeds the run hash.  The output
directory is deliberately excluded from the hash: where results land is not
part of the scenario's identity, and the determinism guarantee (same hash,
same CSV bytes) is expected to hold across different output directories.

User-defined budget components get their own ``[component:<name>]`` sections
whose keys are ``<wavelength>_nm_db`` entries; values are plain dB numbers or
instrument-floor strings like ``>78``.
"""

from __future__ import annotations

import hashlib
import math
import re
from configparser import ConfigParser
from configparser import Error as IniError
from dataclasses import dataclass, fields, replace
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import Callable, Mapping, Optional, Union

from . import budget as budget_mod
from . import calibration
from ._ranges import Interval, interval
from .attack import PreTreatmentPlan, PulseController
from .budget import ComponentLoss, InjectionPath, LossValue, parse_loss_entry
from .device import MziDevice
from .photorefractive import DecayMode, GeometryParams, MaterialParams
from .security import ESTIMATORS, QkdScenario


class ConfigError(ValueError):
    """Anything wrong with a scenario config; messages carry the key path."""


# Most points any grid read from a config may have (distances, voltage-curve
# points, trace points, and the rows of a sweep or of all the traces or curves
# a curve verb makes): enough for any plot, small enough to stay in memory.
MAX_GRID_POINTS = 100_000
# Most steps a saturation run, or periods a pulse loop, may take: each one is
# a trace row.
MAX_STEPS = 1_000_000


# -- value parsing -----------------------------------------------------------------


def _parse_float(raw: str, path: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{path}: expected a number, got {raw!r}") from None
    return value


def _parse_int(raw: str, path: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{path}: expected an integer, got {raw!r}") from None


def _parse_bool(raw: str, path: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"{path}: expected true or false, got {raw!r}")


def _parse_str(raw: str, path: str) -> str:
    return raw.strip()


def _parse_float_list(raw: str, path: str) -> tuple[float, ...]:
    items = [s.strip() for s in raw.split(",")]
    if items == [""]:
        return ()
    return tuple(_parse_float(s, path) for s in items)


def _parse_str_list(raw: str, path: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in raw.split(",") if s.strip())


@dataclass(frozen=True)
class _Key:
    default: object
    parse: Callable[[str, str], object]
    allowed: Optional[Interval] = None  # of every entry, for a tuple
    options: tuple[str, ...] = ()


# keyed by exact type, so a bool default never parses as an int
_PARSERS: dict[type, Callable[[str, str], object]] = {
    bool: _parse_bool,
    int: _parse_int,
    float: _parse_float,
    str: _parse_str,
}


def _typed(default: object, value: object, path: str) -> object:
    """``value`` as the type of ``default``, the way a parsed value would be.

    A bool never passes for an int; an int for a float is stored as a float.
    """
    if isinstance(default, tuple):
        if not isinstance(value, tuple):
            raise ConfigError(f"{path}: expected a tuple, got {type(value).__name__}")
        return tuple(_typed(default[0], item, path) for item in value)
    kind = type(default)
    accepted = (int, float) if kind is float else kind
    if not isinstance(value, accepted) or (isinstance(value, bool) and kind is not bool):
        raise ConfigError(f"{path}: expected {kind.__name__}, got {type(value).__name__}")
    return kind(value)


def _key(default: object, allowed: Optional[str] = None, options: tuple[str, ...] = ()) -> _Key:
    """A key parsed as its default is typed, in ``allowed`` or among ``options``."""
    if isinstance(default, tuple):
        parse = _parse_float_list if isinstance(default[0], float) else _parse_str_list
    else:
        parse = _PARSERS[type(default)]
    if allowed is None and parse in (_parse_float, _parse_float_list):
        allowed = "(-inf, inf)"
    return _Key(default, parse, None if allowed is None else interval(allowed), options)


# -- schema ---------------------------------------------------------------------

_COMPONENT_SECTION = re.compile(r"component:([a-z][a-z0-9_]*)")
_COMPONENT_KEY = re.compile(r"(\d+)_nm_db")


def _fields_of(instance: object, *elsewhere: str) -> dict[str, _Key]:
    """One key per field of the dataclass ``instance``, in field order.

    The default is the instance's value; an ``Enum`` becomes a choice of its
    values and is stored as the value.  The range check is the dataclass's
    own, made when the section's builder constructs it.  ``elsewhere`` names
    the fields the section spells differently or not at all.
    """
    keys = {}
    for f in fields(instance):
        if f.name in elsewhere:
            continue
        value = getattr(instance, f.name)
        if isinstance(value, Enum):
            keys[f.name] = _key(value.value, options=tuple(m.value for m in type(value)))
        else:
            keys[f.name] = _key(value)
    return keys


@lru_cache(maxsize=None)
def _schema() -> dict[str, dict[str, _Key]]:
    # Material and geometry defaults are the fitted bench calibration; any key
    # can be overridden individually without retriggering the fit.
    geo = calibration.default_geometry()
    return {
        "material": _fields_of(calibration.default_material()),
        "geometry": {
            **_fields_of(geo, "signal_wavelength_m", "irradiation_wavelength_m"),
            "signal_wavelength_nm": _key(geo.signal_wavelength_m * 1e9, "(0, inf)"),
            "irradiation_wavelength_nm": _key(geo.irradiation_wavelength_m * 1e9, "(0, inf)"),
        },
        "device": {
            **_fields_of(
                calibration.default_device(),
                "material", "geometry", "bias_phase_rad", "field1_v_per_m", "field2_v_per_m",
            ),
            "working_point_v": _key(calibration.WORKING_POINT_V),
            "residual_bias_rad": _key(calibration.RESIDUAL_BIAS_RAD, "(0, pi)"),
        },
        "pe_curve": {
            "powers_w": _key((3e-9, 3e-8, 3e-7, 1e-6, 3e-6, 6.26e-6, 1.2e-5, 2e-5), "(0, inf)"),
            "trace_points": _key(200, f"[2, {MAX_GRID_POINTS}]"),
            "trace_duration_tau": _key(5.0, "(0, inf)"),
        },
        "voltage_curve": {
            "v_min_v": _key(-12.0),
            "v_max_v": _key(12.0),
            "points": _key(481, f"[2, {MAX_GRID_POINTS}]"),
            "pretreat_voltages_v": _key((-20.0, -15.0, 0.0, 15.0, 20.0)),
            "pretreat_power_w": _key(12e-6, "[0, inf)"),
        },
        "pre_treat": {
            **_fields_of(PreTreatmentPlan()),
            "dt_s": _key(60.0, "(0, inf)"),
            "max_steps": _key(100_000, f"[1, {MAX_STEPS}]"),
        },
        "init": {
            "power_w": _key(4.39e-6, "(0, inf)"),
            "saturation_epsilon": _key(1e-6, "(0, 0.1)"),
            "dt_s": _key(60.0, "(0, inf)"),
            "max_steps": _key(200_000, f"[1, {MAX_STEPS}]"),
        },
        "pulse": {
            **_fields_of(PulseController(target_m_db=30.0)),
            "max_periods": _key(2000, f"[1, {MAX_STEPS}]"),
            "hold_periods": _key(0, "[0, inf)"),
            "seed": _key(1, "[0, inf)"),
        },
        "qkd": {
            **_fields_of(QkdScenario(), "distance_km"),
            "m_db_grid": _key((0.0, 4.0, 5.0, 6.0, 6.5), "[0, inf)"),
            "distance_min_km": _key(0.0, "[0, inf)"),
            "distance_max_km": _key(150.0, "[0, inf)"),
            "distance_step_km": _key(2.0, "(0, inf)"),
            "m_search_low_db": _key(4.0, "[0, inf)"),
            "m_search_high_db": _key(9.0, "[0, inf)"),
            "threshold_tol_db": _key(1e-3, "(0, inf)"),
            "estimator": _key("decoy", options=ESTIMATORS),
        },
        "budget": {
            "wavelength_nm": _key(405, "(0, inf)"),
            "fiber_length_km": _key(1.0, "[0, inf)"),
            "components": _key(("dwdm_c33",)),
            "coupling_scheme": _key("none", options=("none", *sorted(budget_mod.COUPLING_SCHEMES))),
            "target_power_w": _key(3e-9, "(0, inf)"),
            "eve_max_power_w": _key(1.0, "(0, inf)"),
        },
        "output": {
            "directory": _key("ipasim-out"),
            "svg": _key(False),
        },
    }


# -- config object ----------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario: schema values plus user-defined budget components."""

    values: Mapping[str, Mapping[str, object]]
    components: Mapping[str, Mapping[int, LossValue]]

    def get(self, section: str, key: str) -> object:
        return self.values[section][key]

    def with_value(self, section: str, key: str, value: object) -> "ScenarioConfig":
        """Copy with one override, validated like a parsed config (used for
        CLI flag merging)."""
        spec = _schema().get(section, {}).get(key)
        if spec is None:
            raise ConfigError(f"{section}.{key}: unknown key")
        values = {s: dict(kv) for s, kv in self.values.items()}
        values[section][key] = _typed(spec.default, value, f"{section}.{key}")
        return _validate(ScenarioConfig(values, self.components))


def default_config() -> ScenarioConfig:
    return parse_config("")


def parse_config(text: str) -> ScenarioConfig:
    parser = ConfigParser(interpolation=None, strict=True)
    parser.optionxform = str  # keys are case-sensitive, all lowercase
    try:
        parser.read_string(text)
    except IniError as exc:
        raise ConfigError(f"config syntax: {exc}") from None
    if parser.defaults():
        raise ConfigError("a [DEFAULT] section is not supported")

    schema = _schema()
    values = {s: {k: spec.default for k, spec in keys.items()} for s, keys in schema.items()}
    components: dict[str, dict[int, LossValue]] = {}

    for section in parser.sections():
        if section.startswith("component:"):
            match = _COMPONENT_SECTION.fullmatch(section)
            if match is None:
                raise ConfigError(
                    f"[{section}]: component names must match [a-z][a-z0-9_]*"
                )
            name = match.group(1)
            if name in budget_mod.BUILTIN_COMPONENTS:
                raise ConfigError(f"[{section}]: '{name}' shadows a built-in component")
            entries: dict[int, LossValue] = {}
            for key, raw in parser.items(section):
                key_match = _COMPONENT_KEY.fullmatch(key)
                if key_match is None:
                    raise ConfigError(
                        f"{section}.{key}: unknown key (expected '<wavelength>_nm_db')"
                    )
                try:
                    entries[int(key_match.group(1))] = parse_loss_entry(raw.strip())
                except ValueError as exc:
                    raise ConfigError(f"{section}.{key}: {exc}") from None
            if not entries:
                raise ConfigError(f"[{section}]: needs at least one wavelength entry")
            components[name] = entries
            continue
        if section not in schema:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            spec = schema[section].get(key)
            if spec is None:
                raise ConfigError(f"{section}.{key}: unknown key")
            values[section][key] = spec.parse(raw, f"{section}.{key}")

    return _validate(ScenarioConfig(values, components))


def load_config(path: Union[str, Path]) -> ScenarioConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)


def _validate(cfg: ScenarioConfig) -> ScenarioConfig:
    """``cfg`` if it is a runnable scenario, else the first ``ConfigError``.

    Every key's range or options come first, then the constraints that couple
    keys, then the builders, whose dataclasses range-check the keys they own.
    """
    for section, keys in _schema().items():
        for key, spec in keys.items():
            value = cfg.values[section][key]
            if spec.options and value not in spec.options:
                raise ConfigError(f"{section}.{key}: must be one of: {', '.join(spec.options)}")
            entries = value if isinstance(value, tuple) else (value,)
            if spec.allowed is not None and not all(map(spec.allowed.holds, entries)):
                every = "every entry " if isinstance(value, tuple) else ""
                raise ConfigError(f"{section}.{key}: {every}{spec.allowed.message}")

    vc = cfg.values["voltage_curve"]
    if not vc["v_max_v"] > vc["v_min_v"]:
        raise ConfigError("voltage_curve.v_max_v: must exceed v_min_v")
    qkd = cfg.values["qkd"]
    if not qkd["distance_max_km"] >= qkd["distance_min_km"]:
        raise ConfigError("qkd.distance_max_km: must be >= distance_min_km")
    # build_distances_km makes int(span + 1e-9) + 1 points
    span = (qkd["distance_max_km"] - qkd["distance_min_km"]) / qkd["distance_step_km"]
    if span + 1e-9 >= MAX_GRID_POINTS:
        raise ConfigError(
            f"qkd.distance_max_km: the distance grid from distance_min_km in "
            f"distance_step_km steps exceeds {MAX_GRID_POINTS} points"
        )
    if len(qkd["m_db_grid"]) * (int(span + 1e-9) + 1) > MAX_GRID_POINTS:
        raise ConfigError(
            f"qkd.m_db_grid: a sweep of {len(qkd['m_db_grid'])} magnifications over the "
            f"distance grid exceeds {MAX_GRID_POINTS} rows"
        )
    if not qkd["m_search_high_db"] > qkd["m_search_low_db"]:
        raise ConfigError("qkd.m_search_high_db: must exceed m_search_low_db")
    pe = cfg.values["pe_curve"]
    if not pe["powers_w"]:
        raise ConfigError("pe_curve.powers_w: needs at least one power")
    if len(pe["powers_w"]) * pe["trace_points"] > MAX_GRID_POINTS:
        raise ConfigError(
            f"pe_curve.powers_w: {len(pe['powers_w'])} traces of trace_points "
            f"{pe['trace_points']} exceed {MAX_GRID_POINTS} rows"
        )
    curves = len(vc["pretreat_voltages_v"]) + 1  # the pristine curve too
    if curves * vc["points"] > MAX_GRID_POINTS:
        raise ConfigError(
            f"voltage_curve.pretreat_voltages_v: {curves} curves of points "
            f"{vc['points']} exceed {MAX_GRID_POINTS} rows"
        )
    if not qkd["m_db_grid"]:
        raise ConfigError("qkd.m_db_grid: needs at least one magnification")

    b = cfg.values["budget"]
    wavelength = int(b["wavelength_nm"])
    if b["fiber_length_km"] > 0 and wavelength not in budget_mod.BUILTIN_FIBER_DB_PER_KM:
        known = ", ".join(str(w) for w in sorted(budget_mod.BUILTIN_FIBER_DB_PER_KM))
        raise ConfigError(
            f"budget.wavelength_nm: no fiber loss data at {wavelength} nm (known: {known})"
        )
    catalog = set(budget_mod.BUILTIN_COMPONENTS) | set(cfg.components)
    for name in b["components"]:
        if name not in catalog:
            raise ConfigError(
                f"budget.components: unknown component '{name}' "
                f"(known: {', '.join(sorted(catalog))})"
            )
        entries = cfg.components.get(name)
        has_wl = wavelength in entries if entries is not None else (
            wavelength in budget_mod.BUILTIN_COMPONENTS[name].loss_db
        )
        if not has_wl:
            raise ConfigError(
                f"budget.components: '{name}' has no loss entry at {wavelength} nm"
            )
    if b["coupling_scheme"] != "none" and wavelength != 405:
        raise ConfigError(
            "budget.coupling_scheme: coupling schemes are specified at 405 nm only"
        )

    build_device(cfg)
    build_controller(cfg)
    build_scenario(cfg)
    build_pretreat_plan(cfg)
    build_path(cfg)
    return cfg


# -- canonical serialization and hashing ------------------------------------------


def _canon_value(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, tuple):
        return ", ".join(_canon_value(v) for v in value)
    if isinstance(value, LossValue):
        return (">" if value.lower_bound else "") + repr(value.db)
    return str(value)


def canonical_text(cfg: ScenarioConfig) -> str:
    """Sorted one-line-per-key rendering; the hash input.

    ``output.directory`` is excluded on purpose: run placement is not part of
    the scenario identity.
    """
    lines = []
    for section in sorted(cfg.values):
        for key in sorted(cfg.values[section]):
            if section == "output" and key == "directory":
                continue
            lines.append(f"{section}.{key} = {_canon_value(cfg.values[section][key])}")
    for name in sorted(cfg.components):
        for wavelength, loss in sorted(cfg.components[name].items()):
            lines.append(f"component:{name}.{wavelength}_nm_db = {_canon_value(loss)}")
    return "\n".join(lines) + "\n"


def config_sha256(cfg: ScenarioConfig) -> str:
    return hashlib.sha256(canonical_text(cfg).encode("ascii")).hexdigest()


def to_ini_text(cfg: ScenarioConfig) -> str:
    """Round-trippable INI rendering of the full effective config."""
    chunks = []
    for section, keys in cfg.values.items():
        chunks.append(f"[{section}]")
        chunks.extend(f"{key} = {_canon_value(value)}" for key, value in keys.items())
        chunks.append("")
    for name in sorted(cfg.components):
        chunks.append(f"[component:{name}]")
        for wavelength, loss in sorted(cfg.components[name].items()):
            chunks.append(f"{wavelength}_nm_db = {_canon_value(loss)}")
        chunks.append("")
    return "\n".join(chunks)


# -- domain object builders --------------------------------------------------------


def _build(cls, section: str, cfg: ScenarioConfig, **explicit: object):
    """``cls`` from the ``section`` values whose keys name its fields.

    ``explicit`` supplies fields the section spells differently or not at all.
    """
    names = {f.name for f in fields(cls)}
    matched = {k: v for k, v in cfg.values[section].items() if k in names}
    try:
        return cls(**{**matched, **explicit})
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from None


def build_material(cfg: ScenarioConfig) -> MaterialParams:
    return _build(MaterialParams, "material", cfg)


def build_geometry(cfg: ScenarioConfig) -> GeometryParams:
    g = cfg.values["geometry"]
    # divide instead of multiplying by 1e-9 so defaults land on the same
    # float as literals like 1550e-9
    return _build(
        GeometryParams,
        "geometry",
        cfg,
        signal_wavelength_m=g["signal_wavelength_nm"] / 1e9,
        irradiation_wavelength_m=g["irradiation_wavelength_nm"] / 1e9,
    )


def build_device(cfg: ScenarioConfig) -> MziDevice:
    d = cfg.values["device"]
    # built at zero bias first: the working-point bias divides by v_pi_v,
    # which this build range-checks
    device = _build(
        MziDevice,
        "device",
        cfg,
        material=build_material(cfg),
        geometry=build_geometry(cfg),
        bias_phase_rad=0.0,
        decay_mode=DecayMode(d["decay_mode"]),
    )
    wp_phase = 2.0 * math.pi * d["working_point_v"] / device.v_pi_v
    return replace(device, bias_phase_rad=math.pi + d["residual_bias_rad"] - wp_phase)


def working_point_v(cfg: ScenarioConfig) -> float:
    return float(cfg.get("device", "working_point_v"))


def build_pretreat_plan(cfg: ScenarioConfig) -> PreTreatmentPlan:
    return _build(PreTreatmentPlan, "pre_treat", cfg)


def build_controller(cfg: ScenarioConfig) -> PulseController:
    return _build(PulseController, "pulse", cfg)


def build_scenario(cfg: ScenarioConfig) -> QkdScenario:
    return _build(QkdScenario, "qkd", cfg)


def build_distances_km(cfg: ScenarioConfig) -> tuple[float, ...]:
    q = cfg.values["qkd"]
    lo, hi, step = q["distance_min_km"], q["distance_max_km"], q["distance_step_km"]
    count = int((hi - lo) / step + 1e-9) + 1
    return tuple(lo + i * step for i in range(count))


def build_path(cfg: ScenarioConfig) -> InjectionPath:
    b = cfg.values["budget"]
    extras = {
        name: ComponentLoss(name, dict(entries))
        for name, entries in cfg.components.items()
    }
    path = budget_mod.standard_path(b["fiber_length_km"], b["components"], extras)
    scheme = b["coupling_scheme"]
    if scheme != "none":
        loss = budget_mod.coupling_plan_loss(scheme)
        coupler = ComponentLoss(
            f"coupling:{scheme}", {405: LossValue(loss.irradiation_loss_405_db)}
        )
        path = path.concat(InjectionPath(components=(coupler,)))
    return path
