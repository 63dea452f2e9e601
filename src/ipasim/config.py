"""Scenario configuration: flat-sectioned INI with a total schema.

Every tunable of the simulator lives under one typed, unit-suffixed key
(``_w``, ``_db``, ``_s``, ``_nm``, ...).  A section backed by a domain
dataclass or a plan takes its keys from the dataclass fields: a key's default
is the field's value on the calibrated default instance, its parser follows
the type of that value, and the dataclass's own checks (the range it declares
for each field, the constraints that couple fields, the sizes it bounds) are
the key's only checks.  The plans sit beside the code that runs them:
``[qkd]``'s grids and search in ``security.SweepPlan``, ``[voltage_curve]`` in
``device.CurvePlan`` and ``[pe_curve]`` in ``attack.PeCurvePlan``.  A key that
is an argument of a runner (the ``dt_s`` of ``attack.pre_treat``, say) takes
its default from the runner's signature and its range from the runner's
declaration, ``attack.RUN_ARGUMENTS``.  Other keys declare both here, checked by
the same rule (``ipasim._ranges``).  A config is accepted only if every section
and key is known, every value parses and passes its checks, and every domain
object builds from it; each error names the section and the key.
Defaults reproduce the calibrated bench device, so an empty file, or no file
at all, is already a complete scenario.

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
import inspect
import re
from configparser import ConfigParser
from configparser import Error as IniError
from dataclasses import fields, replace
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Optional, Union

from . import attack
from . import budget as budget_mod
from . import calibration
from ._ranges import Interval, interval
from .attack import PeCurvePlan, PreTreatmentPlan, PulseController
from .budget import ComponentLoss, InjectionPath, LossValue, parse_loss_entry
from .device import CurvePlan, MziDevice
from .photorefractive import DecayMode, GeometryParams, MaterialParams
from .security import QkdScenario, SweepPlan


class ConfigError(ValueError):
    """Anything wrong with a scenario config; messages carry the key path."""


# -- value parsing -----------------------------------------------------------------


def _parse_float(raw: str, path: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{path}: expected a number, got {raw!r}") from None


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


class _Key(NamedTuple):
    default: object
    parse: Callable[[str, str], object]
    allowed: Optional[Interval] = None
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
    return _Key(default, parse, None if allowed is None else interval(allowed), options)


# -- schema ---------------------------------------------------------------------

# keys earlier schemas had, refused with what became of each one's quantity
# rather than as unknown keys
_RETIRED = {
    "geometry.effective_length_m": "retired key, nothing read it",
    "geometry.irradiation_wavelength_nm": "retired key, budget.wavelength_nm prices the injection",
    "voltage_curve.pretreat_power_w": "retired key, pre_treat.i_ir_w sets the pre-treatment power",
}

_COMPONENT_SECTION = re.compile(r"component:([a-z][a-z0-9_]*)")
_COMPONENT_KEY = re.compile(r"(\d+)_nm_db")


def _fields_of(instance: object, *elsewhere: str) -> dict[str, _Key]:
    """One key per field of the dataclass ``instance``, in field order.

    The default is the instance's value; an ``Enum`` becomes a choice of its
    values and is stored as the value.  The key declares no range: its checks
    are the dataclass's own, made when the section's builder constructs it.
    ``elsewhere`` names the fields the section spells differently or not at all.
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


def _arguments_of(function: Callable, *names: str) -> dict[str, _Key]:
    """One key per named argument of ``function``, in the order named: its default is
    the argument's, its range the one ``attack.RUN_ARGUMENTS`` declares, which it checks."""
    arguments = inspect.signature(function).parameters
    return {name: _key(arguments[name].default, attack.RUN_ARGUMENTS[name]) for name in names}


@lru_cache(maxsize=None)
def _schema() -> dict[str, dict[str, _Key]]:
    # Material and geometry defaults are the fitted bench calibration; any key
    # can be overridden individually without retriggering the fit.
    geo = calibration.default_geometry()
    return {
        "material": _fields_of(calibration.default_material()),
        "geometry": {
            **_fields_of(geo, "signal_wavelength_m"),
            "signal_wavelength_nm": _key(geo.signal_wavelength_m * 1e9, "(0, inf)"),
        },
        "device": {
            **_fields_of(
                calibration.default_device(),
                "material", "geometry", "bias_phase_rad", "field1_v_per_m", "field2_v_per_m",
            ),
            "working_point_v": _key(calibration.WORKING_POINT_V, "(-inf, inf)"),
            "residual_bias_rad": _key(calibration.RESIDUAL_BIAS_RAD, "(0, pi)"),
        },
        "pe_curve": _fields_of(PeCurvePlan()),
        "voltage_curve": _fields_of(CurvePlan()),
        "pre_treat": {
            **_fields_of(PreTreatmentPlan()),
            **_arguments_of(attack.pre_treat, "dt_s", "max_steps"),
        },
        "init": _arguments_of(
            attack.initialize_device, "power_w", "saturation_epsilon", "dt_s", "max_steps"
        ),
        "pulse": {
            **_fields_of(PulseController(target_m_db=30.0)),
            **_arguments_of(attack.pulse_inject_to_target, "max_periods", "hold_periods"),
            "seed": _key(1, "[0, inf)"),
        },
        "qkd": {**_fields_of(QkdScenario()), **_fields_of(SweepPlan())},
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


class ScenarioConfig(NamedTuple):
    """Validated scenario: schema values plus user-defined budget components."""

    values: Mapping[str, Mapping[str, object]]
    components: Mapping[str, Mapping[int, LossValue]]

    def get(self, section: str, key: str) -> object:
        return self.values[section][key]

    def with_value(self, section: str, key: str, value: object) -> "ScenarioConfig":
        """Copy with one override, validated like a parsed config (used for
        CLI flag merging)."""
        spec, path = _schema().get(section, {}).get(key), f"{section}.{key}"
        if spec is None:
            raise ConfigError(f"{path}: {_RETIRED.get(path, 'unknown key')}")
        values = {s: dict(kv) for s, kv in self.values.items()}
        values[section][key] = _typed(spec.default, value, path)
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
            spec, path = schema[section].get(key), f"{section}.{key}"
            if spec is None:
                raise ConfigError(f"{path}: {_RETIRED.get(path, 'unknown key')}")
            values[section][key] = spec.parse(raw, path)

    return _validate(ScenarioConfig(values, components))


def load_config(path: Union[str, Path]) -> ScenarioConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)


def _validate(cfg: ScenarioConfig) -> ScenarioConfig:
    """``cfg`` if it is a runnable scenario, else the first ``ConfigError``.

    Each key's options and the range this module declares for it come first.
    Then every object a runner builds is built: the dataclasses and the plans
    check the keys they own, the constraints that couple them and the sizes
    they bound.  Last, the budget path is priced at its wavelength, which
    names an unknown component or a missing loss entry.
    """
    for section, keys in _schema().items():
        for key, spec in keys.items():
            value = cfg.values[section][key]
            if spec.options and value not in spec.options:
                raise ConfigError(f"{section}.{key}: must be one of: {', '.join(spec.options)}")
            if spec.allowed is not None and not spec.allowed.holds(value):
                raise ConfigError(f"{section}.{key}: {spec.allowed.message}")

    build_device(cfg)
    build_controller(cfg)
    build_scenario(cfg)
    build_pretreat_plan(cfg)
    build_sweep_plan(cfg)
    build_curve_plan(cfg)
    build_pe_curve_plan(cfg)
    path = build_path(cfg)
    try:
        budget_mod.path_loss(path, cfg.values["budget"]["wavelength_nm"])
    except ValueError as exc:
        raise ConfigError(f"budget.wavelength_nm: {exc}") from None
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
    A refusal led by the name of one of the section's keys names that key
    (``v_pi_v must be positive`` becomes ``device.v_pi_v: must be positive``);
    any other names the section.
    """
    names = {f.name for f in fields(cls)}
    matched = {k: v for k, v in cfg.values[section].items() if k in names}
    try:
        return cls(**{**matched, **explicit})
    except ValueError as exc:
        head, _, rest = str(exc).partition(" ")
        key = head.rstrip(":")
        where = f"{section}.{key}: {rest}" if key in matched else f"{section}: {exc}"
        raise ConfigError(where) from None


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
    bias = calibration.parking_bias_rad(d["working_point_v"], d["residual_bias_rad"], device.v_pi_v)
    return replace(device, bias_phase_rad=bias)


def working_point_v(cfg: ScenarioConfig) -> float:
    return float(cfg.get("device", "working_point_v"))


def build_pretreat_plan(cfg: ScenarioConfig) -> PreTreatmentPlan:
    return _build(PreTreatmentPlan, "pre_treat", cfg)


def build_controller(cfg: ScenarioConfig) -> PulseController:
    return _build(PulseController, "pulse", cfg)


def build_scenario(cfg: ScenarioConfig) -> QkdScenario:
    return _build(QkdScenario, "qkd", cfg)


def build_sweep_plan(cfg: ScenarioConfig) -> SweepPlan:
    return _build(SweepPlan, "qkd", cfg)


def build_distances_km(cfg: ScenarioConfig) -> tuple[float, ...]:
    return build_sweep_plan(cfg).distances_km


def build_curve_plan(cfg: ScenarioConfig) -> CurvePlan:
    return _build(CurvePlan, "voltage_curve", cfg)


def build_pe_curve_plan(cfg: ScenarioConfig) -> PeCurvePlan:
    return _build(PeCurvePlan, "pe_curve", cfg)


def build_path(cfg: ScenarioConfig) -> InjectionPath:
    b = cfg.values["budget"]
    extras = {
        name: ComponentLoss(name, dict(entries))
        for name, entries in cfg.components.items()
    }
    try:
        path = budget_mod.standard_path(b["fiber_length_km"], b["components"], extras)
    except ValueError as exc:
        raise ConfigError(f"budget.components: {exc}") from None
    scheme = b["coupling_scheme"]
    if scheme != "none":
        loss = budget_mod.coupling_plan_loss(scheme)
        coupler = ComponentLoss(
            f"coupling:{scheme}", {405: LossValue(loss.irradiation_loss_405_db)}
        )
        path = replace(path, components=path.components + (coupler,))
    return path
