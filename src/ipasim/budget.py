"""Injection-path loss budgets and countermeasure margins.

Answers the practical attacker-side question: given the components between
the eavesdropper and the target modulator, how much irradiation power must
enter the fiber to land a chosen power on the device, and does a given
isolation budget make that impossible?

Component losses ship as a small measured database (standard single-mode
fiber plus DWDM channels, isolator and circulator at the three attack
wavelengths, and the coupling schemes for getting the beam into the channel).
Entries measured only down to an instrument floor, recorded as ">78" style
strings, are carried through every computation as sticky lower bounds: the
true loss can only be higher, so an infeasibility verdict derived from a
bound stays valid while a feasibility one is best-case.  A loss, a floor
included, a coupling scheme's losses and a whole path's, is at most 3000 dB,
a fiber at most 200 km long, and a target or attacker power in (0, 1] W, so
every launch power is a finite float.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from math import log10
from typing import Mapping, NamedTuple, Sequence, Union

from ._ranges import LIT_WATTS, Refusal, check_ranges, interval, ranged

_LIT_WATTS = interval(LIT_WATTS)
# Any loss in dB, of a component or a whole path: 3000 dB passes 1e-300 of the
# light, so a launch power of at most 1 W times 10 ** (loss / 10) stays finite.
LOSS_DB = "[0, 3000]"
# Eve's fibre to the transmitter: 200 km loses 2800 dB at 532 nm, the lossiest
# wavelength of the built-in fibre, within LOSS_DB.
FIBER_KM = "[0, 200]"


@dataclass(frozen=True)
class LossValue:
    """A dB loss that may be only a lower bound on the true loss."""

    db: float = ranged(LOSS_DB)
    lower_bound: bool = False

    __post_init__ = check_ranges

    def __add__(self, other: "LossValue") -> "LossValue":
        return LossValue(self.db + other.db, self.lower_bound or other.lower_bound)


@dataclass(frozen=True)
class PowerValue:
    watts: float = ranged("[0, 1e300]")  # 1 W through LOSS_DB at most
    lower_bound: bool = False

    __post_init__ = check_ranges


RawEntry = Union[int, float, str]


def parse_loss_entry(raw: RawEntry) -> LossValue:
    """Accepts plain dB numbers or instrument-floor strings like ">78"."""
    if isinstance(raw, str):
        text = raw.strip()
        bound = text.startswith(">")
        try:
            db = float(text[1:] if bound else text)
        except ValueError:
            raise Refusal("raw", f"loss entry {raw!r} is neither a number nor '>NN'") from None
        return LossValue(db, lower_bound=bound)
    return LossValue(float(raw))


class ComponentLoss(NamedTuple):
    name: str
    loss_db: Mapping[int, LossValue]

    @classmethod
    def from_entries(cls, name: str, entries: Mapping[Union[int, str], RawEntry]) -> "ComponentLoss":
        return cls(name, {int(k): parse_loss_entry(v) for k, v in entries.items()})

    def at(self, wavelength_nm: int) -> LossValue:
        try:
            return self.loss_db[wavelength_nm]
        except KeyError:
            raise ValueError(
                f"component '{self.name}' has no loss entry at {wavelength_nm} nm"
            ) from None


@dataclass(frozen=True)
class CouplingScheme:
    name: str
    signal_loss_1550_db: float = ranged(LOSS_DB)
    irradiation_loss_405_db: float = ranged(LOSS_DB)

    __post_init__ = check_ranges


@dataclass(frozen=True)
class InjectionPath:
    fiber_length_km: float = ranged(FIBER_KM, 0.0)
    fiber_loss_db_per_km: Mapping[int, float] = field(default_factory=dict)
    components: tuple[ComponentLoss, ...] = ()

    __post_init__ = check_ranges

    def fiber_loss(self, wavelength_nm: int) -> LossValue:
        if self.fiber_length_km == 0.0:
            return LossValue(0.0)
        try:
            per_km = self.fiber_loss_db_per_km[wavelength_nm]
        except KeyError:
            raise ValueError(f"fiber has no loss entry at {wavelength_nm} nm") from None
        return LossValue(self.fiber_length_km * per_km)


def path_loss(path: InjectionPath, wavelength_nm: int) -> LossValue:
    """Additive end-to-end loss; a single bounded entry makes the total a bound."""
    total = path.fiber_loss(wavelength_nm)
    for component in path.components:
        total = total + component.at(wavelength_nm)
    return total


def required_eve_power(
    path: InjectionPath, wavelength_nm: int, target_power_w: float
) -> PowerValue:
    """Launch power needed so the target power arrives at the device."""
    _LIT_WATTS.check("target_power_w", target_power_w)
    loss = path_loss(path, wavelength_nm)
    return PowerValue(target_power_w * 10.0 ** (loss.db / 10.0), loss.lower_bound)


FEASIBLE = "feasible"
BOUNDARY_INFEASIBLE = "boundary-infeasible"
INFEASIBLE = "infeasible"


class MarginReport(NamedTuple):
    """Countermeasure margin: path loss minus the attacker's power headroom.

    Negative margin means the attacker can land the target power with power
    to spare; zero is counted as infeasible (the boundary convention).  When
    ``lower_bound`` is set the margin is itself a lower bound: infeasible
    verdicts are then conservative-safe, feasible ones are best-case only.
    """

    margin_db: float
    lower_bound: bool
    verdict: str


def countermeasure_margin(
    path: InjectionPath,
    wavelength_nm: int,
    eve_max_power_w: float,
    target_power_w: float,
) -> MarginReport:
    _LIT_WATTS.check("eve_max_power_w", eve_max_power_w)
    _LIT_WATTS.check("target_power_w", target_power_w)
    loss = path_loss(path, wavelength_nm)
    headroom_db = 10.0 * log10(eve_max_power_w / target_power_w)
    margin = loss.db - headroom_db
    if margin < 0.0:
        verdict = FEASIBLE
    elif margin == 0.0:
        verdict = BOUNDARY_INFEASIBLE
    else:
        verdict = INFEASIBLE
    return MarginReport(margin, loss.lower_bound, verdict)


# -- built-in measured database ------------------------------------------------


def _load_database() -> dict:
    text = resources.files("ipasim.data").joinpath("components.json").read_text()
    return json.loads(text)


_DB = _load_database()

BUILTIN_FIBER_DB_PER_KM: dict[int, float] = {
    int(k): float(v) for k, v in _DB["fiber_db_per_km"].items()
}

BUILTIN_COMPONENTS: dict[str, ComponentLoss] = {
    name: ComponentLoss.from_entries(name, entries)
    for name, entries in _DB["components"].items()
}

COUPLING_SCHEMES: dict[str, CouplingScheme] = {
    name: CouplingScheme(name, entry["signal_loss_1550_db"], entry["irradiation_loss_405_db"])
    for name, entry in _DB["coupling_schemes"].items()
}


def coupling_plan_loss(scheme: str) -> CouplingScheme:
    """Signal (1550 nm) and irradiation (405 nm) loss of a coupling scheme."""
    try:
        return COUPLING_SCHEMES[scheme]
    except KeyError:
        known = ", ".join(sorted(COUPLING_SCHEMES))
        raise Refusal("scheme", f"unknown coupling scheme '{scheme}' (known: {known})") from None


def standard_path(
    fiber_length_km: float,
    component_names: Sequence[str] = (),
    extra_components: Mapping[str, ComponentLoss] | None = None,
) -> InjectionPath:
    """Path through built-in (plus optional user-defined) components."""
    catalog = dict(BUILTIN_COMPONENTS)
    if extra_components:
        catalog.update(extra_components)
    picked = []
    for name in component_names:
        try:
            picked.append(catalog[name])
        except KeyError:
            known = ", ".join(sorted(catalog))
            raise ValueError(f"unknown component '{name}' (known: {known})") from None
    return InjectionPath(fiber_length_km, BUILTIN_FIBER_DB_PER_KM, tuple(picked))
