"""Mach-Zehnder variable optical attenuator built on the photorefractive arm
model.

The device applies push-pull bias: a drive voltage v puts +v/d across one arm
and -v/d across the other.  Each arm carries a photorefractive state whose
index response f_i shifts that arm's phase; the interferometer phase is

    delta_theta(v) = theta0 + v * (2*pi/v_pi - (C/d) * (f1 + f2)) + D * (f1 - f2)

so the differential response moves the bias point while the common-mode
response reduces the effective half-wave voltage.  Transmittance follows the
usual two-beam interference law with the signal split ratio setting the
extinction contrast.

Devices are immutable; exposure helpers return a new device with updated arm
states.  The readouts are numpy expressions, so a voltage grid, or arm fields
sampled along an exposure, read out in one call.  ``attenuation_db`` is
insertion loss relative to unit input (positive numbers, bigger means darker);
``magnification_db`` compares transmittance against a stored baseline, the
figure of merit for attacks on a VOA parked at deep attenuation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .photorefractive import (
    ArmState,
    DecayMode,
    GeometryParams,
    MaterialParams,
    buildup_time_constant,
    evolve_arm,
    field_coupling,
    steady_state_field,
)


@dataclass(frozen=True)
class VoltageCurve:
    """Transmission vs drive voltage at fixed photorefractive state."""

    v_app_v: np.ndarray
    transmittance: np.ndarray
    attenuation_db: np.ndarray
    delta_theta_rad: np.ndarray


@dataclass(frozen=True)
class MziDevice:
    """Immutable VOA snapshot: fixed construction plus per-arm charge state."""

    material: MaterialParams
    geometry: GeometryParams
    bias_phase_rad: float          # theta0, interferometer imbalance at v = 0
    v_pi_v: float
    signal_split: float            # power fraction of the signal in arm 1
    irradiation_split: float       # power fraction of injected light in arm 1
    irradiation_coupling_db: float  # injection path loss before the splitter
    polarization_loss_db: float = 0.0  # worst-case scalar for misaligned injection
    decay_mode: DecayMode = DecayMode.DARK_DECAY
    arm1: ArmState = field(default_factory=ArmState)
    arm2: ArmState = field(default_factory=ArmState)

    def __post_init__(self) -> None:
        if not 0.0 < self.signal_split < 1.0:
            raise ValueError("signal_split must be in (0, 1)")
        if not 0.0 < self.irradiation_split < 1.0:
            raise ValueError("irradiation_split must be in (0, 1)")
        if self.v_pi_v <= 0.0:
            raise ValueError("v_pi_v must be positive")
        if self.irradiation_coupling_db < 0.0:
            raise ValueError("irradiation_coupling_db must be >= 0")
        if not 0.0 <= self.polarization_loss_db <= 0.93:
            raise ValueError("polarization_loss_db must be in [0, 0.93]")

    # -- static relations ---------------------------------------------------

    def split_irradiation(self, power_w: float) -> tuple[float, float]:
        """Per-arm powers for a given injected power at the device input."""
        if power_w < 0.0:
            raise ValueError("power_w must be >= 0")
        loss_db = self.irradiation_coupling_db + self.polarization_loss_db
        delivered = power_w * 10.0 ** (-loss_db / 10.0)
        return delivered * self.irradiation_split, delivered * (1.0 - self.irradiation_split)

    def index_responses(self) -> tuple[float, float]:
        return (
            self.arm1.index_response(self.material),
            self.arm2.index_response(self.material),
        )

    def _phase_terms(self) -> tuple[float, float]:
        """Voltage slope and differential offset of the affine phase."""
        f1, f2 = self.index_responses()
        c_over_d = field_coupling(self.material, self.geometry) / self.geometry.electrode_gap_m
        slope = 2.0 * math.pi / self.v_pi_v - c_over_d * (f1 + f2)
        return slope, self.geometry.phase_scale_rad * (f1 - f2)

    def total_phase(self, v_app_v: float) -> float:
        slope, offset = self._phase_terms()
        return self.bias_phase_rad + v_app_v * slope + offset

    def transmittance(self, v_app_v: float) -> float:
        r = self.signal_split
        return 4.0 * r * (1.0 - r) * np.cos(0.5 * self.total_phase(v_app_v)) ** 2

    def attenuation_db(self, v_app_v: float) -> float:
        """Insertion loss in dB; inf at an exact null."""
        with np.errstate(divide="ignore"):
            return -10.0 * np.log10(self.transmittance(v_app_v))

    def output_mpn(self, mu_in: float, v_app_v: float) -> float:
        """Mean photon number leaving the device for a coherent input."""
        if mu_in < 0.0:
            raise ValueError("mu_in must be >= 0")
        return mu_in * self.transmittance(v_app_v)

    def magnification_db(
        self, v_app_v: float, baseline_mu: float, mu_in: float = 1.0
    ) -> float:
        """Output change in dB relative to a baseline mean photon number.

        Zero for a device measured against its own unattacked output, -inf
        for a dark output.
        """
        if baseline_mu <= 0.0:
            raise ValueError("baseline_mu must be positive")
        with np.errstate(divide="ignore"):
            return 10.0 * np.log10(self.output_mpn(mu_in, v_app_v) / baseline_mu)

    # -- curves and search ----------------------------------------------------

    def voltage_curve(self, v_min_v: float, v_max_v: float, points: int) -> VoltageCurve:
        if points < 2:
            raise ValueError("points must be >= 2")
        if not v_max_v > v_min_v:
            raise ValueError("v_max_v must exceed v_min_v")
        volts = np.linspace(v_min_v, v_max_v, points)
        return VoltageCurve(
            volts,
            self.transmittance(volts),
            self.attenuation_db(volts),
            self.total_phase(volts),
        )

    def find_extinction_voltage(self, v_min_v: float, v_max_v: float) -> float:
        """Drive voltage of the extinction null nearest the range center.

        The phase is affine in the drive voltage, theta(v) = theta(0) +
        slope * v, so the nulls sit exactly at
        v_k = ((2k+1)*pi - theta(0)) / slope.  The range must span at least
        two half-wave voltages; a ValueError is raised when the nearest null
        still falls outside it, which happens once exposure has flattened the
        slope enough to stretch the fringe period past the range.
        """
        if v_max_v - v_min_v < 2.0 * self.v_pi_v:
            raise ValueError("search range must span at least 2 * v_pi_v")
        slope, offset = self._phase_terms()
        theta0 = self.bias_phase_rad + offset
        center = 0.5 * (v_min_v + v_max_v)
        k = round((theta0 + slope * center - math.pi) / (2.0 * math.pi))
        v_null = ((2 * k + 1) * math.pi - theta0) / slope
        if not v_min_v <= v_null <= v_max_v:
            raise ValueError(
                f"nearest extinction null {v_null:.4g} V lies outside "
                f"[{v_min_v:g}, {v_max_v:g}] V"
            )
        return v_null

    # -- state transitions ---------------------------------------------------

    def arm_fields(self, v_app_v: float) -> tuple[float, float]:
        """Push-pull applied fields seen by the two arms."""
        e = v_app_v / self.geometry.electrode_gap_m
        return e, -e

    def exposed(self, power_w: float, v_app_v: float, dt_s: float) -> "MziDevice":
        """New device after ``dt_s`` of constant injected power under bias."""
        p1, p2 = self.split_irradiation(power_w)
        e1, e2 = self.arm_fields(v_app_v)
        return replace(
            self,
            arm1=evolve_arm(self.material, self.arm1, p1, e1, dt_s, self.decay_mode),
            arm2=evolve_arm(self.material, self.arm2, p2, e2, dt_s, self.decay_mode),
        )

    def equilibrated(self, power_w: float, v_app_v: float) -> "MziDevice":
        """Device with both arms at their steady state for these conditions."""
        p1, p2 = self.split_irradiation(power_w)
        e1, e2 = self.arm_fields(v_app_v)
        return replace(
            self,
            arm1=replace(self.arm1, field_v_per_m=steady_state_field(self.material, p1, e1)),
            arm2=replace(self.arm2, field_v_per_m=steady_state_field(self.material, p2, e2)),
        )

    def slowest_time_constant(self, power_w: float) -> float:
        """Relaxation time of the weaker-lit arm; bounds settling time."""
        p1, p2 = self.split_irradiation(power_w)
        return max(
            buildup_time_constant(self.material, p1),
            buildup_time_constant(self.material, p2),
        )

    def pristine(self) -> "MziDevice":
        """Same construction with both arms discharged."""
        return replace(self, arm1=ArmState(), arm2=ArmState())


def curve_rms_db(reference: VoltageCurve, other: VoltageCurve) -> float:
    """RMS difference of two attenuation curves over a shared voltage grid.

    Intended for curves sampled away from exact nulls where the dB scale
    diverges; raises if either curve contains a non-finite attenuation.
    """
    if reference.v_app_v.shape != other.v_app_v.shape or not np.allclose(
        reference.v_app_v, other.v_app_v
    ):
        raise ValueError("curves must share the same voltage grid")
    a, b = reference.attenuation_db, other.attenuation_db
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("attenuation curves must be finite on the grid")
    return float(np.sqrt(np.mean((a - b) ** 2)))
