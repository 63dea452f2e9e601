"""Mach-Zehnder variable optical attenuator built on the photorefractive arm
model.

The device applies push-pull bias: a drive voltage v puts +v/d across one arm
and -v/d across the other.  Each arm's space-charge field e_i gives it an
index response f_i = G * e_i that shifts that arm's phase; the interferometer
phase is

    delta_theta(v) = theta0 + v * (2*pi/v_pi - (C/d) * (f1 + f2)) + D * (f1 - f2)

so the differential response moves the bias point while the common-mode
response reduces the effective half-wave voltage.  Transmittance follows the
usual two-beam interference law with the signal split ratio setting the
extinction contrast.

Devices are immutable, their construction range-checked on every build and
their arm fields, state, not.  Each method checks each of its arguments once,
at entry and by its own name, a voltage array in every entry; the arm laws it
steps along (``ipasim.photorefractive``'s private kernels) check nothing.  A
value it derives is refused only where it overflows, under the name of the
argument it came from: a ``v_app_v`` whose field ``v_app_v / electrode_gap_m``
is inf, a voltage range whose width is.  Exposure helpers return a new device
with updated arm fields.  The readouts are numpy expressions, so a voltage grid, or arm fields
sampled along an exposure, read out in one call.  ``attenuation_db`` is
insertion loss relative to unit input (positive numbers, bigger means darker);
``magnification_db`` compares transmittance against a stored baseline, the
figure of merit for attacks on a VOA parked at deep attenuation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._ranges import (
    FINITE, MAX_GRID_POINTS, NON_NEGATIVE, POSITIVE, check_ranges, check_size, ranged,
)
from .photorefractive import (
    DecayMode, GeometryParams, MaterialParams, _evolve, _field_coupling, _relaxation_law,
)


class VoltageCurve(NamedTuple):
    """Transmission vs drive voltage at fixed photorefractive state."""

    v_app_v: np.ndarray
    transmittance: np.ndarray
    attenuation_db: np.ndarray
    delta_theta_rad: np.ndarray


@dataclass
class CurvePlan:
    """A drive-voltage grid of ``points`` from ``v_min_v`` up to ``v_max_v``, and
    the voltages at which the run's pre-treatment plan draws curves beside the
    pristine one, ``MAX_GRID_POINTS`` rows at most in all.  Its checks are the
    grid's: ``MziDevice.voltage_curve`` checks a plan of no pre-treatments.
    """

    v_min_v: float = ranged("(-inf, inf)", -12.0)
    v_max_v: float = ranged("(-inf, inf)", 12.0)
    points: int = ranged(f"int [2, {MAX_GRID_POINTS}]", 481)
    pretreat_voltages_v: tuple[float, ...] = ranged("(-inf, inf)", (-20.0, -15.0, 0.0, 15.0, 20.0))

    def __post_init__(self) -> None:
        check_ranges(self)
        if not 0.0 < self.v_max_v - self.v_min_v < math.inf:
            raise ValueError("v_max_v must exceed v_min_v by a finite width")
        curves = len(self.pretreat_voltages_v) + 1
        check_size(curves * self.points, MAX_GRID_POINTS, f"pretreat_voltages_v: {curves} "
                   f"curves of points {self.points} exceed {MAX_GRID_POINTS} rows")


@dataclass(frozen=True)
class MziDevice:
    """Immutable VOA snapshot: range-checked construction plus each arm's
    space-charge field, computed state that declares no range (floats, or
    sampled arrays for a trace device, which so pays no per-sample check)."""

    material: MaterialParams
    geometry: GeometryParams
    bias_phase_rad: float = ranged("(-inf, inf)")  # theta0, interferometer imbalance at v = 0
    v_pi_v: float = ranged("(0, inf)")
    signal_split: float = ranged("(0, 1)")         # power fraction of the signal in arm 1
    irradiation_split: float = ranged("(0, 1)")    # power fraction of injected light in arm 1
    irradiation_coupling_db: float = ranged("[0, inf)")  # injection path loss before the splitter
    polarization_loss_db: float = ranged("[0, 0.93]", 0.0)  # worst case, misaligned injection
    decay_mode: DecayMode = DecayMode.DARK_DECAY
    field1_v_per_m: float = 0.0
    field2_v_per_m: float = 0.0

    __post_init__ = check_ranges

    # -- static relations ---------------------------------------------------

    def split_irradiation(self, power_w: float) -> tuple[float, float]:
        """Per-arm powers for a given injected power at the device input."""
        NON_NEGATIVE.check("power_w", power_w)
        loss_db = self.irradiation_coupling_db + self.polarization_loss_db
        delivered = power_w * 10.0 ** (-loss_db / 10.0)
        return delivered * self.irradiation_split, delivered * (1.0 - self.irradiation_split)

    def phase_coefficients(self, v_app_v: float) -> tuple[float, float, float]:
        """``(theta, k_diff, k_common)``: the phase at ``v_app_v`` for arm fields
        e1, e2 is theta + k_diff * (e1 - e2) + k_common * (e1 + e2).

        The phase law, written as an affine map of the arm fields (the index
        response is G * e): ``total_phase`` applies it to the device's own
        fields, and a loop that carries bare fields reads the phase from the
        same coefficients without building a device.  The differential term
        is taken on the field difference, which stays exact when the two arms
        sit near the same large field.  The readouts built on it check
        ``v_app_v`` here.
        """
        FINITE.check("v_app_v", v_app_v)
        g = self.material.field_response
        c_over_d = _field_coupling(self.material, self.geometry) / self.geometry.electrode_gap_m
        theta = self.bias_phase_rad + v_app_v * (2.0 * math.pi / self.v_pi_v)
        return theta, g * self.geometry.phase_scale_rad, -g * c_over_d * v_app_v

    def total_phase(self, v_app_v: float) -> float:
        theta, k_diff, k_common = self.phase_coefficients(v_app_v)
        e1, e2 = self.field1_v_per_m, self.field2_v_per_m
        return theta + k_diff * (e1 - e2) + k_common * (e1 + e2)

    def transmittance(self, v_app_v: float) -> float:
        return self._phase_transmittance(self.total_phase(v_app_v))

    def _phase_transmittance(self, phase: float) -> float:
        """The two-beam interference law at interferometer phase ``phase``."""
        r = self.signal_split
        return 4.0 * r * (1.0 - r) * np.cos(0.5 * phase) ** 2

    def attenuation_db(self, v_app_v: float) -> float:
        """Insertion loss in dB; inf at an exact null."""
        with np.errstate(divide="ignore"):
            return -10.0 * np.log10(self.transmittance(v_app_v))

    def output_mpn(self, mu_in: float, v_app_v: float) -> float:
        """Mean photon number leaving the device for a coherent input."""
        NON_NEGATIVE.check("mu_in", mu_in)
        return mu_in * self.transmittance(v_app_v)

    def magnification_db(
        self, v_app_v: float, baseline_mu: float, mu_in: float = 1.0
    ) -> float:
        """Output change in dB relative to a baseline mean photon number.

        Zero for a device measured against its own unattacked output, -inf
        for a dark output.
        """
        POSITIVE.check("baseline_mu", baseline_mu)
        with np.errstate(divide="ignore"):
            return 10.0 * np.log10(self.output_mpn(mu_in, v_app_v) / baseline_mu)

    # -- curves and search ----------------------------------------------------

    def voltage_curve(self, v_min_v: float, v_max_v: float, points: int) -> VoltageCurve:
        CurvePlan(v_min_v, v_max_v, points, ())  # refuses a grid its plan would refuse
        volts = np.linspace(v_min_v, v_max_v, points)
        phase = self.total_phase(volts)
        trans = self._phase_transmittance(phase)
        with np.errstate(divide="ignore"):  # attenuation_db of the one phase reading
            return VoltageCurve(volts, trans, -10.0 * np.log10(trans), phase)

    def find_extinction_voltage(self, v_min_v: float, v_max_v: float) -> float:
        """Drive voltage of the extinction null nearest the range center.

        The phase is affine in the drive voltage, so its values at the range
        ends fix it: theta(v) = theta_lo + slope * (v - v_min), and the nulls
        sit exactly at v_k = v_min + ((2k+1)*pi - theta_lo) / slope.  The
        range must span at least two half-wave voltages; a ValueError is
        raised when the nearest null still falls outside it, which happens
        once exposure has flattened the slope enough to stretch the fringe
        period past the range.
        """
        FINITE.check("v_min_v", v_min_v)
        FINITE.check("v_max_v", v_max_v)
        width = v_max_v - v_min_v
        if width == math.inf:
            raise ValueError("v_max_v must exceed v_min_v by a finite width")
        if width < 2.0 * self.v_pi_v:
            raise ValueError("search range must span at least 2 * v_pi_v")
        theta_lo, theta_hi = self.total_phase(np.array([v_min_v, v_max_v])).tolist()
        slope = (theta_hi - theta_lo) / width
        theta_center = theta_lo + slope * 0.5 * width
        k = round((theta_center - math.pi) / (2.0 * math.pi))
        v_null = v_min_v + ((2 * k + 1) * math.pi - theta_lo) / slope
        if not v_min_v <= v_null <= v_max_v:
            raise ValueError(
                f"nearest extinction null {v_null:.4g} V lies outside "
                f"[{v_min_v:g}, {v_max_v:g}] V"
            )
        return v_null

    # -- state transitions ---------------------------------------------------

    def arm_fields(self, v_app_v: float) -> tuple[float, float]:
        """Push-pull applied fields seen by the two arms."""
        FINITE.check("v_app_v", v_app_v)
        e = v_app_v / self.geometry.electrode_gap_m
        if math.isinf(e):
            raise ValueError(f"v_app_v {v_app_v!r} overflows its field v_app_v / electrode_gap_m")
        return e, -e

    def exposed(self, power_w: float, v_app_v: float, dt_s: float) -> "MziDevice":
        """New device after ``dt_s`` of constant injected power under bias; a
        ``dt_s`` of inf means to the steady state, as for :func:`evolve_field`."""
        law1, law2 = self.arm_laws(power_w, v_app_v)
        if not np.asarray(dt_s).min(initial=0.0) >= 0.0:  # a NaN anywhere makes the min NaN
            raise ValueError("dt_s must be >= 0")
        return self.with_fields(
            _evolve(self.field1_v_per_m, law1, dt_s), _evolve(self.field2_v_per_m, law2, dt_s)
        )

    def arm_laws(self, power_w: float, v_app_v: float) -> tuple[tuple[float, float], ...]:
        """Each arm's (target field, relaxation time) under constant power and
        bias, the law ``exposed`` steps along: the one place a law is taken."""
        return tuple(
            _relaxation_law(self.material, p, e, self.decay_mode)
            for p, e in zip(self.split_irradiation(power_w), self.arm_fields(v_app_v))
        )

    def equilibrated(self, power_w: float, v_app_v: float) -> "MziDevice":
        """Device with both arms at their steady state for these conditions."""
        (target1, _), (target2, _) = self.arm_laws(power_w, v_app_v)
        return self.with_fields(target1, target2)

    def slowest_time_constant(self, power_w: float) -> float:
        """Build-up time of the weaker-lit arm, its law's tau under ``DARK_DECAY``;
        bounds settling time."""
        mat, dark = self.material, DecayMode.DARK_DECAY
        return max(_relaxation_law(mat, p, 0.0, dark)[1] for p in self.split_irradiation(power_w))

    def pristine(self) -> "MziDevice":
        """Same construction with both arms discharged."""
        return self.with_fields(0.0, 0.0)

    def with_fields(self, field1_v_per_m, field2_v_per_m) -> "MziDevice":
        """This device with other arm fields, floats or sampled arrays; unlike
        ``replace``, which any other change goes through, it checks nothing, on
        purpose: every exposure and every trace row block swaps the fields."""
        new = object.__new__(type(self))
        vars(new).update(vars(self), field1_v_per_m=field1_v_per_m, field2_v_per_m=field2_v_per_m)
        return new


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
