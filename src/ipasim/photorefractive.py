"""Photorefractive response of Ti-indiffused LiNbO3 waveguides under
continuous visible irradiation.

Charge model: absorption of the irradiation beam excites carriers that are
redistributed by the bulk photovoltaic current and by drift in whatever field
is applied across the electrodes.  The resulting space-charge field relaxes
exponentially toward a steady state set by the ratio of photovoltaic drive to
total conductivity,

    e_inf = (kappa * alpha * P - sigma_ph(P) * e_app) / (sigma_d + sigma_ph(P))

with dielectric relaxation time tau = eps_r * eps0 / (sigma_d + sigma_ph(P)).
The Pockels effect converts the space-charge field into a guided-index change;
the device layer (``ipasim.device``) maps per-arm index responses onto
interferometer phase.

Photoconductivity grows linearly with power at low power and sublinearly above
a crossover (two-center transport).  The saturated per-arm response

    f(P) = A * P / (1 + sigma_ph(P) / sigma_d)

reduces to A*P / (1 + B*P) below the crossover and continues monotonically but
sublinearly above it; the sublinear branch is stitched continuously at the
crossover.

Unit conventions: ``P`` is the per-arm optical power in watts delivered to the
waveguide (beam geometry is absorbed into the transport constants, so the
photovoltaic and photoconductive coefficients are lumped per-watt quantities).
Fields are V/m, conductivities S/m, times seconds.  Every parameter field
declares its range (``ipasim._ranges``), which refuses NaN and +-inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._ranges import check_ranges, ranged

VACUUM_PERMITTIVITY_F_PER_M = 8.8541878128e-12
_LN2 = math.log(2.0)


class DecayMode(str, Enum):
    """What the space-charge field does while the irradiation is off."""

    FROZEN = "frozen"          # trapped charge persists indefinitely
    DARK_DECAY = "dark_decay"  # field relaxes to zero with the dark time constant


@dataclass(frozen=True)
class MaterialParams:
    """Transport and electro-optic constants of one waveguide arm.

    Observable behavior depends only on the lumped products exposed as
    ``response_amplitude``, ``response_saturation``, ``field_response`` and
    ``tau_dark_s``; the individual factors are one physically sensible split
    (see ``ipasim.calibration`` for how the defaults are pinned to measured
    device behavior).
    """

    refractive_index: float = ranged("(0, inf)")  # guided-mode index at the signal wavelength
    r33_m_per_v: float = ranged("(0, inf)")       # electro-optic coefficient
    mode_overlap: float = ranged("(0, inf)")      # optical/static field overlap, dimensionless
    photovoltaic_const: float = ranged("(0, inf)")  # kappa, V*m per (absorbed W/m), lumped
    absorption_per_m: float = ranged("(0, inf)")  # alpha at the irradiation wavelength
    photocond_per_w: float = ranged("(0, inf)")   # a, photoconductivity per absorbed watt
    dark_conductivity_s_per_m: float = ranged("(0, inf)")
    rel_permittivity: float = ranged("(0, inf)")
    sublinear_exponent: int = ranged("[1, inf)", 2)  # m in sigma_ph ~ P**(1/m) above crossover
    crossover_power_w: float = ranged("(0, inf)", 7e-6)

    def __post_init__(self) -> None:
        check_ranges(self)
        if self.sublinear_exponent != int(self.sublinear_exponent):
            raise ValueError("sublinear_exponent must be an integer")

    @property
    def response_amplitude(self) -> float:
        """A: low-power slope of the saturated index response, per watt."""
        n3r = self.refractive_index**3 * self.r33_m_per_v * self.mode_overlap
        return (
            n3r
            * self.photovoltaic_const
            * self.photocond_per_w
            / (2.0 * self.dark_conductivity_s_per_m)
        )

    @property
    def response_saturation(self) -> float:
        """B: inverse of the power where photoconductivity equals sigma_d."""
        return self.photocond_per_w * self.absorption_per_m / self.dark_conductivity_s_per_m

    @property
    def field_response(self) -> float:
        """G: index response per unit space-charge field, m/V.

        ``f = G * e_s`` for any space-charge field, so the dynamic state of an
        arm is fully described by ``e_s``.
        """
        n3r = self.refractive_index**3 * self.r33_m_per_v * self.mode_overlap
        return n3r * self.photocond_per_w / (2.0 * self.absorption_per_m)

    @property
    def tau_dark_s(self) -> float:
        """Dielectric relaxation time with no irradiation."""
        return (
            self.rel_permittivity
            * VACUUM_PERMITTIVITY_F_PER_M
            / self.dark_conductivity_s_per_m
        )

    @property
    def high_regime_coeff(self) -> float:
        """Prefactor of the sublinear photoconductivity branch.

        Fixed by continuity at the crossover power.
        """
        m = self.sublinear_exponent
        lin = self.photocond_per_w * self.absorption_per_m
        return lin * self.crossover_power_w ** (1.0 - 1.0 / m)


@dataclass(frozen=True)
class GeometryParams:
    """Waveguide and electrode geometry of the interferometer arms."""

    arm_length_m: float = ranged("(0, inf)")
    electrode_length_m: float = ranged("(0, inf)")
    electrode_gap_m: float = ranged("(0, inf)")
    signal_wavelength_m: float = ranged("(0, inf)")

    def __post_init__(self) -> None:
        check_ranges(self)
        if self.electrode_length_m > self.arm_length_m:
            raise ValueError("electrode_length_m cannot exceed arm_length_m")

    @property
    def phase_scale_rad(self) -> float:
        """D: phase accumulated per unit index response over one arm."""
        return 2.0 * math.pi * self.arm_length_m / self.signal_wavelength_m


def field_coupling(mat: MaterialParams, geo: GeometryParams) -> float:
    """C: drift correction to the per-arm phase, rad per (V/m) of applied field.

    The saturated per-arm phase is ``(D - C * e_app) * f(P)``; C/D sets the
    asymmetry between the arms when the exposure happens under bias.
    """
    return (
        2.0
        * mat.photocond_per_w
        * math.pi
        * geo.electrode_length_m
        / (mat.photovoltaic_const * geo.signal_wavelength_m)
    )


def photoconductivity(mat: MaterialParams, power_w: float) -> float:
    """sigma_ph(P): linear below the crossover, ~P**(1/m) above it."""
    if not 0.0 <= power_w < math.inf:
        raise ValueError("power_w must be >= 0 and finite")
    if power_w <= mat.crossover_power_w:
        return mat.photocond_per_w * mat.absorption_per_m * power_w
    return mat.high_regime_coeff * power_w ** (1.0 / mat.sublinear_exponent)


def buildup_time_constant(mat: MaterialParams, power_w: float) -> float:
    """Dielectric relaxation time under irradiation, strictly decreasing in P."""
    sigma = mat.dark_conductivity_s_per_m + photoconductivity(mat, power_w)
    return mat.rel_permittivity * VACUUM_PERMITTIVITY_F_PER_M / sigma


def steady_state_field(
    mat: MaterialParams, power_w: float, e_app_v_per_m: float = 0.0
) -> float:
    """Space-charge field the arm relaxes toward under constant conditions.

    The photovoltaic term drives the field up with intensity; the drift term
    screens a fraction sigma_ph/sigma of the applied field.
    """
    sigma_ph = photoconductivity(mat, power_w)
    sigma = mat.dark_conductivity_s_per_m + sigma_ph
    drive = mat.photovoltaic_const * mat.absorption_per_m * power_w
    return (drive - sigma_ph * e_app_v_per_m) / sigma


def relaxation_law(
    mat: MaterialParams,
    power_w: float,
    e_app_v_per_m: float,
    decay_mode: DecayMode = DecayMode.FROZEN,
) -> tuple[float, float]:
    """Target field and relaxation time of one arm under constant conditions.

    In the dark the target is zero and tau the dark time constant; a
    ``FROZEN`` arm holds its field there, which ``tau = inf`` expresses: it
    makes every :func:`relaxation_step` a zero move.
    """
    if power_w == 0.0 and decay_mode is DecayMode.FROZEN:
        return 0.0, math.inf
    return steady_state_field(mat, power_w, e_app_v_per_m), buildup_time_constant(mat, power_w)


def relaxation_step(
    field_v_per_m: float | np.ndarray, target: float | np.ndarray, x: float | np.ndarray
) -> float | np.ndarray:
    """Field after ``x`` relaxation times of first-order relaxation toward ``target``.

    The exact-exponential step of :func:`evolve_field`.  expm1 keeps full
    relative precision of the move when x << 1, where target + gap*exp(-x)
    cancels; past x = ln 2 the move exceeds half the gap and the exp form
    keeps the small remainder exact.  A scalar ``x`` takes ``math``; an array
    ``x`` broadcasts against array fields and targets and takes each form
    only where it holds.  It is the one array form of the step:
    :func:`evolve_field` (so ``MziDevice.exposed``), every exposure program
    and every saturation run of ``ipasim.attack`` call it.  The attack
    module's per-segment and per-period loops write its scalar expression
    out, with the same bits.
    """
    gap = field_v_per_m - target
    if isinstance(x, np.ndarray):
        far, minus_x = x > _LN2, -x
        factor = np.exp(minus_x, where=far, out=np.empty(x.shape))
        np.expm1(minus_x, where=~far, out=factor)
        return np.where(far, target, field_v_per_m) + gap * factor
    return target + gap * math.exp(-x) if x > _LN2 else field_v_per_m + gap * math.expm1(-x)


def evolve_field(
    mat: MaterialParams,
    field_v_per_m: float,
    power_w: float,
    e_app_v_per_m: float,
    dt_s: float | np.ndarray,
    decay_mode: DecayMode = DecayMode.FROZEN,
) -> float | np.ndarray:
    """Advance the space-charge field by ``dt_s`` under constant conditions.

    One :func:`relaxation_step` toward the :func:`relaxation_law` target, so
    composing two steps of dt/2 matches one step of dt to machine precision
    and dt may be chosen for trace resolution only.  ``dt_s`` may also be an
    array of elapsed times, which gives the field at each of them from the
    same start (a float for a scalar ``dt_s``).  With the irradiation off the
    field either holds (``FROZEN``) or relaxes to zero with the dark time
    constant (``DARK_DECAY``).
    """
    if not np.asarray(dt_s).min(initial=0.0) >= 0.0:  # a NaN anywhere makes the min NaN
        raise ValueError("dt_s must be >= 0")
    target, tau = relaxation_law(mat, power_w, e_app_v_per_m, decay_mode)
    # a held arm makes no move however long the step, an infinite one included
    x = np.divide(dt_s, tau) if tau < math.inf else np.zeros(np.shape(dt_s))
    field = relaxation_step(field_v_per_m, target, x)
    return float(field) if np.ndim(field) == 0 else field

