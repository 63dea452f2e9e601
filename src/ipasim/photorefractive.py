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
Fields are V/m, conductivities S/m, times seconds.  Every parameter field,
and every argument a public function checks at entry, declares a physical
window (``ipasim._ranges``), which refuses NaN and +-inf and keeps every
product the device forms from them a finite float; an elapsed time may be inf.
The public functions are :func:`evolve_field`, which checks each argument
once, and :func:`relaxation_step`; the laws they step along are private
kernels that check nothing, their callers having checked what they hand in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._ranges import WATTS, Refusal, check_ranges, interval, ranged

VACUUM_PERMITTIVITY_F_PER_M = 8.8541878128e-12
_LN2 = math.log(2.0)
# a field in an arm, applied or space-charge: 1e4 V across the narrowest gap,
# 1e-8 m, and far past the breakdown of LiNbO3 (~1e8 V/m)
_FIELD = interval("[-1e12, 1e12]")


class DecayMode(str, Enum):
    """What the space-charge field does while the irradiation is off."""

    FROZEN = "frozen"          # trapped charge persists indefinitely
    DARK_DECAY = "dark_decay"  # field relaxes to zero with the dark time constant


@dataclass(frozen=True)
class MaterialParams:
    """Transport and electro-optic constants of one waveguide arm.

    Observable behavior depends only on the four lumped quantities the
    ``[material]`` keys set: ``response_amplitude`` A, ``response_saturation``
    B, the asymmetry a/kappa (``photocond_per_w / photovoltaic_const``) and
    ``tau_dark_s``; ``field_response`` is A * (a/kappa) / B.  The factors are
    one split of them, ``ipasim.calibration.default_material``'s.  Each window
    spans decades about congruent LiNbO3 and keeps every lumped product finite.
    """

    refractive_index: float = ranged("[1, 10]")  # guided-mode index at the signal wavelength
    r33_m_per_v: float = ranged("[1e-15, 1e-8]")  # electro-optic coefficient, 30.8 pm/V
    mode_overlap: float = ranged("(0, 1]")  # optical/static field overlap, a fraction
    photovoltaic_const: float = ranged("[1e-2, 1e8]")  # kappa, V*m per (absorbed W/m), lumped
    absorption_per_m: float = ranged("[1e-9, 1e4]")  # alpha at the irradiation wavelength
    photocond_per_w: float = ranged("[1e-12, 1e4]")  # a, photoconductivity per absorbed watt
    dark_conductivity_s_per_m: float = ranged("[1e-20, 1e-3]")  # insulator to semiconductor
    rel_permittivity: float = ranged("[1, 1e4]")  # under 1e4 for any ferroelectric
    sublinear_exponent: int = ranged("int [1, inf)", 2)  # m in sigma_ph ~ P**(1/m) above crossover
    crossover_power_w: float = ranged("[1e-15, 1]", 7e-6)  # within the injected powers

    __post_init__ = check_ranges

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

    # an integrated-optics chip: arms and electrodes from a micron to a metre,
    # gaps from 10 nm to 1 cm, and a signal from the ultraviolet to the mid-infrared
    arm_length_m: float = ranged("[1e-6, 1]")
    electrode_length_m: float = ranged("[1e-6, 1]")
    electrode_gap_m: float = ranged("[1e-8, 1e-2]")
    signal_wavelength_m: float = ranged("[1e-7, 1e-5]")

    def __post_init__(self) -> None:
        check_ranges(self)
        if self.electrode_length_m > self.arm_length_m:
            raise Refusal("electrode_length_m", "electrode_length_m cannot exceed arm_length_m")

    @property
    def phase_scale_rad(self) -> float:
        """D: phase accumulated per unit index response over one arm."""
        return 2.0 * math.pi * self.arm_length_m / self.signal_wavelength_m


def _field_coupling(mat: MaterialParams, geo: GeometryParams) -> float:
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


def _photoconductivity(mat: MaterialParams, power_w: float) -> float:
    """sigma_ph(P): linear below the crossover, ~P**(1/m) above it."""
    if power_w <= mat.crossover_power_w:
        return mat.photocond_per_w * mat.absorption_per_m * power_w
    return mat.high_regime_coeff * power_w ** (1.0 / mat.sublinear_exponent)


def _relaxation_law(
    mat: MaterialParams,
    power_w: float,
    e_app_v_per_m: float,
    decay_mode: DecayMode = DecayMode.FROZEN,
) -> tuple[float, float]:
    """Target field and relaxation time of one arm under constant conditions.

    The photovoltaic term drives the field up with intensity; the drift term
    screens a fraction sigma_ph/sigma of the applied field; tau is the
    dielectric relaxation time eps/sigma, under ``DARK_DECAY`` the build-up
    time, strictly decreasing in P.  In the dark the target is zero and tau
    the dark time constant; a ``FROZEN`` arm holds its field there, which
    ``tau = inf`` expresses: it makes every :func:`relaxation_step` a zero move.
    """
    if power_w == 0.0 and decay_mode is DecayMode.FROZEN:
        return 0.0, math.inf
    sigma_ph = _photoconductivity(mat, power_w)
    sigma = mat.dark_conductivity_s_per_m + sigma_ph
    drive = mat.photovoltaic_const * mat.absorption_per_m * power_w
    tau = mat.rel_permittivity * VACUUM_PERMITTIVITY_F_PER_M / sigma
    return (drive - sigma_ph * e_app_v_per_m) / sigma, tau


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
    :func:`evolve_field`, ``MziDevice.exposed``, every exposure program
    and every saturation run of ``ipasim.attack`` call it.  The attack
    module's per-segment and per-period loops write its scalar expression
    out, with the same bits.  It checks nothing, on purpose: it runs on
    every block of rows, whose inputs its callers have checked once.
    """
    gap = field_v_per_m - target
    if isinstance(x, np.ndarray):
        far, minus_x = x > _LN2, -x
        factor = np.exp(minus_x, where=far, out=np.empty(x.shape))
        np.expm1(minus_x, where=~far, out=factor)
        return np.where(far, target, field_v_per_m) + gap * factor
    return target + gap * math.exp(-x) if x > _LN2 else field_v_per_m + gap * math.expm1(-x)


def _evolve(
    field_v_per_m: float, law: tuple[float, float], dt_s: float | np.ndarray
) -> float | np.ndarray:
    """The field after ``dt_s`` along ``law``, a (target, tau) pair: the step of
    :func:`evolve_field` and ``MziDevice.exposed``, which check its inputs."""
    target, tau = law
    # a held arm makes no move however long the step, an infinite one included
    x = np.divide(dt_s, tau) if tau < math.inf else np.zeros(np.shape(dt_s))
    field = relaxation_step(field_v_per_m, target, x)
    return float(field) if np.ndim(field) == 0 else field


def evolve_field(
    mat: MaterialParams,
    field_v_per_m: float,
    power_w: float,
    e_app_v_per_m: float,
    dt_s: float | np.ndarray,
    decay_mode: DecayMode = DecayMode.FROZEN,
) -> float | np.ndarray:
    """Advance the space-charge field by ``dt_s`` under constant conditions.

    One :func:`relaxation_step` toward the target of the arm's relaxation
    law, so composing two steps of dt/2 matches one step of dt to machine
    precision and dt may be chosen for trace resolution only.  ``dt_s`` may
    also be an array of elapsed times, which gives the field at each of them
    from the same start (a float for a scalar ``dt_s``).  A ``dt_s`` of inf
    means to the steady state, so it is checked by hand, not declared:
    ``evolve_field(mat, 0.0, p, e, math.inf, DecayMode.DARK_DECAY)`` is the
    steady-state field, exactly.  With the irradiation off the field either
    holds (``FROZEN``) or relaxes to zero with the dark time constant
    (``DARK_DECAY``).
    """
    _FIELD.check("field_v_per_m", field_v_per_m)
    interval(WATTS).check("power_w", power_w)
    _FIELD.check("e_app_v_per_m", e_app_v_per_m)
    if not np.asarray(dt_s).min(initial=0.0) >= 0.0:  # a NaN anywhere makes the min NaN
        raise Refusal("dt_s", "dt_s must be >= 0")
    return _evolve(field_v_per_m, _relaxation_law(mat, power_w, e_app_v_per_m, decay_mode), dt_s)
