"""Default parameter set for a fiber-pigtailed LiNbO3 Mach-Zehnder VOA at
1550 nm exposed to 405 nm injected light.

The observable response of the device depends on the transport constants only
through four lumped quantities: the response amplitude A, the response
saturation B, the drift/photovoltaic asymmetry per volt (C/D divided by the
electrode gap), and the dark relaxation time.  The defaults here are fitted so
the assembled device reproduces four bench anchors at its max-attenuation
working point (5.8 V, one fringe past the half-wave voltage of 5.0 V):

  * +8.3 dB saturated output magnification for 3 nW injected before the
    ~3 dB injection coupling loss;
  * the saturated magnification peaks near 6.26 uW injected and rolls off
    above, without ever crossing the transmission maximum;
  * a 12 uW pre-treatment swept over +-20 V moves the zero-volt bias phase
    through more than a full 2*pi, with the drift contribution changing sign
    with the treatment polarity;
  * dark relaxation time of 2.0e3 s.

The split of the lumped products into microscopic factors (photovoltaic
constant, absorption, photoconductivity per watt) is not unique; the values
below use textbook congruent-LiNbO3 numbers for the index, r33, overlap and
permittivity, then solve the transport factors from the fitted products.  Any
other split reproducing the same products is observationally equivalent.

B is fixed by the location of the magnification peak, which depends on B
alone.  In the photoconductively linear window the peak's stationarity
condition is linear in B; ``RESPONSE_SATURATION_PER_W`` stores the double
that a numerical fit of the peak location returned, which agrees with that
closed form to 3.3e-8 relative and is kept bit for bit because build-up
times, and so trace lengths, depend on its last digits.  A then follows
exactly from the 8.3 dB anchor.  Results are cached; building the default
device is cheap.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .device import MziDevice
from .photorefractive import VACUUM_PERMITTIVITY_F_PER_M, DecayMode, GeometryParams, MaterialParams

# construction
SIGNAL_WAVELENGTH_M = 1550e-9
ARM_LENGTH_M = 0.04
ELECTRODE_LENGTH_M = 0.04
ELECTRODE_GAP_M = 10e-6
V_PI_V = 5.0
SIGNAL_SPLIT = 0.5
IRRADIATION_SPLIT = 0.55
IRRADIATION_COUPLING_DB = 3.0

# working point: one fringe past v_pi, with a finite extinction floor.  A
# perfect null would make relative magnification divergent; eps0 sets the
# floor at about -58 dB, deep but achievable for a well-trimmed LN VOA.
WORKING_POINT_V = 5.8
RESIDUAL_BIAS_RAD = 2.5e-3

# transport behavior
BIAS_ASYMMETRY_PER_V = 2.5e-3   # chi(V) = this * V, drift vs photovoltaic
DARK_RELAXATION_S = 2000.0
REL_PERMITTIVITY = 28.0
SUBLINEAR_EXPONENT = 2
CROSSOVER_POWER_W = 7e-6        # per-arm power where photoconductivity bends

# microscopic constants used to split the fitted products
REFRACTIVE_INDEX = 2.1381
R33_M_PER_V = 30.8e-12
MODE_OVERLAP = 0.32

# fit anchors
ANCHOR_MAGNIFICATION_DB = 8.3
ANCHOR_POWER_W = 3e-9
PEAK_POWER_W = 6.26e-6

# B in 1/W: puts the saturated magnification peak at PEAK_POWER_W
RESPONSE_SATURATION_PER_W = 353179.76099905104


def _fhat(power_w: float, b: float) -> float:
    """Normalized saturated response f / A of a photoconductively linear arm."""
    return power_w / (1.0 + b * power_w)


def _arm_powers(injected_w: float) -> tuple[float, float]:
    delivered = injected_w * 10.0 ** (-IRRADIATION_COUPLING_DB / 10.0)
    return delivered * IRRADIATION_SPLIT, delivered * (1.0 - IRRADIATION_SPLIT)


def _norm_deviation(injected_w: float, b: float) -> float:
    """Saturated working-point phase deviation per unit of D*A.

    Closed form of the equilibrated interferometer phase minus its baseline at
    the working point, valid while both arms stay photoconductively linear:
    the differential term drives the deviation up, the common-mode term
    (weighted by the working-point asymmetry chi0) pulls it down at high
    power, which is what creates the peak.
    """
    chi0 = BIAS_ASYMMETRY_PER_V * WORKING_POINT_V
    p1, p2 = _arm_powers(injected_w)
    f1, f2 = _fhat(p1, b), _fhat(p2, b)
    return (1.0 + chi0**2) * (f1 - f2) - 2.0 * chi0 * (f1 + f2)


@lru_cache(maxsize=None)
def fit_response_amplitude() -> float:
    """A in 1/W, fixed exactly by the low-power magnification anchor.

    Inverts M(P) = 20*log10(sin((eps0 + delta)/2) / sin(eps0/2)) for the
    deviation delta at the anchor power, then scales the normalized deviation.
    """
    b = RESPONSE_SATURATION_PER_W
    target = math.sin(0.5 * RESIDUAL_BIAS_RAD) * 10.0 ** (ANCHOR_MAGNIFICATION_DB / 20.0)
    delta = 2.0 * math.asin(target) - RESIDUAL_BIAS_RAD
    phase_scale = 2.0 * math.pi * ARM_LENGTH_M / SIGNAL_WAVELENGTH_M
    return delta / (_norm_deviation(ANCHOR_POWER_W, b) * phase_scale)


@lru_cache(maxsize=None)
def default_material() -> MaterialParams:
    """Transport constants solved from the fitted lumped products."""
    a_resp = fit_response_amplitude()
    b_resp = RESPONSE_SATURATION_PER_W
    sigma_d = REL_PERMITTIVITY * VACUUM_PERMITTIVITY_F_PER_M / DARK_RELAXATION_S
    n3r = REFRACTIVE_INDEX**3 * R33_M_PER_V * MODE_OVERLAP
    prod_kappa_a = 2.0 * a_resp * sigma_d / n3r        # kappa * a
    prod_a_alpha = b_resp * sigma_d                    # a * alpha
    a_over_kappa = BIAS_ASYMMETRY_PER_V * ELECTRODE_GAP_M
    photocond = math.sqrt(prod_kappa_a * a_over_kappa)
    return MaterialParams(
        refractive_index=REFRACTIVE_INDEX,
        r33_m_per_v=R33_M_PER_V,
        mode_overlap=MODE_OVERLAP,
        photovoltaic_const=photocond / a_over_kappa,
        absorption_per_m=prod_a_alpha / photocond,
        photocond_per_w=photocond,
        dark_conductivity_s_per_m=sigma_d,
        rel_permittivity=REL_PERMITTIVITY,
        sublinear_exponent=SUBLINEAR_EXPONENT,
        crossover_power_w=CROSSOVER_POWER_W,
    )


@lru_cache(maxsize=None)
def default_geometry() -> GeometryParams:
    """Arm, electrode and signal geometry of the bench device."""
    return GeometryParams(
        arm_length_m=ARM_LENGTH_M,
        electrode_length_m=ELECTRODE_LENGTH_M,
        electrode_gap_m=ELECTRODE_GAP_M,
        signal_wavelength_m=SIGNAL_WAVELENGTH_M,
    )


def parking_bias_rad(working_point_v: float, residual_bias_rad: float, v_pi_v: float) -> float:
    """theta0 that parks a pristine device at pi + ``residual_bias_rad`` at ``working_point_v``:
    within ``MziDevice.bias_phase_rad``'s window for every declared voltage and ``v_pi_v``."""
    return math.pi + residual_bias_rad - 2.0 * math.pi * working_point_v / v_pi_v


def default_device(decay_mode: DecayMode = DecayMode.DARK_DECAY) -> MziDevice:
    """Pristine VOA parked so delta_theta(working point) = pi + eps0."""
    return MziDevice(
        material=default_material(),
        geometry=default_geometry(),
        bias_phase_rad=parking_bias_rad(WORKING_POINT_V, RESIDUAL_BIAS_RAD, V_PI_V),
        v_pi_v=V_PI_V,
        signal_split=SIGNAL_SPLIT,
        irradiation_split=IRRADIATION_SPLIT,
        irradiation_coupling_db=IRRADIATION_COUPLING_DB,
        decay_mode=decay_mode,
    )


def calibration_summary() -> dict[str, float]:
    """Fitted constants and anchor residuals, handy for reports and demos."""
    mat = default_material()
    dev = default_device()
    base = dev.transmittance(WORKING_POINT_V)
    sat = dev.equilibrated(ANCHOR_POWER_W, WORKING_POINT_V)
    peak = dev.equilibrated(PEAK_POWER_W, WORKING_POINT_V)
    return {
        "response_amplitude_per_w": mat.response_amplitude,
        "response_saturation_per_w": mat.response_saturation,
        "tau_dark_s": mat.tau_dark_s,
        "baseline_attenuation_db": dev.attenuation_db(WORKING_POINT_V),
        "anchor_magnification_db": sat.magnification_db(WORKING_POINT_V, base),
        "peak_magnification_db": peak.magnification_db(WORKING_POINT_V, base),
    }
