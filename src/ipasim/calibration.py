"""Default parameter set for a fiber-pigtailed LiNbO3 Mach-Zehnder VOA at
1550 nm exposed to 405 nm injected light.

The observable response of the device depends on the transport constants only
through four lumped quantities, the ``[material]`` keys: the response
amplitude A, the response saturation B, the drift/photovoltaic asymmetry
a/kappa (the per-volt asymmetry times the electrode gap) and the dark
relaxation time.  The defaults are fitted so the assembled device reproduces
four bench anchors at its max-attenuation working point (5.8 V, one fringe
past the half-wave voltage of 5.0 V):

  * +8.3 dB saturated output magnification for 3 nW injected before the
    ~3 dB injection coupling loss;
  * the saturated magnification peaks near 6.26 uW injected and rolls off
    above, without ever crossing the transmission maximum;
  * a 12 uW pre-treatment swept over +-20 V moves the zero-volt bias phase
    through more than a full 2*pi, with the drift contribution changing sign
    with the treatment polarity;
  * dark relaxation time of 2.0e3 s.

The split into microscopic factors is not unique; :func:`default_material`
takes textbook congruent-LiNbO3 numbers for the index, r33, overlap and
permittivity, then solves the transport factors from the lumped set.  Any
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

from ._ranges import check_arguments
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
REL_PERMITTIVITY = 28.0
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


def fit_response_amplitude() -> float:
    """A in 1/W, fixed exactly by the low-power magnification anchor.

    Inverts M(P) = 20*log10(sin((eps0 + delta)/2) / sin(eps0/2)) for the
    deviation delta at the anchor power, then divides it by the deviation per
    unit of A: the equilibrated phase minus its baseline at the working point,
    in closed form while both arms stay photoconductively linear.  Its
    differential term drives the deviation up, and its common-mode term,
    weighted by the working-point asymmetry chi0, pulls it down at high power,
    which is what creates the peak.
    """
    b, chi0 = RESPONSE_SATURATION_PER_W, BIAS_ASYMMETRY_PER_V * WORKING_POINT_V
    delivered = ANCHOR_POWER_W * 10.0 ** (-IRRADIATION_COUPLING_DB / 10.0)
    arms = (delivered * IRRADIATION_SPLIT, delivered * (1.0 - IRRADIATION_SPLIT))
    f1, f2 = (p / (1.0 + b * p) for p in arms)  # the saturated response per unit of A
    deviation = (1.0 + chi0**2) * (f1 - f2) - 2.0 * chi0 * (f1 + f2)
    target = math.sin(0.5 * RESIDUAL_BIAS_RAD) * 10.0 ** (ANCHOR_MAGNIFICATION_DB / 20.0)
    delta = 2.0 * math.asin(target) - RESIDUAL_BIAS_RAD
    phase_scale = 2.0 * math.pi * ARM_LENGTH_M / SIGNAL_WAVELENGTH_M
    return delta / (deviation * phase_scale)


# The window of each lumped constant default_material splits, checked there and
# declared by the [material] key of its name; each end, the others at their
# defaults, splits into a MaterialParams inside that class's windows.
MATERIAL_ARGUMENTS = {
    # A: from no visible response to a picowatt moving the index by 1e-2
    "response_amplitude_per_w": "[1e-9, 1e10]",
    # B: saturation from 1 W, the most power a run injects, down to 1 pW
    "response_saturation_per_w": "[1, 1e12]",
    # a/kappa: drift is 1e-10 of the photovoltaic current at 1e4 V over 1 cm, 1e2 at 1 nV over 10 nm
    "bias_asymmetry_m_per_v": "[1e-16, 1e3]",
    # the dark time: from a semiconductor's 10 us to three centuries, past any dark storage
    "dark_relaxation_s": "[1e-5, 1e10]",
}


@lru_cache(maxsize=None)
def default_material(
    response_amplitude_per_w: float = fit_response_amplitude(),
    response_saturation_per_w: float = RESPONSE_SATURATION_PER_W,
    bias_asymmetry_m_per_v: float = BIAS_ASYMMETRY_PER_V * ELECTRODE_GAP_M,
    dark_relaxation_s: float = 2000.0,
    sublinear_exponent: int = 2,
    crossover_power_w: float = CROSSOVER_POWER_W,
) -> MaterialParams:
    """The material of these lumped constants, the fit's by default, split by the textbook
    index, r33, overlap and permittivity; one outside its window is refused by name."""
    check_arguments(
        MATERIAL_ARGUMENTS, response_amplitude_per_w=response_amplitude_per_w,
        response_saturation_per_w=response_saturation_per_w,
        bias_asymmetry_m_per_v=bias_asymmetry_m_per_v, dark_relaxation_s=dark_relaxation_s,
    )
    sigma_d = REL_PERMITTIVITY * VACUUM_PERMITTIVITY_F_PER_M / dark_relaxation_s
    n3r = REFRACTIVE_INDEX**3 * R33_M_PER_V * MODE_OVERLAP
    prod_kappa_a = 2.0 * response_amplitude_per_w * sigma_d / n3r   # kappa * a
    prod_a_alpha = response_saturation_per_w * sigma_d              # a * alpha
    photocond = math.sqrt(prod_kappa_a * bias_asymmetry_m_per_v)
    return MaterialParams(
        refractive_index=REFRACTIVE_INDEX,
        r33_m_per_v=R33_M_PER_V,
        mode_overlap=MODE_OVERLAP,
        photovoltaic_const=photocond / bias_asymmetry_m_per_v,
        absorption_per_m=prod_a_alpha / photocond,
        photocond_per_w=photocond,
        dark_conductivity_s_per_m=sigma_d,
        rel_permittivity=REL_PERMITTIVITY,
        sublinear_exponent=sublinear_exponent,
        crossover_power_w=crossover_power_w,
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
