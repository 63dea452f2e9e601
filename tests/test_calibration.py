"""Fitted defaults reproduce the bench anchors they were pinned to."""

import math

import pytest

from ipasim import calibration as cal
from ipasim._ranges import interval
from ipasim.security import QkdScenario, zero_key_threshold
from oracles import p_min_elasticity, refused

SUMMARY = cal.calibration_summary()


def test_low_power_anchor_exact_by_construction():
    # 3 nW injected saturates to +8.3 dB at the working point
    assert SUMMARY["anchor_magnification_db"] == pytest.approx(8.3, abs=1e-9)


def test_magnification_peaks_at_the_anchor_power():
    dev = cal.default_device()
    base = dev.output_mpn(1.0, cal.WORKING_POINT_V)

    def sat_m(power):
        return dev.equilibrated(power, cal.WORKING_POINT_V).magnification_db(
            cal.WORKING_POINT_V, base
        )

    peak = SUMMARY["peak_magnification_db"]
    assert peak == pytest.approx(57.838438976571574, abs=1e-6)
    assert sat_m(cal.PEAK_POWER_W) == pytest.approx(peak, abs=1e-9)
    # interior maximum: strictly below the peak on both sides
    assert sat_m(0.8 * cal.PEAK_POWER_W) < peak
    assert sat_m(1.25 * cal.PEAK_POWER_W) < peak
    # and the peak never crosses the transmission maximum over the baseline
    assert peak < SUMMARY["baseline_attenuation_db"]


def test_dark_relaxation_time_anchor():
    assert cal.default_material().tau_dark_s == pytest.approx(2000.0, rel=1e-12)


def test_baseline_attenuation_set_by_residual_bias():
    dev = cal.default_device()
    r = cal.SIGNAL_SPLIT
    t_floor = 4.0 * r * (1.0 - r) * math.sin(0.5 * cal.RESIDUAL_BIAS_RAD) ** 2
    assert SUMMARY["baseline_attenuation_db"] == pytest.approx(
        -10.0 * math.log10(t_floor), abs=1e-9
    )
    assert dev.attenuation_db(cal.WORKING_POINT_V) == pytest.approx(
        SUMMARY["baseline_attenuation_db"], abs=1e-12
    )


def test_fitted_products_recoverable_from_material():
    mat = cal.default_material()
    assert mat.response_amplitude == pytest.approx(cal.fit_response_amplitude(), rel=1e-9)
    assert mat.response_saturation == pytest.approx(cal.RESPONSE_SATURATION_PER_W, rel=1e-9)
    # drift/photovoltaic asymmetry chi(V)/V = a / (kappa * gap)
    chi_per_v = mat.photocond_per_w / (mat.photovoltaic_const * cal.ELECTRODE_GAP_M)
    assert chi_per_v == pytest.approx(cal.BIAS_ASYMMETRY_PER_V, rel=1e-9)


def test_default_device_construction():
    dev = cal.default_device()
    assert dev.v_pi_v == cal.V_PI_V
    assert dev.signal_split == cal.SIGNAL_SPLIT
    assert dev.irradiation_split == cal.IRRADIATION_SPLIT
    assert dev.polarization_loss_db == 0.0
    assert dev.field1_v_per_m == 0.0 and dev.field2_v_per_m == 0.0


def test_peak_stationarity_closed_form_reproduces_the_stored_saturation():
    # Linear-regime arm response f_i = a_i I / (1 + B a_i I) with a_i the arm's
    # share of the injected power I.  The deviation
    # (1 + chi^2)(f1 - f2) - 2 chi (f1 + f2) is stationary where
    # sqrt(a1)(1 - chi)(1 + B a2 I) = sqrt(a2)(1 + chi)(1 + B a1 I), linear in B.
    coupling = 10.0 ** (-cal.IRRADIATION_COUPLING_DB / 10.0)
    a1 = coupling * cal.IRRADIATION_SPLIT
    a2 = coupling * (1.0 - cal.IRRADIATION_SPLIT)
    chi = cal.BIAS_ASYMMETRY_PER_V * cal.WORKING_POINT_V
    r1 = math.sqrt(a1) * (1.0 - chi)
    r2 = math.sqrt(a2) * (1.0 + chi)
    b = (r2 - r1) / (cal.PEAK_POWER_W * (r1 * a2 - r2 * a1))
    assert b == pytest.approx(cal.RESPONSE_SATURATION_PER_W, rel=1e-7)
    # the peak lies inside the photoconductively linear window
    assert cal.PEAK_POWER_W * a1 < cal.CROSSOVER_POWER_W


def test_the_default_split_is_the_last_microscopic_defaults_bit_for_bit():
    # the [material] literals of demos/configs/default.ini before the lumped keys
    mat = cal.default_material()
    assert (
        mat.refractive_index, mat.r33_m_per_v, mat.mode_overlap, mat.photovoltaic_const,
        mat.absorption_per_m, mat.photocond_per_w, mat.dark_conductivity_s_per_m,
        mat.rel_permittivity, mat.sublinear_exponent, mat.crossover_power_w,
    ) == (
        2.1381, 3.08e-11, 0.32, 4878.357415143211, 0.00035897065649201186,
        0.00012195893537858028, 1.2395862937920003e-13, 28.0, 2, 7e-06,
    )
    # A and the dark time read back from the split give the split again
    assert cal.default_material(mat.response_amplitude, dark_relaxation_s=mat.tau_dark_s) == mat


@pytest.mark.parametrize("key", cal.MATERIAL_ARGUMENTS)
def test_each_lumped_window_end_splits_inside_the_material_windows(key):
    window = interval(cal.MATERIAL_ARGUMENTS[key])
    for end in (window.least, window.most):
        assert math.isfinite(end)
        cal.default_material(**{key: end})  # MaterialParams checks each of its windows
    for past in (math.nextafter(window.least, -math.inf), math.nextafter(window.most, math.inf)):
        with refused(key):
            cal.default_material(**{key: past})


# P_min's elasticity to each lumped key, d ln P_min / d ln x: how the paper's
# headline, the least power reaching the zero-key point, depends on the
# calibration.  The dark time's is exactly 0: P_min is a steady state.
ELASTICITIES = {
    "response_amplitude_per_w": -1.0005,
    "response_saturation_per_w": 0.0005,
    "bias_asymmetry_m_per_v": 0.408,
    "dark_relaxation_s": 0.0,
}


def test_every_lumped_key_has_an_elasticity():
    assert set(ELASTICITIES) == set(cal.MATERIAL_ARGUMENTS)


@pytest.mark.parametrize("key", ELASTICITIES)
def test_p_min_elasticity_to_each_lumped_key(key):
    elasticity = p_min_elasticity(key, zero_key_threshold(QkdScenario()))
    assert elasticity == pytest.approx(ELASTICITIES[key], abs=1e-3)
