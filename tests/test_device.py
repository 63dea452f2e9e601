"""Interferometer transfer function, curves, extinction search."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipasim.calibration import (
    RESIDUAL_BIAS_RAD,
    V_PI_V,
    WORKING_POINT_V,
    default_device,
)
from ipasim.device import MziDevice, curve_rms_db
from ipasim.photorefractive import DecayMode

DEV = default_device()
# pristine extinction nearest the range center on [-12, 12] V
PRISTINE_EXTINCTION_V = 0.7980105631875942

volts = st.floats(min_value=-40.0, max_value=40.0)


@given(v=volts)
def test_transmittance_bounded_by_split_contrast(v):
    r = DEV.signal_split
    t = DEV.transmittance(v)
    assert 0.0 <= t <= 4.0 * r * (1.0 - r) + 1e-15
    assert DEV.attenuation_db(v) >= -1e-12


@given(v=volts)
@settings(max_examples=100)
def test_two_v_pi_periodicity(v):
    assert DEV.transmittance(v + 2.0 * DEV.v_pi_v) == pytest.approx(
        DEV.transmittance(v), abs=1e-9
    )


def test_working_point_sits_one_fringe_past_v_pi():
    theta = DEV.total_phase(WORKING_POINT_V)
    assert theta == pytest.approx(math.pi + RESIDUAL_BIAS_RAD, abs=1e-12)
    # a pi phase lives v_pi/2 away in voltage on either side
    assert DEV.transmittance(WORKING_POINT_V - V_PI_V / 2.0) == pytest.approx(
        DEV.transmittance(WORKING_POINT_V + V_PI_V / 2.0), rel=1e-9
    )


def test_magnification_matches_phase_deviation_law():
    # near the deep point, m = 20*log10(sin((eps0 + delta)/2) / sin(eps0/2))
    base = DEV.output_mpn(1.0, WORKING_POINT_V)
    eps0 = RESIDUAL_BIAS_RAD
    for power in (3e-9, 1e-7, 1e-6, 6.26e-6):
        attacked = DEV.equilibrated(power, WORKING_POINT_V)
        delta = attacked.total_phase(WORKING_POINT_V) - math.pi - eps0
        want = 20.0 * math.log10(
            abs(math.sin(0.5 * (eps0 + delta)) / math.sin(0.5 * eps0))
        )
        got = attacked.magnification_db(WORKING_POINT_V, base)
        assert got == pytest.approx(want, abs=1e-9)


def test_magnification_zero_against_own_baseline():
    base = DEV.output_mpn(1.0, WORKING_POINT_V)
    assert DEV.magnification_db(WORKING_POINT_V, base) == pytest.approx(0.0, abs=1e-12)
    # a NaN baseline would read out as NaN dB, an infinite one as -inf dB
    for baseline in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="baseline_mu must be positive"):
            DEV.magnification_db(WORKING_POINT_V, baseline)
    with pytest.raises(ValueError):
        DEV.output_mpn(-1.0, 0.0)


@pytest.mark.parametrize("power", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "call",
    [
        lambda d, p: d.split_irradiation(p),
        lambda d, p: d.exposed(p, WORKING_POINT_V, 10.0),
        lambda d, p: d.arm_laws(p, WORKING_POINT_V),
        lambda d, p: d.equilibrated(p, WORKING_POINT_V),
        lambda d, p: d.slowest_time_constant(p),
    ],
    ids=["split_irradiation", "exposed", "arm_laws", "equilibrated", "slowest_time_constant"],
)
@pytest.mark.parametrize("mode", list(DecayMode))
def test_non_finite_power_is_refused(call, power, mode):
    with pytest.raises(ValueError, match="power_w must be >= 0"):
        call(replace(DEV, decay_mode=mode), power)


@pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "call",
    [
        lambda d, v: d.arm_fields(v),
        lambda d, v: d.exposed(3e-6, v, 10.0),
        lambda d, v: d.exposed(0.0, v, 10.0),
        lambda d, v: d.arm_laws(3e-6, v),
        lambda d, v: d.equilibrated(3e-6, v),
    ],
    ids=["arm_fields", "exposed", "exposed-dark", "arm_laws", "equilibrated"],
)
def test_non_finite_drive_voltage_is_refused(call, v):
    with pytest.raises(ValueError, match="v_app_v must be finite"):
        call(DEV, v)


@pytest.mark.parametrize("mu_in", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_input_mean_photon_number_is_refused(mu_in):
    base = DEV.output_mpn(1.0, WORKING_POINT_V)
    with pytest.raises(ValueError, match="mu_in must be >= 0"):
        DEV.output_mpn(mu_in, WORKING_POINT_V)
    with pytest.raises(ValueError, match="mu_in must be >= 0"):
        DEV.magnification_db(WORKING_POINT_V, base, mu_in)


@pytest.mark.parametrize(
    "dt", [math.nan, np.array([1.0, math.nan]), np.array([math.nan])],
    ids=["scalar", "inside-array", "one-element-array"],
)
@pytest.mark.parametrize("power", [0.0, 3e-6])
def test_exposed_refuses_a_nan_step(dt, power):
    for mode in DecayMode:
        with pytest.raises(ValueError, match="dt_s must be >= 0"):
            replace(DEV, decay_mode=mode).exposed(power, WORKING_POINT_V, dt)


def test_with_fields_swaps_the_fields_and_checks_nothing(monkeypatch):
    soaked = DEV.exposed(5e-6, 3.0, 1e3)
    want = replace(soaked, field1_v_per_m=1.5e6, field2_v_per_m=-2e5)

    def refuse(self):
        raise AssertionError("construction re-checked")

    monkeypatch.setattr(MziDevice, "__post_init__", refuse)
    got = soaked.with_fields(1.5e6, -2e5)
    assert got == want and type(got) is MziDevice
    assert (soaked.field1_v_per_m, soaked.field2_v_per_m) != (1.5e6, -2e5)  # a new device
    rows = np.array([1.0, 2.0])
    sampled = soaked.with_fields(rows, -rows)
    assert sampled.field1_v_per_m is rows
    want = [soaked.with_fields(r, -r).total_phase(0.0) for r in rows]
    assert np.array_equal(sampled.total_phase(0.0), want)


def test_split_irradiation_applies_coupling_and_polarization():
    p1, p2 = DEV.split_irradiation(1e-3)
    delivered = 1e-3 * 10.0 ** (-DEV.irradiation_coupling_db / 10.0)
    assert p1 + p2 == pytest.approx(delivered, rel=1e-12)
    assert p1 / (p1 + p2) == pytest.approx(DEV.irradiation_split, rel=1e-12)

    lossy = replace(DEV, polarization_loss_db=0.93)
    q1, q2 = lossy.split_irradiation(1e-3)
    assert (q1 + q2) / delivered == pytest.approx(10.0 ** (-0.093), rel=1e-12)
    with pytest.raises(ValueError):
        DEV.split_irradiation(-1.0)
    with pytest.raises(ValueError, match="polarization_loss_db"):
        replace(DEV, polarization_loss_db=1.0)


def test_voltage_curve_consistent_with_scalar_methods():
    curve = DEV.voltage_curve(-12.0, 12.0, 49)
    for i in (0, 7, 24, 48):
        v = float(curve.v_app_v[i])
        assert curve.transmittance[i] == pytest.approx(DEV.transmittance(v), rel=1e-12)
        assert curve.delta_theta_rad[i] == pytest.approx(DEV.total_phase(v), rel=1e-12)
    with pytest.raises(ValueError):
        DEV.voltage_curve(-12.0, 12.0, 1)
    with pytest.raises(ValueError):
        DEV.voltage_curve(5.0, -5.0, 10)


def test_find_extinction_requires_two_periods():
    with pytest.raises(ValueError, match="2 \\* v_pi_v"):
        DEV.find_extinction_voltage(0.0, 9.9)


@pytest.mark.parametrize(
    "v_min_v, v_max_v, name",
    [(math.nan, 20.0, "v_min_v"), (0.0, math.inf, "v_max_v"), (-math.inf, 12.0, "v_min_v")],
)
def test_find_extinction_refuses_a_non_finite_end(v_min_v, v_max_v, name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        DEV.find_extinction_voltage(v_min_v, v_max_v)


def test_find_extinction_value_and_grid_stability():
    assert DEV.find_extinction_voltage(-12.0, 12.0) == pytest.approx(
        PRISTINE_EXTINCTION_V, abs=1e-6
    )


def test_find_extinction_raises_when_the_nearest_null_is_out_of_range():
    # exposure flattens the phase slope until the fringe period (~14.6 V)
    # outgrows this 10 V range; its edges are bright, not null
    exposed = DEV.equilibrated(1e-4, -20.0)
    assert exposed.transmittance(8.0) > 0.1
    with pytest.raises(ValueError, match="outside"):
        exposed.find_extinction_voltage(-2.0, 8.0)


@pytest.mark.parametrize("power", [0.0, 3e-9, 6.26e-6, 1e-4])
def test_find_extinction_lands_on_a_true_null(power):
    exposed = DEV.equilibrated(power, WORKING_POINT_V)
    v = exposed.find_extinction_voltage(-12.0, 12.0)
    assert exposed.transmittance(v) < 1e-20
    # no deeper point on a dense grid sits closer to the range center
    curve = exposed.voltage_curve(-12.0, 12.0, 4801)
    nearer = np.abs(curve.v_app_v) < abs(v) - 1e-2
    assert np.all(curve.transmittance[nearer] > 1e-6)


@given(shift=st.floats(min_value=-math.pi, max_value=math.pi))
@settings(max_examples=60, deadline=None)
def test_extinction_moves_v_pi_over_2pi_per_radian(shift):
    # extra bias phase d moves each null by -d * v_pi / (2*pi), modulo v_pi
    shifted = replace(DEV, bias_phase_rad=DEV.bias_phase_rad + shift)
    v = shifted.find_extinction_voltage(-12.0, 12.0)
    expected_residue = (PRISTINE_EXTINCTION_V - shift * V_PI_V / (2.0 * math.pi)) % V_PI_V
    assert v % V_PI_V == pytest.approx(expected_residue, abs=1e-6) or (
        # wrap-around: residues straddle the modulus boundary
        abs((v % V_PI_V) - expected_residue) == pytest.approx(V_PI_V, abs=1e-5)
    )


def test_equilibrated_matches_long_exposure():
    eq = DEV.equilibrated(5e-6, 3.0)
    tau = DEV.slowest_time_constant(5e-6)
    soaked = DEV.exposed(5e-6, 3.0, 60.0 * tau)
    assert soaked.field1_v_per_m == pytest.approx(eq.field1_v_per_m, rel=1e-9)
    assert soaked.field2_v_per_m == pytest.approx(eq.field2_v_per_m, rel=1e-9)


def test_arm_fields_push_pull():
    e1, e2 = DEV.arm_fields(7.0)
    assert e1 == -e2
    assert e1 == pytest.approx(7.0 / DEV.geometry.electrode_gap_m)


def test_pristine_discharges_both_arms():
    soaked = DEV.exposed(5e-6, 0.0, 1e4)
    assert soaked.field1_v_per_m != 0.0
    fresh = soaked.pristine()
    assert fresh.field1_v_per_m == 0.0
    assert fresh.field2_v_per_m == 0.0
    assert fresh.transmittance(1.3) == pytest.approx(DEV.transmittance(1.3), rel=1e-12)


def test_curve_rms_db():
    a = DEV.voltage_curve(-2.0, 2.0, 101)
    b = DEV.exposed(1e-6, 0.0, 1e4).voltage_curve(-2.0, 2.0, 101)
    assert curve_rms_db(a, a) == 0.0
    assert curve_rms_db(a, b) > 0.0
    with pytest.raises(ValueError, match="voltage grid"):
        curve_rms_db(a, DEV.voltage_curve(-2.0, 2.0, 100))
    # a grid through the exact null has infinite dB entries
    null_curve = DEV.voltage_curve(
        PRISTINE_EXTINCTION_V - 1.0, PRISTINE_EXTINCTION_V + 1.0, 3
    )
    if not np.isfinite(null_curve.attenuation_db).all():
        with pytest.raises(ValueError, match="finite"):
            curve_rms_db(null_curve, null_curve)


def test_construction_validation():
    with pytest.raises(ValueError, match="signal_split"):
        replace(DEV, signal_split=0.0)
    with pytest.raises(ValueError, match="irradiation_split"):
        replace(DEV, irradiation_split=1.0)
    with pytest.raises(ValueError, match="v_pi_v"):
        replace(DEV, v_pi_v=0.0)
    with pytest.raises(ValueError, match="irradiation_coupling_db"):
        replace(DEV, irradiation_coupling_db=-0.1)
