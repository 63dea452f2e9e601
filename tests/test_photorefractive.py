"""Space-charge dynamics: exponential law, time constants, stitching."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ipasim.calibration import default_material
from ipasim.photorefractive import (
    DecayMode,
    GeometryParams,
    MaterialParams,
    buildup_time_constant,
    evolve_field,
    field_coupling,
    photoconductivity,
    relaxation_step,
    steady_state_field,
)
from oracles import relaxation_closed_form, saturated_index_change

MAT = default_material()

# fraction of the way to saturation after exactly three time constants
THREE_TAU_FRACTION = 0.950212931632136

powers = st.floats(min_value=1e-12, max_value=1e-3)
fields = st.floats(min_value=-1e7, max_value=1e7)
durations = st.floats(min_value=1e-3, max_value=1e5)


def test_evolve_matches_closed_form_relaxation():
    p, e_app, f0 = 4e-6, 1e5, 2.3e4
    target = steady_state_field(MAT, p, e_app)
    tau = buildup_time_constant(MAT, p)
    for dt in (0.1, 7.0, 300.0, 5000.0):
        got = evolve_field(MAT, f0, p, e_app, dt)
        want = relaxation_closed_form(f0, target, tau, dt)
        assert got == pytest.approx(want, rel=1e-14)


@given(f0=fields, p=powers, dt=durations, split=st.floats(min_value=0.05, max_value=0.95))
@example(f0=-6369530.0, p=1e-12, dt=26198.0, split=0.5)  # large field, tiny target
@settings(max_examples=200)
def test_semigroup_composition(f0, p, dt, split):
    # one step of dt equals any two-way split of dt, to integrator precision
    whole = evolve_field(MAT, f0, p, 0.0, dt)
    part = evolve_field(MAT, f0, p, 0.0, split * dt)
    composed = evolve_field(MAT, part, p, 0.0, (1.0 - split) * dt)
    assert composed == pytest.approx(whole, rel=1e-10, abs=1e-10)


@given(p=powers)
def test_three_tau_reaches_95_percent(p):
    tau = buildup_time_constant(MAT, p)
    target = steady_state_field(MAT, p, 0.0)
    f = evolve_field(MAT, 0.0, p, 0.0, 3.0 * tau)
    assert f / target == pytest.approx(THREE_TAU_FRACTION, rel=1e-3)


def test_buildup_time_strictly_decreasing_in_power():
    grid = [10 ** (-9 + 0.1 * i) for i in range(60)]  # 1 nW .. 1 mW
    taus = [buildup_time_constant(MAT, p) for p in grid]
    assert all(a > b for a, b in zip(taus, taus[1:]))
    assert buildup_time_constant(MAT, 0.0) == pytest.approx(MAT.tau_dark_s)


def test_photoconductivity_stitching():
    pc = MAT.crossover_power_w
    below = photoconductivity(MAT, pc * (1.0 - 1e-12))
    at = photoconductivity(MAT, pc)
    above = photoconductivity(MAT, pc * (1.0 + 1e-12))
    assert below == pytest.approx(at, rel=1e-9)
    assert above == pytest.approx(at, rel=1e-9)
    # linear branch below, square-root growth above
    assert photoconductivity(MAT, pc / 2) == pytest.approx(at / 2, rel=1e-12)
    assert photoconductivity(MAT, 4 * pc) == pytest.approx(2 * at, rel=1e-12)


@given(p=st.floats(min_value=1e-12, max_value=7e-6))
def test_linear_regime_response_closed_form(p):
    # below the crossover the saturated response f(P) = G * e_inf(P) is A*P / (1 + B*P)
    a, b = MAT.response_amplitude, MAT.response_saturation
    assert MAT.field_response * steady_state_field(MAT, p) == pytest.approx(
        a * p / (1.0 + b * p), rel=1e-12
    )


def test_microscopic_and_lumped_routes_agree():
    # delta_n = f * L / l_eff ties the two formulations together
    length = 0.04
    l_eff = length * MAT.photocond_per_w / MAT.absorption_per_m
    for p in (1e-9, 1e-7, 3e-6, 6.9e-6):
        micro = saturated_index_change(MAT, p)
        lumped = MAT.field_response * steady_state_field(MAT, p) * length / l_eff
        assert micro == pytest.approx(lumped, rel=1e-12)


def test_steady_state_screens_applied_field():
    p = 3e-6
    sigma_ph = photoconductivity(MAT, p)
    sigma = MAT.dark_conductivity_s_per_m + sigma_ph
    e_app = 2e6
    expected = (
        MAT.photovoltaic_const * MAT.absorption_per_m * p - sigma_ph * e_app
    ) / sigma
    assert steady_state_field(MAT, p, e_app) == pytest.approx(expected, rel=1e-14)
    # no light, no photovoltaic drive and no screening
    assert steady_state_field(MAT, 0.0, e_app) == 0.0


def test_dark_behavior_frozen_vs_decay():
    f0 = 5e4
    assert evolve_field(MAT, f0, 0.0, 0.0, 1e6, DecayMode.FROZEN) == f0
    assert evolve_field(MAT, f0, 0.0, 0.0, math.inf, DecayMode.FROZEN) == f0
    assert evolve_field(MAT, f0, 0.0, 0.0, math.inf, DecayMode.DARK_DECAY) == 0.0
    decayed = evolve_field(MAT, f0, 0.0, 0.0, MAT.tau_dark_s, DecayMode.DARK_DECAY)
    assert decayed == pytest.approx(f0 * math.exp(-1.0), rel=1e-12)


def test_validation():
    with pytest.raises(ValueError):
        photoconductivity(MAT, -1e-9)
    with pytest.raises(ValueError):
        evolve_field(MAT, 0.0, -1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        evolve_field(MAT, 0.0, 1e-6, 0.0, -1.0)
    with pytest.raises(ValueError, match="must be positive"):
        MaterialParams(
            refractive_index=2.14,
            r33_m_per_v=30.8e-12,
            mode_overlap=0.32,
            photovoltaic_const=-1.0,
            absorption_per_m=1.0,
            photocond_per_w=1.0,
            dark_conductivity_s_per_m=1e-16,
            rel_permittivity=28.0,
        )
    with pytest.raises(ValueError, match="electrode_length_m"):
        GeometryParams(
            arm_length_m=0.01,
            electrode_length_m=0.02,
            electrode_gap_m=10e-6,
            signal_wavelength_m=1550e-9,
        )


@pytest.mark.parametrize("power", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "call",
    [
        lambda p: photoconductivity(MAT, p),
        lambda p: buildup_time_constant(MAT, p),
        lambda p: steady_state_field(MAT, p, 1e5),
        lambda p: evolve_field(MAT, 1e5, p, 0.0, 1.0),
        lambda p: evolve_field(MAT, 1e5, p, 0.0, 1.0, DecayMode.DARK_DECAY),
    ],
    ids=["photoconductivity", "buildup_time_constant", "steady_state_field", "evolve_field",
         "evolve_field-dark"],
)
def test_non_finite_power_is_refused(call, power):
    with pytest.raises(ValueError, match="power_w must be >= 0 and finite"):
        call(power)


@pytest.mark.parametrize(
    "dt", [math.nan, np.array([1.0, math.nan, 3.0]), np.array([math.nan])],
    ids=["scalar", "inside-array", "one-element-array"],
)
@pytest.mark.parametrize("mode", list(DecayMode))
def test_nan_step_is_refused(dt, mode):
    with pytest.raises(ValueError, match="dt_s must be >= 0"):
        evolve_field(MAT, 1e5, 1e-6, 0.0, dt, mode)
    with pytest.raises(ValueError, match="dt_s must be >= 0"):
        evolve_field(MAT, 1e5, 0.0, 0.0, dt, mode)  # a frozen arm in the dark too


@pytest.mark.parametrize(
    "x",
    [
        np.linspace(0.0, 3.0, 301),
        np.linspace(0.0, 0.5, 17),  # every row before the switch
        np.linspace(0.8, 40.0, 33),  # every row after it
        np.array([0.0, 0.3, math.log(2.0), math.log(2.0), np.nextafter(math.log(2.0), 1.0), 5.0]),
        np.zeros(4),  # a held arm: x = elapsed / inf
    ],
    ids=["across", "near", "far", "at-the-switch", "held"],
)
# the last pair rounds differently in the two forms at x = ln 2 itself
@pytest.mark.parametrize(
    "field, target",
    [(0.0, 3.7e6), (-2.5e6, 1.1e5), (4e5, 4e5), (-731271.5117751976, 694867.4738744653)],
)
def test_array_relaxation_step_takes_each_form_on_its_side_of_ln2(x, field, target):
    """The array step along a clock is expm1 up to and at x = ln 2 and exp past
    it, each sample as if stepped alone; a column of starts, as in a program's
    (2, N) block of both arms, gives one row of samples each."""
    got = relaxation_step(field, target, x)
    near, gap = x <= math.log(2.0), field - target
    assert np.array_equal(got[near], (field + gap * np.expm1(-x))[near])
    assert np.array_equal(got[~near], (target + gap * np.exp(-x))[~near])
    alone = [relaxation_step(np.array([field]), target, x[i : i + 1]) for i in range(len(x))]
    assert np.array_equal(got, np.concatenate(alone))
    starts = np.array([[field], [target], [-1e6]])
    rows = relaxation_step(starts, target, x)
    assert rows.shape == (3, len(x))
    for start, row in zip(starts[:, 0], rows):
        assert np.array_equal(row, relaxation_step(np.full(len(x), start), target, x))
