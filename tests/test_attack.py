"""Exposure programs, pre-treatment, initialization, pulse control loop."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ipasim.attack as attack_module
from ipasim._ranges import MAX_STEPS
from ipasim.attack import (
    INIT_POWER_W,
    SETTLE_PERIODS,
    IrradiationProgram,
    PreTreatmentPlan,
    PulseController,
    Segment,
    initialize_device,
    pre_treat,
    pulse_inject_to_target,
    run_program,
)
from ipasim.calibration import WORKING_POINT_V, default_device
from ipasim.device import curve_rms_db
from ipasim.photorefractive import DecayMode, relaxation_step
from oracles import exposure_loop, pulse_loop, refused, saturation_loop, single_period_gain_db

DEV = default_device()
WP = WORKING_POINT_V

# magnification one full-duty default period gains from a pristine device;
# no later state can gain more, so this bounds the loop's overshoot
PRISTINE_PERIOD_GAIN_DB = 30.29931072508395


def _analytic_pretreat_shift(device, v_app, power):
    eq = device.equilibrated(power, v_app)
    return eq.total_phase(0.0) - device.total_phase(0.0)


# -- programs ------------------------------------------------------------------


def test_program_validation():
    with pytest.raises(ValueError):
        Segment(-1e-6, 1.0)
    with pytest.raises(ValueError):
        Segment(1e-6, 0.0)
    with pytest.raises(ValueError):
        IrradiationProgram(())
    with pytest.raises(ValueError):
        IrradiationProgram.pulse_train(1e-6, 10.0, 11.0, 5)
    with pytest.raises(ValueError):
        IrradiationProgram.pulse_train(1e-6, 10.0, 1.0, 0)
    train = IrradiationProgram.pulse_train(1e-6, 10.0, 1.0, 3)
    assert train.total_duration_s == pytest.approx(30.0)
    assert train.pulse_width_s == 1.0


@pytest.mark.parametrize(
    "count, message",
    [
        (1.5, "count: expected an integer, got '1.5'"),
        (0, re.escape("count must be in [1, 1000000]")),
        # refused before (on, off) * count allocates the segments
        (MAX_STEPS + 1, re.escape("count must be in [1, 1000000]")),
    ],
    ids=["1.5", "0", "MAX_STEPS+1"],
)
def test_pulse_train_refuses_a_count_that_is_no_count_of_periods(count, message):
    with pytest.raises(ValueError, match=message):
        IrradiationProgram.pulse_train(1e-6, 10.0, 1.0, count)


@pytest.mark.parametrize(
    "power, duration, name",
    [(math.nan, 1.0, "power_w"), (math.inf, 1.0, "power_w"), (1e-6, math.nan, "duration_s"),
     (1e-6, math.inf, "duration_s")],
)
def test_segment_refuses_non_finite_values(power, duration, name):
    with refused(name):
        Segment(power, duration)


@pytest.mark.parametrize("period, width", [(10.0, 1.0), (1.1, 0.3), (10.0, 10.0)])
def test_pulse_train_segments_match_one_segment_per_period(period, width):
    train = IrradiationProgram.pulse_train(12e-6, period, width, 7)
    want = []
    for _ in range(7):
        want.append((12e-6, width))
        if width < period:
            want.append((0.0, period - width))
    assert [(s.power_w, s.duration_s) for s in train.segments] == want


def test_run_program_rejects_coarse_sampling_of_pulse_trains():
    train = IrradiationProgram.pulse_train(12e-6, 10.0, 1.0, 2)
    with pytest.raises(ValueError, match="pulse_width_s / 4"):
        run_program(DEV, train, 1.0, WP, dt_s=0.3)
    run_program(DEV, train, 1.0, WP, dt_s=0.25)  # quarter width is allowed
    with pytest.raises(ValueError):
        run_program(DEV, train, 1.0, WP, dt_s=0.0)


@pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -1.0])
def test_a_step_outside_zero_to_inf_is_refused(dt):
    # a zero-power plan takes no step, and its step is refused all the same
    for plan in (PreTreatmentPlan(), PreTreatmentPlan(i_ir_w=0.0)):
        with refused("dt_s"):
            pre_treat(DEV, plan, dt_s=dt)
    with refused("dt_s"):
        initialize_device(DEV, dt_s=dt)
    if dt != math.inf:  # a program takes an infinite step as one sample per segment
        with refused("dt_s"):
            run_program(DEV, IrradiationProgram.cw(1e-6, 100.0), 1.0, WP, dt)


def test_zero_power_program_on_frozen_device_is_flat():
    frozen = replace(DEV.exposed(6e-6, WP, 5e3), decay_mode=DecayMode.FROZEN)
    res = run_program(frozen, IrradiationProgram.cw(0.0, 100.0), 1.0, WP, dt_s=10.0)
    assert np.allclose(res.trace.m_db, 0.0, atol=1e-12)
    assert res.device.field1_v_per_m == frozen.field1_v_per_m


def test_run_program_trace_shape_and_monotone_rise():
    res = run_program(DEV, IrradiationProgram.cw(3e-6, 2000.0), 1.0, WP, dt_s=100.0)
    tr = res.trace
    assert tr.t_s[0] == 0.0 and tr.t_s[-1] == pytest.approx(2000.0)
    assert len(tr.t_s) == 21
    assert tr.m_db[0] == pytest.approx(0.0, abs=1e-12)
    # rise toward saturation is monotone for a cw program at this power
    assert np.all(np.diff(tr.m_db) > 0.0)


def test_run_program_sampling_does_not_change_the_endpoint():
    coarse = run_program(DEV, IrradiationProgram.cw(3e-6, 1800.0), 1.0, WP, dt_s=600.0)
    fine = run_program(DEV, IrradiationProgram.cw(3e-6, 1800.0), 1.0, WP, dt_s=7.0)
    assert coarse.device.field1_v_per_m == pytest.approx(
        fine.device.field1_v_per_m, rel=1e-12
    )
    assert coarse.trace.m_db[-1] == pytest.approx(fine.trace.m_db[-1], rel=1e-12)


# -- pre-treatment ---------------------------------------------------------------


def test_pretreat_converges_to_the_analytic_saturated_shift():
    plan = PreTreatmentPlan(v_app_v=0.0, i_ir_w=12e-6, saturation_epsilon=1e-6)
    res = pre_treat(DEV, plan, dt_s=60.0)
    assert res.converged
    want = _analytic_pretreat_shift(DEV, 0.0, 12e-6)
    assert res.bias_shift_rad == pytest.approx(want, abs=2e-4)
    # the returned device must hold the shift indefinitely
    assert res.device.decay_mode is DecayMode.FROZEN
    later = res.device.exposed(0.0, 0.0, 1e6)
    assert later.total_phase(0.0) == pytest.approx(res.device.total_phase(0.0))


@pytest.mark.parametrize("v_app", [-20.0, -15.0, 15.0, 20.0])
def test_pretreat_shift_tracks_treatment_voltage(v_app):
    plan = PreTreatmentPlan(v_app_v=v_app, i_ir_w=12e-6, saturation_epsilon=1e-5)
    res = pre_treat(DEV, plan, dt_s=60.0)
    assert res.converged
    want = _analytic_pretreat_shift(DEV, v_app, 12e-6)
    assert res.bias_shift_rad == pytest.approx(want, abs=2e-3)


def test_pretreat_drift_component_is_odd_in_voltage():
    up = _analytic_pretreat_shift(DEV, 15.0, 12e-6)
    down = _analytic_pretreat_shift(DEV, -15.0, 12e-6)
    zero = _analytic_pretreat_shift(DEV, 0.0, 12e-6)
    assert (up - zero) == pytest.approx(-(down - zero), rel=1e-9)
    assert up < zero < down


def test_pretreat_zero_power_is_a_no_op():
    res = pre_treat(DEV, PreTreatmentPlan(v_app_v=5.0, i_ir_w=0.0))
    assert res.converged and res.steps == 0
    assert res.bias_shift_rad == 0.0
    assert replace(res.device, decay_mode=DEV.decay_mode) == DEV
    assert len(res.trace.t_s) == 1


@pytest.mark.parametrize("power_w", [0.0, 12e-6], ids=["zero-power", "powered"])
@pytest.mark.parametrize("mode", list(DecayMode), ids=lambda m: m.value)
def test_pretreat_hands_back_a_frozen_device_at_any_power(power_w, mode):
    device = replace(DEV, decay_mode=mode)
    res = pre_treat(device, PreTreatmentPlan(v_app_v=5.0, i_ir_w=power_w))
    assert res.device.decay_mode is DecayMode.FROZEN


def test_pretreat_step_budget_reports_not_converged():
    plan = PreTreatmentPlan(v_app_v=0.0, i_ir_w=12e-6, saturation_epsilon=1e-6)
    res = pre_treat(DEV, plan, dt_s=60.0, max_steps=3)
    assert not res.converged
    assert res.steps == 3


@pytest.mark.parametrize(
    "run",
    [
        lambda: pre_treat(DEV, PreTreatmentPlan(), dt_s=5e-324, max_steps=10),
        lambda: initialize_device(DEV, dt_s=5e-324, max_steps=10),
        lambda: initialize_device(DEV, saturation_epsilon=5e-324, max_steps=10),
    ],
    ids=["pre_treat-dt_s", "initialize_device-dt_s", "initialize_device-saturation_epsilon"],
)
def test_a_step_count_too_large_for_an_integer_runs_to_the_budget(run):
    # the count that settles the arms is inf; capped in float before it is rounded up
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run()
    assert res.steps == 10
    assert res.converged is False


def test_pretreat_plan_validation():
    with pytest.raises(ValueError):
        PreTreatmentPlan(i_ir_w=-1.0)
    with pytest.raises(ValueError):
        PreTreatmentPlan(saturation_epsilon=0.5)


@pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -1.0, 0.5])
def test_a_saturation_epsilon_outside_its_range_is_refused(eps):
    # the plan and a bare saturation run read the one declared interval
    message = r"saturation_epsilon must be in \(0, 0.1\)"
    with pytest.raises(ValueError, match=message):
        PreTreatmentPlan(saturation_epsilon=eps)
    with pytest.raises(ValueError, match=message):
        initialize_device(DEV, saturation_epsilon=eps)


def test_pretreat_plan_refuses_a_nan_power():
    with refused("i_ir_w"):
        PreTreatmentPlan(i_ir_w=math.nan)


def test_saturation_refuses_a_nan_power():
    with refused("power_w"):
        initialize_device(DEV, power_w=math.nan)


# -- initialization ----------------------------------------------------------------


def test_initialization_erases_attenuation_history():
    reference = initialize_device(DEV).device
    ref_curve = reference.voltage_curve(-12.0, 12.0, 201)
    for v_app in (-20.0, 20.0):
        treated = pre_treat(DEV, PreTreatmentPlan(v_app_v=v_app, i_ir_w=12e-6)).device
        restored = initialize_device(treated)
        assert restored.converged
        rms = curve_rms_db(ref_curve, restored.device.voltage_curve(-12.0, 12.0, 201))
        assert rms < 0.05


def test_initialization_state_is_history_independent():
    a = initialize_device(DEV).device
    b = initialize_device(DEV.exposed(12e-6, 20.0, 3e4)).device
    assert a.field1_v_per_m == pytest.approx(b.field1_v_per_m, rel=1e-5)
    assert a.field2_v_per_m == pytest.approx(b.field2_v_per_m, rel=1e-5)


# -- pulse injection -----------------------------------------------------------------


def test_controller_validation():
    with pytest.raises(ValueError):
        PulseController(30.0, duty_min=0.0)
    with pytest.raises(ValueError):
        PulseController(30.0, duty_min=0.5, duty_max=0.5)
    with pytest.raises(ValueError):
        PulseController(30.0, gain_duty_per_db=0.0)
    with pytest.raises(ValueError):
        PulseController(30.0, settle_tol_db=0.0)
    with pytest.raises(ValueError):
        PulseController(30.0, noise_db=-0.1)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "field",
    ["target_m_db", "gain_duty_per_db", "settle_tol_db", "period_s", "peak_power_w", "noise_db"],
)
def test_controller_refuses_non_finite_inputs(field, value):
    with refused(field):
        PulseController(**{"target_m_db": 30.0, field: value})


def test_infeasible_target_returns_the_device_untouched():
    ctrl = PulseController(target_m_db=70.0)
    res = pulse_inject_to_target(DEV, ctrl, 1.0, WP)
    assert not res.feasible and not res.settled
    assert res.device == DEV
    assert res.periods == 0
    assert math.isnan(res.final_duty)
    assert res.saturated_m_db < 70.0


def test_zero_target_settles_immediately():
    res = pulse_inject_to_target(DEV, PulseController(target_m_db=0.0), 1.0, WP)
    assert res.settled
    assert res.periods == SETTLE_PERIODS


@pytest.mark.parametrize("target", [10.0, 30.0, 45.0])
def test_loop_settles_on_target_and_respects_duty_bounds(target):
    ctrl = PulseController(target_m_db=target)
    res = pulse_inject_to_target(DEV, ctrl, 1.0, WP)
    assert res.feasible and res.settled
    assert np.all(res.trace.duty >= ctrl.duty_min)
    assert np.all(res.trace.duty <= ctrl.duty_max)
    # the terminal streak sits within tolerance of the target
    tail = res.trace.m_db[-SETTLE_PERIODS:]
    assert np.all(np.abs(tail - target) <= ctrl.settle_tol_db + 1e-12)
    # no period can gain more than a pristine full-duty period does
    assert np.max(res.trace.m_db) <= target + PRISTINE_PERIOD_GAIN_DB
    assert single_period_gain_db(DEV, ctrl, 1.0, WP) == pytest.approx(
        PRISTINE_PERIOD_GAIN_DB, abs=1e-9
    )


def test_hold_keeps_regulating_after_settling():
    ctrl = PulseController(target_m_db=30.0)
    res = pulse_inject_to_target(DEV, ctrl, 1.0, WP, hold_periods=50)
    assert res.settled
    assert res.held_max_abs_error_db <= 0.2
    # dark decay forces a strictly positive replenishment duty
    hold = res.trace.duty[-50:]
    assert np.all(hold > 0.0)
    assert res.holding_duty_mean > ctrl.duty_min
    # the hold duty must outpace one period of dark relaxation: switching the
    # beam off for a period visibly drops the magnification from this state
    base = DEV.output_mpn(1.0, WP)
    m_now = res.device.magnification_db(WP, base)
    m_dark = res.device.exposed(0.0, WP, ctrl.period_s).magnification_db(WP, base)
    assert m_now - m_dark > ctrl.settle_tol_db / 10.0


def test_noise_requires_an_rng_and_is_reproducible():
    ctrl = PulseController(target_m_db=20.0, noise_db=0.05)
    with pytest.raises(ValueError, match="rng"):
        pulse_inject_to_target(DEV, ctrl, 1.0, WP)
    a = pulse_inject_to_target(DEV, ctrl, 1.0, WP, rng=np.random.default_rng(7))
    b = pulse_inject_to_target(DEV, ctrl, 1.0, WP, rng=np.random.default_rng(7))
    c = pulse_inject_to_target(DEV, ctrl, 1.0, WP, rng=np.random.default_rng(8))
    assert np.array_equal(a.trace.m_db, b.trace.m_db)
    assert not np.array_equal(a.trace.m_db, c.trace.m_db)


@pytest.mark.parametrize("max_periods", [10, 64, 2000], ids=["10", "64", "settles"])
def test_noisy_loop_leaves_the_generator_one_draw_per_period_on(max_periods):
    # the noise is drawn 64 values at a time; the caller's generator must
    # still end where one scalar standard_normal() per period leaves it
    ctrl = PulseController(target_m_db=25.0, noise_db=0.02)
    rng = np.random.default_rng(3)
    res = pulse_inject_to_target(DEV, ctrl, 1.0, WP, max_periods=max_periods, rng=rng)
    assert res.periods == max_periods or (res.settled and res.periods > 128)
    fresh = np.random.default_rng(3)
    for _ in range(res.periods):
        fresh.standard_normal()
    assert rng.random() == fresh.random()


def test_noise_free_loop_leaves_the_generator_untouched():
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    res = pulse_inject_to_target(DEV, PulseController(target_m_db=25.0), 1.0, WP, rng=rng)
    assert res.settled
    assert rng.bit_generator.state == before


def test_a_noisy_loop_without_an_rng_is_refused_even_for_an_infeasible_target():
    # the arguments are checked before the feasibility test, which returns early
    ctrl = PulseController(target_m_db=100.0, noise_db=0.1)
    with pytest.raises(ValueError, match="noise_db > 0 needs an rng"):
        pulse_inject_to_target(DEV, ctrl, 1.0, WP)
    assert not pulse_inject_to_target(DEV, ctrl, 1.0, WP, rng=np.random.default_rng(1)).feasible


def test_max_periods_reports_unsettled():
    res = pulse_inject_to_target(DEV, PulseController(target_m_db=45.0), 1.0, WP, max_periods=10)
    assert res.feasible and not res.settled
    assert res.periods == 10
    assert math.isnan(res.held_max_abs_error_db)


@pytest.mark.parametrize("periods", [{"max_periods": 0}, {"hold_periods": -5}])
def test_pulse_loop_refuses_an_invalid_period_count(periods):
    with pytest.raises(ValueError, match=r"^(max|hold)_periods must be (in \[1, |>= 0)"):
        pulse_inject_to_target(DEV, PulseController(target_m_db=45.0), 1.0, WP, **periods)


# -- segment evaluation against literal step loops ----------------------------------

FROZEN_DEV = replace(DEV, decay_mode=DecayMode.FROZEN)
PRE_EXPOSED = DEV.exposed(12e-6, 20.0, 3e4)


@pytest.mark.parametrize(
    "device, segments, mu_in, v_app, dt",
    [
        (DEV, [(3e-6, 2000.0)], 1.0, WP, 100.0),
        (DEV, [(6e-6, 700.0), (0.0, 900.0), (2e-6, 450.0)], 1.0, WP, 60.0),
        (FROZEN_DEV, [(6e-6, 700.0), (0.0, 900.0), (2e-6, 450.0)], 0.5, WP, 60.0),
        (PRE_EXPOSED, [(12e-6, 10.0), (0.0, 10.0)] * 4, 1.0, WP, 0.25),
        (DEV, [(12e-6, 0.7)], 1.0, WP, 0.1),  # float residue: two rows at t = 0.7
        (PRE_EXPOSED, [(1e-7, 5e4)], 2.0, -3.0, 1234.5),
        (DEV, [(12e-6, 2.0), (0.0, 8.0)] * 60, 1.0, WP, 0.5),
        (FROZEN_DEV, [(12e-6, 2.0), (0.0, 8.0)] * 60, 1.0, WP, 0.5),
    ],
    ids=[
        "cw", "dark-segment", "dark-segment-frozen", "pulse-train", "float-residue", "slow",
        "60-period-train", "60-period-train-frozen",
    ],
)
def test_run_program_matches_the_literal_step_loop(device, segments, mu_in, v_app, dt):
    res = run_program(device, IrradiationProgram.steps(segments), mu_in, v_app, dt)
    want = np.array(exposure_loop(device, segments, mu_in, v_app, dt))
    tr = res.trace
    assert np.array_equal(tr.t_s, want[:, 0])
    assert np.array_equal(tr.power_w, want[:, 1])
    got = np.column_stack([tr.delta_theta_rad, tr.transmittance, tr.attenuation_db, tr.m_db])
    np.testing.assert_allclose(got, want[:, 2:], rtol=1e-9, atol=1e-12)
    assert isinstance(res.device.field1_v_per_m, float)


@st.composite
def _programs(draw):
    """Multi-segment programs whose durations repeat from a small pool; the
    decimal durations leave float-residue rows against the decimal steps."""
    dt = draw(st.sampled_from([0.1, 0.3, 0.7, 1.0 / 3.0, 0.25]))
    decimal = st.integers(1, 40).map(lambda n: n / 10.0)
    scaled = st.floats(0.05, 30.0).map(lambda f: f * dt)
    pool = draw(st.lists(st.one_of(decimal, scaled), min_size=1, max_size=3))
    powers = st.sampled_from([0.0, 3e-6, 12e-6])
    segments = draw(st.lists(st.tuples(powers, st.sampled_from(pool)), min_size=1, max_size=8))
    return segments, dt


@settings(max_examples=60, deadline=None)
@given(program=_programs(), device=st.sampled_from([DEV, FROZEN_DEV]))
@example(program=([(12e-6, 0.7), (0.0, 0.7), (12e-6, 0.7)], 0.1), device=DEV)
def test_run_program_clock_is_the_literal_step_clock(program, device):
    segments, dt = program
    tr = run_program(device, IrradiationProgram.steps(segments), 1.0, WP, dt).trace
    want = np.array(exposure_loop(device, segments, 1.0, WP, dt))
    assert len(tr.t_s) == len(want)
    assert np.array_equal(tr.t_s, want[:, 0])
    assert np.array_equal(tr.power_w, want[:, 1])


def _per_segment_loop(device, segments, mu_in, v_app, dt):
    """run_program's end fields and trace by a literal loop over segments.

    Each segment takes its own arm laws and a sequential ``left -= dt`` clock;
    relaxation_step maps the segment start to each of its samples (one array
    call per arm) and to the next segment's start (one scalar call per arm),
    and the sampled device is read out through its own methods.
    """
    f1, f2 = device.field1_v_per_m, device.field2_v_per_m
    t, t_s, power_w, rows1, rows2 = 0.0, [0.0], [segments[0][0]], [[f1]], [[f2]]
    for power, duration in segments:
        (target1, tau1), (target2, tau2) = device.arm_laws(power, v_app)
        steps, left = [], duration
        while left > dt:
            steps.append(dt)
            left -= dt
        steps.append(left)
        e, elapsed = 0.0, []
        for step in steps:
            e += step
            t += step
            elapsed.append(e)
            t_s.append(t)
            power_w.append(power)
        rows1.append(relaxation_step(f1, target1, np.array(elapsed) / tau1))
        rows2.append(relaxation_step(f2, target2, np.array(elapsed) / tau2))
        f1, f2 = relaxation_step(f1, target1, e / tau1), relaxation_step(f2, target2, e / tau2)
    sampled = replace(
        device, field1_v_per_m=np.concatenate(rows1), field2_v_per_m=np.concatenate(rows2)
    )
    baseline = float(sampled.output_mpn(mu_in, v_app)[0])
    columns = (
        t_s,
        power_w,
        sampled.total_phase(v_app),
        sampled.transmittance(v_app),
        sampled.attenuation_db(v_app),
        sampled.magnification_db(v_app, baseline, mu_in),
    )
    return (f1, f2), columns


@st.composite
def _mixed_kind_programs(draw):
    """Programs in which one power runs for two durations and one duration at
    two powers, so a segment's kind is neither its power nor its duration."""
    dt = draw(st.sampled_from([0.1, 0.25, 1.0 / 3.0]))
    def two(values):
        return st.lists(values, min_size=2, max_size=2, unique=True)

    p0, p1 = draw(two(st.sampled_from([0.0, 1e-6, 3e-6, 12e-6])))
    d0, d1 = draw(two(st.integers(1, 30).map(lambda n: n / 10.0)))
    pairs = st.tuples(st.sampled_from([p0, p1]), st.sampled_from([d0, d1]))
    extra = draw(st.lists(pairs, max_size=5))
    return draw(st.permutations([(p0, d0), (p0, d1), (p1, d0), *extra])), dt


@settings(max_examples=40, deadline=None)
@given(
    program=_mixed_kind_programs(),
    device=st.sampled_from([DEV, FROZEN_DEV, PRE_EXPOSED]),
    mu_in=st.sampled_from([1.0, 0.3]),
)
@example(
    program=([(12e-6, 0.5), (12e-6, 2.0), (0.0, 0.5), (0.0, 2.0)], 0.25), device=DEV, mu_in=1.0
)
def test_run_program_keys_segments_by_power_and_duration(program, device, mu_in):
    segments, dt = program
    res = run_program(device, IrradiationProgram.steps(segments), mu_in, WP, dt)
    end, columns = _per_segment_loop(device, segments, mu_in, WP, dt)
    assert (res.device.field1_v_per_m, res.device.field2_v_per_m) == end
    tr = res.trace
    got = (tr.t_s, tr.power_w, tr.delta_theta_rad, tr.transmittance, tr.attenuation_db, tr.m_db)
    for column, want in zip(got, columns):
        assert np.array_equal(column, want)


@pytest.mark.parametrize(
    "device", [DEV, FROZEN_DEV, PRE_EXPOSED], ids=["dark", "frozen", "pre-exposed"]
)
@pytest.mark.parametrize(
    "segment, repeats, dt",
    [
        ((3e-6, 2000.0), 1, 7.0),  # crosses relaxation_step's ln 2 switch
        ((12e-6, 0.7), 1, 0.1),  # float residue
        ((1e-7, 50.0), 3, 2.5),  # every row short of the switch
        ((12e-6, 2.0), 5, 0.5),
        ((0.0, 900.0), 2, 60.0),  # dark: a frozen device holds
    ],
    ids=["cw", "float-residue", "short", "repeated", "dark"],
)
def test_program_rows_do_not_depend_on_later_segments(device, segment, repeats, dt):
    """A program's rows are a prefix of the rows of the same program followed
    by a segment of another kind, bit for bit."""
    one = run_program(device, IrradiationProgram.steps([segment] * repeats), 0.7, WP, dt).trace
    other = (segment[0] + 1e-6, segment[1] / 2.0)
    two = run_program(device, IrradiationProgram.steps([segment] * repeats + [other]), 0.7, WP, dt)
    n = len(one.t_s)
    assert len(two.trace.t_s) > n
    for name in ("t_s", "power_w", "delta_theta_rad", "transmittance", "attenuation_db", "m_db"):
        assert np.array_equal(getattr(one, name), getattr(two.trace, name)[:n]), name


@pytest.mark.parametrize(
    "run, kind",
    [
        (lambda: run_program(DEV, IrradiationProgram.cw(3e-6, 2000.0), 1.0, WP, 7.0), "program"),
        (
            lambda: run_program(
                DEV,
                IrradiationProgram.steps([(6e-6, 700.0), (0.0, 900.0), (2e-6, 450.0), (1e-6, 300.0)]),
                1.0, WP, 60.0,
            ),
            "program",
        ),
        (
            lambda: run_program(DEV, IrradiationProgram.pulse_train(12e-6, 10.0, 2.0, 60), 1.0, WP, 0.5),
            "program",
        ),
        (lambda: pre_treat(DEV, PreTreatmentPlan(-15.0, 12e-6, 1e-4)), "saturation"),
        (lambda: initialize_device(DEV), "saturation"),
    ],
    ids=["cw", "four-step", "pulse-train", "pre-treat", "init"],
)
def test_every_trace_row_comes_from_one_relaxation_step_call(monkeypatch, run, kind):
    """A program steps both arms' rows, all but the t = 0 one, in one array
    call; a saturation run steps each arm along its clock in one call."""
    shapes = []

    def spy(field, target, x):
        shapes.append(np.shape(x))
        return relaxation_step(field, target, x)

    monkeypatch.setattr(attack_module, "relaxation_step", spy)
    n = len(run().trace.t_s)
    assert shapes == ([(2, n - 1)] if kind == "program" else [(n,), (n,)])


@pytest.mark.parametrize("device", [DEV, FROZEN_DEV], ids=["dark", "frozen"])
@pytest.mark.parametrize(
    "program, dt",
    [
        (IrradiationProgram.cw(3e-6, 2000.0), 7.0),
        (IrradiationProgram.steps([(6e-6, 700.0), (0.0, 900.0), (2e-6, 450.0)]), 60.0),
        (IrradiationProgram.pulse_train(12e-6, 10.0, 2.0, 30), 0.5),
    ],
    ids=["cw", "step", "pulse-train"],
)
def test_trace_readout_is_the_sampled_device_readout(monkeypatch, device, program, dt):
    read = attack_module._trace
    sampled = []

    def spy(dev, *args):
        sampled.append(dev)
        return read(dev, *args)

    monkeypatch.setattr(attack_module, "_trace", spy)
    tr = run_program(device, program, 0.7, WP, dt).trace
    (dev,) = sampled
    baseline = float(dev.output_mpn(0.7, WP)[0])
    assert np.array_equal(tr.delta_theta_rad, dev.total_phase(WP))
    assert np.array_equal(tr.transmittance, dev.transmittance(WP))
    assert np.array_equal(tr.attenuation_db, dev.attenuation_db(WP))
    assert np.array_equal(tr.m_db, dev.magnification_db(WP, baseline, 0.7))


def test_long_segment_keeps_the_sequential_step_count():
    # 1e5 steps of 0.3 s: the sequential remainders end in a residue step,
    # one more step than ceil(duration / dt)
    duration, dt = 3e4, 0.3
    tr = run_program(DEV, IrradiationProgram.cw(3e-6, duration), 1.0, WP, dt).trace
    want = np.array(exposure_loop(DEV, [(3e-6, duration)], 1.0, WP, dt))
    assert len(tr.t_s) - 1 == math.ceil(duration / dt) + 1
    assert np.array_equal(tr.t_s, want[:, 0])
    assert np.array_equal(tr.power_w, want[:, 1])
    np.testing.assert_allclose(tr.m_db, want[:, 5], rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize(
    "device", [DEV, FROZEN_DEV, PRE_EXPOSED], ids=["dark", "frozen", "pre-exposed"]
)
def test_saturation_trace_is_the_exposed_device_readout(device):
    """A saturation run's trace is ``exposed`` at the same elapsed times,
    bit for bit."""
    for res, power, v_app in (
        (pre_treat(device, PreTreatmentPlan(-15.0, 12e-6, 1e-4)), 12e-6, -15.0),
        (initialize_device(device, dt_s=7.5), INIT_POWER_W, 0.0),
    ):
        elapsed = res.trace.t_s
        sampled = device.exposed(power, v_app, elapsed)
        assert np.array_equal(res.trace.delta_theta_rad, sampled.total_phase(v_app))
        assert np.array_equal(res.trace.transmittance, sampled.transmittance(v_app))
        end = (res.device.field1_v_per_m, res.device.field2_v_per_m)
        assert end == (sampled.field1_v_per_m[-1], sampled.field2_v_per_m[-1])


def _oracle_pretreat_cases():
    cases = []
    for device in (DEV, FROZEN_DEV, PRE_EXPOSED):
        for v_app, power, eps in ((-20.0, 12e-6, 1e-4), (0.0, 12e-6, 1e-6), (15.0, 3e-6, 1e-5)):
            cases.append((device, PreTreatmentPlan(v_app, power, eps), 60.0, 100_000))
    treated = pre_treat(DEV, PreTreatmentPlan(v_app_v=20.0, i_ir_w=12e-6)).device
    cases += [
        (treated, PreTreatmentPlan(-15.0, 12e-6, 1e-4), 60.0, 100_000),
        (DEV, PreTreatmentPlan(0.0, 12e-6, 1e-6), 60.0, 3),  # step budget runs out
        (FROZEN_DEV, PreTreatmentPlan(20.0, 12e-6, 1e-5), 60.0, 50),  # step budget runs out
        (DEV, PreTreatmentPlan(5.0, 1e-9, 1e-3), 7.5, 100_000),
        (PRE_EXPOSED, PreTreatmentPlan(-8.0, 1e-4, 1e-2), 1.0, 100_000),
    ]
    return cases


@pytest.mark.parametrize("device, plan, dt, max_steps", _oracle_pretreat_cases())
def test_pretreat_steps_match_the_literal_saturation_loop(device, plan, dt, max_steps):
    res = pre_treat(device, plan, dt_s=dt, max_steps=max_steps)
    eps = plan.saturation_epsilon
    steps, converged, fields = saturation_loop(
        device, plan.i_ir_w, plan.v_app_v, dt, eps, max_steps
    )
    assert (res.steps, res.converged) == (steps, converged)
    end = (res.device.field1_v_per_m, res.device.field2_v_per_m)
    assert end == pytest.approx(fields, rel=1e-12)
    assert len(res.trace.t_s) == res.steps + 1
    assert res.elapsed_s == res.steps * dt


@pytest.mark.parametrize(
    "device, dt, max_steps",
    [
        (DEV, 60.0, 200_000),
        (FROZEN_DEV, 60.0, 200_000),
        (PRE_EXPOSED, 60.0, 200_000),
        (replace(PRE_EXPOSED, decay_mode=DecayMode.FROZEN), 17.5, 200_000),
        (PRE_EXPOSED, 60.0, 40),  # step budget runs out
        (pre_treat(DEV, PreTreatmentPlan(v_app_v=-20.0, i_ir_w=12e-6)).device, 7.5, 200_000),
    ],
)
def test_initialization_steps_match_the_literal_saturation_loop(device, dt, max_steps):
    res = initialize_device(device, dt_s=dt, max_steps=max_steps)
    steps, converged, fields = saturation_loop(device, INIT_POWER_W, 0.0, dt, 1e-6, max_steps)
    assert (res.steps, res.converged) == (steps, converged)
    end = (res.device.field1_v_per_m, res.device.field2_v_per_m)
    assert end == pytest.approx(fields, rel=1e-12)


# the loop carries bare arm fields from period to period; the literal loop
# steps them with target + gap*exp(-x), whose relative error near a small
# move is ~eps/x, so early readings differ most in relative terms.  Measured
# worst difference over these cases: 7.7e-12 of the column's largest value (duty).
PULSE_COLUMN_TOL = 1e-10


@pytest.mark.parametrize(
    "device, ctrl, max_periods, hold_periods, seed",
    [
        (DEV, PulseController(target_m_db=30.0), 2000, 0, None),
        (FROZEN_DEV, PulseController(target_m_db=30.0), 300, 0, None),  # overshoots, never settles
        (DEV, PulseController(target_m_db=25.0, noise_db=0.02), 2000, 0, 11),
        (FROZEN_DEV, PulseController(target_m_db=25.0, noise_db=0.02), 300, 0, 11),
        (DEV, PulseController(target_m_db=35.0, noise_db=0.01), 2000, 60, 5),
        (DEV, PulseController(target_m_db=45.0), 10, 0, None),  # stopped before settling
        # the benchmark's regime: noise and a 200-period hold, much of it at
        # duty_min; a frozen device takes no dark step there
        (DEV, PulseController(target_m_db=33.0, noise_db=0.02), 2000, 200, 7),
        (FROZEN_DEV, PulseController(target_m_db=35.0, period_s=0.1, noise_db=0.01), 2000, 200, 5),
    ],
    ids=["dark", "frozen", "noisy", "noisy-frozen", "hold", "unsettled", "hold-200",
         "frozen-hold-200"],
)
def test_pulse_loop_matches_the_literal_duty_loop(device, ctrl, max_periods, hold_periods, seed):
    def rng():  # a fresh generator for each loop, so both draw the same noise
        return None if seed is None else np.random.default_rng(seed)

    res = pulse_inject_to_target(
        device, ctrl, 1.0, WP, max_periods=max_periods, hold_periods=hold_periods, rng=rng()
    )
    periods, settled, rows = pulse_loop(device, ctrl, 1.0, WP, max_periods, hold_periods, rng())
    assert (res.periods, res.settled) == (periods, settled)
    want = np.array(rows)
    tr = res.trace
    assert np.array_equal(tr.t_s, want[:, 0])
    assert np.array_equal(tr.power_w, want[:, 2])
    for got, column in ((tr.duty, want[:, 1]), (tr.m_db, want[:, 3]), (tr.error_db, want[:, 4])):
        assert np.max(np.abs(got - column)) <= PULSE_COLUMN_TOL * np.max(np.abs(column))
    # every case ramps at full duty, where the dark step is skipped
    assert ctrl.duty_max == 1.0 and np.any(tr.duty == 1.0)
    if hold_periods == 200:  # and these settle, then hold at duty_min for a while
        assert settled and np.count_nonzero(tr.duty == ctrl.duty_min) >= 100
    if ctrl.noise_db == 0.0:  # the returned device carries the final fields
        base = device.output_mpn(1.0, WP)
        assert res.device.magnification_db(WP, base) == pytest.approx(tr.m_db[-1], rel=1e-12)


# the loop reads its bare fields with magnification_db's phase and two-beam
# law written out in math; the run stopped after k periods carries the fields
# of reading k, so each reading is compared with the device's own readout
@pytest.mark.parametrize(
    "device, ctrl, mu_in, v, max_periods",
    [
        (DEV, PulseController(target_m_db=30.0), 1.0, WP, 2000),
        (FROZEN_DEV, PulseController(target_m_db=30.0), 0.3, WP, 120),
        (DEV, PulseController(target_m_db=3.0, period_s=1.0), 0.3, 0.0, 2000),
        # the least input the loop declares, while the phase passes the null on
        # its way from the start to the lit state: no reading is dark
        (FROZEN_DEV, PulseController(target_m_db=3.0, period_s=1.0), 1e-6, 0.0, 2000),
    ],
    ids=["dark", "frozen", "zero-volt", "least-input"],
)
def test_pulse_readings_are_the_devices_magnification_db(device, ctrl, mu_in, v, max_periods):
    res = pulse_inject_to_target(device, ctrl, mu_in, v, max_periods=max_periods)
    base = device.output_mpn(mu_in, v)
    want = [
        pulse_inject_to_target(device, ctrl, mu_in, v, max_periods=k).device.magnification_db(
            v, base, mu_in
        )
        for k in range(1, res.periods + 1)
    ]
    assert res.trace.m_db == pytest.approx(np.array(want), rel=1e-14, abs=1e-12)
    assert np.all(np.isfinite(res.trace.m_db))


def test_pulse_loop_refuses_a_dark_baseline():
    # a dark input is refused by its own name, a NaN device by its baseline reading
    ctrl = PulseController(target_m_db=3.0)
    with refused("mu_in"):
        pulse_inject_to_target(DEV, ctrl, 0.0, WP, 10)
    with refused("baseline_mu"):
        pulse_inject_to_target(DEV.with_fields(math.nan, 0.0), ctrl, 1.0, WP, 10)


def test_trace_refuses_a_dark_or_nan_baseline():
    # arm fields are swapped unchecked, so a NaN field reaches the first reading
    cw = IrradiationProgram.cw(3e-6, 100.0)
    with refused("mu_in"):
        run_program(DEV, cw, 0.0, WP, 10.0)
    with refused("baseline_mu"):
        run_program(DEV.with_fields(math.nan, 0.0), cw, 1.0, WP, 10.0)


# each runner with a drive voltage and an input mean photon number
RUNNERS = {
    "cw": lambda v, mu: run_program(DEV, IrradiationProgram.cw(3e-6, 100.0), mu, v, 10.0),
    "steps": lambda v, mu: run_program(
        DEV, IrradiationProgram.steps([(3e-6, 50.0), (0.0, 50.0)]), mu, v, 10.0
    ),
    "pulse": lambda v, mu: pulse_inject_to_target(
        DEV, PulseController(target_m_db=30.0), mu, v, 50
    ),
}


@pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("runner", ["cw", "steps", "pulse"])
def test_non_finite_drive_voltage_is_refused(runner, v):
    with refused("v_app_v"):
        RUNNERS[runner](v, 1.0)


@pytest.mark.parametrize("mu_in", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("runner", ["cw", "steps", "pulse"])
def test_non_finite_input_mean_photon_number_is_refused(runner, mu_in):
    with refused("mu_in"):
        RUNNERS[runner](WP, mu_in)


def test_final_duty_is_a_float_for_an_integer_duty_max():
    res = pulse_inject_to_target(DEV, PulseController(target_m_db=30.0, duty_max=1), 1.0, WP, 2)
    assert res.trace.duty[-1] == 1.0
    assert type(res.final_duty) is float
