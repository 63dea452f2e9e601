"""Irradiation programs against a VOA and their closed-loop variants.

Three attack styles are modeled:

* **Pre-treatment**: saturate the device at a chosen drive voltage before
  deployment, then remove beam and field together.  The stored space-charge
  pattern shifts the zero-volt bias phase; the shift has an even part from the
  differential illumination and an odd-in-voltage part from drift, so the
  treatment voltage steers where the curve lands.
* **Pulse injection**: periodic bright pulses with a duty-cycle controller
  that walks the output magnification to a target and holds it.  With
  ``DecayMode.DARK_DECAY`` the controller must keep injecting to fight
  relaxation, so the holding duty stays positive.
* **Initialization**: long moderate exposure at zero volts that drives both
  arms to a reproducible saturated state, erasing the attenuation history.

The beam changes one thing in the device: the space-charge field of each arm,
which ``MziDevice`` holds as ``field1_v_per_m`` and ``field2_v_per_m``.  Every
path moves them by the exact-exponential ``relaxation_step`` of
``ipasim.photorefractive``, bit for bit, so ``dt_s`` only sets trace
resolution.  An exposure program samples each segment every ``dt_s``, closing
with one shorter step, on a clock bit-identical to a sequential ``left -= dt``
loop.  Each kind of segment, a distinct (power, duration), takes its laws and
clock once; the fields go from segment to segment by the step's scalar
expression, one multiply-add per arm, and every row of the trace comes from
one array ``relaxation_step`` from its segment's start.  A saturation run is
one array ``relaxation_step`` per arm along its clock.  The pulse controller
must go period by period, since each duty depends on the last reading: a
period is one lit and one dark step of the two bare fields (no dark one on a
frozen device) and one reading, in ``math``, with noise drawn in blocks of
64.  Segments, plans and controllers range-check every parameter field
(``ipasim._ranges``), each call its arguments at entry (against
``RUN_ARGUMENTS`` those a config key sets), arm fields are swapped unchecked
(``MziDevice.with_fields``), and every run refuses, before it allocates, a
trace of more than ``MAX_STEPS`` steps or periods.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from ._ranges import (
    MAX_GRID_POINTS, MAX_STEPS, NON_NEGATIVE, POSITIVE, check_arguments, check_ranges, check_size,
    interval, ranged,
)
from .device import MziDevice
from .photorefractive import _LN2, DecayMode, relaxation_step

_PERIOD_COUNT = interval(f"int [1, {MAX_STEPS}]")


@dataclass(frozen=True)
class Segment:
    power_w: float = ranged("[0, inf)")
    duration_s: float = ranged("(0, inf)")

    __post_init__ = check_ranges


@dataclass(frozen=True)
class IrradiationProgram:
    """Piecewise-constant injected power vs time.

    Pulse-train programs remember their pulse width so trace resolution can
    be validated against it.
    """

    segments: tuple[Segment, ...]
    pulse_width_s: Optional[float] = ranged("(0, inf)", None)

    def __post_init__(self) -> None:
        check_ranges(self)
        if not self.segments:
            raise ValueError("program needs at least one segment")

    @classmethod
    def cw(cls, power_w: float, duration_s: float) -> "IrradiationProgram":
        return cls((Segment(power_w, duration_s),))

    @classmethod
    def steps(cls, pairs: list[tuple[float, float]]) -> "IrradiationProgram":
        return cls(tuple(Segment(p, d) for p, d in pairs))

    @classmethod
    def pulse_train(
        cls, peak_power_w: float, period_s: float, pulse_width_s: float, count: int
    ) -> "IrradiationProgram":
        """``count`` periods of a ``pulse_width_s`` pulse, at most ``MAX_STEPS``."""
        _PERIOD_COUNT.check("count", count)
        NON_NEGATIVE.check("peak_power_w", peak_power_w)
        POSITIVE.check("period_s", period_s)
        if not 0.0 < pulse_width_s <= period_s:
            raise ValueError("need 0 < pulse_width_s <= period_s")
        on = Segment(peak_power_w, pulse_width_s)
        if pulse_width_s == period_s:
            return cls((on,) * count, pulse_width_s=pulse_width_s)
        off = Segment(0.0, period_s - pulse_width_s)
        return cls((on, off) * count, pulse_width_s=pulse_width_s)

    @property
    def total_duration_s(self) -> float:
        return sum(s.duration_s for s in self.segments)


class ExposureTrace(NamedTuple):
    """Sampled observables during an exposure, measured at the run voltage."""

    t_s: np.ndarray
    power_w: np.ndarray
    delta_theta_rad: np.ndarray
    transmittance: np.ndarray
    attenuation_db: np.ndarray
    m_db: np.ndarray


class ExposureResult(NamedTuple):
    device: MziDevice
    trace: ExposureTrace


def _trace(
    sampled: MziDevice,
    t_s: list[float] | np.ndarray,
    power_w: list[float] | np.ndarray,
    v_app_v: float,
    mu_in: float = 1.0,
) -> ExposureTrace:
    """Read out a device whose arm fields are sampled arrays, one row each, from one
    phase and one transmittance pass; magnification is relative to the first row's output."""
    phase = sampled.total_phase(v_app_v)
    trans = sampled._phase_transmittance(phase)
    output = mu_in * trans
    baseline = float(output[0])
    POSITIVE.check("baseline_mu", baseline)
    with np.errstate(divide="ignore"):
        att_db, m_db = -10.0 * np.log10(trans), 10.0 * np.log10(output / baseline)
    t_s, power_w = np.asarray(t_s, dtype=float), np.asarray(power_w, dtype=float)
    return ExposureTrace(t_s, power_w, phase, trans, att_db, m_db)


def _segment_clock(duration_s: float, dt_s: float) -> tuple[np.ndarray, np.ndarray]:
    """Steps and elapsed times of one segment's ``dt_s`` sample clock.

    The clock subtracts ``dt_s`` from the time left until at most one step
    remains, then closes with that remainder, so a float residue can add one
    row (0.7 s in 0.1 s steps takes eight).  ``np.subtract.accumulate`` and
    ``np.add.accumulate`` fold left to right, one rounding per element, so
    every remainder and elapsed time is the sequential ``left -= dt``,
    ``e += step`` clock bit for bit.
    """
    q = duration_s / dt_s
    # each subtraction rounds by at most half an ulp of the duration, so the
    # ~q subtractions drift by at most q*q*2**-53 steps; the margin also
    # covers the rounding of q itself
    left = np.full(math.ceil(q) + 2 + int(q * q * 2.0**-51), dt_s)
    left[0] = duration_s
    np.subtract.accumulate(left, out=left)
    k = int(np.argmax(left <= dt_s))  # the first remainder that fits one step
    steps = np.full(k + 1, dt_s)
    steps[k] = left[k]
    return steps, np.add.accumulate(steps)


def run_program(
    device: MziDevice,
    program: IrradiationProgram,
    mu_in: float,
    v_app_v: float,
    dt_s: float,
) -> ExposureResult:
    """Apply a power program at fixed drive voltage, sampling every ``dt_s``.

    Magnification is measured against the device's own output at t = 0, so a
    zero-power program on a frozen device gives a flat 0 dB series.  For
    pulse-train programs ``dt_s`` must resolve the pulse (at most a quarter
    width), otherwise the trace would alias the duty structure.  Each segment
    is sampled in ``dt_s`` steps closed by one shorter step.  A segment's kind
    is its (power, duration) (a pulse train has two); each kind takes its arm
    laws, its clock (two numpy accumulates) and each arm's step over the whole
    segment, exp(-x) or expm1(-x) on ``relaxation_step``'s ln 2 branch, once,
    and the fields go from segment start to segment start by one multiply-add
    per arm.  Each row takes its elapsed time from its kind's clock by its
    place there, and one ``relaxation_step`` from the segments' starts gives
    every row of both arms.  One accumulate over the steps gives ``t_s``, the
    sequential ``left -= dt`` clock to the last bit.  A ``dt_s`` of inf
    means one sample per segment, so it is checked by hand, not declared.
    """
    POSITIVE.check("mu_in", mu_in)
    if not dt_s > 0.0:
        raise ValueError("dt_s must be positive")
    check_size(program.total_duration_s / dt_s, MAX_STEPS, f"program takes over {MAX_STEPS} steps")
    if program.pulse_width_s is not None and dt_s > program.pulse_width_s / 4.0:
        raise ValueError("dt_s too coarse for pulse train: need dt_s <= pulse_width_s / 4")
    kinds: dict[tuple[float, float], int] = {}  # (power, duration) -> kind
    kind_of = [kinds.setdefault((s.power_w, s.duration_s), len(kinds)) for s in program.segments]
    laws = [device.arm_laws(power_w, v_app_v) for power_w, _ in kinds]
    steps, elapsed = zip(*(_segment_clock(duration_s, dt_s) for _, duration_s in kinds))
    # per kind and arm, relaxation_step's math branch over the whole segment:
    # (target, exp or expm1 factor, whether the move is taken from the target)
    xs = [[(t, float(e[-1]) / tau) for t, tau in law] for law, e in zip(laws, elapsed)]
    moves = [
        [(t, math.exp(-x), True) if x > _LN2 else (t, math.expm1(-x), False) for t, x in arms]
        for arms in xs
    ]
    f1, f2 = device.field1_v_per_m, device.field2_v_per_m
    starts1, starts2 = [], []
    for k in kind_of:  # the segment's last sample is the next segment's start
        starts1.append(f1)
        starts2.append(f2)
        (t1, a1, far1), (t2, a2, far2) = moves[k]
        f1 = t1 + (f1 - t1) * a1 if far1 else f1 + (f1 - t1) * a1
        f2 = t2 + (f2 - t2) * a2 if far2 else f2 + (f2 - t2) * a2
    # a row takes its segment's start and target, and its elapsed time by its
    # place in its kind's clock (np.take: a 2-d fancy index is slow)
    index = np.array(kind_of)
    lengths = np.array([len(s) for s in steps])
    counts = lengths[index]
    ends = np.add.accumulate(counts)
    first = np.add.accumulate(lengths) - lengths  # each kind's offset in the joined clocks
    row = np.arange(ends[-1]) + np.repeat(first[index] - (ends - counts), counts)
    targets, taus = np.array(laws).T  # each (arm, kind)
    x = np.take(np.concatenate(elapsed) / np.repeat(taus, lengths, axis=1), row, axis=1)
    start = np.repeat(np.array([starts1, starts2]), counts, axis=1)
    target = np.repeat(np.take(targets, index, axis=1), counts, axis=1)
    fields = np.empty((2, len(row) + 1))
    fields[:, 0] = starts1[0], starts2[0]  # the t = 0 row first
    fields[:, 1:] = relaxation_step(start, target, x)
    trace1, trace2 = fields
    t_s = np.add.accumulate(np.concatenate([[0.0], np.concatenate(steps)[row]]))
    seg_power = np.array([p for p, _ in kinds])[index]
    power_w = np.concatenate([seg_power[:1], np.repeat(seg_power, counts)])
    trace = _trace(device.with_fields(trace1, trace2), t_s, power_w, v_app_v, mu_in)
    return ExposureResult(device.with_fields(f1, f2), trace)


@dataclass
class PeCurvePlan:
    """A pe-curve run: one CW trace per power in ``powers_w``, each of
    ``trace_points`` steps over ``trace_duration_tau`` build-up times of the
    weaker-lit arm.  The traces hold at most ``MAX_GRID_POINTS`` rows together.
    """

    powers_w: tuple[float, ...] = ranged(
        "(0, inf)", (3e-9, 3e-8, 3e-7, 1e-6, 3e-6, 6.26e-6, 1.2e-5, 2e-5)
    )
    trace_points: int = ranged(f"int [2, {MAX_GRID_POINTS}]", 200)
    trace_duration_tau: float = ranged("(0, inf)", 5.0)

    def __post_init__(self) -> None:
        check_ranges(self)
        n = len(self.powers_w)
        if not n:
            raise ValueError("powers_w: needs at least one power")
        check_size(n * self.trace_points, MAX_GRID_POINTS, f"powers_w: {n} traces of "
                   f"trace_points {self.trace_points} exceed {MAX_GRID_POINTS} rows")


# -- pre-treatment and initialization ----------------------------------------

# the range of each runner argument a config key sets, which config.py reads
RUN_ARGUMENTS = {
    "dt_s": "(0, inf)", "power_w": "(0, inf)",
    "saturation_epsilon": "(0, 0.1)",  # a settling tolerance, relative to steady state
    "max_steps": f"int [1, {MAX_STEPS}]", "max_periods": f"int [1, {MAX_STEPS}]",
    "hold_periods": "int [0, inf)",
}


@dataclass(frozen=True)
class PreTreatmentPlan:
    """Saturating exposure at a fixed drive voltage."""

    v_app_v: float = ranged("(-inf, inf)", 0.0)
    i_ir_w: float = ranged("[0, inf)", 12e-6)
    saturation_epsilon: float = ranged(RUN_ARGUMENTS["saturation_epsilon"], 1e-4)

    __post_init__ = check_ranges


@dataclass(frozen=True)
class InitResult:
    device: MziDevice
    converged: bool
    steps: int
    elapsed_s: float
    trace: ExposureTrace


def _saturate(
    device: MziDevice,
    power_w: float,
    v_app_v: float,
    dt_s: float,
    saturation_epsilon: float,
    max_steps: int,
) -> InitResult:
    """Expose for as many ``dt_s`` steps as bring both arms within
    ``saturation_epsilon`` of steady state.

    The criterion is the projected relative field move over one relaxation
    time, so it is insensitive to ``dt_s``.  Each step shrinks an arm's move
    by exp(-dt/tau), which fixes the step count in closed form.  Running out
    of the step budget reports converged = False with the partial state.  The
    end state is the trace's last sample; the runners check the arguments.
    """
    targets, taus = zip(*device.arm_laws(power_w, v_app_v))

    def moves(e1: float, e2: float) -> list[float]:
        k = 1.0 - math.exp(-1.0)
        return [
            abs(target - e) * k / max(abs(target), 1e-30)
            for target, e in zip(targets, (e1, e2))
        ]

    steps = 0
    for move, tau in zip(moves(device.field1_v_per_m, device.field2_v_per_m), taus):
        if move > saturation_epsilon:
            steps = max(steps, math.ceil(tau / dt_s * math.log(move / saturation_epsilon)))
    steps = min(steps, max_steps)
    elapsed = np.arange(steps + 1) * dt_s
    sampled = device.with_fields(*(
        relaxation_step(f, target, elapsed / tau)
        for f, target, tau in zip((device.field1_v_per_m, device.field2_v_per_m), targets, taus)
    ))
    trace = _trace(sampled, elapsed, np.full(steps + 1, power_w), v_app_v)
    e1, e2 = float(sampled.field1_v_per_m[-1]), float(sampled.field2_v_per_m[-1])
    final = device.with_fields(e1, e2)
    converged = max(moves(e1, e2)) <= saturation_epsilon
    return InitResult(final, converged, steps, steps * dt_s, trace)


@dataclass(frozen=True)
class PreTreatResult:
    device: MziDevice
    converged: bool
    steps: int
    elapsed_s: float
    bias_shift_rad: float
    trace: ExposureTrace


def pre_treat(
    device: MziDevice,
    plan: PreTreatmentPlan,
    dt_s: float = 60.0,
    max_steps: int = 100_000,
) -> PreTreatResult:
    """Saturate at the plan's voltage, then hand the device off dark.

    Beam and field are removed together, which traps the stored charge, so
    the returned device is in frozen decay mode regardless of how the input
    was configured.  The reported shift is the change of the zero-volt bias
    phase relative to the starting state.  A zero-power plan takes no step.
    """
    check_arguments(RUN_ARGUMENTS, dt_s=dt_s, max_steps=max_steps)
    if plan.i_ir_w == 0.0:
        as_row = device.exposed(0.0, plan.v_app_v, np.zeros(1))  # fields as 1-element arrays
        run = InitResult(device, True, 0, 0.0, _trace(as_row, [0.0], [0.0], plan.v_app_v))
    else:
        run = _saturate(device, plan.i_ir_w, plan.v_app_v, dt_s, plan.saturation_epsilon, max_steps)
    treated = replace(run.device, decay_mode=DecayMode.FROZEN)
    shift = treated.total_phase(0.0) - device.total_phase(0.0)
    return PreTreatResult(treated, run.converged, run.steps, run.elapsed_s, shift, run.trace)


INIT_POWER_W = 4.39e-6


def initialize_device(
    device: MziDevice,
    dt_s: float = 60.0,
    power_w: float = INIT_POWER_W,
    saturation_epsilon: float = 1e-6,
    max_steps: int = 200_000,
) -> InitResult:
    """Drive both arms to the reproducible zero-volt saturated state.

    Whatever attenuation history the device carries, the end state depends
    only on the exposure power, so the voltage curve is restored to the
    post-initialization reference.  The epsilon here is much tighter than for
    pre-treatment: near a deep working point the dB curve is steeply
    sensitive to residual phase, and the restore tolerance budget is small.
    """
    check_arguments(RUN_ARGUMENTS, dt_s=dt_s, power_w=power_w,
                    saturation_epsilon=saturation_epsilon, max_steps=max_steps)
    return _saturate(device, power_w, 0.0, dt_s, saturation_epsilon, max_steps)


# -- closed-loop pulse injection ----------------------------------------------


SETTLE_PERIODS = 5


@dataclass(frozen=True)
class PulseController:
    """Duty-cycle regulation of periodic bright pulses.

    Each period fires one pulse of width duty * period at the peak power,
    waits out the rest of the period dark, measures the magnification, and
    nudges the duty by ``gain_duty_per_db`` times the dB error, clamped to
    [duty_min, duty_max].  The clamped incremental update is what produces
    the ramp-then-hold shape: the duty rails high while the error is large
    and walks itself down to the replenishment level once the target is
    reached.  Measurement is the simulator's noiseless magnification unless
    ``noise_db`` is set, which adds Gaussian dB noise to each reading.
    """

    target_m_db: float = ranged("(-inf, inf)")
    duty_min: float = ranged("(0, 1)", 1e-5)
    duty_max: float = ranged("(0, 1]", 1.0)
    gain_duty_per_db: float = ranged("(0, inf)", 0.1)
    settle_tol_db: float = ranged("(0, inf)", 0.1)
    period_s: float = ranged("(0, inf)", 10.0)
    peak_power_w: float = ranged("(0, inf)", 12e-6)
    noise_db: float = ranged("[0, inf)", 0.0)

    def __post_init__(self) -> None:
        check_ranges(self)
        if not self.duty_min < self.duty_max:
            raise ValueError("need duty_min < duty_max")


class PulseTrace(NamedTuple):
    t_s: np.ndarray
    duty: np.ndarray
    power_w: np.ndarray
    m_db: np.ndarray
    error_db: np.ndarray


@dataclass(frozen=True)
class PulseResult:
    device: MziDevice
    feasible: bool
    settled: bool
    periods: int
    saturated_m_db: float
    final_duty: float
    ramp_duty_max: float      # nan if the run settled without leaving tolerance
    holding_duty_mean: float  # mean duty over the hold window or terminal streak
    held_max_abs_error_db: float  # worst error in the hold window; nan if none ran
    trace: PulseTrace


def pulse_inject_to_target(
    device: MziDevice,
    ctrl: PulseController,
    mu_in: float,
    v_app_v: float,
    max_periods: int = 2000,
    hold_periods: int = 0,
    rng: Optional[np.random.Generator] = None,
) -> PulseResult:
    """Run the duty-cycle loop until the magnification settles on target.

    Targets beyond the saturated magnification at the peak power are reported
    as infeasible, never silently saturated; the device comes back untouched.
    The loop starts at duty_min, fires every period (the clamp keeps the duty
    strictly positive), and terminates once the error stays within tolerance
    for ``SETTLE_PERIODS`` consecutive periods, or at ``max_periods`` with
    settled = False.  A nonzero ``hold_periods`` keeps the loop regulating
    that many extra periods after settling, to demonstrate the hold; with
    ``DecayMode.DARK_DECAY`` the duty then rides at the level whose
    per-period build-up replenishes one period of decay.
    Noise is drawn from ``rng`` 64 values at a time, the values of one
    scalar ``standard_normal()`` per period, and the generator is left
    exactly one such draw per period on; a noise-free run leaves it untouched.
    """
    POSITIVE.check("mu_in", mu_in)
    check_arguments(RUN_ARGUMENTS, max_periods=max_periods, hold_periods=hold_periods)
    if ctrl.noise_db > 0.0 and rng is None:
        raise ValueError("noise_db > 0 needs an rng")
    (lit1, lit_tau1), (lit2, lit_tau2) = device.arm_laws(ctrl.peak_power_w, v_app_v)
    baseline = device.output_mpn(mu_in, v_app_v)
    sat_m = device.with_fields(lit1, lit2).magnification_db(v_app_v, baseline, mu_in)
    if abs(ctrl.target_m_db) > sat_m:
        empty = PulseTrace(*(np.empty(0) for _ in range(5)))
        return PulseResult(
            device, False, False, 0, sat_m, math.nan, math.nan, math.nan, math.nan, empty
        )

    # a period steps the bare arm fields by relaxation_step's math branch, lit
    # then dark (a frozen arm's dark step is a zero move: skipped), and reads
    # them by magnification_db's phase and two-beam law in math; the device and
    # the error column (target - m_db, one numpy pass) are built after the loop
    (dark1, dark_tau1), (dark2, dark_tau2) = device.arm_laws(0.0, v_app_v)
    dark = dark_tau1 < math.inf or dark_tau2 < math.inf
    theta, k_diff, k_common = device.phase_coefficients(v_app_v)
    r, base = device.signal_split, float(baseline)
    peak = 4.0 * r * (1.0 - r)
    target, tol, gain, period_s = (
        ctrl.target_m_db, ctrl.settle_tol_db, ctrl.gain_duty_per_db, ctrl.period_s
    )
    duty_min, duty_max, noise_db = ctrl.duty_min, ctrl.duty_max, ctrl.noise_db
    exp, expm1, cos, log10, ln2, inf = math.exp, math.expm1, math.cos, math.log10, _LN2, math.inf
    noisy = noise_db > 0.0
    if noisy:
        state = rng.bit_generator.state
        blocks = iter(lambda: rng.standard_normal(64).tolist(), None)  # never ends
        normal = itertools.chain.from_iterable(blocks).__next__
    e1, e2 = device.field1_v_per_m, device.field2_v_per_m
    duties, m_db = [], []
    duty, streak, settled_at = duty_min, 0, None
    period, stop = 0, max_periods
    while period < stop:
        period += 1
        on = duty * period_s
        x = on / lit_tau1
        e1 = lit1 + (e1 - lit1) * exp(-x) if x > ln2 else e1 + (e1 - lit1) * expm1(-x)
        x = on / lit_tau2
        e2 = lit2 + (e2 - lit2) * exp(-x) if x > ln2 else e2 + (e2 - lit2) * expm1(-x)
        if duty < 1.0 and dark:
            off = (1.0 - duty) * period_s
            x = off / dark_tau1
            e1 = dark1 + (e1 - dark1) * exp(-x) if x > ln2 else e1 + (e1 - dark1) * expm1(-x)
            x = off / dark_tau2
            e2 = dark2 + (e2 - dark2) * exp(-x) if x > ln2 else e2 + (e2 - dark2) * expm1(-x)
        phase = theta + k_diff * (e1 - e2) + k_common * (e1 + e2)
        ratio = mu_in * (peak * cos(0.5 * phase) ** 2) / base
        m = 10.0 * log10(ratio) if ratio > 0.0 else -inf
        if noisy:
            m += noise_db * normal()
        error = target - m
        duties.append(duty)
        m_db.append(m)
        if settled_at is None:
            streak = streak + 1 if abs(error) <= tol else 0
            if streak >= SETTLE_PERIODS:
                settled_at = period
                stop = min(stop, period + hold_periods)
        duty += gain * error
        duty = duty_min if duty < duty_min else duty_max if duty > duty_max else duty
    if noisy:  # the caller's generator moves on by one scalar draw per period
        rng.bit_generator.state = state
        rng.standard_normal(period)

    duty_col, m_col, t_col = np.array(duties), np.array(m_db), np.arange(1.0, period + 1) * period_s
    power_col = np.full(period, float(ctrl.peak_power_w))
    trace = PulseTrace(t_col, duty_col, power_col, m_col, target - m_col)
    settled = settled_at is not None
    if settled and hold_periods > 0:
        hold_lo = settled_at           # rows after the settle period
    elif settled:
        hold_lo = settled_at - streak  # the terminal in-tolerance streak
    else:
        hold_lo = period
    hold_duty = duty_col[hold_lo:]
    hold_err = trace.error_db[settled_at:] if settled and hold_periods > 0 else duty_col[:0]
    ramp = duty_col[: settled_at - streak] if settled else duty_col
    return PulseResult(
        device=device.with_fields(e1, e2),
        feasible=True,
        settled=settled,
        periods=period,
        saturated_m_db=sat_m,
        final_duty=float(duty_col[-1]),
        ramp_duty_max=float(np.max(ramp)) if ramp.size else math.nan,
        holding_duty_mean=float(np.mean(hold_duty)) if hold_duty.size else math.nan,
        held_max_abs_error_db=float(np.max(np.abs(hold_err))) if hold_err.size else math.nan,
        trace=trace,
    )
