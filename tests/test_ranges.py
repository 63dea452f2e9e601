"""The range contract of the parameter dataclasses and plans: every numeric
field declares its interval, and NaN, +-inf and values just outside a finite
end are refused.  Every library call that allocates a grid or a trace refuses
one past its size bound.  A runner argument that a config key sets is
refused by the runner as the config refuses the key."""

import inspect
import math
import typing
from dataclasses import fields, replace

import pytest

import ipasim.attack as attack_module
import ipasim.security as security_module
from ipasim import (
    AttackParams,
    CouplingScheme,
    GeometryParams,
    InjectionPath,
    IrradiationProgram,
    LossValue,
    MaterialParams,
    MziDevice,
    PowerValue,
    PreTreatmentPlan,
    PulseController,
    QkdScenario,
    Segment,
    initialize_device,
    pre_treat,
    pulse_inject_to_target,
    run_program,
    sweep_key_rates,
)
from ipasim._ranges import MAX_GRID_POINTS, MAX_STEPS, interval
from ipasim.attack import PeCurvePlan
from ipasim.calibration import WORKING_POINT_V, default_device, default_geometry, default_material
from ipasim.config import ConfigError, parse_config
from ipasim.device import CurvePlan
from ipasim.security import SweepPlan

# one default or calibrated instance per parameter dataclass
INSTANCES = {
    MaterialParams: default_material(),
    GeometryParams: default_geometry(),
    MziDevice: default_device(),
    Segment: Segment(1e-6, 1.0),
    PreTreatmentPlan: PreTreatmentPlan(),
    PulseController: PulseController(30.0),
    QkdScenario: QkdScenario(),
    AttackParams: AttackParams(2.0),
    LossValue: LossValue(1.0),
    InjectionPath: InjectionPath(),
    IrradiationProgram: IrradiationProgram((Segment(1e-6, 1.0),)),
    CouplingScheme: CouplingScheme("x", 1.0, 3.0),
    PowerValue: PowerValue(1e-3),
    SweepPlan: SweepPlan(),
    CurvePlan: CurvePlan(),
    PeCurvePlan: PeCurvePlan(),
}
NUMERIC = (float, int, typing.Optional[float], typing.Optional[int])


def _outside(allowed):
    """nan, +-inf, and the nearest value past each finite end."""
    values = [math.nan, math.inf, -math.inf]
    if math.isfinite(allowed.lo):
        values.append(allowed.lo if allowed.lo_open else math.nextafter(allowed.lo, -math.inf))
    if math.isfinite(allowed.hi):
        values.append(allowed.hi if allowed.hi_open else math.nextafter(allowed.hi, math.inf))
    return values


CASES = [
    (cls, f.name, value)
    for cls in INSTANCES
    for f in fields(cls)
    if "range" in f.metadata
    for value in _outside(f.metadata["range"])
]


@pytest.mark.parametrize(
    "cls, name, value", CASES, ids=[f"{c.__name__}.{n}={v!r}" for c, n, v in CASES]
)
def test_every_declared_field_refuses_values_outside_its_range(cls, name, value):
    if isinstance(getattr(INSTANCES[cls], name), tuple):  # a range of every entry
        with pytest.raises(ValueError, match=rf"^{name}: every entry must be "):
            replace(INSTANCES[cls], **{name: (*getattr(INSTANCES[cls], name), value)})
        return
    with pytest.raises(ValueError, match=rf"^{name} must be "):
        replace(INSTANCES[cls], **{name: value})


def test_only_the_arm_fields_declare_no_range():
    undeclared = {
        f"{cls.__name__}.{f.name}"
        for cls in INSTANCES
        for f in fields(cls)
        if typing.get_type_hints(cls)[f.name] in NUMERIC and "range" not in f.metadata
    }
    assert undeclared == {"MziDevice.field1_v_per_m", "MziDevice.field2_v_per_m"}


def test_an_optional_field_may_be_none():
    segments = (Segment(1e-6, 1.0),)
    assert IrradiationProgram(segments, pulse_width_s=None).pulse_width_s is None
    assert IrradiationProgram(segments, pulse_width_s=0.5).pulse_width_s == 0.5
    assert IrradiationProgram(segments).pulse_width_s is None


class _Allocating(Exception):
    """Raised in place of the allocation a bounded call makes once it is past its check."""


def _allocating(*args, **kwargs):
    raise _Allocating


DEV = INSTANCES[MziDevice]
# call with a size n, its bound, its refusal one past the bound, and where an
# expensive call allocates (replaced, so the call at its bound stops there)
BOUNDED_CALLS = {
    "voltage_curve": (
        lambda n: DEV.voltage_curve(-12.0, 12.0, n), MAX_GRID_POINTS, "points must be in", None
    ),
    "sweep_key_rates": (
        lambda n: sweep_key_rates(QkdScenario(), [5.0], [0.0] * n),
        MAX_GRID_POINTS, "exceeds 100000 rows", (security_module, "_evaluate"),
    ),
    "run_program": (
        lambda n: run_program(DEV, IrradiationProgram.cw(0.0, float(n)), 1.0, 0.0, 1.0),
        MAX_STEPS, "program takes over 1000000 steps", (attack_module, "_segment_clock"),
    ),
    "pre_treat": (
        lambda n: pre_treat(DEV, PreTreatmentPlan(), 60.0, n), MAX_STEPS, "max_steps must be", None
    ),
    "pre_treat_zero_power": (
        lambda n: pre_treat(DEV, PreTreatmentPlan(i_ir_w=0.0), 60.0, n),
        MAX_STEPS, "max_steps must be", None,
    ),
    "initialize_device": (
        lambda n: initialize_device(DEV, max_steps=n), MAX_STEPS, "max_steps must be", None
    ),
    "pulse_inject_to_target": (
        lambda n: pulse_inject_to_target(DEV, PulseController(10.0), 1.0, WORKING_POINT_V, n),
        MAX_STEPS, "max_periods must be", None,
    ),
}


@pytest.mark.parametrize("name", BOUNDED_CALLS)
def test_library_calls_refuse_one_past_their_size_bound(name, monkeypatch):
    call, bound, message, allocation = BOUNDED_CALLS[name]
    if allocation is None:
        call(bound)
    else:
        monkeypatch.setattr(*allocation, _allocating)
        with pytest.raises(_Allocating):
            call(bound)
    with pytest.raises(ValueError, match=message):
        call(bound + 1)


# each config section whose run-argument keys take their ranges from
# attack.RUN_ARGUMENTS: the runner, and a call of it with valid other arguments
RUNNERS = {
    "pre_treat": (pre_treat, lambda **kw: pre_treat(DEV, PreTreatmentPlan(), **kw)),
    "init": (initialize_device, lambda **kw: initialize_device(DEV, **kw)),
    "pulse": (
        pulse_inject_to_target,
        lambda **kw: pulse_inject_to_target(DEV, PulseController(10.0), 1.0, WORKING_POINT_V, **kw),
    ),
}


def _run_argument_outside(default, allowed):
    """``_outside`` of a float argument; for a count (an int default, an int
    key), nan, +-inf, 1.5 and the integer past each finite end."""
    if type(default) is not int:
        return _outside(allowed)
    values = [math.nan, math.inf, -math.inf, 1.5, int(allowed.lo) - 1]
    if math.isfinite(allowed.hi):
        values.append(int(allowed.hi) + 1)
    return values


RUN_CASES = [
    (section, name, value)
    for section, (runner, _) in RUNNERS.items()
    for name, argument in inspect.signature(runner).parameters.items()
    if name in attack_module.RUN_ARGUMENTS
    for value in _run_argument_outside(
        argument.default, interval(attack_module.RUN_ARGUMENTS[name])
    )
]


def test_every_declared_run_argument_is_a_key_of_a_listed_runner():
    assert {name for _, name, _ in RUN_CASES} == set(attack_module.RUN_ARGUMENTS)


@pytest.mark.parametrize(
    "section, name, value", RUN_CASES, ids=[f"{s}.{n}={v!r}" for s, n, v in RUN_CASES]
)
def test_a_run_argument_out_of_range_is_refused_by_config_and_runner_alike(section, name, value):
    with pytest.raises(ConfigError) as refused_key:
        parse_config(f"[{section}]\n{name} = {value!r}\n")
    path, _, key_message = str(refused_key.value).partition(": ")
    assert path == f"{section}.{name}"
    with pytest.raises(ValueError) as refused_argument:
        RUNNERS[section][1](**{name: value})
    head, _, message = str(refused_argument.value).partition(" ")
    assert head.rstrip(":") == name
    assert message == key_message


@pytest.mark.parametrize(
    "spelling, message",
    [
        ("(-inf, inf)", "must be finite"),
        ("(0, inf)", "must be positive"),
        ("[0, inf)", "must be >= 0"),
        ("(1, inf)", "must be > 1"),
        ("[20, inf)", "must be >= 20"),
        ("(0, 1]", "must be in (0, 1]"),
        ("[1, 1000000]", "must be in [1, 1000000]"),
        ("(0, pi)", "must be in (0, pi)"),
    ],
)
def test_the_refusal_follows_from_the_spelling(spelling, message):
    assert interval(spelling).message == message


def test_an_infinite_end_is_open_and_nan_fails_every_range():
    closed = interval("[-inf, inf]")
    assert closed.lo_open and closed.hi_open
    assert not any(closed.holds(x) for x in (math.nan, math.inf, -math.inf))
    assert closed.holds(1e308) and closed.holds(-1e308)
    assert interval("[0, 0.93]").holds(0.0) and interval("[0, 0.93]").holds(0.93)
    assert not interval("(0, pi)").holds(math.pi)
