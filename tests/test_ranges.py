"""The range contract of the parameter dataclasses: every numeric field declares
its interval, and NaN, +-inf and values just outside a finite end are refused."""

import math
import typing
from dataclasses import fields, replace

import pytest

from ipasim import (
    AttackParams,
    GeometryParams,
    InjectionPath,
    LossValue,
    MaterialParams,
    MziDevice,
    PreTreatmentPlan,
    PulseController,
    QkdScenario,
    Segment,
)
from ipasim._ranges import interval
from ipasim.calibration import default_device, default_geometry, default_material

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
    assert AttackParams(2.0, p_resend=None).p_resend is None
    assert AttackParams(2.0, p_resend=0.0).p_resend == 0.0


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
