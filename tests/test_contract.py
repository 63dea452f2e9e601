"""The argument contract of the library's public calls.

Every public function and method of the physics, attack, security and budget
modules has one valid baseline call here, found by an ``ast`` walk of the
modules, so a new public ``def`` without an entry fails.  Each float argument
of a baseline call, swapped for nan, inf or -inf, must be refused by a
``Refusal`` whose ``name`` is the argument, with warnings raised as errors,
unless ``UNCHECKED`` gives the reason it is taken: a documented meaning of the
value, or a hot kernel whose callers check what it is handed.  A physics call
checks each argument once, at entry: the kernels it calls inside check
nothing.  A value it derives is never refused: the physical window each
argument declares (``WINDOWS``) keeps it a finite float.  The corner table
tries each float argument at the least and the most value of its window,
where the call returns only finite floats, raises a listed physical
``ValueError`` (``PHYSICAL``) or returns a listed sentinel (``SENTINEL``), and
one float past each end, where it is refused by name.
"""

import ast
import math
import re
from collections import Counter
import dataclasses
from itertools import product
import warnings
from pathlib import Path

import numpy as np
import pytest

import ipasim
from ipasim.attack import (
    IrradiationProgram,
    PreTreatmentPlan,
    PulseController,
    initialize_device,
    pre_treat,
    pulse_inject_to_target,
    run_program,
)
from ipasim.budget import (
    FIBER_KM,
    LOSS_DB,
    ComponentLoss,
    InjectionPath,
    LossValue,
    countermeasure_margin,
    coupling_plan_loss,
    parse_loss_entry,
    path_loss,
    required_eve_power,
    standard_path,
)
from ipasim.calibration import WORKING_POINT_V, default_device, default_material, parking_bias_rad
from ipasim.config import _schema
from ipasim.device import MziDevice, curve_rms_db
from ipasim._ranges import (
    LIT_WATTS, PHOTONS, SECONDS, VOLTS, WATTS, Interval, Refusal, interval,
)
from ipasim.photorefractive import GeometryParams, evolve_field, relaxation_step
from ipasim.security import _ALPHA, _M_DB, _TOL_DB
from ipasim.security import (
    AttackParams,
    QkdScenario,
    attack_success_probability,
    binary_entropy,
    channel_transmittance,
    evaluate_scenario,
    key_rate,
    sweep_key_rates,
    zero_key_threshold,
)

MODULES = ("photorefractive", "device", "attack", "security", "budget")
MAT, DEV, WP = default_material(), default_device(), WORKING_POINT_V
SCENARIO = QkdScenario()
PATH = standard_path(1.0, ("dwdm_c33",))
CURVE = DEV.voltage_curve(0.0, 1.0, 5)

# one valid call of each public callable: (callable, its keyword arguments)
BASELINE = {
    "photorefractive.relaxation_step": (
        relaxation_step, dict(field_v_per_m=1e5, target=2e5, x=0.5)
    ),
    "photorefractive.evolve_field": (
        evolve_field,
        dict(mat=MAT, field_v_per_m=1e5, power_w=1e-6, e_app_v_per_m=1e5, dt_s=10.0),
    ),
    "device.MziDevice.split_irradiation": (DEV.split_irradiation, dict(power_w=1e-6)),
    "device.MziDevice.phase_coefficients": (DEV.phase_coefficients, dict(v_app_v=WP)),
    "device.MziDevice.total_phase": (DEV.total_phase, dict(v_app_v=WP)),
    "device.MziDevice.transmittance": (DEV.transmittance, dict(v_app_v=WP)),
    "device.MziDevice.attenuation_db": (DEV.attenuation_db, dict(v_app_v=WP)),
    "device.MziDevice.output_mpn": (DEV.output_mpn, dict(mu_in=1.0, v_app_v=WP)),
    "device.MziDevice.magnification_db": (
        DEV.magnification_db, dict(v_app_v=WP, baseline_mu=1e-6, mu_in=1.0)
    ),
    "device.MziDevice.voltage_curve": (
        DEV.voltage_curve, dict(v_min_v=-12.0, v_max_v=12.0, points=5)
    ),
    "device.MziDevice.find_extinction_voltage": (
        DEV.find_extinction_voltage, dict(v_min_v=0.0, v_max_v=12.0)
    ),
    "device.MziDevice.arm_fields": (DEV.arm_fields, dict(v_app_v=WP)),
    "device.MziDevice.exposed": (DEV.exposed, dict(power_w=1e-6, v_app_v=WP, dt_s=10.0)),
    "device.MziDevice.arm_laws": (DEV.arm_laws, dict(power_w=1e-6, v_app_v=WP)),
    "device.MziDevice.equilibrated": (DEV.equilibrated, dict(power_w=1e-6, v_app_v=WP)),
    "device.MziDevice.slowest_time_constant": (DEV.slowest_time_constant, dict(power_w=1e-6)),
    "device.MziDevice.pristine": (DEV.pristine, dict()),
    "device.MziDevice.with_fields": (
        DEV.with_fields, dict(field1_v_per_m=1e5, field2_v_per_m=2e5)
    ),
    "device.curve_rms_db": (curve_rms_db, dict(reference=CURVE, other=CURVE)),
    "attack.IrradiationProgram.cw": (IrradiationProgram.cw, dict(power_w=1e-6, duration_s=10.0)),
    "attack.IrradiationProgram.steps": (IrradiationProgram.steps, dict(pairs=[(1e-6, 10.0)])),
    "attack.IrradiationProgram.pulse_train": (
        IrradiationProgram.pulse_train,
        dict(peak_power_w=1e-5, period_s=10.0, pulse_width_s=1.0, count=3),
    ),
    "attack.run_program": (
        run_program,
        dict(device=DEV, program=IrradiationProgram.cw(1e-6, 10.0), mu_in=1.0, v_app_v=WP,
             dt_s=1.0),
    ),
    "attack.pre_treat": (
        pre_treat, dict(device=DEV, plan=PreTreatmentPlan(), dt_s=60.0, max_steps=10)
    ),
    "attack.initialize_device": (
        initialize_device,
        dict(device=DEV, dt_s=60.0, power_w=4.39e-6, saturation_epsilon=1e-6, max_steps=10),
    ),
    "attack.pulse_inject_to_target": (
        pulse_inject_to_target,
        dict(device=DEV, ctrl=PulseController(10.0), mu_in=1.0, v_app_v=WP, max_periods=5,
             hold_periods=0),
    ),
    "security.AttackParams.from_db": (AttackParams.from_db, dict(m_db=5.0)),
    "security.channel_transmittance": (
        channel_transmittance, dict(alpha_db_per_km=0.2, distance_km=50.0)
    ),
    "security.binary_entropy": (binary_entropy, dict(x=0.2)),
    "security.attack_success_probability": (
        attack_success_probability, dict(scenario=SCENARIO, attack=AttackParams(2.0), eta_ab=0.1)
    ),
    "security.key_rate": (
        key_rate, dict(scenario=SCENARIO, delta=0.3, e1=0.02, q_mu=0.01, e_mu=0.02)
    ),
    "security.evaluate_scenario": (
        evaluate_scenario,
        dict(scenario=SCENARIO, attack=AttackParams(2.0), estimator="decoy", distances_km=50.0),
    ),
    "security.sweep_key_rates": (
        sweep_key_rates,
        dict(scenario=SCENARIO, m_db_list=[0.0, 5.0], distances_km=[10.0, 50.0],
             estimator="decoy"),
    ),
    "security.zero_key_threshold": (
        zero_key_threshold,
        dict(scenario=SCENARIO, m_search_range_db=(4.0, 9.0), distances_km=[10.0, 50.0],
             estimator="decoy", tol_db=1e-3),
    ),
    "budget.parse_loss_entry": (parse_loss_entry, dict(raw=3.0)),
    "budget.ComponentLoss.from_entries": (
        ComponentLoss.from_entries, dict(name="tap", entries={405: 1.0})
    ),
    "budget.ComponentLoss.at": (PATH.components[0].at, dict(wavelength_nm=405)),
    "budget.InjectionPath.fiber_loss": (PATH.fiber_loss, dict(wavelength_nm=405)),
    "budget.path_loss": (path_loss, dict(path=PATH, wavelength_nm=405)),
    "budget.required_eve_power": (
        required_eve_power, dict(path=PATH, wavelength_nm=405, target_power_w=3e-9)
    ),
    "budget.countermeasure_margin": (
        countermeasure_margin,
        dict(path=PATH, wavelength_nm=405, eve_max_power_w=1.0, target_power_w=3e-9),
    ),
    "budget.coupling_plan_loss": (coupling_plan_loss, dict(scheme="bs_5050")),
    "budget.standard_path": (
        standard_path, dict(fiber_length_km=1.0, component_names=("dwdm_c33",))
    ),
}

NON_FINITE = (math.nan, math.inf, -math.inf)
HOT = "a hot kernel, unchecked on purpose: its callers check what it is handed, once per call"
# (callable, argument) -> (the values it takes, and why)
UNCHECKED = {
    **{
        ("photorefractive.relaxation_step", name): (NON_FINITE, HOT)
        for name in ("field_v_per_m", "target", "x")
    },
    **{
        ("device.MziDevice.with_fields", name): (NON_FINITE, HOT)
        for name in ("field1_v_per_m", "field2_v_per_m")
    },
    ("photorefractive.evolve_field", "dt_s"): ((math.inf,), "inf steps to the steady state"),
    ("device.MziDevice.exposed", "dt_s"): ((math.inf,), "inf steps to the steady state"),
    ("attack.run_program", "dt_s"): ((math.inf,), "inf takes one sample per segment"),
    ("security.channel_transmittance", "distance_km"): (
        (math.inf,), "an infinite fiber transmits no light"
    ),
    ("security.evaluate_scenario", "distances_km"): (
        (math.inf,), "an infinite fiber transmits no light"
    ),
}
# (callable, argument) -> the name its refusal gives it instead, and why
REFUSED_AS = {
    # a number is the db of the LossValue it parses, refused by LossValue's range
    ("budget.parse_loss_entry", "raw"): "db",
    # a float distance is one distance of the grid, refused by channel_transmittance
    ("security.evaluate_scenario", "distances_km"): "distance_km",
}


def _public_callables():
    """``module.function`` and ``module.Class.method`` for every public def of
    the library modules, properties aside."""
    found = set()
    for name in MODULES:
        for node in ast.parse((Path(ipasim.__file__).parent / f"{name}.py").read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                found.add(f"{name}.{node.name}")
            else:
                found.update(
                    f"{name}.{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_")
                    and not any(getattr(d, "id", None) == "property" for d in item.decorator_list)
                )
    return found


def test_every_public_callable_has_a_baseline_call():
    assert set(BASELINE) == _public_callables()


@pytest.mark.parametrize("key", BASELINE)
def test_the_baseline_call_is_valid(key):
    call, arguments = BASELINE[key]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(**arguments)


CASES = [
    (key, name, value)
    for key, (_, arguments) in BASELINE.items()
    for name, default in arguments.items()
    if type(default) is float
    for value in NON_FINITE
]


@pytest.mark.parametrize(
    "key, name, value", CASES, ids=[f"{k}.{n}={v!r}" for k, n, v in CASES]
)
def test_a_non_finite_float_argument_is_refused_by_name(key, name, value):
    call, arguments = BASELINE[key]
    values, reason = UNCHECKED.get((key, name), ((), ""))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if value in values:
            assert reason
            call(**{**arguments, name: value})
            return
        with pytest.raises(Refusal) as refused:
            call(**{**arguments, name: value})
    assert refused.value.name == REFUSED_AS.get((key, name), name), str(refused.value)


def test_every_listed_exception_names_a_float_argument_of_a_baseline_call():
    assert set(UNCHECKED) | set(REFUSED_AS) <= {(key, name) for key, name, _ in CASES}


PHYSICS = [key for key in BASELINE if key.startswith(("photorefractive.", "device."))]


@pytest.mark.parametrize("key", PHYSICS)
def test_a_physics_call_checks_each_argument_once(key, monkeypatch):
    checked = []
    check = Interval.check

    def counted(self, name, x):
        checked.append(name)
        check(self, name, x)

    monkeypatch.setattr(Interval, "check", counted)
    call, arguments = BASELINE[key]
    call(**arguments)
    assert [name for name, count in Counter(checked).items() if count > 1] == []


RUN = dict(device=DEV, v_app_v=WP)
# a value past a range declared to keep a derived value finite (the decoy
# weight exp(mu), the magnified mean m_linear * mu), and a dark input, each
# refused by the argument the caller passed
DERIVED = {
    "QkdScenario-mu": (lambda: QkdScenario(mu=1e300), "mu"),
    "AttackParams-m_linear": (lambda: AttackParams(1e301), "m_linear"),
    "sweep_key_rates-range": (
        lambda: sweep_key_rates(QkdScenario(mu=2.0), [0.0, 3001.0], [50.0]), "m_db_list"
    ),
    # a dark input is the caller's mu_in, not a dark baseline reading
    "run_program-mu_in": (
        lambda: run_program(program=IrradiationProgram.cw(1e-6, 10.0), mu_in=0.0, dt_s=1.0,
                            **RUN),
        "mu_in",
    ),
    "pulse_inject_to_target-mu_in": (
        lambda: pulse_inject_to_target(ctrl=PulseController(10.0), mu_in=0.0, **RUN), "mu_in"
    ),
}


@pytest.mark.parametrize("case", DERIVED)
def test_a_refusal_names_the_argument_the_caller_passed(case):
    call, name = DERIVED[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Refusal) as refused:
            call()
    assert refused.value.name == name, str(refused.value)


# -- the corner table -------------------------------------------------------------

# the window of each float argument of a baseline call that is checked: a
# spelling, or the (least, most) of a check made by hand, where inf has a
# documented meaning (UNCHECKED) or an end is another argument
FIELD = "[-1e12, 1e12]"  # photorefractive's field window
LIT_PHOTONS = "[1e-6, 1e6]"  # a runner's input mean photon number
DT_TO_STEADY = (0.0, math.inf)
WINDOWS = {
    ("photorefractive.evolve_field", "field_v_per_m"): FIELD,
    ("photorefractive.evolve_field", "power_w"): WATTS,
    ("photorefractive.evolve_field", "e_app_v_per_m"): FIELD,
    ("photorefractive.evolve_field", "dt_s"): DT_TO_STEADY,
    ("device.MziDevice.split_irradiation", "power_w"): WATTS,
    **{
        (f"device.MziDevice.{name}", "v_app_v"): VOLTS
        for name in ("phase_coefficients", "total_phase", "transmittance", "attenuation_db",
                     "output_mpn", "magnification_db", "arm_fields", "exposed", "arm_laws",
                     "equilibrated")
    },
    ("device.MziDevice.output_mpn", "mu_in"): PHOTONS,
    ("device.MziDevice.magnification_db", "mu_in"): PHOTONS,
    ("device.MziDevice.magnification_db", "baseline_mu"): "[1e-300, 1e6]",
    **{
        (f"device.MziDevice.{name}", end): VOLTS
        for name in ("voltage_curve", "find_extinction_voltage") for end in ("v_min_v", "v_max_v")
    },
    **{
        (f"device.MziDevice.{name}", "power_w"): WATTS
        for name in ("exposed", "arm_laws", "equilibrated", "slowest_time_constant")
    },
    ("device.MziDevice.exposed", "dt_s"): DT_TO_STEADY,
    ("attack.IrradiationProgram.cw", "power_w"): WATTS,
    ("attack.IrradiationProgram.cw", "duration_s"): SECONDS,
    ("attack.IrradiationProgram.pulse_train", "peak_power_w"): WATTS,
    ("attack.IrradiationProgram.pulse_train", "period_s"): SECONDS,
    # up to the baseline's period_s
    ("attack.IrradiationProgram.pulse_train", "pulse_width_s"): (5e-324, 10.0),
    ("attack.run_program", "mu_in"): LIT_PHOTONS,
    ("attack.run_program", "v_app_v"): VOLTS,
    ("attack.run_program", "dt_s"): (5e-324, math.inf),
    ("attack.pre_treat", "dt_s"): SECONDS,
    ("attack.initialize_device", "dt_s"): SECONDS,
    ("attack.initialize_device", "power_w"): LIT_WATTS,
    ("attack.initialize_device", "saturation_epsilon"): "(0, 0.1)",
    ("attack.pulse_inject_to_target", "mu_in"): LIT_PHOTONS,
    ("attack.pulse_inject_to_target", "v_app_v"): VOLTS,
    ("security.AttackParams.from_db", "m_db"): _M_DB,
    ("security.channel_transmittance", "alpha_db_per_km"): _ALPHA,
    ("security.channel_transmittance", "distance_km"): (0.0, math.inf),
    ("security.binary_entropy", "x"): "[0, 1]",
    ("security.attack_success_probability", "eta_ab"): "[0, 1]",
    ("security.key_rate", "delta"): "[0, 1]",
    ("security.key_rate", "e1"): "[0, 0.5]",
    ("security.key_rate", "q_mu"): "[0, 1]",
    ("security.key_rate", "e_mu"): "[0, 0.5]",
    ("security.evaluate_scenario", "distances_km"): (0.0, math.inf),
    ("security.zero_key_threshold", "tol_db"): _TOL_DB,
    ("budget.parse_loss_entry", "raw"): LOSS_DB,
    ("budget.required_eve_power", "target_power_w"): LIT_WATTS,
    ("budget.countermeasure_margin", "eve_max_power_w"): LIT_WATTS,
    ("budget.countermeasure_margin", "target_power_w"): LIT_WATTS,
    ("budget.standard_path", "fiber_length_km"): FIBER_KM,
}
# (callable, argument, corner) -> what its ValueError says: a relation with
# another argument of the baseline call, or a size bound, never an overflow
PHYSICAL = {
    ("device.MziDevice.voltage_curve", "v_min_v", "most"): "v_max_v must exceed v_min_v",
    ("device.MziDevice.voltage_curve", "v_max_v", "least"): "v_max_v must exceed v_min_v",
    ("device.MziDevice.find_extinction_voltage", "v_min_v", "most"): "span at least 2 \\* v_pi_v",
    ("device.MziDevice.find_extinction_voltage", "v_max_v", "least"): "span at least 2 \\* v_pi_v",
    ("attack.IrradiationProgram.pulse_train", "period_s", "least"): "pulse_width_s <= period_s",
    ("attack.run_program", "dt_s", "least"): "program takes over 1000000 steps",
}
# callable -> each result field that may hold a non-finite float, and why
SENTINEL = {
    "device.MziDevice.magnification_db": ({""}, "-inf dB: the output of a dark input"),
    "security.evaluate_scenario": ({"distance_km"}, "the distance itself: inf, no light"),
    "attack.pulse_inject_to_target": (
        {"final_duty", "ramp_duty_max", "holding_duty_mean", "held_max_abs_error_db"},
        "nan: the duty or error of a ramp, a hold or a run that did not happen",
    ),
}


def _floats(value, name=""):
    """(field name, float) for every float ``value`` holds, through tuples,
    arrays, named tuples and dataclasses."""
    if isinstance(value, (bool, str, type(None), np.bool_)):
        return
    if isinstance(value, (float, int, np.floating)):
        yield name, float(value)
    elif isinstance(value, np.ndarray):
        if value.dtype.kind == "f":
            yield from ((name, x) for x in value.ravel().tolist())
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _floats(getattr(value, f.name), f.name)
    elif hasattr(value, "_fields"):
        for field, item in zip(value._fields, value):
            yield from _floats(item, field)
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _floats(item, name)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _floats(item, name)


def _ends(window):
    """The least and the most value of ``window``: an interval, its spelling or a pair."""
    if isinstance(window, str):
        window = interval(window)
    return (window.least, window.most) if isinstance(window, Interval) else window


CORNERS = [(key, name, corner) for key, name in WINDOWS for corner in ("least", "most")]


def test_every_checked_float_argument_declares_its_window():
    checked = {(key, name) for key, name, _ in CASES} - {
        (key, name) for (key, name), (values, _) in UNCHECKED.items() if values == NON_FINITE
    }
    assert set(WINDOWS) == checked
    assert {(key, name) for key, name, _ in PHYSICAL} <= set(WINDOWS)
    assert set(SENTINEL) <= set(BASELINE)


@pytest.mark.parametrize("key, name, corner", CORNERS, ids=[f"{k}.{n}={c}" for k, n, c in CORNERS])
def test_a_float_argument_at_a_corner_of_its_window_gives_finite_floats(key, name, corner):
    call, arguments = BASELINE[key]
    value = dict(zip(("least", "most"), _ends(WINDOWS[key, name])))[corner]
    fields, _ = SENTINEL.get(key, (set(), ""))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call(**{**arguments, name: value})
        except ValueError as exc:
            assert (key, name, corner) in PHYSICAL, str(exc)
            assert re.search(PHYSICAL[key, name, corner], str(exc)), str(exc)
            return
    assert (key, name, corner) not in PHYSICAL
    assert [(f, x) for f, x in _floats(result) if not math.isfinite(x) and f not in fields] == []


def _past(key, name, corner):
    """The float just outside the ``corner`` end of the window of ``name``."""
    least, most = _ends(WINDOWS[key, name])
    return math.nextafter(least, -math.inf) if corner == "least" else math.nextafter(most, math.inf)


PAST = [case for case in CORNERS if math.isfinite(_past(*case))]  # inf has nothing past it


@pytest.mark.parametrize("key, name, corner", PAST, ids=[f"{k}.{n}={c}" for k, n, c in PAST])
def test_a_float_argument_one_float_past_its_window_is_refused_by_name(key, name, corner):
    call, arguments = BASELINE[key]
    past = _past(key, name, corner)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Refusal) as refused:
            call(**{**arguments, name: past})
    assert refused.value.name == REFUSED_AS.get((key, name), name), str(refused.value)


def _field_ends(cls, name):
    declared = next(f for f in dataclasses.fields(cls) if f.name == name).metadata["range"]
    return declared.least, declared.most


def test_the_overflows_once_refused_are_finite_at_the_declared_corners():
    """The drive phase theta0 + v * 2*pi / v_pi_v, the field v / electrode_gap_m,
    the phase across a search range, the parking bias and the launch power were
    each refused where they overflowed; at every corner of the windows they are
    formed from, each is a finite float."""
    volts = _ends(VOLTS)
    for bias, v_pi, gap in product(
        _field_ends(MziDevice, "bias_phase_rad"), _field_ends(MziDevice, "v_pi_v"),
        _field_ends(GeometryParams, "electrode_gap_m"),
    ):
        device = dataclasses.replace(
            DEV, bias_phase_rad=bias, v_pi_v=v_pi,
            geometry=dataclasses.replace(DEV.geometry, electrode_gap_m=gap),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for v in volts:
                derived = (*device.phase_coefficients(v), *device.arm_fields(v))
                assert all(map(math.isfinite, derived)), (bias, v_pi, gap, v)
            try:
                assert math.isfinite(device.find_extinction_voltage(*volts))
            except ValueError as exc:
                assert "nearest extinction null" in str(exc)
    # the parking bias of every working point and half-wave voltage is a bias
    # the device declares
    keys = _schema()["device"]
    for v, residual, v_pi in product(
        _ends(keys["working_point_v"].allowed), _ends(keys["residual_bias_rad"].allowed),
        _field_ends(MziDevice, "v_pi_v"),
    ):
        dataclasses.replace(DEV, bias_phase_rad=parking_bias_rad(v, residual, v_pi), v_pi_v=v_pi)
    # a 1 W target through the most loss a path may have; a path past it is refused
    wall = ComponentLoss("wall", {405: LossValue(interval(LOSS_DB).most)})
    assert math.isfinite(required_eve_power(InjectionPath(0.0, {}, (wall,)), 405, 1.0).watts)
    with pytest.raises(Refusal) as refused:
        path_loss(InjectionPath(0.0, {}, (wall, wall)), 405)
    assert refused.value.name == "db"
