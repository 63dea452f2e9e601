"""The argument contract of the library's public calls.

Every public function and method of the physics, attack, security and budget
modules has one valid baseline call here, found by an ``ast`` walk of the
modules, so a new public ``def`` without an entry fails.  Each float argument
of a baseline call, swapped for nan, inf or -inf, must be refused by a
``Refusal`` whose ``name`` is the argument, with warnings raised as errors,
unless ``UNCHECKED`` gives the reason it is taken: a documented meaning of the
value, or a hot kernel whose callers check what it is handed.  A physics call
checks each argument once, at entry: the kernels it calls inside check
nothing.  A value it derives is refused where it overflows, by the caller's
argument.
"""

import ast
import math
from collections import Counter
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
    ComponentLoss,
    countermeasure_margin,
    coupling_plan_loss,
    parse_loss_entry,
    path_loss,
    required_eve_power,
    standard_path,
)
from ipasim.calibration import WORKING_POINT_V, default_device, default_material
from ipasim.device import curve_rms_db
from ipasim._ranges import Interval, Refusal
from ipasim.photorefractive import evolve_field, relaxation_step
from ipasim.security import (
    AttackParams,
    QkdScenario,
    attack_success_probability,
    binary_entropy,
    channel_transmittance,
    evaluate_scenario,
    key_rate,
    poisson_tail,
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
    "device.MziDevice.check_drive_range": (
        DEV.check_drive_range, dict(v_min_v=-12.0, v_max_v=12.0)
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
    "security.poisson_tail": (poisson_tail, dict(mean=2.0, n_trunc=80)),
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
# a call whose arguments are finite but whose derived value is out of range
# (an overflow, or a dark baseline from a dark input), and the argument its
# refusal must name
DERIVED = {
    # the phase v_app_v * 2*pi / v_pi_v overflows in every readout built on it
    **{
        readout: (lambda readout=readout: getattr(DEV, readout)(1.5e308), "v_app_v")
        for readout in ("phase_coefficients", "total_phase", "transmittance", "attenuation_db")
    },
    "transmittance-array": (lambda: DEV.transmittance(np.array([0.0, 1.5e308])), "v_app_v"),
    "output_mpn": (lambda: DEV.output_mpn(1.0, 1.5e308), "v_app_v"),
    "magnification_db": (lambda: DEV.magnification_db(1.5e308, 1e-6), "v_app_v"),
    "voltage_curve-phase": (lambda: DEV.voltage_curve(-1.5e308, 0.0, 5), "v_min_v"),
    "check_drive_range": (lambda: DEV.check_drive_range(0.0, 1.5e308), "v_max_v"),
    # a finite width whose phase overflows
    "find_extinction_voltage-phase": (
        lambda: DEV.find_extinction_voltage(-8e307, 8e307), "v_max_v"
    ),
    "required_eve_power": (lambda: required_eve_power(PATH, 405, 1e308), "target_power_w"),
    "arm_fields": (lambda: DEV.arm_fields(1e308), "v_app_v"),
    "arm_laws": (lambda: DEV.arm_laws(1e-6, 1e308), "v_app_v"),
    "equilibrated": (lambda: DEV.equilibrated(1e-6, 1e308), "v_app_v"),
    "exposed": (lambda: DEV.exposed(1e-6, 1e308, 10.0), "v_app_v"),
    "voltage_curve": (lambda: DEV.voltage_curve(-1e308, 1e308, 5), "v_max_v"),
    "find_extinction_voltage": (lambda: DEV.find_extinction_voltage(-1e308, 1e308), "v_max_v"),
    "from_db": (lambda: AttackParams.from_db(4000.0), "m_db"),
    # the decoy bounds' weight exp(mu), and a magnified mean m_linear * mu
    "QkdScenario-mu": (lambda: QkdScenario(mu=1e300), "mu"),
    "attack_success_probability-mean": (
        lambda: attack_success_probability(QkdScenario(mu=2.0), AttackParams.from_db(3082.0), 0.5),
        "attack",
    ),
    "evaluate_scenario-mean": (
        lambda: evaluate_scenario(QkdScenario(mu=2.0), AttackParams.from_db(3082.0),
                                  distances_km=50.0),
        "attack",
    ),
    "sweep_key_rates-mean": (
        lambda: sweep_key_rates(QkdScenario(mu=2.0), [0.0, 3082.0], [50.0]), "m_db_list"
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
