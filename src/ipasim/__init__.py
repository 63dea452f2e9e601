"""Simulation toolkit for visible-light injection attacks on LiNbO3
Mach-Zehnder variable optical attenuators in QKD transmitters.

The package is organized in layers: ``photorefractive`` models the per-arm
space-charge dynamics, ``device`` assembles two arms into an interferometric
attenuator, ``calibration`` pins the defaults to bench behavior, ``attack``
drives exposure programs (pre-treatment, closed-loop pulse injection,
re-initialization), ``security`` evaluates the decoy-state BB84 consequences,
and ``budget`` prices the injection path of a real link.  ``config``,
``runio`` and ``cli`` wrap everything in a reproducible command-line surface.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .attack import (
    INIT_POWER_W,
    ExposureResult,
    ExposureTrace,
    InitResult,
    IrradiationProgram,
    PreTreatmentPlan,
    PreTreatResult,
    PulseController,
    PulseResult,
    PulseTrace,
    Segment,
    initialize_device,
    pre_treat,
    pulse_inject_to_target,
    run_program,
)
from .budget import (
    BUILTIN_COMPONENTS,
    BUILTIN_FIBER_DB_PER_KM,
    COUPLING_SCHEMES,
    ComponentLoss,
    CouplingScheme,
    InjectionPath,
    LossValue,
    MarginReport,
    PowerValue,
    countermeasure_margin,
    coupling_plan_loss,
    path_loss,
    required_eve_power,
    standard_path,
)
from .calibration import calibration_summary, default_device, default_geometry, default_material
from .device import MziDevice, VoltageCurve, curve_rms_db
from .photorefractive import (
    DecayMode,
    GeometryParams,
    MaterialParams,
    buildup_time_constant,
    evolve_field,
    photoconductivity,
    steady_state_field,
)
from .security import (
    AttackParams,
    BracketError,
    DecoyBounds,
    KeyRate,
    QkdScenario,
    SecurityResult,
    TailBounded,
    attack_success_probability,
    binary_entropy,
    decoy_bounds,
    evaluate_scenario,
    key_rate,
    single_photon_truth,
    sweep_key_rates,
    tagged_fraction_estimated,
    zero_key_threshold,
)

# every public name imported above; the submodules are not exports
__all__ = ["__version__"] + [
    name for name, value in globals().items()
    if not (name.startswith("_") or isinstance(value, _ModuleType))
]
