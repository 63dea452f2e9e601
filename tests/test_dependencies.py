"""The package surface: the runtime needs numpy only, and the exported names
are pinned."""

import ast
import dataclasses
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ipasim


def test_import_loads_no_scipy():
    code = (
        "import sys, ipasim, ipasim.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(ipasim.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "[]"


EXPORTS = {
    "__version__", "AttackParams", "BracketError", "BUILTIN_COMPONENTS",
    "BUILTIN_FIBER_DB_PER_KM", "COUPLING_SCHEMES", "ComponentLoss", "CouplingScheme",
    "DecayMode", "DecoyBounds", "ExposureResult", "ExposureTrace", "GeometryParams",
    "INIT_POWER_W", "InitResult", "InjectionPath", "IrradiationProgram", "KeyRate",
    "LossValue", "MarginReport", "MaterialParams", "MziDevice", "PowerValue",
    "PreTreatResult", "PreTreatmentPlan", "PulseController", "PulseResult", "PulseTrace",
    "QkdScenario", "SecurityResult", "Segment", "TailBounded", "VoltageCurve",
    "attack_success_probability", "binary_entropy", "buildup_time_constant",
    "calibration_summary", "countermeasure_margin", "coupling_plan_loss", "curve_rms_db",
    "decoy_bounds", "default_device", "default_geometry", "default_material",
    "evaluate_scenario", "evolve_field", "initialize_device", "key_rate",
    "path_loss", "photoconductivity", "pre_treat",
    "pulse_inject_to_target", "required_eve_power", "run_program", "single_photon_truth",
    "standard_path", "steady_state_field", "sweep_key_rates", "tagged_fraction_estimated",
    "zero_key_threshold",
}


def test_exported_names_are_pinned():
    assert len(ipasim.__all__) == len(EXPORTS)
    assert set(ipasim.__all__) == EXPORTS
    assert all(hasattr(ipasim, name) for name in EXPORTS)


# exported names and public definitions no package module, demo, benchmark or
# README line calls, each with the reason it stays
UNCALLED_EXPORTS = {
    "to_ini_text": "the config round-trip test; ROADMAP item 7 puts it in the run manifest",
}


def test_every_export_has_a_caller():
    root = Path(ipasim.__file__).parents[2]
    package = Path(ipasim.__file__).parent
    paths = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((root / "demos").rglob("*.py")) + sorted((root / "bench").rglob("*.py"))
    texts = [p.read_text() for p in paths + [root / "README.md"]]
    public = {  # every public module-level def and class of the package
        node.name
        for p in package.glob("*.py")
        for node in ast.parse(p.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    uncalled = set()
    for name in set(ipasim.__all__) | public:
        escaped = re.escape(name)
        word = re.compile(rf"\b{escaped}\b")
        # the line that defines the name is not a reference to it
        definition = re.compile(rf"^\s*(?:def|class)\s+{escaped}\b|^{escaped}\s*[:=]", re.M)
        if not any(len(word.findall(t)) > len(definition.findall(t)) for t in texts):
            uncalled.add(name)
    assert uncalled == set(UNCALLED_EXPORTS)


# dataclasses that declare no range, each with the reason it stays one
UNRANGED_DATACLASSES = {
    "InitResult": "bench/ops.py reads its fields with dataclasses.fields (ROADMAP item 9)",
    "PreTreatResult": "bench/ops.py reads its fields with dataclasses.fields (ROADMAP item 9)",
    "PulseResult": "bench/ops.py reads its fields with dataclasses.fields (ROADMAP item 9)",
    "SecurityResult": "bench/ops.py reads its fields with dataclasses.fields (ROADMAP item 9)",
    "RunWriter": "mutable: it collects a run's files as they are written",
}


def test_a_dataclass_is_a_ranged_parameter_set():
    """A result no config fills and no range checks is a NamedTuple, not a dataclass."""
    unranged = set()
    for path in Path(ipasim.__file__).parent.glob("[!_]*.py"):
        module = importlib.import_module(f"ipasim.{path.stem}")
        for cls in vars(module).values():
            if (
                isinstance(cls, type)
                and dataclasses.is_dataclass(cls)
                and cls.__module__ == module.__name__
                and not any("range" in f.metadata for f in dataclasses.fields(cls))
            ):
                unranged.add(cls.__name__)
    assert unranged == set(UNRANGED_DATACLASSES)


def _attribute_loads():
    """Every attribute name package code loads, outside ``config._schema``.

    ``config._schema`` reads every default to build the keys, so its reads do
    not count.
    """
    loads = set()
    for path in Path(ipasim.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            if path.name == "config.py" and getattr(top, "name", None) == "_schema":
                continue
            loads.update(
                node.attr for node in ast.walk(top)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            )
    return loads


def _parameter_fields():
    """(class, field) for every field of each dataclass of the parameter
    modules that declares a range."""
    found = []
    for name in ("photorefractive", "device", "attack", "security", "budget"):
        module = importlib.import_module(f"ipasim.{name}")
        for cls in vars(module).values():
            if not (
                isinstance(cls, type)
                and dataclasses.is_dataclass(cls)
                and cls.__module__ == module.__name__
            ):
                continue
            declared = dataclasses.fields(cls)
            if any("range" in f.metadata for f in declared):
                found.extend((cls.__name__, f.name) for f in declared)
    return found


LOADS = _attribute_loads()
PARAMETER_FIELDS = _parameter_fields()


@pytest.mark.parametrize(
    "cls_name, field", PARAMETER_FIELDS, ids=[f"{c}.{f}" for c, f in PARAMETER_FIELDS]
)
def test_every_parameter_field_is_read(cls_name, field):
    """A field that package code never reads is a setting that changes no output."""
    assert field in LOADS, f"{cls_name}.{field} is never read"
