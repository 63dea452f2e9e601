"""The package surface: the runtime needs numpy only, the exported names are
pinned, and every library name the benchmark wraps or calls resolves."""

import ast
import dataclasses
import importlib
import os
import re
import runpy
import subprocess
import sys
import typing
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
    "DecayMode", "ExposureResult", "ExposureTrace", "GeometryParams",
    "INIT_POWER_W", "InitResult", "InjectionPath", "IrradiationProgram", "KeyRate",
    "LossValue", "MarginReport", "MaterialParams", "MziDevice", "PowerValue",
    "PreTreatResult", "PreTreatmentPlan", "PulseController", "PulseResult", "PulseTrace",
    "QkdScenario", "SecurityResult", "Segment", "VoltageCurve",
    "attack_success_probability", "binary_entropy", "calibration_summary",
    "countermeasure_margin", "coupling_plan_loss", "curve_rms_db", "default_device",
    "default_geometry", "default_material", "evaluate_scenario", "evolve_field",
    "initialize_device", "key_rate", "path_loss", "pre_treat", "pulse_inject_to_target",
    "required_eve_power", "run_program", "standard_path", "sweep_key_rates",
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


BENCH = Path(ipasim.__file__).parents[2] / "bench"


def _resolve(obj, attributes):
    """``obj.a.b...`` one attribute at a time; an attribute a class only annotates
    (a field, say) resolves to its annotated type."""
    for attribute in attributes:
        hints = typing.get_type_hints(obj) if isinstance(obj, type) else {}
        obj = hints[attribute] if attribute in hints else getattr(obj, attribute)
    return obj


def _dotted(node):
    """``['a', 'b', 'c']`` for the expression ``a.b.c``, else None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.insert(0, node.attr)
        node = node.value
    return [node.id, *names] if isinstance(node, ast.Name) else None


def _ops_library_names():
    """Each dotted library name ``bench/ops.py`` uses, as (where, text, object
    path): a chain on ``self.lib`` or on a local bound to one of its modules,
    and a method called on a local bound to what a library call returns."""
    tree = ast.parse((BENCH / "ops.py").read_text())
    roots = {"lib": (), "self": ()}  # local name -> its path from the ipasim package
    for node in ast.walk(tree):  # in source order, so a binding precedes its uses
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target, value = node.targets[0], node.value
        pairs = (
            zip(target.elts, value.elts)
            if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
            else [(target, value)]
        )
        for name, expression in pairs:
            call = isinstance(expression, ast.Call)
            chain = _dotted(expression.func if call else expression)
            if isinstance(name, ast.Name) and chain and chain[0] in roots:
                path = [*roots[chain[0]], *(a for a in chain[1:] if a != "lib")]
                roots[name.id] = (*path, "()") if call else tuple(path)
    found = []
    for node in ast.walk(tree):
        chain = _dotted(node) if isinstance(node, ast.Attribute) else None
        if chain and chain[0] in roots and chain[1:] != ["lib"] and chain[0] != "self":
            found.append((node.lineno, ".".join(chain), [*roots[chain[0]], *chain[1:]]))
    return found


def _library_object(path):
    """The object at ``path`` from the ipasim package; ``()`` takes a callable's
    annotated return type."""
    obj = ipasim
    for step in path:
        obj = typing.get_type_hints(obj)["return"] if step == "()" else _resolve(obj, [step])
        if isinstance(obj, type(ipasim)):
            obj = importlib.import_module(obj.__name__)
    return obj


def test_benchmark_entry_points_resolve():
    """A rename of a name ``bench/tracer.py`` wraps or ``bench/ops.py`` calls
    fails here, not only in the benchmark's traced run."""
    targets = runpy.run_path(str(BENCH / "tracer.py"))["TARGETS"]
    sites = [site for sites in targets.values() for site in sites]
    assert sites
    for module_name, attribute, _ in sites:
        _resolve(importlib.import_module(module_name), attribute.split("."))
    used = _ops_library_names()
    assert {text for _, text, _ in used} >= {"attack.run_program", "dev.slowest_time_constant"}
    for line, text, path in used:
        try:
            _library_object(path)
        except (AttributeError, KeyError) as exc:
            raise AssertionError(f"bench/ops.py:{line}: {text} does not resolve ({exc})") from None
