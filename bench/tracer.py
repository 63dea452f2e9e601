"""Span tracing of ipasim's public entry points, from outside the package.

``Tracer.install()`` replaces each traced function at its import sites (every
loaded ``ipasim`` module whose namespace holds the original object, or the
owning class for methods) with a wrapper that records one span: name id,
start, end, parent span, op id and a work count taken from the result.
Spans stay in compact in-memory arrays until ``save()`` writes them out.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import numpy as np

# span name -> [(module, attribute or Class.method, work count from result)]
TARGETS: dict[str, list[tuple[str, str, Optional[Callable]]]] = {
    "photorefractive.evolve_field": [("ipasim.photorefractive", "evolve_field", None)],
    "device.exposed": [("ipasim.device", "MziDevice.exposed", None)],
    "device.readout": [
        ("ipasim.device", f"MziDevice.{m}", None)
        for m in ("total_phase", "transmittance", "output_mpn", "magnification_db")
    ],
    "device.voltage_curve": [("ipasim.device", "MziDevice.voltage_curve", None)],
    "attack.run_program": [("ipasim.attack", "run_program", lambda r: len(r.trace.t_s))],
    "attack.saturate": [
        ("ipasim.attack", "pre_treat", lambda r: r.steps),
        ("ipasim.attack", "initialize_device", lambda r: r.steps),
    ],
    "attack.pulse": [("ipasim.attack", "pulse_inject_to_target", lambda r: r.periods)],
    "security.evaluate_scenario": [("ipasim.security", "evaluate_scenario", None)],
    "security.attack_success_probability": [
        ("ipasim.security", "attack_success_probability", None)
    ],
    "security.sweep": [("ipasim.security", "sweep_key_rates", len)],
    "security.threshold": [("ipasim.security", "zero_key_threshold", None)],
    "budget": [
        ("ipasim.budget", name, None)
        for name in (
            "path_loss", "required_eve_power", "countermeasure_margin",
            "coupling_plan_loss", "standard_path", "InjectionPath.fiber_loss", "ComponentLoss.at",
        )
    ],
    "config.load": [("ipasim.config", "load_config", None), ("ipasim.config", "default_config", None)],
    "config.build": [
        ("ipasim.config", name, None)
        for name in (
            "build_device", "build_controller", "build_scenario", "build_path",
            "build_pretreat_plan", "build_distances_km",
        )
    ],
    "runio.csv": [("ipasim.runio", "render_csv", len)],
    "runio.sha256": [("ipasim.runio", "sha256", None)],
    "runio.prepare": [("ipasim.runio", "RunWriter.prepare", None)],
    "runio.finish": [("ipasim.runio", "RunWriter.finish", None)],
    "cli.main": [("ipasim.cli", "main", None)],
}

SPAN_NAMES = list(TARGETS)
SPAN_FIELDS = ("name", "parent", "op", "start", "end", "count")


class Tracer:
    def __init__(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self.stack = [-1]
        self.op_id = -1
        self._undo: list[Callable[[], None]] = []

    def _wrap(self, span: str, fn: Callable, count: Optional[Callable]) -> Callable:
        nid = SPAN_NAMES.index(span)
        name, parent, op, start, end, counts, stack = (
            self.name, self.parent, self.op, self.start, self.end, self.count, self.stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            op.append(self.op_id)
            counts.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if count is not None:
                counts[idx] = count(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; ``uninstall()`` restores the originals."""
        for module_name in {site[0] for sites in TARGETS.values() for site in sites}:
            importlib.import_module(module_name)
        modules = [m for n, m in list(sys.modules.items()) if n == "ipasim" or n.startswith("ipasim.")]
        for span, sites in TARGETS.items():
            for module_name, attr, count in sites:
                module = sys.modules[module_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    is_cm = isinstance(original, classmethod)
                    wrapped = self._wrap(span, original.__func__ if is_cm else original, count)
                    setattr(cls, meth, classmethod(wrapped) if is_cm else wrapped)
                    self._undo.append(functools.partial(setattr, cls, meth, original))
                    continue
                original = getattr(module, attr)
                wrapped = self._wrap(span, original, count)
                # runio's sha256 is hashlib's; only runio's own name is traced
                sites_ = [module] if attr == "sha256" else modules
                for mod in sites_:
                    if mod.__dict__.get(attr) is original:
                        setattr(mod, attr, wrapped)
                        self._undo.append(functools.partial(setattr, mod, attr, original))

    def uninstall(self) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "count": np.frombuffer(self.count, dtype=np.int64),
        }



def save(path: Path, spans: dict[str, np.ndarray]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, names=np.array(SPAN_NAMES), **spans)


def select(spans: dict[str, np.ndarray], mask: np.ndarray) -> dict[str, np.ndarray]:
    """The spans where ``mask`` holds, with parent indices renumbered."""
    keep = np.flatnonzero(mask)
    remap = np.full(len(mask) + 1, -1)
    remap[keep] = np.arange(len(keep))
    out = {k: v[keep] for k, v in spans.items()}
    out["parent"] = remap[out["parent"]]  # -1 maps to the sentinel slot
    return out


def load(path: Path, op_id: Optional[int] = None) -> dict[str, np.ndarray]:
    with np.load(path) as data:
        spans = {k: data[k] for k in SPAN_FIELDS}
        names = [str(n) for n in data["names"]]
    if names != SPAN_NAMES:
        raise ValueError(f"{path}: span names differ from this tracer's")
    if op_id is not None:
        spans["op"] = np.full_like(spans["op"], op_id)
    return spans


def concat(parts: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Join span sets from separate processes, shifting parent indices."""
    out = {k: [] for k in SPAN_FIELDS}
    offset = 0
    for part in parts:
        for k in SPAN_FIELDS:
            col = part[k]
            if k == "parent":
                col = np.where(col >= 0, col + offset, -1)
            out[k].append(col)
        offset += len(part["name"])
    return {k: np.concatenate(v) if v else np.empty(0) for k, v in out.items()}


def summarize(spans: dict[str, np.ndarray]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total duration, self time and work count."""
    name, parent = spans["name"].astype(int), spans["parent"].astype(int)
    dur = spans["end"] - spans["start"]
    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_s = dur - child
    out = {}
    for nid, span in enumerate(SPAN_NAMES):
        mine = name == nid
        out[span] = {
            "calls": int(mine.sum()),
            "total_s": float(dur[mine].sum()),
            "self_s": float(self_s[mine].sum()),
            "count": int(spans["count"][mine].sum()),
        }
    return out


def ancestor_count(spans: dict[str, np.ndarray], child: str, ancestor: str) -> int:
    """How many ``child`` spans have an ``ancestor`` span above them."""
    name, parent = spans["name"], spans["parent"]
    want, above = SPAN_NAMES.index(child), SPAN_NAMES.index(ancestor)
    hits = 0
    for idx in np.flatnonzero(name == want):
        p = parent[idx]
        while p >= 0 and name[p] != above:
            p = parent[p]
        hits += p >= 0
    return int(hits)


def validate_prefix(spans: dict[str, np.ndarray]) -> float:
    """Seconds from ``cli.main`` entry to output-directory preparation, for
    the spans of one CLI process (0 when there is no such pair)."""
    name, start = spans["name"], spans["start"]
    mains = np.flatnonzero(name == SPAN_NAMES.index("cli.main"))
    preps = np.flatnonzero(name == SPAN_NAMES.index("runio.prepare"))
    if not len(mains) or not len(preps):
        return 0.0
    return float(start[preps[0]] - start[mains[0]])
