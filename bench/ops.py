"""Execute one benchmark op and return its timing, outputs and checks.

In-process ops call the library through its module attributes (``attack.
run_program``, not a name bound at import), so the tracer's wrappers see
every call.  CLI ops run ``python -m ipasim.cli`` in a fresh process, or the
traced shim when spans are wanted.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from time import perf_counter
from typing import Optional

import golden

BENCH_DIR = Path(__file__).resolve().parent
STEP_TAU_POWER_W = 1e-5  # step-program durations are in build-up times at this power

TRACE_HEADER = ("t_s", "power_w", "delta_theta_rad", "transmittance", "attenuation_db", "m_db")
PULSE_HEADER = ("t_s", "duty", "power_w", "m_db", "error_db")


def _columns(obj, header: tuple[str, ...]) -> dict:
    return golden.fingerprint((header, [getattr(obj, c) for c in header]))


def _scalars(result) -> dict:
    """One-row table of a result's scalar fields (devices and traces left out)."""
    names = [f.name for f in dataclasses.fields(result) if f.name not in ("device", "trace")]
    return golden.fingerprint((names, [[getattr(result, n)] for n in names]))


@dataclass
class OpResult:
    seconds: float
    fingerprints: dict
    problems: list[str] = field(default_factory=list)
    work: dict[str, list[float]] = field(default_factory=dict)  # name -> [count, seconds]
    threshold_s: list[float] = field(default_factory=list)
    rss_kb: int = 0

    def add(self, name: str, count: int, seconds: float) -> None:
        slot = self.work.setdefault(name, [0, 0.0])
        slot[0] += count
        slot[1] += seconds


class OpRunner:
    """Runs ops against the ipasim sources of one checkout."""

    def __init__(self, root: Path) -> None:
        self.root = root.resolve()
        self.src = self.root / "src"
        self.work_dir = self.root / ".bench-work"
        self.cli_dir = self.work_dir / "cli"
        shutil.rmtree(self.cli_dir, ignore_errors=True)
        self.cli_dir.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self._ipasim = None
        self._count = 0

    def close(self) -> None:
        shutil.rmtree(self.cli_dir, ignore_errors=True)

    @property
    def lib(self):
        """The checkout's ipasim package, imported on first in-process use."""
        if self._ipasim is None:
            sys.path.insert(0, str(self.src))
            import ipasim

            if Path(ipasim.__file__).resolve().parent != self.src / "ipasim":
                raise RuntimeError(f"imported ipasim from {ipasim.__file__}, not {self.src}")
            self._ipasim = ipasim
        return self._ipasim

    def run(self, op: dict, spans_path: Optional[Path] = None) -> OpResult:
        if op["kind"] == "cli":
            return self._cli(op, spans_path)
        if op["kind"] == "attack":
            return self._attack(op)
        if op["kind"] == "security":
            return self._security(op)
        raise ValueError(f"unknown op kind {op['kind']!r}")

    # -- CLI ---------------------------------------------------------------------

    def cli_args(self, op: dict, out_dir: Path) -> list[str]:
        args = op["verb"].split()
        if op.get("config"):
            args += ["--config", str(self.root / op["config"])]
        elif op.get("config_text"):
            text = op["config_text"]
            ini = self.cli_dir / f"override-{sha256(text.encode()).hexdigest()[:16]}.ini"
            if not ini.exists():
                ini.write_text(text)
            args += ["--config", str(ini)]
        return args + ["--out", str(out_dir)]

    def _cli(self, op: dict, spans_path: Optional[Path]) -> OpResult:
        self._count += 1
        out_dir = self.cli_dir / f"op{self._count:05d}"
        args = self.cli_args(op, out_dir)
        if spans_path is None:
            cmd = [sys.executable, "-m", "ipasim.cli", *args]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "cli_shim.py"), str(spans_path), *args]
        log = self.cli_dir / f"op{self._count:05d}.log"
        with open(log, "wb") as out:
            start = perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT, env=self.env, cwd=self.root)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = OpResult(seconds, {}, rss_kb=usage.ru_maxrss)
        try:
            if proc.returncode != 0:
                tail = log.read_text(errors="replace")[-400:]
                result.problems.append(f"exit code {proc.returncode}: {tail}")
                return result
            self._check_run_dir(op, out_dir, result)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
            log.unlink(missing_ok=True)
        return result

    def _check_run_dir(self, op: dict, out_dir: Path, result: OpResult) -> None:
        files = {p.name: p.read_bytes() for p in out_dir.iterdir() if p.name != "manifest.json"}
        try:
            manifest = json.loads((out_dir / "manifest.json").read_text())
        except (OSError, ValueError) as exc:
            result.problems.append(f"manifest unreadable: {exc}")
            return
        listed = {entry["name"]: entry["sha256"] for entry in manifest["outputs"]}
        actual = {name: sha256(data).hexdigest() for name, data in files.items()}
        if listed != actual:
            result.problems.append("manifest does not match the files written")
        if manifest.get("command") != op["verb"]:
            result.problems.append(f"manifest command {manifest.get('command')!r}")
        for name, data in files.items():
            table = golden.parse_csv(data) if name.endswith(".csv") else golden.text_table(data)
            result.fingerprints[name] = golden.fingerprint(table, raw=data)

    # -- attack traces -----------------------------------------------------------

    def _attack(self, op: dict) -> OpResult:
        import numpy as np

        lib = self.lib
        attack, cal = lib.attack, lib.calibration
        v_app, rows = op["v_app_v"], op["rows"]
        res = OpResult(0.0, {})
        tables = {}

        start = perf_counter()
        dev = cal.default_device(lib.photorefractive.DecayMode(op["decay_mode"]))
        cw = op["cw"]
        duration = cw["duration_tau"] * dev.slowest_time_constant(cw["power_w"])
        tau_ref = dev.slowest_time_constant(STEP_TAU_POWER_W)
        steps = attack.IrradiationProgram.steps([(p, k * tau_ref) for p, k in op["steps"]])
        pt = op["pulse_train"]
        width = pt["duty"] * pt["period_s"]
        train = attack.IrradiationProgram.pulse_train(
            pt["peak_power_w"], pt["period_s"], width, math.ceil(rows * pt["duty"] / 4)
        )
        programs = (
            ("cw_trace", attack.IrradiationProgram.cw(cw["power_w"], duration), duration / rows),
            ("step_trace", steps, steps.total_duration_s / rows),
            ("pulse_train_trace", train, width / 4),
        )
        for name, program, dt in programs:
            t0 = perf_counter()
            out = attack.run_program(dev, program, 1.0, v_app, dt)
            res.add("trace_rows", len(out.trace.t_s), perf_counter() - t0)
            tables[name] = out.trace

        plan = attack.PreTreatmentPlan(op["pre_treat"]["v_app_v"], op["pre_treat"]["i_ir_w"], 1e-4)
        t0 = perf_counter()
        treated = attack.pre_treat(dev, plan, 60.0, 100_000)
        t1 = perf_counter()
        restored = attack.initialize_device(
            treated.device, dt_s=60.0, power_w=op["init"]["power_w"],
            saturation_epsilon=1e-6, max_steps=200_000,
        )
        t2 = perf_counter()
        res.add("trace_rows", len(treated.trace.t_s), t1 - t0)
        res.add("trace_rows", len(restored.trace.t_s), t2 - t1)

        p = op["pulse"]
        ctrl = attack.PulseController(target_m_db=p["target_m_db"], noise_db=p["noise_db"])
        t0 = perf_counter()
        pulse = attack.pulse_inject_to_target(
            cal.default_device(), ctrl, 1.0, v_app, max_periods=2000,
            hold_periods=p["hold_periods"], rng=np.random.default_rng(p["rng_seed"]),
        )
        res.add("pulse_periods", pulse.periods, perf_counter() - t0)
        res.seconds = perf_counter() - start

        fp = res.fingerprints
        tables.update(pretreat_trace=treated.trace, init_trace=restored.trace)
        for name, trace in tables.items():
            fp[name] = _columns(trace, TRACE_HEADER)
        for name in ("cw_trace", "step_trace", "pulse_train_trace"):
            t = tables[name]
            if len(t.t_s) < rows or t.m_db[0] != 0.0 or not np.all(np.diff(t.t_s) >= 0):
                res.problems.append(f"{name}: malformed trace")
        fp["pulse_trace"] = _columns(pulse.trace, PULSE_HEADER)
        for name, result in (("pretreat", treated), ("init", restored), ("pulse", pulse)):
            fp[name] = _scalars(result)
        for name, result in (("pretreat", treated), ("init", restored)):
            if not result.converged:
                res.problems.append(f"{name}: did not converge")
        if not (pulse.feasible and pulse.settled):
            res.problems.append("pulse: target not reached")
        return res

    # -- security grid -----------------------------------------------------------

    def _security(self, op: dict) -> OpResult:
        security = self.lib.security
        res = OpResult(0.0, {})
        scenario = security.QkdScenario(
            mu=op["mu"], nu=op["nu"], alpha_db_per_km=op["alpha_db_per_km"],
            eta_bob=op["eta_bob"], e_det=op["e_det"],
        )
        step = op["distance_step_km"]
        distances = [k * step for k in range(int(op["distance_max_km"] / step + 1e-9) + 1)]
        low, high = op["m_search_db"]

        start = perf_counter()
        rows = security.sweep_key_rates(scenario, op["m_db_grid"], distances, "decoy")
        t1 = perf_counter()
        threshold = security.zero_key_threshold(scenario, (low, high), distances, "decoy", op["tol_db"])
        t2 = perf_counter()
        res.seconds = t2 - start
        res.add("sweep_rows", len(rows), t1 - start)
        res.threshold_s.append(t2 - t1)

        names = [f.name for f in dataclasses.fields(security.SecurityResult)]
        res.fingerprints["sweep"] = golden.fingerprint((names, [[getattr(r, n) for r in rows] for n in names]))
        res.fingerprints["threshold"] = golden.fingerprint((["m_threshold_db"], [[threshold]]))
        if len(rows) != len(op["m_db_grid"]) * len(distances):
            res.problems.append("sweep: wrong row count")
        if any(r.r_actual < 0.0 or r.r_est < 0.0 or not 0.0 <= r.p_s <= 1.0 for r in rows):
            res.problems.append("sweep: key rate or probability out of range")
        if not low < threshold < high:
            res.problems.append(f"threshold {threshold} outside the search range")
        return res
