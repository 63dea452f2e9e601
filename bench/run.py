"""ipasim benchmark: one closed-loop client, one op at a time, no threads.

Usage (from the repository root)::

    python3 bench/run.py --workload {cli_cold,attack_traces,security_grid}
                         --seed N --seconds S --trace {0,1}

``--trace 0`` runs the workload's ops for S seconds and reports the
end-to-end metrics.  ``--trace 1`` runs a fixed prefix of the ops twice, once
plain and once with every public entry point wrapped in spans, and reports
the per-layer metrics; the spans are written to ``.bench-work/spans/``.

Every op's outputs are checked: invariants of the result, byte-identity with
earlier runs of the same op in this run, and the golden fingerprints
captured at the reference commit (``bench/golden.py``) for every op the
golden store holds.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
the full report (environment, input digest, golden summary), which is also
written to ``.bench-work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True  # keep the benchmark directory free of build output

import golden  # noqa: E402
import inputs  # noqa: E402
import metrics  # noqa: E402
import tracer  # noqa: E402
from ops import OpRunner  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 3
TRACE_OPS = {"cli_cold": 8, "attack_traces": 12, "security_grid": 12}
COLD = "cold = a fresh process with a warm page cache; page caches are never dropped"


# -- environment ----------------------------------------------------------------


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "cold": COLD,
    }


# -- set-up probes ----------------------------------------------------------------


def _import_breakdown(stderr: str) -> dict[str, float]:
    """Cumulative seconds of the numpy, scipy and ipasim import subtrees.

    ``-X importtime`` prints each module after its children, indented by
    depth; a subtree root is an entry whose parent (the next entry printed at
    a smaller depth) belongs to another package.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip().split(".")[0], int(cumulative) * 1e-6))
    totals = {"numpy": 0.0, "scipy": 0.0, "ipasim": 0.0}
    for i, (depth, package, seconds) in enumerate(entries):
        parent = next((p for d, p, _ in entries[i + 1:] if d < depth), None)
        if package in totals and parent != package:
            totals[package] += seconds
    return totals


def probe_setup(root: Path, probes: int, importtime: bool) -> list[dict]:
    """Fresh interpreters that import ipasim, fit the device, build the config.

    One untimed probe first, so every timed probe finds compiled bytecode
    exactly as an installed package would.
    """
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [str(BENCH_DIR / "probe.py")]
    results = []
    for k in range(probes + 1):
        start = perf_counter()
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        wall = perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-400:]}")
        if k == 0:
            continue
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(probe["ipasim_file"]).resolve().parent != (root / "src" / "ipasim").resolve():
            raise RuntimeError(f"probe imported ipasim from {probe['ipasim_file']}")
        probe["wall_s"] = wall
        if importtime:
            probe.update({f"{k}_s": v for k, v in _import_breakdown(proc.stderr).items()})
        results.append(probe)
    return results


# -- one run --------------------------------------------------------------------


class Run:
    """State of one benchmark invocation: ops, checks and counters."""

    def __init__(self, root: Path, workload: str, seed: int) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.ops = inputs.catalogue(workload, seed)
        self.digests = [inputs.op_digest(op) for op in self.ops]
        self.runner = OpRunner(root)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: dict[str, dict] = {}     # op digest -> fingerprints of its first run
        self.executions: dict[str, int] = {}  # op digest -> runs that passed their checks
        self.op_seconds: list[float] = []    # every completed op, in order

    def execute(self, index: int, spans_path: Path | None = None):
        """Run op ``index`` of the catalogue (cyclically) and check it."""
        i = index % len(self.ops)
        op, digest = self.ops[i], self.digests[i]
        self.attempted += 1
        try:
            res = self.runner.run(op, spans_path)
        except Exception:  # a raising op is a failed op; keep measuring
            self._fail(f"op {i} raised: {traceback.format_exc(limit=3)}")
            return None
        self.op_seconds.append(res.seconds)
        problems = list(res.problems)
        if not problems:
            first = self.first.setdefault(digest, res.fingerprints)
            if _shas(first) != _shas(res.fingerprints):
                problems.append("outputs differ from an earlier run of the same op")
        if problems:
            self._fail(f"op {i}: {'; '.join(problems)}")
        else:
            self.executions[digest] = self.executions.get(digest, 0) + 1
        return res

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def check_golden(self) -> dict:
        """Compare each op's first outputs with the golden store."""
        try:
            store = golden.load_store(self.workload)
        except OSError as exc:
            self.problems.append(f"golden store unreadable: {exc}")
            return {"ops_checked": 0}
        checked = executions = 0
        worst = {"max_abs": 0.0, "max_rel": 0.0}
        mismatches = []
        for digest, fingerprints in self.first.items():
            if digest not in store:
                continue
            checked += 1
            executions += self.executions.get(digest, 0)
            report = golden.compare_outputs(store[digest], fingerprints)
            for file_report in report["files"].values():
                for stats in file_report.get("columns", {}).values():
                    for key in worst:
                        worst[key] = max(worst[key], stats.get(key, 0.0))
            if not report["ok"]:
                self.failed += self.executions.get(digest, 0)
                bad = {n: f["problems"] for n, f in report["files"].items() if not f["ok"]}
                mismatches.append({"op": digest[:12], "files": bad})
        if mismatches:
            self.problems.append(f"{len(mismatches)} ops differ from the golden outputs")
        return {
            "golden_seeds": [inputs.DEFAULT_SEED, inputs.HELDOUT_SEED],
            "tolerance": {"rtol": golden.RTOL, "atol_scale": golden.ATOL_SCALE},
            "ops_checked": checked,
            "executions_checked": executions,
            "ops_without_golden": len(self.first) - checked,
            "worst_difference": worst,
            "mismatches": mismatches[:10],
        }

    @property
    def in_process(self) -> bool:
        return self.workload != "cli_cold"

    def warm_up(self) -> None:
        """In-process workloads time steady state: import and caches first."""
        if self.in_process:
            self.runner.run(self.ops[0])


def _shas(fingerprints: dict) -> dict:
    return {name: fp["sha256"] for name, fp in fingerprints.items()}


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def measure_plain(run: Run, seconds: float) -> dict:
    """End-to-end metrics: the closed loop runs ops until ``seconds`` pass."""
    probes = probe_setup(run.root, SETUP_PROBES, importtime=False)
    run.warm_up()
    times: list[float] = []
    rss_kb = 0
    index = 0
    deadline = perf_counter() + seconds
    while index == 0 or perf_counter() < deadline:
        res = run.execute(index)
        index += 1
        if res is not None:
            times.append(res.seconds)
            rss_kb = max(rss_kb, res.rss_kb)
    if run.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if not times:
        return {}
    return {
        "setup_s": statistics.median(p["wall_s"] for p in probes),
        "scenario_s.p50": statistics.median(times),
        "scenario_s.p90": _p90(times),
        "scenarios_per_s": len(times) / sum(times),
        "ok_frac": (run.attempted - run.failed) / run.attempted,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def _traced_pass(run: Run, indices) -> tuple[list, dict]:
    """Run ops with spans: wrappers in this process, or the CLI shim."""
    results = []
    if run.in_process:
        trace = tracer.Tracer()
        trace.install()
        try:
            for op_id, i in enumerate(indices):
                trace.op_id = op_id
                results.append(run.execute(i))
        finally:
            trace.uninstall()
        return results, trace.arrays()
    parts = []
    for op_id, i in enumerate(indices):
        path = run.runner.work_dir / "spans" / f"op{op_id}.npz"
        path.parent.mkdir(parents=True, exist_ok=True)
        results.append(run.execute(i, path))
        if path.exists():
            parts.append(tracer.load(path, op_id))
            path.unlink()
    return results, tracer.concat(parts)


def _counts(spans: dict) -> dict:
    return {name: (s["calls"], s["count"]) for name, s in tracer.summarize(spans).items()}


def measure_traced(run: Run) -> dict:
    """Per-layer metrics from a plain pass and a traced pass over the same ops.

    Op 0 is traced once more on its own; its counts must repeat exactly.
    """
    probes = probe_setup(run.root, SETUP_PROBES, importtime=True)
    run.warm_up()
    indices = range(TRACE_OPS[run.workload])
    plain = [run.execute(i) for i in indices]
    traced, spans = _traced_pass(run, indices)
    repeat, again = _traced_pass(run, [0])
    tracer.save(run.runner.work_dir / "spans" / f"{run.workload}-seed{run.seed}.npz", spans)
    if _counts(tracer.select(spans, spans["op"] == 0)) != _counts(again):
        run.problems.append("span counts differ between two traced runs of op 0")
    if any(r is None for r in plain + traced + repeat):
        return {}

    summary = tracer.summarize(spans)
    m = {
        "import.numpy_s": statistics.median(p["numpy_s"] for p in probes),
        "import.scipy_s": statistics.median(p["scipy_s"] for p in probes),
        "import.ipasim_s": statistics.median(p["ipasim_s"] for p in probes),
        "calibration.default_device_s": statistics.median(p["default_device_s"] for p in probes),
        "config.load_s": summary["config.load"]["self_s"],
        "config.build_s": summary["config.build"]["self_s"],
        "cli.validate_s": sum(
            tracer.validate_prefix(tracer.select(spans, spans["op"] == k)) for k in indices
        ),
    }
    for span in ("photorefractive.evolve_field", "device.exposed", "device.readout",
                 "security.evaluate_scenario", "security.attack_success_probability"):
        m[f"{span}.calls"] = summary[span]["calls"]
        m[f"{span}.self_s"] = summary[span]["self_s"]
    for span, unit in (("attack.run_program", "rows"), ("attack.saturate", "steps"), ("attack.pulse", "periods")):
        m[f"{span}.{unit}"] = summary[span]["count"]
        m[f"{span}.self_s"] = summary[span]["self_s"]
    m["device.voltage_curve.self_s"] = summary["device.voltage_curve"]["self_s"]
    thresholds = summary["security.threshold"]["calls"]
    evals = tracer.ancestor_count(spans, "security.evaluate_scenario", "security.threshold")
    m["security.threshold.evals"] = evals / thresholds if thresholds else 0.0
    m["security.sweep.rows"] = summary["security.sweep"]["count"]
    m["budget.self_s"] = summary["budget"]["self_s"]
    m["runio.csv.bytes"] = summary["runio.csv"]["count"]
    for span in ("runio.csv", "runio.sha256", "runio.finish"):
        m[f"{span}.self_s"] = summary[span]["self_s"]
    m["trace.overhead_frac"] = sum(r.seconds for r in traced) / sum(r.seconds for r in plain)
    m.update(_rates(run, plain, spans, summary))
    return m


def _rates(run: Run, plain: list, spans: dict, summary: dict) -> dict:
    """Work rates: timed around the calls in the plain pass when in-process,
    from span durations for the CLI, whose calls happen in child processes."""
    if run.in_process:
        totals: dict = {}
        for res in plain:
            for name, (count, seconds) in res.work.items():
                slot = totals.setdefault(name, [0, 0.0])
                slot[0] += count
                slot[1] += seconds
        thresholds = [t for res in plain for t in res.threshold_s]
    else:
        prog, sat = summary["attack.run_program"], summary["attack.saturate"]
        totals = {
            # a saturation run's trace has one row per step plus the initial row
            "trace_rows": (prog["count"] + sat["count"] + sat["calls"], prog["total_s"] + sat["total_s"]),
            "pulse_periods": (summary["attack.pulse"]["count"], summary["attack.pulse"]["total_s"]),
            "sweep_rows": (summary["security.sweep"]["count"], summary["security.sweep"]["total_s"]),
        }
        thr = tracer.select(spans, spans["name"] == tracer.SPAN_NAMES.index("security.threshold"))
        thresholds = list(thr["end"] - thr["start"])
    return {
        "trace_rows_per_s": _rate(*totals.get("trace_rows", (0, 0.0))),
        "pulse_periods_per_s": _rate(*totals.get("pulse_periods", (0, 0.0))),
        "sweep_rows_per_s": _rate(*totals.get("sweep_rows", (0, 0.0))),
        "threshold_s.p50": float(statistics.median(thresholds)) if thresholds else 0.0,
    }


# -- entry point ----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "ipasim" / "__init__.py").is_file():
        print(f"error: {root} has no src/ipasim; run from the repository root", file=sys.stderr)
        return 2
    spec = metrics.load_spec(root)
    section = "per_layer" if args.trace else "end_to_end"
    units = metrics.units(spec, section)

    run = Run(root, args.workload, args.seed)
    started = perf_counter()
    try:
        values = measure_traced(run) if args.trace else measure_plain(run, args.seconds)
        golden_report = run.check_golden()
    finally:
        run.runner.close()
    missing = sorted(set(units) - set(values))
    if missing:
        run.problems.append(f"metrics not measured: {missing}")
    correct = run.failed == 0 and not run.problems

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "wall_s": perf_counter() - started,
        "catalogue_ops": len(run.ops),
        "inputs_sha256": inputs.inputs_digest(run.ops),
        "environment": environment(root),
        "golden": golden_report,
        "problems": run.problems,
        "op_seconds": run.op_seconds,
    }
    results_dir = run.runner.work_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    out_name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / out_name).write_text(json.dumps(report, indent=2) + "\n")
    final = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(report))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
