"""Command-line surface.

Verbs: ``pe-curve``, ``voltage-curve``, ``attack pre-treat|pulse|init``,
``security sweep|threshold``, ``budget``.  Each verb is one entry of
``VERBS``, holding its help text, the names of the files it writes and its
runner; the parser, the dry-run plan and the written files all come from
that table.  Global flags work before or after the verb: ``--config PATH``
(INI scenario, defaults used when omitted), ``--out DIR`` (overrides
``output.directory``), ``--seed U64`` (overrides ``pulse.seed``),
``--dry-run`` (validate, print the plan, write nothing).

Exit codes: 0 success; 2 config, schema or usage errors; 3 runs that cannot
proceed (unbracketed threshold search, infeasible pulse target, a library
``ValueError`` such as a too-short Poisson truncation, arithmetic overflow,
unusable output path).

A run computes all its outputs before it touches the output directory, so a
run that fails while computing leaves the directory as it was.  It then
writes its CSV outputs plus one ``manifest.json`` recording the config hash,
so identical scenarios are verifiably byte-identical.  A runner returns each
table as its header and its columns, and ``runio`` writes it column by
column, one type per column: floats in shortest round-trip ``repr``, bools
as ``true``/``false``, string cells (names) never quoted.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from . import __version__, budget as budget_mod
from .attack import (
    IrradiationProgram,
    initialize_device,
    pre_treat,
    pulse_inject_to_target,
    run_program,
)
from .config import (
    ConfigError,
    ScenarioConfig,
    build_controller,
    build_curve_plan,
    build_device,
    build_path,
    build_pe_curve_plan,
    build_pretreat_plan,
    build_scenario,
    build_sweep_plan,
    config_sha256,
    default_config,
    load_config,
    working_point_v,
)
from .device import curve_rms_db
from .runio import MANIFEST_NAME, RunDirError, RunWriter, line_plot_svg, utc_now
from .security import sweep_key_rates, zero_key_threshold

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

# A text file's contents, or a CSV file's header and columns.
Table = Union[str, tuple[Sequence[str], list]]
# A runner's tables, in the order its verb names them, and its summary lines.
RunResult = tuple[list[Table], list[str]]


class RunFailure(RuntimeError):
    """A validated scenario that cannot produce its outputs."""


# -- command implementations ----------------------------------------------------
#
# Each runner is a pure function of the config; ``main`` does all the writing.

_TRACE_HEADER = ("t_s", "transmittance", "attenuation_db", "m_db", "delta_theta_rad")
_CURVE_HEADER = ("v_volts", "transmittance", "attenuation_db", "m_db", "delta_theta_rad")


def _columns(obj, header: Sequence[str]) -> Table:
    """CSV table whose columns are the same-named array fields of ``obj``."""
    return header, [getattr(obj, name) for name in header]


def _curve_table(curve, baseline) -> Table:
    """Curve columns with magnification measured against a baseline curve."""
    m_db = baseline.attenuation_db - curve.attenuation_db
    return _CURVE_HEADER, [
        curve.v_app_v, curve.transmittance, curve.attenuation_db, m_db, curve.delta_theta_rad
    ]


def run_pe_curve(cfg: ScenarioConfig) -> RunResult:
    device = build_device(cfg)
    v0 = working_point_v(cfg)
    plan = build_pe_curve_plan(cfg)
    baseline = device.output_mpn(1.0, v0)
    tables, saturated, taus = [], [0.0], [device.material.tau_dark_s]
    for power in plan.powers_w:
        taus.append(device.slowest_time_constant(power))
        saturated.append(device.equilibrated(power, v0).magnification_db(v0, baseline))
        duration = plan.trace_duration_tau * taus[-1]
        result = run_program(
            device, IrradiationProgram.cw(power, duration), 1.0, v0, duration / plan.trace_points
        )
        tables.append(_columns(result.trace, _TRACE_HEADER))
    powers = [0.0, *plan.powers_w]
    tables.append((("power_w", "saturated_m_db", "tau_s"), [powers, saturated, taus]))
    peak_w, peak_db = max(zip(plan.powers_w, saturated[1:]), key=lambda row: row[1])
    return tables, [
        f"pe-curve: {len(plan.powers_w)} powers, traces over "
        f"{plan.trace_duration_tau:g} build-up times each",
        f"largest saturated magnification: {peak_db:.3f} dB at {peak_w:.3g} W injected",
    ]


def run_voltage_curve(cfg: ScenarioConfig) -> RunResult:
    device = build_device(cfg)
    grid = build_curve_plan(cfg)
    grid_args = (grid.v_min_v, grid.v_max_v, grid.points)
    plan_keys = cfg.values["pre_treat"]
    base_plan = build_pretreat_plan(cfg)

    pristine = device.voltage_curve(*grid_args)
    tables = [_curve_table(pristine, pristine)]
    series = [("pristine", pristine.v_app_v, pristine.transmittance)]
    shifts, converged = [], []
    for v_treat in grid.pretreat_voltages_v:
        plan = replace(base_plan, v_app_v=v_treat)
        result = pre_treat(device, plan, plan_keys["dt_s"], plan_keys["max_steps"])
        curve = result.device.voltage_curve(*grid_args)
        tables.append(_curve_table(curve, pristine))
        series.append((f"pre-treated {v_treat:+g} V", curve.v_app_v, curve.transmittance))
        shifts.append(result.bias_shift_rad)
        converged.append(result.converged)
    header = ("v_app_v", "bias_shift_rad", "converged")
    tables.append((header, [grid.pretreat_voltages_v, shifts, converged]))
    if cfg.get("output", "svg"):
        tables.append(
            line_plot_svg(
                "transmission vs drive voltage", "drive voltage (V)", "transmittance", series
            )
        )
    lines = [f"voltage-curve: pristine plus {len(grid.pretreat_voltages_v)} pre-treated curves"]
    if shifts:
        lines.append(
            f"bias shifts from {min(shifts):+.4f} to {max(shifts):+.4f} rad "
            f"(span {max(shifts) - min(shifts):.4f} rad)"
        )
    return tables, lines


def run_attack_pre_treat(cfg: ScenarioConfig) -> RunResult:
    device = build_device(cfg)
    keys = cfg.values["pre_treat"]
    result = pre_treat(device, build_pretreat_plan(cfg), keys["dt_s"], keys["max_steps"])
    return [_columns(result.trace, _TRACE_HEADER)], [
        f"pre-treat: {keys['i_ir_w']:.3g} W at {keys['v_app_v']:+g} V, "
        f"converged={str(result.converged).lower()} after {result.steps} steps "
        f"({result.elapsed_s:.0f} s)",
        f"zero-volt bias shift: {result.bias_shift_rad:+.4f} rad",
    ]


def run_attack_pulse(cfg: ScenarioConfig) -> RunResult:
    device = build_device(cfg)
    ctrl = build_controller(cfg)
    rng = None
    if ctrl.noise_db > 0.0:
        rng = np.random.default_rng(int(cfg.get("pulse", "seed")))
    result = pulse_inject_to_target(
        device,
        ctrl,
        mu_in=1.0,
        v_app_v=working_point_v(cfg),
        max_periods=cfg.get("pulse", "max_periods"),
        hold_periods=cfg.get("pulse", "hold_periods"),
        rng=rng,
    )
    if not result.feasible:
        raise RunFailure(
            f"pulse target {ctrl.target_m_db:g} dB exceeds the saturated "
            f"magnification {result.saturated_m_db:.3f} dB at {ctrl.peak_power_w:.3g} W"
        )
    lines = [
        f"pulse: target {ctrl.target_m_db:g} dB of {result.saturated_m_db:.3f} dB "
        f"reachable, settled={str(result.settled).lower()} after {result.periods} periods",
        f"final duty {result.final_duty:.6f}",
    ]
    if result.settled and not np.isnan(result.holding_duty_mean):
        lines.append(f"holding duty mean {result.holding_duty_mean:.6f}")
    if not np.isnan(result.held_max_abs_error_db):
        lines.append(f"worst held error {result.held_max_abs_error_db:.4f} dB")
    return [_columns(result.trace, ("t_s", "duty", "power_w", "m_db", "error_db"))], lines


def run_attack_init(cfg: ScenarioConfig) -> RunResult:
    device = build_device(cfg)
    pre_keys = cfg.values["pre_treat"]
    reference = initialize_device(device, **cfg.values["init"])
    treated = pre_treat(device, build_pretreat_plan(cfg), pre_keys["dt_s"], pre_keys["max_steps"])
    restored = initialize_device(treated.device, **cfg.values["init"])

    grid = build_curve_plan(cfg)
    ref_curve = reference.device.voltage_curve(grid.v_min_v, grid.v_max_v, grid.points)
    new_curve = restored.device.voltage_curve(grid.v_min_v, grid.v_max_v, grid.points)
    rms = curve_rms_db(ref_curve, new_curve)

    tables = [
        _columns(restored.trace, _TRACE_HEADER),
        _curve_table(ref_curve, ref_curve),
        _curve_table(new_curve, ref_curve),
    ]
    return tables, [
        f"init: pre-treatment shifted the bias by {treated.bias_shift_rad:+.4f} rad",
        f"re-initialization converged={str(restored.converged).lower()} "
        f"after {restored.steps} steps ({restored.elapsed_s:.0f} s)",
        f"voltage curve restored to {rms:.4f} dB RMS of the reference "
        f"({grid.points} points over [{grid.v_min_v:g}, {grid.v_max_v:g}] V)",
    ]


def run_security_sweep(cfg: ScenarioConfig) -> RunResult:
    plan = build_sweep_plan(cfg)
    distances = plan.distances_km
    rows = sweep_key_rates(build_scenario(cfg), plan.m_db_grid, distances, plan.estimator)
    header = (
        "m_db", "distance_km", "q_mu", "e_mu", "y1_lower", "e1_upper",
        "delta_est", "delta_pns", "r_est", "r_actual", "tail_bound",
    )
    table = header, [[getattr(row, name) for row in rows] for name in header]
    return [table], [
        f"security sweep: {len(plan.m_db_grid)} magnifications x {len(distances)} distances "
        f"({plan.estimator} estimator)",
    ]


def run_security_threshold(cfg: ScenarioConfig) -> RunResult:
    plan = build_sweep_plan(cfg)
    low, high, tol = plan.m_search_low_db, plan.m_search_high_db, plan.threshold_tol_db
    threshold = zero_key_threshold(
        build_scenario(cfg), (low, high), plan.distances_km, plan.estimator, tol
    )
    table = (
        ("m_threshold_db", "m_search_low_db", "m_search_high_db", "tol_db", "estimator"),
        [[threshold], [low], [high], [tol], [plan.estimator]],
    )
    return [table], [f"zero-key magnification threshold: {threshold:.3f} dB"]


def run_budget(cfg: ScenarioConfig) -> RunResult:
    path = build_path(cfg)
    wavelength = int(cfg.get("budget", "wavelength_nm"))
    target = cfg.get("budget", "target_power_w")
    eve_max = cfg.get("budget", "eve_max_power_w")

    total = budget_mod.path_loss(path, wavelength)
    items = [component.name for component in path.components] + ["total"]
    losses = [component.at(wavelength) for component in path.components] + [total]
    if path.fiber_length_km > 0:
        items.insert(0, f"fiber ({path.fiber_length_km:g} km)")
        losses.insert(0, path.fiber_loss(wavelength))

    required = budget_mod.required_eve_power(path, wavelength, target)
    margin = budget_mod.countermeasure_margin(path, wavelength, eve_max, target)
    bound = ">= " if total.lower_bound else ""
    report = [
        f"injection budget at {wavelength} nm",
        "",
        *(f"  {item:<24} {loss.db:8.2f} dB{'  (lower bound)' if loss.lower_bound else ''}"
          for item, loss in zip(items, losses)),
        "",
        f"target power at device : {target:.3g} W",
        f"required launch power  : {bound}{required.watts:.6g} W",
        f"attacker power limit   : {eve_max:.3g} W",
        f"margin                 : {bound}{margin.margin_db:.2f} dB",
        f"verdict                : {margin.verdict}",
    ]
    scheme = cfg.get("budget", "coupling_scheme")
    if scheme != "none":
        plan = budget_mod.coupling_plan_loss(scheme)
        report.append(
            f"coupling scheme '{scheme}' also inserts "
            f"{plan.signal_loss_1550_db:g} dB in the 1550 nm signal path"
        )
    columns = [items, [loss.db for loss in losses], [loss.lower_bound for loss in losses]]
    tables = [(("item", "loss_db", "lower_bound"), columns), "\n".join(report) + "\n"]
    return tables, [
        f"budget: total loss {bound}{total.db:.2f} dB, "
        f"required launch {bound}{required.watts:.6g} W, {margin.verdict}",
    ]


# -- the verb table ----------------------------------------------------------------


class Verb(NamedTuple):
    """One CLI verb: its help text, the files it writes and its runner."""

    help: str
    outputs: Callable[[ScenarioConfig], list[str]]  # file names, in runner order
    run: Callable[[ScenarioConfig], RunResult]


def _numbered(stem: str, items: Sequence[object]) -> list[str]:
    return [f"{stem}_{index:02d}.csv" for index in range(len(items))]


VERBS: dict[str, Verb] = {
    "pe-curve": Verb(
        "saturated magnification vs irradiation power, with time traces",
        lambda cfg: [*_numbered("pe_trace", cfg.get("pe_curve", "powers_w")), "pe_summary.csv"],
        run_pe_curve,
    ),
    "voltage-curve": Verb(
        "transmission vs drive voltage, pristine and after pre-treatments",
        lambda cfg: [
            "voltage_curve_pristine.csv",
            *_numbered("voltage_curve_pretreat", cfg.get("voltage_curve", "pretreat_voltages_v")),
            "bias_shifts.csv",
            *(["voltage_curves.svg"] if cfg.get("output", "svg") else []),
        ],
        run_voltage_curve,
    ),
    "attack pre-treat": Verb(
        "irradiate under a held voltage until the field saturates",
        lambda cfg: ["pretreat_trace.csv"],
        run_attack_pre_treat,
    ),
    "attack pulse": Verb(
        "duty-cycle control of pulsed injection to a target magnification",
        lambda cfg: ["pulse_trace.csv"],
        run_attack_pulse,
    ),
    "attack init": Verb(
        "erase a pre-treatment by re-initialization",
        lambda cfg: ["init_trace.csv", "voltage_curve_reference.csv", "voltage_curve_restored.csv"],
        run_attack_init,
    ),
    "security sweep": Verb(
        "decoy-state BB84 estimated vs actual key rate over magnification and distance",
        lambda cfg: ["security_sweep.csv"],
        run_security_sweep,
    ),
    "security threshold": Verb(
        "zero-key magnification threshold",
        lambda cfg: ["threshold.csv"],
        run_security_threshold,
    ),
    "budget": Verb(
        "injection path loss budget",
        lambda cfg: ["budget.csv", "budget.txt"],
        run_budget,
    ),
}


# -- argument parsing and entry point ---------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps absent flags out of the namespace entirely; without it the
    # subparser's defaults would clobber flag values given before the verb.
    shared = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    shared.add_argument("--config", metavar="PATH", help="scenario INI file (defaults if omitted)")
    shared.add_argument("--out", metavar="DIR", help="output directory (overrides output.directory)")
    shared.add_argument("--seed", type=int, metavar="U64", help="RNG seed (overrides pulse.seed)")
    shared.add_argument(
        "--dry-run", action="store_true", help="validate the config and print the plan only"
    )

    parser = argparse.ArgumentParser(
        prog="ipasim",
        parents=[shared],
        description="Simulator of light-injection attenuation attacks on "
        "LiNbO3 MZI attenuators, with QKD security and loss-budget analysis.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    groups: dict[str, dict[str, str]] = {}
    for name, verb in VERBS.items():
        head, _, stage = name.partition(" ")
        groups.setdefault(head, {})[stage] = verb.help
    for head, stages in groups.items():
        if "" in stages:
            sub.add_parser(head, parents=[shared], help=stages[""])
            continue
        group = sub.add_parser(head, parents=[shared], help="stages: " + " | ".join(stages))
        group.add_argument(
            "stage", choices=tuple(stages), metavar="STAGE",
            help="; ".join(f"{stage}: {text}" for stage, text in stages.items()),
        )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    command = " ".join(filter(None, (args.command, getattr(args, "stage", None))))
    verb = VERBS[command]
    config_path = getattr(args, "config", None)
    out_flag = getattr(args, "out", None)
    seed = getattr(args, "seed", None)
    dry_run = getattr(args, "dry_run", False)
    try:
        cfg = load_config(config_path) if config_path else default_config()
        if seed is not None:
            cfg = cfg.with_value("pulse", "seed", seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(out_flag) if out_flag else Path(str(cfg.get("output", "directory")))
    digest = config_sha256(cfg)
    names = verb.outputs(cfg)
    if dry_run:
        print(f"command: {command}")
        print(f"config: {config_path or '(built-in defaults)'}")
        print(f"config sha256: {digest}")
        print(f"output directory: {out_dir}")
        for name in [*names, MANIFEST_NAME]:
            print(f"would write: {name}")
        print("dry run: nothing written")
        return EXIT_OK

    started = utc_now()
    try:
        tables, lines = verb.run(cfg)
    except (RunFailure, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except ArithmeticError as exc:
        # the bare text of an overflow ("(34, 'Numerical result out of range')")
        # names neither the verb nor what went wrong
        print(f"error: {command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    outputs = list(zip(names, tables, strict=True))
    try:
        writer = RunWriter.prepare(out_dir)
    except RunDirError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    try:
        for name, table in outputs:
            if isinstance(table, str):
                writer.write_text(name, table)
            else:
                writer.write_csv(name, *table)
        writer.finish(command, digest, started)
    except OSError as exc:
        writer.abort()
        print(f"error: cannot write to {out_dir}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    for line in lines:
        print(line)
    print(f"wrote {len(writer.files) + 1} files to {out_dir}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
