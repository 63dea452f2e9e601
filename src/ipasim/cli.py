"""Command-line surface.

Verbs: ``pe-curve``, ``voltage-curve``, ``attack pre-treat|pulse|init``,
``security sweep|threshold``, ``budget``.  Global flags work before or after
the verb: ``--config PATH`` (INI scenario, defaults used when omitted),
``--out DIR`` (overrides ``output.directory``), ``--seed U64`` (overrides
``pulse.seed``), ``--dry-run`` (validate, print the plan, write nothing).

Exit codes: 0 success; 2 config, schema or usage errors; 3 runs that cannot
proceed (unbracketed threshold search, infeasible pulse target, a library
``ValueError`` such as a too-short Poisson truncation, unusable output
directory).

Every run writes its CSV outputs plus one ``manifest.json`` recording the
config hash, so identical scenarios are verifiably byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__, budget as budget_mod
from .attack import (
    IrradiationProgram,
    PreTreatmentPlan,
    initialize_device,
    pre_treat,
    pulse_inject_to_target,
    run_program,
)
from .config import (
    ConfigError,
    ScenarioConfig,
    build_controller,
    build_device,
    build_distances_km,
    build_path,
    build_pretreat_plan,
    build_scenario,
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


class RunFailure(RuntimeError):
    """A validated scenario that cannot produce its outputs."""


# -- command implementations ----------------------------------------------------

_TRACE_HEADER = ("t_s", "transmittance", "attenuation_db", "m_db", "delta_theta_rad")
_CURVE_HEADER = ("v_volts", "transmittance", "attenuation_db", "m_db", "delta_theta_rad")
_SWEEP_HEADER = (
    "m_db",
    "distance_km",
    "q_mu",
    "e_mu",
    "y1_lower",
    "e1_upper",
    "delta_est",
    "delta_pns",
    "r_est",
    "r_actual",
    "tail_bound",
)


def _trace_rows(trace) -> list[tuple[float, ...]]:
    return list(
        zip(
            trace.t_s,
            trace.transmittance,
            trace.attenuation_db,
            trace.m_db,
            trace.delta_theta_rad,
        )
    )


def _curve_rows(curve, baseline) -> list[tuple[float, ...]]:
    """Curve rows with magnification measured against a baseline curve."""
    m_db = baseline.attenuation_db - curve.attenuation_db
    return list(
        zip(
            curve.v_app_v,
            curve.transmittance,
            curve.attenuation_db,
            m_db,
            curve.delta_theta_rad,
        )
    )


def run_pe_curve(cfg: ScenarioConfig, writer: RunWriter) -> list[str]:
    device = build_device(cfg)
    v0 = working_point_v(cfg)
    powers = cfg.get("pe_curve", "powers_w")
    points = cfg.get("pe_curve", "trace_points")
    tau_span = cfg.get("pe_curve", "trace_duration_tau")
    baseline = device.output_mpn(1.0, v0)
    summary = [(0.0, 0.0, device.material.tau_dark_s)]
    for index, power in enumerate(powers):
        tau = device.slowest_time_constant(power)
        saturated = device.equilibrated(power, v0).magnification_db(v0, baseline)
        duration = tau_span * tau
        result = run_program(
            device, IrradiationProgram.cw(power, duration), 1.0, v0, duration / points
        )
        writer.write_csv(
            f"pe_trace_{index:02d}.csv", _TRACE_HEADER, _trace_rows(result.trace)
        )
        summary.append((power, saturated, tau))
    writer.write_csv("pe_summary.csv", ("power_w", "saturated_m_db", "tau_s"), summary)
    peak = max(summary[1:], key=lambda row: row[1])
    return [
        f"pe-curve: {len(powers)} powers, traces over {tau_span:g} build-up times each",
        f"largest saturated magnification: {peak[1]:.3f} dB at {peak[0]:.3g} W injected",
    ]


def run_voltage_curve(cfg: ScenarioConfig, writer: RunWriter) -> list[str]:
    device = build_device(cfg)
    v_min = cfg.get("voltage_curve", "v_min_v")
    v_max = cfg.get("voltage_curve", "v_max_v")
    points = cfg.get("voltage_curve", "points")
    voltages = cfg.get("voltage_curve", "pretreat_voltages_v")
    power = cfg.get("voltage_curve", "pretreat_power_w")
    plan_keys = cfg.values["pre_treat"]

    pristine = device.voltage_curve(v_min, v_max, points)
    writer.write_csv(
        "voltage_curve_pristine.csv", _CURVE_HEADER, _curve_rows(pristine, pristine)
    )
    series = [("pristine", pristine.v_app_v, pristine.transmittance)]
    shift_rows = []
    for index, v_treat in enumerate(voltages):
        plan = PreTreatmentPlan(
            v_app_v=v_treat,
            i_ir_w=power,
            saturation_epsilon=plan_keys["saturation_epsilon"],
        )
        result = pre_treat(device, plan, plan_keys["dt_s"], plan_keys["max_steps"])
        curve = result.device.voltage_curve(v_min, v_max, points)
        writer.write_csv(
            f"voltage_curve_pretreat_{index:02d}.csv",
            _CURVE_HEADER,
            _curve_rows(curve, pristine),
        )
        series.append((f"pre-treated {v_treat:+g} V", curve.v_app_v, curve.transmittance))
        shift_rows.append((v_treat, result.bias_shift_rad, result.converged))
    writer.write_csv(
        "bias_shifts.csv", ("v_app_v", "bias_shift_rad", "converged"), shift_rows
    )
    if cfg.get("output", "svg"):
        writer.write_text(
            "voltage_curves.svg",
            line_plot_svg(
                "transmission vs drive voltage",
                "drive voltage (V)",
                "transmittance",
                series,
            ),
        )
    lines = [f"voltage-curve: pristine plus {len(voltages)} pre-treated curves"]
    if shift_rows:
        shifts = [row[1] for row in shift_rows]
        lines.append(
            f"bias shifts from {min(shifts):+.4f} to {max(shifts):+.4f} rad "
            f"(span {max(shifts) - min(shifts):.4f} rad)"
        )
    return lines


def run_attack_pre_treat(cfg: ScenarioConfig, writer: RunWriter) -> list[str]:
    device = build_device(cfg)
    keys = cfg.values["pre_treat"]
    result = pre_treat(device, build_pretreat_plan(cfg), keys["dt_s"], keys["max_steps"])
    writer.write_csv("pretreat_trace.csv", _TRACE_HEADER, _trace_rows(result.trace))
    return [
        f"pre-treat: {keys['i_ir_w']:.3g} W at {keys['v_app_v']:+g} V, "
        f"converged={str(result.converged).lower()} after {result.steps} steps "
        f"({result.elapsed_s:.0f} s)",
        f"zero-volt bias shift: {result.bias_shift_rad:+.4f} rad",
    ]


def run_attack_pulse(cfg: ScenarioConfig, writer: RunWriter) -> list[str]:
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
    writer.write_csv(
        "pulse_trace.csv",
        ("t_s", "duty", "power_w", "m_db", "error_db"),
        list(
            zip(
                result.trace.t_s,
                result.trace.duty,
                result.trace.power_w,
                result.trace.m_db,
                result.trace.error_db,
            )
        ),
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
    return lines


def run_attack_init(cfg: ScenarioConfig, writer: RunWriter) -> list[str]:
    device = build_device(cfg)
    init_keys = cfg.values["init"]
    pre_keys = cfg.values["pre_treat"]

    def init(dev):
        return initialize_device(
            dev,
            dt_s=init_keys["dt_s"],
            power_w=init_keys["power_w"],
            saturation_epsilon=init_keys["saturation_epsilon"],
            max_steps=init_keys["max_steps"],
        )

    reference = init(device)
    treated = pre_treat(device, build_pretreat_plan(cfg), pre_keys["dt_s"], pre_keys["max_steps"])
    restored = init(treated.device)

    v_min = cfg.get("voltage_curve", "v_min_v")
    v_max = cfg.get("voltage_curve", "v_max_v")
    points = cfg.get("voltage_curve", "points")
    ref_curve = reference.device.voltage_curve(v_min, v_max, points)
    new_curve = restored.device.voltage_curve(v_min, v_max, points)
    rms = curve_rms_db(ref_curve, new_curve)

    writer.write_csv("init_trace.csv", _TRACE_HEADER, _trace_rows(restored.trace))
    writer.write_csv(
        "voltage_curve_reference.csv", _CURVE_HEADER, _curve_rows(ref_curve, ref_curve)
    )
    writer.write_csv(
        "voltage_curve_restored.csv", _CURVE_HEADER, _curve_rows(new_curve, ref_curve)
    )
    return [
        f"init: pre-treatment shifted the bias by {treated.bias_shift_rad:+.4f} rad",
        f"re-initialization converged={str(restored.converged).lower()} "
        f"after {restored.steps} steps ({restored.elapsed_s:.0f} s)",
        f"voltage curve restored to {rms:.4f} dB RMS of the reference "
        f"({points} points over [{v_min:g}, {v_max:g}] V)",
    ]


def run_security_sweep(cfg: ScenarioConfig, writer: RunWriter) -> list[str]:
    scenario = build_scenario(cfg)
    m_grid = cfg.get("qkd", "m_db_grid")
    distances = build_distances_km(cfg)
    estimator = cfg.get("qkd", "estimator")
    rows = sweep_key_rates(scenario, m_grid, distances, estimator)
    writer.write_csv(
        "security_sweep.csv",
        _SWEEP_HEADER,
        [
            (
                row.m_db,
                row.distance_km,
                row.q_mu,
                row.e_mu,
                row.y1_lower,
                row.e1_upper,
                row.delta_est,
                row.delta_pns,
                row.r_est,
                row.r_actual,
                row.tail_bound,
            )
            for row in rows
        ],
    )
    return [
        f"security sweep: {len(m_grid)} magnifications x {len(distances)} distances "
        f"({estimator} estimator)",
    ]


def run_security_threshold(cfg: ScenarioConfig, writer: RunWriter) -> list[str]:
    scenario = build_scenario(cfg)
    low = cfg.get("qkd", "m_search_low_db")
    high = cfg.get("qkd", "m_search_high_db")
    tol = cfg.get("qkd", "threshold_tol_db")
    estimator = cfg.get("qkd", "estimator")
    threshold = zero_key_threshold(
        scenario, (low, high), build_distances_km(cfg), estimator, tol
    )
    writer.write_csv(
        "threshold.csv",
        ("m_threshold_db", "m_search_low_db", "m_search_high_db", "tol_db", "estimator"),
        [(threshold, low, high, tol, estimator)],
    )
    return [f"zero-key magnification threshold: {threshold:.3f} dB"]


def run_budget(cfg: ScenarioConfig, writer: RunWriter) -> list[str]:
    path = build_path(cfg)
    wavelength = int(cfg.get("budget", "wavelength_nm"))
    target = cfg.get("budget", "target_power_w")
    eve_max = cfg.get("budget", "eve_max_power_w")

    rows = []
    if path.fiber_length_km > 0:
        fiber = path.fiber_loss(wavelength)
        rows.append((f"fiber ({path.fiber_length_km:g} km)", fiber.db, fiber.lower_bound))
    for component in path.components:
        loss = component.at(wavelength)
        rows.append((component.name, loss.db, loss.lower_bound))
    total = budget_mod.path_loss(path, wavelength)
    rows.append(("total", total.db, total.lower_bound))
    writer.write_csv("budget.csv", ("item", "loss_db", "lower_bound"), rows)

    required = budget_mod.required_eve_power(path, wavelength, target)
    margin = budget_mod.countermeasure_margin(path, wavelength, eve_max, target)
    bound = ">= " if total.lower_bound else ""
    report = [
        f"injection budget at {wavelength} nm",
        "",
        *(f"  {name:<24} {db:8.2f} dB{'  (lower bound)' if lb else ''}" for name, db, lb in rows),
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
    writer.write_text("budget.txt", "\n".join(report) + "\n")
    return [
        f"budget: total loss {bound}{total.db:.2f} dB, "
        f"required launch {bound}{required.watts:.6g} W, {margin.verdict}",
    ]


COMMANDS: dict[str, Callable[[ScenarioConfig, RunWriter], list[str]]] = {
    "pe-curve": run_pe_curve,
    "voltage-curve": run_voltage_curve,
    "attack pre-treat": run_attack_pre_treat,
    "attack pulse": run_attack_pulse,
    "attack init": run_attack_init,
    "security sweep": run_security_sweep,
    "security threshold": run_security_threshold,
    "budget": run_budget,
}


def planned_outputs(command: str, cfg: ScenarioConfig) -> list[str]:
    """File names a command will emit, for dry runs."""
    svg = bool(cfg.get("output", "svg"))
    if command == "pe-curve":
        n = len(cfg.get("pe_curve", "powers_w"))
        names = [f"pe_trace_{i:02d}.csv" for i in range(n)] + ["pe_summary.csv"]
    elif command == "voltage-curve":
        n = len(cfg.get("voltage_curve", "pretreat_voltages_v"))
        names = (
            ["voltage_curve_pristine.csv"]
            + [f"voltage_curve_pretreat_{i:02d}.csv" for i in range(n)]
            + ["bias_shifts.csv"]
            + (["voltage_curves.svg"] if svg else [])
        )
    elif command == "attack pre-treat":
        names = ["pretreat_trace.csv"]
    elif command == "attack pulse":
        names = ["pulse_trace.csv"]
    elif command == "attack init":
        names = ["init_trace.csv", "voltage_curve_reference.csv", "voltage_curve_restored.csv"]
    elif command == "security sweep":
        names = ["security_sweep.csv"]
    elif command == "security threshold":
        names = ["threshold.csv"]
    else:
        names = ["budget.csv", "budget.txt"]
    return names + [MANIFEST_NAME]


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
    sub.add_parser(
        "pe-curve", parents=[shared],
        help="saturated magnification vs irradiation power, with time traces",
    )
    sub.add_parser(
        "voltage-curve", parents=[shared],
        help="transmission vs drive voltage, pristine and after pre-treatments",
    )
    attack = sub.add_parser("attack", parents=[shared], help="run one attack stage")
    attack.add_argument(
        "subcommand", choices=("pre-treat", "pulse", "init"), metavar="STAGE",
        help="pre-treat | pulse | init",
    )
    security = sub.add_parser(
        "security", parents=[shared], help="decoy-state BB84 consequences"
    )
    security.add_argument(
        "subcommand", choices=("sweep", "threshold"), metavar="MODE",
        help="sweep | threshold",
    )
    sub.add_parser("budget", parents=[shared], help="injection path loss budget")
    return parser


def _command_name(args: argparse.Namespace) -> str:
    sub = getattr(args, "subcommand", None)
    return f"{args.command} {sub}" if sub else args.command


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    command = _command_name(args)
    config_path = getattr(args, "config", None)
    out_flag = getattr(args, "out", None)
    seed = getattr(args, "seed", None)
    dry_run = getattr(args, "dry_run", False)
    try:
        cfg = load_config(config_path) if config_path else default_config()
        if seed is not None:
            if seed < 0:
                raise ConfigError("--seed: must be >= 0")
            cfg = cfg.with_value("pulse", "seed", int(seed))
        # Build everything the command needs up front so that dry runs and
        # real runs reject bad configs identically.
        build_device(cfg)
        build_controller(cfg)
        build_scenario(cfg)
        build_path(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(out_flag) if out_flag else Path(str(cfg.get("output", "directory")))
    digest = config_sha256(cfg)
    if dry_run:
        print(f"command: {command}")
        print(f"config: {config_path or '(built-in defaults)'}")
        print(f"config sha256: {digest}")
        print(f"output directory: {out_dir}")
        for name in planned_outputs(command, cfg):
            print(f"would write: {name}")
        print("dry run: nothing written")
        return EXIT_OK

    started = utc_now()
    try:
        writer = RunWriter.prepare(out_dir)
    except RunDirError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    try:
        lines = COMMANDS[command](cfg, writer)
    except (RunFailure, ValueError) as exc:
        writer.abort()
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    writer.finish(command, digest, started)
    for line in lines:
        print(line)
    print(f"wrote {len(writer.files) + 1} files to {out_dir}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
