"""End-to-end CLI contract: verbs, exit codes, manifests, determinism."""

import csv
import errno
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ipasim
from ipasim._ranges import MAX_GRID_POINTS
from ipasim.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, VERBS, main
from ipasim.runio import MANIFEST_NAME

README = Path(__file__).resolve().parent.parent / "README.md"

TRACE_COLS = ["t_s", "transmittance", "attenuation_db", "m_db", "delta_theta_rad"]
CURVE_COLS = ["v_volts", "transmittance", "attenuation_db", "m_db", "delta_theta_rad"]

FAST_INI = """\
[pe_curve]
powers_w = 3e-9, 6.26e-6
trace_points = 40

[voltage_curve]
points = 41
pretreat_voltages_v = -15, 15

[qkd]
m_db_grid = 0, 5
distance_max_km = 40
distance_step_km = 10
"""


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "fast.ini"
    path.write_text(FAST_INI)
    return str(path)


def read_manifest(out_dir):
    return json.loads((out_dir / MANIFEST_NAME).read_text())


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def assert_complete_run(out_dir, expected_names):
    """Every emitted file is in the manifest and vice versa."""
    on_disk = {p.name for p in out_dir.iterdir()}
    assert on_disk == set(expected_names) | {MANIFEST_NAME}
    manifest = read_manifest(out_dir)
    assert {entry["name"] for entry in manifest["outputs"]} == set(expected_names)
    for key in ("command", "config_sha256", "tool_version", "started_utc", "finished_utc"):
        assert key in manifest
    return manifest


# -- verbs ---------------------------------------------------------------------


def test_pe_curve_outputs(tmp_path, fast_config):
    out = tmp_path / "pe"
    assert main(["pe-curve", "--config", fast_config, "--out", str(out)]) == EXIT_OK
    assert_complete_run(out, ["pe_trace_00.csv", "pe_trace_01.csv", "pe_summary.csv"])
    rows = read_csv(out / "pe_summary.csv")
    assert rows[0] == ["power_w", "saturated_m_db", "tau_s"]
    zero = rows[1]
    assert float(zero[0]) == 0.0 and float(zero[1]) == 0.0
    assert float(zero[2]) == pytest.approx(2000.0)
    anchor = rows[2]
    assert float(anchor[0]) == 3e-9
    assert float(anchor[1]) == pytest.approx(8.3, abs=1e-9)
    peak = rows[3]
    assert float(peak[1]) == pytest.approx(57.838438976571574, abs=1e-6)
    trace = read_csv(out / "pe_trace_00.csv")
    assert trace[0] == TRACE_COLS
    assert len(trace) == 42  # header + t=0 + 40 steps
    assert float(trace[1][3]) == pytest.approx(0.0, abs=1e-12)


def test_voltage_curve_outputs(tmp_path, fast_config):
    out = tmp_path / "vc"
    assert main(["voltage-curve", "--config", fast_config, "--out", str(out)]) == EXIT_OK
    assert_complete_run(
        out,
        [
            "voltage_curve_pristine.csv",
            "voltage_curve_pretreat_00.csv",
            "voltage_curve_pretreat_01.csv",
            "bias_shifts.csv",
        ],
    )
    pristine = read_csv(out / "voltage_curve_pristine.csv")
    assert pristine[0] == CURVE_COLS
    # the pristine curve is its own baseline, so m_db is identically zero
    assert all(float(r[3]) == 0.0 for r in pristine[1:])
    shifts = read_csv(out / "bias_shifts.csv")
    assert shifts[0] == ["v_app_v", "bias_shift_rad", "converged"]
    by_voltage = {float(r[0]): float(r[1]) for r in shifts[1:]}
    assert by_voltage[-15.0] > 0.0 > by_voltage[15.0] - by_voltage[-15.0]
    assert all(r[2] == "true" for r in shifts[1:])


def test_attack_pre_treat(tmp_path, fast_config, capsys):
    out = tmp_path / "pt"
    code = main(["attack", "pre-treat", "--config", fast_config, "--out", str(out)])
    assert code == EXIT_OK
    assert_complete_run(out, ["pretreat_trace.csv"])
    trace = read_csv(out / "pretreat_trace.csv")
    assert trace[0] == TRACE_COLS
    stdout = capsys.readouterr().out
    assert "converged=true" in stdout
    assert "bias shift" in stdout


def test_attack_pulse(tmp_path, capsys):
    cfg = tmp_path / "pulse.ini"
    cfg.write_text("[pulse]\ntarget_m_db = 20\nhold_periods = 10\n")
    out = tmp_path / "pulse"
    assert main(["attack", "pulse", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert_complete_run(out, ["pulse_trace.csv"])
    rows = read_csv(out / "pulse_trace.csv")
    assert rows[0] == ["t_s", "duty", "power_w", "m_db", "error_db"]
    final_m = float(rows[-1][3])
    assert final_m == pytest.approx(20.0, abs=0.1)
    stdout = capsys.readouterr().out
    assert "settled=true" in stdout
    assert "holding duty mean" in stdout


def test_attack_init(tmp_path, fast_config, capsys):
    out = tmp_path / "init"
    assert main(["attack", "init", "--config", fast_config, "--out", str(out)]) == EXIT_OK
    assert_complete_run(
        out,
        ["init_trace.csv", "voltage_curve_reference.csv", "voltage_curve_restored.csv"],
    )
    restored = read_csv(out / "voltage_curve_restored.csv")
    assert restored[0] == CURVE_COLS
    # restored curve magnification relative to the reference stays tiny
    worst = max(abs(float(r[3])) for r in restored[1:])
    assert worst < 0.05
    assert "restored to" in capsys.readouterr().out


def test_security_sweep(tmp_path, fast_config):
    out = tmp_path / "sweep"
    code = main(["security", "sweep", "--config", fast_config, "--out", str(out)])
    assert code == EXIT_OK
    assert_complete_run(out, ["security_sweep.csv"])
    rows = read_csv(out / "security_sweep.csv")
    assert rows[0] == [
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
    ]
    assert len(rows) == 1 + 2 * 5  # two magnifications, five distances
    for r in rows[1:]:
        assert float(r[9]) <= float(r[8]) + 1e-15  # r_actual <= r_est


def test_security_threshold(tmp_path, capsys):
    out = tmp_path / "thr"
    assert main(["security", "threshold", "--out", str(out)]) == EXIT_OK
    assert_complete_run(out, ["threshold.csv"])
    rows = read_csv(out / "threshold.csv")
    assert rows[0][0] == "m_threshold_db"
    assert float(rows[1][0]) == pytest.approx(6.639, abs=0.01)
    assert "zero-key magnification threshold" in capsys.readouterr().out


def test_budget(tmp_path, capsys):
    out = tmp_path / "budget"
    assert main(["budget", "--out", str(out)]) == EXIT_OK
    assert_complete_run(out, ["budget.csv", "budget.txt"])
    rows = read_csv(out / "budget.csv")
    assert rows[0] == ["item", "loss_db", "lower_bound"]
    totals = [r for r in rows if r[0] == "total"]
    assert len(totals) == 1 and float(totals[0][1]) == 46.0
    report = (out / "budget.txt").read_text()
    assert "required launch power" in report
    assert "verdict" in report and "feasible" in report
    assert "wrote 3 files" in capsys.readouterr().out


def test_budget_lower_bound_rendering(tmp_path):
    cfg = tmp_path / "iso.ini"
    cfg.write_text("[budget]\ncomponents = isolator\n")
    out = tmp_path / "iso"
    assert main(["budget", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    rows = read_csv(out / "budget.csv")
    total = next(r for r in rows if r[0] == "total")
    assert float(total[1]) == 91.0 and total[2] == "true"
    assert ">= " in (out / "budget.txt").read_text()


def test_non_finite_component_loss_exits_2(tmp_path, capsys):
    cfg = tmp_path / "nan.ini"
    cfg.write_text("[component:foo]\n405_nm_db = nan\n[budget]\ncomponents = foo\n")
    out = tmp_path / "nan-out"
    assert main(["budget", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert "config error: component:foo.405_nm_db: " in capsys.readouterr().err
    assert not out.exists()


# -- global flags -----------------------------------------------------------------


def test_flags_work_before_and_after_the_verb(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--out", str(out1), "budget"]) == EXIT_OK
    assert main(["budget", "--out", str(out2)]) == EXIT_OK
    assert (out1 / "budget.csv").read_bytes() == (out2 / "budget.csv").read_bytes()


def test_dry_run_writes_nothing(tmp_path, capsys):
    out = tmp_path / "dry"
    assert main(["--dry-run", "budget", "--out", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "would write: budget.csv" in stdout
    assert "would write: manifest.json" in stdout
    assert "nothing written" in stdout
    assert not out.exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "ipasim" in capsys.readouterr().out


def test_output_directory_from_config(tmp_path):
    cfg = tmp_path / "outdir.ini"
    target = tmp_path / "from-config"
    cfg.write_text(f"[output]\ndirectory = {target}\n")
    assert main(["budget", "--config", str(cfg)]) == EXIT_OK
    assert (target / "budget.csv").exists()


# -- exit codes ---------------------------------------------------------------------


def test_config_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[qkd]\nmu = 0.05\n")
    assert main(["security", "sweep", "--config", str(bad)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert main(["budget", "--config", str(tmp_path / "missing.ini")]) == EXIT_CONFIG
    assert main(["budget", "--seed", "-3"]) == EXIT_CONFIG
    # dry runs validate just as strictly
    assert main(["--dry-run", "budget", "--config", str(bad)]) == EXIT_CONFIG


# the config and flags behind each config error the README quotes
README_ERRORS = {
    "config error: device.v_pi_v: must be in [1e-3, 1e3]": ("[device]\nv_pi_v = -5\n", []),
    "config error: budget.fiber_length_km: must be in [0, 200]": (
        "[budget]\nfiber_length_km = 1e30\n", []
    ),
    "config error: material.response_amplitude_per_w: must be in [1e-9, 1e10]": (
        "[material]\nresponse_amplitude_per_w = 1e300\n", []
    ),
    "config error: pulse.seed: must be >= 0": ("", ["--seed", "-1"]),
    "config error: budget.wavelength_nm: component 'coupling:bs_5050' has no loss entry "
    "at 780 nm": ("[budget]\nwavelength_nm = 780\ncoupling_scheme = bs_5050\n", []),
}


def test_readme_config_errors_are_printed_verbatim(tmp_path, capsys):
    assert set(re.findall(r"`(config error: [^`]*)`", README.read_text())) == set(README_ERRORS)
    cfg = tmp_path / "readme.ini"
    for text, (ini, flags) in README_ERRORS.items():
        cfg.write_text(ini)
        assert main(["--dry-run", "budget", "--config", str(cfg), *flags]) == EXIT_CONFIG
        assert capsys.readouterr().err == text + "\n"


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("qkd", "distance_max_km", "1e12"),
        ("voltage_curve", "points", str(MAX_GRID_POINTS + 1)),
        ("pe_curve", "trace_points", str(MAX_GRID_POINTS + 1)),
        ("init", "max_steps", "1000000000000"),
        ("pre_treat", "max_steps", "1000000000000"),
        ("pulse", "max_periods", "1000000000000"),
    ],
)
def test_oversized_grids_exit_2_on_a_dry_run(tmp_path, capsys, section, key, value):
    cfg = tmp_path / "huge.ini"
    cfg.write_text(f"[{section}]\n{key} = {value}\n")
    out = tmp_path / "huge-out"
    argv = ["--dry-run", "security", "sweep", "--config", str(cfg), "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    assert f"config error: {section}.{key}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, ini, key",
    [
        (
            ["security", "sweep"],
            "[qkd]\nm_db_grid = " + ", ".join(str(float(m)) for m in range(1000))
            + "\ndistance_step_km = 0.002\n",
            "qkd.m_db_grid",
        ),
        (["attack", "init"], "[init]\nmax_steps = 1000000000000\ndt_s = 1e-6\n", "init.max_steps"),
        (
            ["pe-curve"],
            "[pe_curve]\ntrace_points = 100000\npowers_w = " + ", ".join(["1e-6"] * 1000) + "\n",
            "pe_curve.powers_w",
        ),
        (
            ["voltage-curve"],
            "[voltage_curve]\npoints = 100000\npretreat_voltages_v = "
            + ", ".join(["1.0"] * 10000) + "\n",
            "voltage_curve.pretreat_voltages_v",
        ),
    ],
    ids=["1000x75001-sweep", "init-steps", "1000x100000-pe-curve", "10001x100000-voltage-curve"],
)
def test_oversized_runs_exit_2_on_a_dry_run_of_their_verb(tmp_path, capsys, argv, ini, key):
    cfg = tmp_path / "huge.ini"
    cfg.write_text(ini)
    out = tmp_path / "huge-out"
    assert main(["--dry-run", *argv, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert f"config error: {key}: " in capsys.readouterr().err
    assert not out.exists()


def test_unbracketed_threshold_exits_3(tmp_path, capsys):
    cfg = tmp_path / "narrow.ini"
    cfg.write_text("[qkd]\nm_search_low_db = 8\nm_search_high_db = 8.5\n")
    out = tmp_path / "narrow-out"
    code = main(["security", "threshold", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_RUNTIME
    assert "does not bracket" in capsys.readouterr().err
    assert not out.exists()  # aborted run leaves nothing behind


def test_infeasible_pulse_target_exits_3(tmp_path, capsys):
    cfg = tmp_path / "greedy.ini"
    cfg.write_text("[pulse]\ntarget_m_db = 70\n")
    out = tmp_path / "greedy-out"
    code = main(["attack", "pulse", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_RUNTIME
    assert "exceeds the saturated" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("target", ["-5", "-100"])
def test_a_pulse_target_below_0_db_exits_2_naming_its_key(tmp_path, capsys, target):
    # the loop only adds light: -5 dB once ran 2000 periods at duty_min, and
    # -100 dB was reported as past the saturated magnification
    cfg = tmp_path / "below.ini"
    cfg.write_text(f"[pulse]\ntarget_m_db = {target}\n")
    assert main(["--dry-run", "attack", "pulse", "--config", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: pulse.target_m_db: ")


def test_library_value_error_exits_3_without_traceback(tmp_path):
    # the zero-key threshold, 6.64 dB, lies below the search range: a BracketError
    cfg = tmp_path / "unbracketed.ini"
    cfg.write_text("[qkd]\nm_search_low_db = 8\nm_search_high_db = 8.5\n")
    out = tmp_path / "unbracketed-out"
    env = dict(os.environ, PYTHONPATH=str(Path(ipasim.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "ipasim.cli", "security", "threshold",
         "--config", str(cfg), "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == EXIT_RUNTIME
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr and "does not bracket" in proc.stderr
    assert not out.exists()


def test_threshold_tolerance_below_the_float_spacing_exits_0(tmp_path):
    # 1e-300 dB is inside the key's range but finer than any float step near
    # the threshold; a child process with a deadline turns a hang into a failure
    cfg = tmp_path / "fine.ini"
    cfg.write_text("[qkd]\nthreshold_tol_db = 1e-300\n")
    out = tmp_path / "fine-out"
    env = dict(os.environ, PYTHONPATH=str(Path(ipasim.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "ipasim.cli", "security", "threshold",
         "--config", str(cfg), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert (out / "threshold.csv").is_file()


@pytest.mark.parametrize(
    "argv, section, key, raw",
    [
        (["budget"], "budget", "fiber_length_km", "1e30"),
        (["budget"], "budget", "target_power_w", "1e308"),
        (["attack", "init"], "material", "response_amplitude_per_w", "1e300"),
    ],
    ids=["fiber_length_km", "target_power_w", "response_amplitude_per_w"],
)
def test_a_value_past_its_window_exits_2_before_creating_the_output(
    tmp_path, capsys, argv, section, key, raw
):
    # each once overflowed a derived number (a path loss, a launch power, a
    # phase, through the retired r33_m_per_v = 1e300) and exited 3; its window
    # now refuses it by its key
    cfg = tmp_path / "window.ini"
    cfg.write_text(f"[{section}]\n{key} = {raw}\n")
    out = tmp_path / "window-out"
    assert main([*argv, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {section}.{key}: must be in ")
    assert not out.exists()


def test_a_saturation_run_past_its_step_budget_exits_0_unconverged(tmp_path, capsys):
    # steps of 5e-324 s: the count that settles the arms is inf, and the budget caps it
    cfg = tmp_path / "tiny-step.ini"
    cfg.write_text("[pre_treat]\ndt_s = 5e-324\nmax_steps = 10\n")
    out = tmp_path / "tiny-step-out"
    assert main(["attack", "pre-treat", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert "converged=false after 10 steps" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, ini, key",
    [
        (["security", "sweep"], "[qkd]\nm_db_grid = 0, 4000\n", "qkd.m_db_grid"),
        (
            ["voltage-curve"],
            "[voltage_curve]\nv_min_v = -1e308\nv_max_v = 1e308\n",
            "voltage_curve.v_min_v",
        ),
        (["voltage-curve"], "[voltage_curve]\nv_min_v = -1.5e308\n", "voltage_curve.v_min_v"),
        (["attack", "init"], "[voltage_curve]\nv_min_v = -1.5e308\n", "voltage_curve.v_min_v"),
        (
            ["attack", "init"],
            "[voltage_curve]\nv_min_v = 0\nv_max_v = 1.5e308\n",
            "voltage_curve.v_max_v",
        ),
        (["security", "sweep"], "[qkd]\nmu = 1e300\n", "qkd.mu"),
    ],
    ids=["m_db_grid", "voltage-range", "v_min_v-phase", "v_min_v-phase-init", "v_max_v-phase",
         "mu"],
)
def test_a_config_whose_value_overflows_exits_2_on_a_dry_run(tmp_path, capsys, argv, ini, key):
    # 10 ** (4000 / 10), the width 1e308 - -1e308, the drive phase 1.5e308 * 2*pi / v_pi_v
    # and exp(1e300) are beyond the largest float: each value lies past its key's window
    cfg = tmp_path / "overflow.ini"
    cfg.write_text(ini)
    out = tmp_path / "overflow-out"
    assert main(["--dry-run", *argv, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert f"config error: {key}: " in capsys.readouterr().err
    assert not out.exists()


def test_a_sweep_past_the_tail_cut_and_at_the_device_peak_exits_0(tmp_path, capsys):
    cfg = tmp_path / "peak.ini"
    cfg.write_text("[qkd]\nm_db_grid = 0, 17, 57.84\n")
    out = tmp_path / "peak-out"
    assert main(["security", "sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    rows = read_csv(out / "security_sweep.csv")
    header, body = rows[0], rows[1:]
    m_db, r_actual = header.index("m_db"), header.index("r_actual")
    assert len(body) == 3 * 76
    assert all(float(row[r_actual]) == 0.0 for row in body if float(row[m_db]) > 0.0)


def test_a_sweep_at_the_peak_on_a_link_whose_gain_is_subnormal_exits_0(tmp_path, capsys):
    # at 30 dB/km the far link's gain is the dark count alone, 1e-320: the
    # row's tail_bound, the tail over q_mu, overflows, and reads inf
    cfg = tmp_path / "dark.ini"
    cfg.write_text("[qkd]\ny0 = 1e-320\nalpha_db_per_km = 30\nm_db_grid = 0, 57.84\n")
    out = tmp_path / "dark-out"
    assert main(["security", "sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    rows = read_csv(out / "security_sweep.csv")
    header, last = rows[0], rows[-1]
    assert float(last[header.index("q_mu")]) == 1e-320
    assert float(last[header.index("tail_bound")]) == math.inf
    assert float(last[header.index("r_actual")]) == 0.0


def test_output_path_under_a_regular_file_exits_3(tmp_path, capsys):
    blocker = tmp_path / "plain.txt"
    blocker.write_text("keep")
    assert main(["budget", "--out", str(blocker / "sub")]) == EXIT_RUNTIME
    assert "cannot use output path" in capsys.readouterr().err
    assert blocker.read_text() == "keep"


def test_write_failure_aborts_and_exits_3(tmp_path, capsys):
    out = tmp_path / "blocked"
    out.mkdir()
    (out / MANIFEST_NAME).write_text(json.dumps({"outputs": []}))
    (out / "budget.txt").mkdir()  # budget.csv is written, then budget.txt fails
    assert main(["budget", "--out", str(out)]) == EXIT_RUNTIME
    assert "cannot write" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["budget.txt"]


@pytest.mark.parametrize("failing", ["budget.txt", MANIFEST_NAME])
def test_write_failing_partway_leaves_no_temporary_file(tmp_path, monkeypatch, capsys, failing):
    out = tmp_path / "run"
    assert main(["budget", "--out", str(out)]) == EXIT_OK
    write_bytes = Path.write_bytes

    def disk_full(path, data):
        if path.name == f".{failing}.tmp":
            write_bytes(path, data[: len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")
        return write_bytes(path, data)

    monkeypatch.setattr(Path, "write_bytes", disk_full)
    assert main(["budget", "--out", str(out)]) == EXIT_RUNTIME
    assert "cannot write" in capsys.readouterr().err
    # no half-written file or manifest: the directory is empty, so reusable
    assert list(out.iterdir()) == []
    monkeypatch.undo()
    assert main(["budget", "--out", str(out)]) == EXIT_OK
    assert_complete_run(out, ["budget.csv", "budget.txt"])


def test_failed_rerun_keeps_the_previous_run(tmp_path, capsys):
    out = tmp_path / "kept"
    assert main(["security", "threshold", "--out", str(out)]) == EXIT_OK
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    cfg = tmp_path / "narrow.ini"
    cfg.write_text("[qkd]\nm_search_low_db = 8\nm_search_high_db = 8.5\n")
    code = main(["security", "threshold", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_RUNTIME
    assert "does not bracket" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("command", VERBS)
def test_dry_run_plan_is_what_a_run_writes(tmp_path, capsys, command):
    cfg = tmp_path / "plan.ini"
    cfg.write_text(FAST_INI)
    out = tmp_path / "planned"
    argv = [*command.split(), "--config", str(cfg), "--out", str(out)]
    assert main([*argv, "--dry-run"]) == EXIT_OK
    prefix = "would write: "
    planned = {
        line[len(prefix):]
        for line in capsys.readouterr().out.splitlines()
        if line.startswith(prefix)
    }
    assert main(argv) == EXIT_OK
    assert {p.name for p in out.iterdir()} == planned
    assert {e["name"] for e in read_manifest(out)["outputs"]} | {MANIFEST_NAME} == planned


def test_rerun_never_deletes_outside_the_output_directory(tmp_path, capsys):
    victim = tmp_path / "victim.txt"
    victim.write_text("keep")
    out = tmp_path / "run"
    out.mkdir()
    (out / MANIFEST_NAME).write_text(
        json.dumps({"outputs": [{"name": "../victim.txt", "sha256": "0" * 64}]})
    )
    assert main(["budget", "--out", str(out)]) == EXIT_RUNTIME
    assert "not a plain file name" in capsys.readouterr().err
    assert victim.read_text() == "keep"


def test_foreign_directory_refused(tmp_path, capsys):
    out = tmp_path / "occupied"
    out.mkdir()
    (out / "precious.txt").write_text("do not touch")
    assert main(["budget", "--out", str(out)]) == EXIT_RUNTIME
    assert "refusing" in capsys.readouterr().err
    assert (out / "precious.txt").read_text() == "do not touch"


def test_rerun_replaces_previous_outputs(tmp_path, fast_config):
    out = tmp_path / "reused"
    assert main(["pe-curve", "--config", fast_config, "--out", str(out)]) == EXIT_OK
    assert (out / "pe_trace_01.csv").exists()
    # a different command reuses the directory and leaves no stale files
    assert main(["budget", "--out", str(out)]) == EXIT_OK
    assert_complete_run(out, ["budget.csv", "budget.txt"])


# -- determinism ----------------------------------------------------------------------


def test_same_config_same_bytes_across_directories(tmp_path):
    cfg = tmp_path / "noisy.ini"
    cfg.write_text("[pulse]\ntarget_m_db = 15\nnoise_db = 0.05\nseed = 7\nhold_periods = 10\n")
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["attack", "pulse", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert main(["attack", "pulse", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
    m1, m2 = read_manifest(out1), read_manifest(out2)
    assert m1["config_sha256"] == m2["config_sha256"]
    assert m1["outputs"] == m2["outputs"]
    assert (out1 / "pulse_trace.csv").read_bytes() == (out2 / "pulse_trace.csv").read_bytes()


def test_seed_flag_changes_noisy_output_and_the_hash(tmp_path):
    cfg = tmp_path / "noisy.ini"
    cfg.write_text("[pulse]\ntarget_m_db = 15\nnoise_db = 0.05\nseed = 7\n")
    out1, out2 = tmp_path / "s7", tmp_path / "s99"
    assert main(["attack", "pulse", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
    code = main(
        ["attack", "pulse", "--config", str(cfg), "--out", str(out2), "--seed", "99"]
    )
    assert code == EXIT_OK
    m1, m2 = read_manifest(out1), read_manifest(out2)
    assert m1["config_sha256"] != m2["config_sha256"]
    assert (out1 / "pulse_trace.csv").read_bytes() != (out2 / "pulse_trace.csv").read_bytes()


def test_csv_floats_round_trip_exactly(tmp_path):
    out = tmp_path / "roundtrip"
    assert main(["security", "threshold", "--out", str(out)]) == EXIT_OK
    value = read_csv(out / "threshold.csv")[1][0]
    # repr formatting: parsing the text recovers the exact float
    assert repr(float(value)) == value
