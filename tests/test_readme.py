"""Every ``python`` block of the README runs as written, with warnings as
errors, and prints what its comments say it prints."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ipasim
from ipasim.attack import IrradiationProgram, run_program
from ipasim.budget import path_loss, required_eve_power, standard_path
from ipasim.calibration import WORKING_POINT_V as WP
from ipasim.calibration import default_device
from ipasim.security import QkdScenario, sweep_key_rates, zero_key_threshold
from oracles import least_power_reaching

README = Path(__file__).resolve().parent.parent / "README.md"
DEV = default_device()
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def _run(code, cwd):
    env = dict(os.environ, PYTHONPATH=str(Path(ipasim.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        capture_output=True, text=True, env=env, cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_the_readme_has_a_python_block():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs_without_a_warning(code, tmp_path):
    assert _run(code, tmp_path)


def test_library_use_block_prints_its_stated_facts(tmp_path):
    (code,) = [block for block in BLOCKS if "evaluate_scenario" in block]
    saturated, one_link, grid_max = _run(code, tmp_path)
    # "~58 dB at saturation": the device's peak magnification at 6.26 uW
    assert float(saturated) == pytest.approx(57.84, abs=0.01)
    # at 5 dB and 50 km "the actual key falls short of the estimate"
    r_est, r_actual, p_s = map(float, one_link.split())
    assert 0.0 <= r_actual < r_est
    assert 0.0 < p_s < 1.0
    assert float(grid_max) >= r_actual


def test_the_stated_zero_key_point_is_the_default_threshold():
    # "the ~6.6 dB zero-key point" of the Library-use block, to its one decimal
    (stated,) = re.findall(r"~(\d+\.\d) dB zero-key point", README.read_text())
    assert zero_key_threshold(QkdScenario()) == pytest.approx(float(stated), abs=0.05)


def test_the_papers_claim_quotes_the_chain_it_states():
    # each figure of "The paper's claim, end to end", to the digits it is quoted with
    text = README.read_text().split("## The paper's claim, end to end")[1].split("\n## ")[0]
    text = " ".join(text.split())

    def quoted(pattern):
        (found,) = re.findall(pattern, text)
        return found

    scenario = QkdScenario()
    m_star = zero_key_threshold(scenario)
    assert float(quoted(r"m\* at ([\d.]+) dB")) == pytest.approx(m_star, abs=5e-5)
    p_min = least_power_reaching(DEV, WP, m_star, 1e-9, 3e-9)
    assert float(quoted(r"P_min = ([\d.]+) nW")) == pytest.approx(p_min * 1e9, abs=5e-5)
    loss_db, eve_uw = quoted(r"([\d.]+) dB at 405 nm, Eve launches (\d+) uW")
    dwdm = standard_path(1.0, ("dwdm_c33",))
    assert float(loss_db) == pytest.approx(path_loss(dwdm, 405).db, abs=0.05)
    assert float(eve_uw) == pytest.approx(required_eve_power(dwdm, 405, p_min).watts * 1e6,
                                          abs=0.5)
    cw_nw, dt_s, reached_s = quoted(r"Under (\d+) nW CW, `run_program` sampled every (\d+) s "
                                    r"first reaches m\* at (\d+) s")
    power_w = float(cw_nw) * 1e-9
    trace = run_program(DEV, IrradiationProgram.cw(power_w, 4000.0), 1.0, WP, float(dt_s)).trace
    assert trace.t_s[int(np.argmax(trace.m_db >= m_star))] == float(reached_s)
    saturated_nw, plateau_db = quoted(r"(\d+) nW saturates at ([\d.]+) dB")
    assert float(saturated_nw) == float(cw_nw)
    plateau = DEV.equilibrated(power_w, WP).magnification_db(WP, DEV.output_mpn(1.0, WP))
    assert float(plateau_db) == pytest.approx(plateau, abs=0.005)
    rows = sweep_key_rates(scenario, [0.0, plateau])
    attacked = rows[len(rows) // 2 :]
    keyless, estimating = quoted(r"key rate of 0 at all (\d+) distances"), quoted(r"at all (\d+)\.")
    assert int(keyless) == sum(row.r_actual == 0.0 for row in attacked) == len(attacked)
    assert int(estimating) == sum(row.r_est > 0.0 for row in attacked)
