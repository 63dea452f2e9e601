"""Every ``python`` block of the README runs as written, with warnings as
errors, and prints what its comments say it prints."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ipasim
from ipasim.security import QkdScenario, zero_key_threshold

README = Path(__file__).resolve().parent.parent / "README.md"
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
