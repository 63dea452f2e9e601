"""The runtime needs numpy only: importing the package loads no scipy."""

import os
import subprocess
import sys
from pathlib import Path

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
