"""Set-up probe, run in a fresh interpreter from the checkout root.

Imports ipasim from ./src, runs the first (cold) default-device calibration
fit and builds the default config, then prints the stage times as JSON.
"""

import json
import os
import sys
from time import perf_counter

start = perf_counter()
sys.path.insert(0, os.path.abspath("src"))

import ipasim  # noqa: E402

imported = perf_counter()
from ipasim.calibration import default_device  # noqa: E402
from ipasim.config import default_config  # noqa: E402

default_device()
fitted = perf_counter()
default_config()
built = perf_counter()

print(json.dumps({
    "ipasim_file": ipasim.__file__,
    "import_s": imported - start,
    "default_device_s": fitted - imported,
    "default_config_s": built - fitted,
}))
