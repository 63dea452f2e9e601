"""Run one ipasim CLI command with span tracing.

Usage: python3 bench/cli_shim.py SPANS.npz <ipasim arguments...>

Behaves like ``python -m ipasim.cli <arguments>`` and additionally writes the
spans of this process to SPANS.npz when the command returns.
"""

import sys
from pathlib import Path

sys.dont_write_bytecode = True

import tracer  # noqa: E402
import ipasim.cli  # noqa: E402


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    trace = tracer.Tracer()
    trace.install()
    trace.op_id = 0
    try:
        return ipasim.cli.main(argv)
    finally:
        trace.uninstall()
        tracer.save(spans_path, trace.arrays())


if __name__ == "__main__":
    sys.exit(main())
