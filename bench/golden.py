"""Golden-output capture and comparison.

A *table* is ``(header, columns)``: a CSV file read back, or result arrays of
an in-process op.  A table's *fingerprint* keeps, per column, enough to judge
"same behaviour" without storing every row:

* float columns: the values at up to ``SAMPLES`` evenly spaced rows, the sums
  of absolute finite values over ``BLOCKS`` consecutive row blocks (so a
  change in any single row moves one block sum), the finite min and max, and
  a digest of where the non-finite values are;
* int, bool and string columns: a digest of the whole column (exact);
* the whole table: a digest of its bytes, so "bytes identical" is exact.

Floats match when ``|a - b| <= RTOL * max(|a|, |b|) + ATOL_SCALE * scale``,
``scale`` being the largest finite magnitude in the golden column; anything
else must be equal.  A fingerprint taken with ``samples=None`` keeps every
row, which is what ``compare DIR_A DIR_B`` uses.

Usage::

    python3 bench/golden.py capture            # rewrite bench/golden/*.json.gz
    python3 bench/golden.py compare DIR_A DIR_B
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import re
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

RTOL = 1e-9
ATOL_SCALE = 1e-12
SAMPLES = 17
BLOCKS = 32

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
_INT = re.compile(r"[+-]?\d+")

Table = tuple[Sequence[str], Sequence[Sequence[object]]]


# -- tables -------------------------------------------------------------------


def _cell(text: str) -> object:
    if text in ("true", "false"):
        return text == "true"
    if _INT.fullmatch(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def parse_csv(data: bytes) -> Table:
    """Read the writer's CSV dialect back; cells never contain separators."""
    lines = data.decode("utf-8").splitlines()
    header = lines[0].split(",") if lines else []
    rows = [[_cell(c) for c in line.split(",")] for line in lines[1:]]
    columns = [list(col) for col in zip(*rows)] if rows else [[] for _ in header]
    return header, columns


def text_table(data: bytes) -> Table:
    return ("line",), (data.decode("utf-8").splitlines(),)


def read_table(path: Path) -> Table:
    data = path.read_bytes()
    return parse_csv(data) if path.suffix == ".csv" else text_table(data)


def _kind(col: Sequence[object]) -> str:
    if isinstance(col, np.ndarray):
        if col.dtype == np.bool_:
            return "bool"
        return "int" if np.issubdtype(col.dtype, np.integer) else "float"
    kinds = {type(v) for v in col}
    if kinds <= {bool, np.bool_}:
        return "bool"
    if kinds <= {int}:
        return "int"
    if kinds <= {int, float, np.float64}:
        return "float"
    return "str"


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _column_bytes(kind: str, col: Sequence[object]) -> bytes:
    if kind == "float":
        return np.asarray(col, dtype="<f8").tobytes()
    return "\n".join(str(v) for v in col).encode("utf-8")


def sample_indices(rows: int, samples: Optional[int] = SAMPLES) -> list[int]:
    if samples is None or rows <= samples:
        return list(range(rows))
    return sorted({round(k * (rows - 1) / (samples - 1)) for k in range(samples)})


def fingerprint(table: Table, samples: Optional[int] = SAMPLES, raw: Optional[bytes] = None) -> dict:
    """Compact, JSON-serialisable summary of a table (see module docstring).

    ``raw`` is the file's bytes when the table came from a file; otherwise the
    byte digest covers the columns' canonical encodings.
    """
    header, columns = table
    rows = len(columns[0]) if columns else 0
    at = sample_indices(rows, samples)
    cols = {}
    encoded = []
    for name, col in zip(header, columns):
        kind = _kind(col)
        data = _column_bytes(kind, col)
        encoded.append(data)
        if kind != "float":
            cols[name] = {"kind": kind, "sha256": _digest(data)}
            continue
        arr = np.asarray(col, dtype=float)
        finite = np.isfinite(arr)
        bad = np.flatnonzero(~finite)
        vals = arr[finite]
        blocks = np.array_split(np.where(finite, np.abs(arr), 0.0), min(BLOCKS, rows) or 1)
        cols[name] = {
            "kind": "float",
            "at": [float(arr[i]) for i in at],
            "block_abs_sums": [float(b.sum()) for b in blocks],
            "min": float(vals.min()) if vals.size else 0.0,
            "max": float(vals.max()) if vals.size else 0.0,
            "nonfinite": _digest(bad.astype("<i8").tobytes(), arr[bad].astype("<f8").tobytes()),
        }
    sha = _digest(raw) if raw is not None else _digest(",".join(header).encode(), *encoded)
    return {"header": list(header), "rows": rows, "sha256": sha, "columns": cols}


# -- comparison ---------------------------------------------------------------


def _float_diff(a: float, b: float, scale: float) -> tuple[float, float, bool]:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0, True
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf, math.inf, False
    diff = abs(a - b)
    big = max(abs(a), abs(b))
    return diff, diff / big, diff <= RTOL * big + ATOL_SCALE * scale


def compare(golden: dict, actual: dict) -> dict:
    """Per-column max abs/rel difference of two fingerprints, and a verdict."""
    report = {"bytes_identical": golden["sha256"] == actual["sha256"], "problems": [], "columns": {}}
    if report["bytes_identical"]:
        report["ok"] = True
        return report
    if golden["header"] != actual["header"] or golden["rows"] != actual["rows"]:
        report["problems"].append(
            f"shape {golden['rows']}x{golden['header']} != {actual['rows']}x{actual['header']}"
        )
    for name, g in golden["columns"].items():
        a = actual["columns"].get(name)
        if a is None or a["kind"] != g["kind"]:
            report["problems"].append(f"{name}: missing or different kind")
            continue
        if g["kind"] != "float":
            same = g["sha256"] == a["sha256"]
            report["columns"][name] = {"exact": same}
            if not same:
                report["problems"].append(f"{name}: {g['kind']} values differ")
            continue
        scale = max(abs(g["min"]), abs(g["max"]))
        pairs = list(zip(g["at"], a["at"])) + list(zip(g["block_abs_sums"], a["block_abs_sums"]))
        pairs += [(g["min"], a["min"]), (g["max"], a["max"])]
        if len(g["at"]) != len(a["at"]) or len(g["block_abs_sums"]) != len(a["block_abs_sums"]):
            report["problems"].append(f"{name}: sample count differs")
        max_abs = max_rel = 0.0
        ok = g["nonfinite"] == a["nonfinite"]
        for x, y in pairs:
            d_abs, d_rel, within = _float_diff(x, y, scale)
            max_abs, max_rel, ok = max(max_abs, d_abs), max(max_rel, d_rel), ok and within
        report["columns"][name] = {"max_abs": max_abs, "max_rel": max_rel}
        if not ok:
            report["problems"].append(f"{name}: max abs {max_abs:.3g}, max rel {max_rel:.3g}")
    report["ok"] = not report["problems"]
    return report


def compare_outputs(golden: dict, actual: dict) -> dict:
    """Compare two ``{file name: fingerprint}`` maps file by file."""
    files = {}
    for name in sorted(set(golden) | set(actual)):
        if name not in golden or name not in actual:
            side = "golden" if name not in golden else "actual"
            files[name] = {"ok": False, "bytes_identical": False, "problems": [f"missing from {side}"]}
        else:
            files[name] = compare(golden[name], actual[name])
    return {"ok": all(f["ok"] for f in files.values()), "files": files}


# -- golden store -------------------------------------------------------------


def store_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json.gz"


def load_store(workload: str) -> dict:
    """``{op digest: {file name: fingerprint}}`` captured for this workload."""
    with gzip.open(store_path(workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)["ops"]


def save_store(workload: str, seeds: list[int], ops: dict) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    payload = {"workload": workload, "seeds": seeds, "tolerance": {"rtol": RTOL, "atol_scale": ATOL_SCALE}, "ops": ops}
    # mtime=0 keeps the gzip bytes a function of the content alone
    with open(store_path(workload), "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8"))


def capture() -> None:
    """Run every op of the default and held-out catalogues and store them."""
    import inputs
    import ops as op_runner

    seeds = [inputs.DEFAULT_SEED, inputs.HELDOUT_SEED]
    runner = op_runner.OpRunner(Path.cwd())
    try:
        for workload in inputs.WORKLOADS:
            store = {}
            for seed in seeds:
                for op in inputs.catalogue(workload, seed):
                    digest = inputs.op_digest(op)
                    if digest not in store:
                        result = runner.run(op)
                        if result.problems:
                            raise RuntimeError(f"{workload} op {digest[:12]}: {result.problems}")
                        store[digest] = result.fingerprints
            save_store(workload, seeds, store)
            print(f"{workload}: {len(store)} ops captured for seeds {seeds}")
    finally:
        runner.close()


def compare_dirs(dir_a: Path, dir_b: Path) -> bool:
    """Full-row comparison of every output file two run directories hold."""
    def outputs(d: Path) -> dict:
        return {
            p.name: fingerprint(read_table(p), samples=None, raw=p.read_bytes())
            for p in sorted(d.iterdir())
            if p.is_file() and p.name != "manifest.json"
        }

    result = compare_outputs(outputs(dir_a), outputs(dir_b))
    for name, rep in result["files"].items():
        print(f"{name}: {'identical bytes' if rep['bytes_identical'] else 'bytes differ'}"
              f", {'ok' if rep['ok'] else 'MISMATCH'}")
        for col, stats in rep.get("columns", {}).items():
            if "max_abs" in stats:
                print(f"  {col}: max abs {stats['max_abs']:.3g}, max rel {stats['max_rel']:.3g}")
            else:
                print(f"  {col}: {'exact' if stats['exact'] else 'differs'}")
        for problem in rep["problems"]:
            print(f"  problem: {problem}")
    return result["ok"]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="golden.py", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    sub.add_parser("capture", help="rewrite the golden store from this checkout")
    cmp_ = sub.add_parser("compare", help="compare every output file of two run directories")
    cmp_.add_argument("dir_a", type=Path)
    cmp_.add_argument("dir_b", type=Path)
    args = parser.parse_args(argv)
    if args.cmd == "capture":
        capture()
        return 0
    return 0 if compare_dirs(args.dir_a, args.dir_b) else 1


if __name__ == "__main__":
    sys.exit(main())
