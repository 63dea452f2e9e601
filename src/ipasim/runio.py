"""Deterministic run outputs: CSV files, simple SVG renderings, one manifest.

CSV is the source of truth.  A table is a header and its columns, written
column by column: each column holds one type and is formatted once, floats
in shortest round-trip ``repr``, bools as ``true``/``false``.  String cells
are names that hold no comma, quote or line break; they are never quoted,
and one that would need quoting is refused.  Comma separators and ``\\n``
line endings, with no locale involvement anywhere, give identical data
identical bytes on every platform.  Data files never contain timestamps;
wall-clock information lives only in the manifest, which is metadata.

Every run directory ends up with exactly one ``manifest.json`` listing the
content hash of the config that produced it and the name and sha256 of every
emitted file.  Rerunning into a directory that holds a manifest first removes
exactly the files that manifest lists, provided every listed name is a plain
file name; a manifest naming anything else, or a non-empty directory without
a manifest, is refused rather than mixed into, as is an output path that
cannot be created, listed or cleared.

Each file, the manifest last, is written to a temporary sibling and renamed
into place, so a run that dies midway leaves whole files or none, and never
a truncated manifest.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from hashlib import sha256
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from . import __version__

MANIFEST_NAME = "manifest.json"


class RunDirError(RuntimeError):
    """The output directory cannot be safely (re)used."""


def utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="microseconds")


def format_column(column: Sequence[object]) -> list[str]:
    """A column's cells, formatted once by the column's one type."""
    array = np.asarray(column)
    if array.dtype.kind == "b":
        return ["true" if value else "false" for value in array.tolist()]
    if array.dtype.kind == "f":
        return list(map(float.__repr__, array.tolist()))
    cells = list(map(str, array.tolist()))
    if any(char in "".join(cells) for char in ',"\r\n'):
        bad = next(cell for cell in cells if set(cell) & set(',"\r\n'))
        raise ValueError(f"CSV cells are never quoted, so cannot hold {bad!r}")
    return cells


def render_csv(header: Sequence[str], columns: Sequence[Sequence[object]]) -> str:
    """A table's CSV text; a ragged table raises ``ValueError``."""
    cells = [format_column(column) for _, column in zip(header, columns, strict=True)]
    return "\n".join(map(",".join, [format_column(header), *zip(*cells, strict=True)])) + "\n"


# -- SVG ---------------------------------------------------------------------

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
)


def line_plot_svg(
    title: str,
    x_label: str,
    y_label: str,
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
) -> str:
    """Minimal deterministic polyline chart.

    A convenience rendering of CSV data, nothing more: non-finite points are
    simply dropped and the polyline connects across the gap.
    """
    width, height = 860.0, 520.0
    left, right, top, bottom = 70.0, 170.0, 40.0, 50.0
    plot_w, plot_h = width - left - right, height - top - bottom

    cleaned = []
    for label, xs, ys in series:
        pts = [
            (float(x), float(y))
            for x, y in zip(xs, ys)
            if math.isfinite(x) and math.isfinite(y)
        ]
        cleaned.append((label, pts))
    all_pts = [p for _, pts in cleaned for p in pts]
    if all_pts:
        x_lo = min(p[0] for p in all_pts)
        x_hi = max(p[0] for p in all_pts)
        y_lo = min(p[1] for p in all_pts)
        y_hi = max(p[1] for p in all_pts)
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0

    def sx(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return top + (y_hi - y) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<text x="{left:.1f}" y="24" font-family="sans-serif" font-size="15">'
        f"{title}</text>",
        f'<rect x="{left:.1f}" y="{top:.1f}" width="{plot_w:.1f}" '
        f'height="{plot_h:.1f}" fill="none" stroke="#333" stroke-width="1"/>',
    ]
    for i in range(6):
        frac = i / 5.0
        gx = left + frac * plot_w
        gy = top + frac * plot_h
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_hi - frac * (y_hi - y_lo)
        out.append(
            f'<line x1="{gx:.1f}" y1="{top + plot_h:.1f}" x2="{gx:.1f}" '
            f'y2="{top + plot_h + 5:.1f}" stroke="#333"/>'
        )
        out.append(
            f'<text x="{gx:.1f}" y="{top + plot_h + 20:.1f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{xv:.6g}</text>'
        )
        out.append(
            f'<line x1="{left - 5:.1f}" y1="{gy:.1f}" x2="{left:.1f}" '
            f'y2="{gy:.1f}" stroke="#333"/>'
        )
        out.append(
            f'<text x="{left - 8:.1f}" y="{gy + 4:.1f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{yv:.6g}</text>'
        )
    out.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 12:.1f}" '
        f'font-family="sans-serif" font-size="13" text-anchor="middle">{x_label}</text>'
    )
    out.append(
        f'<text x="18" y="{top + plot_h / 2:.1f}" font-family="sans-serif" '
        f'font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 18 {top + plot_h / 2:.1f})">{y_label}</text>'
    )
    for index, (label, pts) in enumerate(cleaned):
        color = _PALETTE[index % len(_PALETTE)]
        if pts:
            coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
            out.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                'stroke-width="1.5"/>'
            )
        ly = top + 16 + 18 * index
        lx = left + plot_w + 12
        out.append(
            f'<rect x="{lx:.1f}" y="{ly - 9:.1f}" width="12" height="12" fill="{color}"/>'
        )
        out.append(
            f'<text x="{lx + 18:.1f}" y="{ly + 2:.1f}" font-family="sans-serif" '
            f'font-size="12">{label}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


# -- run directory and manifest -------------------------------------------------


def _is_plain_name(name: object) -> bool:
    """A bare file name inside the run directory, as the writer emits them.

    Without a separator a name can be neither absolute nor reach outside;
    a NUL byte would make the unlink itself raise midway through the rerun.
    """
    return (
        isinstance(name, str)
        and name not in ("", ".", "..")
        and "/" not in name
        and "\\" not in name
        and "\x00" not in name
    )


@dataclass
class RunWriter:
    """Collects a run's output files and seals them with a manifest."""

    out_dir: Path
    created: bool = False
    files: list[tuple[str, str]] = field(default_factory=list)
    # the temporary sibling of a write in progress, for ``abort`` to remove
    pending: Optional[Path] = None

    @classmethod
    def prepare(cls, out_dir: Union[str, Path]) -> "RunWriter":
        path = Path(out_dir)
        try:
            if path.exists() and not path.is_dir():
                raise RunDirError(f"output path {path} exists and is not a directory")
            if not path.exists():
                path.mkdir(parents=True)
                return cls(path, created=True)
            if not any(path.iterdir()):
                return cls(path)
            manifest = path / MANIFEST_NAME
            if not manifest.exists():
                raise RunDirError(
                    f"output directory {path} is not empty and has no {MANIFEST_NAME}; "
                    "refusing to mix into it"
                )
            try:
                listed = [entry["name"] for entry in json.loads(manifest.read_text())["outputs"]]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise RunDirError(f"cannot parse {manifest}: {exc}") from None
            unsafe = [name for name in listed if not _is_plain_name(name)]
            if unsafe:
                raise RunDirError(
                    f"{manifest} lists {unsafe[0]!r}, which is not a plain file name; "
                    "refusing to delete it"
                )
            for name in listed:
                (path / name).unlink(missing_ok=True)
            manifest.unlink()
            return cls(path)
        except OSError as exc:
            raise RunDirError(f"cannot use output path {path}: {exc}") from None

    def _replace(self, name: str, data: bytes) -> Path:
        """Write ``data`` to a temporary sibling, then rename it to ``name``."""
        self.pending = self.out_dir / f".{name}.tmp"
        self.pending.write_bytes(data)
        target = self.out_dir / name
        os.replace(self.pending, target)
        self.pending = None
        return target

    def _record(self, name: str, data: bytes) -> None:
        self._replace(name, data)
        self.files.append((name, sha256(data).hexdigest()))

    def write_csv(
        self, name: str, header: Sequence[str], columns: Sequence[Sequence[object]]
    ) -> None:
        self._record(name, render_csv(header, columns).encode("ascii"))

    def write_text(self, name: str, text: str) -> None:
        self._record(name, text.encode("utf-8"))

    def finish(self, command: str, config_sha256: str, started_utc: str) -> Path:
        manifest = {
            "command": command,
            "config_sha256": config_sha256,
            "tool_version": __version__,
            "started_utc": started_utc,
            "finished_utc": utc_now(),
            "outputs": [
                {"name": name, "sha256": digest}
                for name, digest in sorted(self.files)
            ],
        }
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        return self._replace(MANIFEST_NAME, text.encode("utf-8"))

    def abort(self) -> None:
        """Best-effort cleanup when writing a run's files fails."""
        if self.pending is not None:
            self.pending.unlink(missing_ok=True)
            self.pending = None
        for name, _ in self.files:
            (self.out_dir / name).unlink(missing_ok=True)
        if self.created:
            try:
                self.out_dir.rmdir()
            except OSError:
                pass
