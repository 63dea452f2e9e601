"""Deterministic run outputs: CSV files and one manifest.

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
