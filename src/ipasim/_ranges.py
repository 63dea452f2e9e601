"""Declared ranges of numeric parameters, the size bounds, and the one check of each.

A parameter declares its interval once, spelled like ``"[0, 0.93]"``: a
dataclass field through :func:`ranged`, a config key or a runner argument through :func:`interval`.
The test is ``lo <= x <= hi``, each end open or closed as spelled, so NaN fails
it; an infinite end is always open, so ``"(0, inf)"`` means positive and
finite.  A field whose default is None may be None; a field whose default is a
tuple holds the range for every entry.  A refusal reads ``must be finite`` for
(-inf, inf), ``must be positive`` for (0, inf), ``must be >= lo`` (or ``> lo``)
for another range open above, else ``must be in`` the spelling.

Every call that allocates a grid or a trace checks its size against
``MAX_GRID_POINTS`` or ``MAX_STEPS`` with :func:`check_size` before it does.
"""

import math
from dataclasses import MISSING, field, fields
from functools import lru_cache
from numbers import Integral
from typing import Collection, Mapping, NamedTuple

# Most points a grid may have (distances, voltage-curve points, trace points,
# and the rows of a sweep or of all the traces or curves a curve verb makes):
# enough for any plot, small enough to stay in memory.
MAX_GRID_POINTS = 100_000
# Most steps a saturation run, an exposure program or a pulse loop may take:
# each one is a trace row.
MAX_STEPS = 1_000_000


class Interval(NamedTuple):
    lo: float
    hi: float
    lo_open: bool
    hi_open: bool
    message: str

    def holds(self, x: float) -> bool:
        lo, hi = self.lo, self.hi
        return (lo < x if self.lo_open else lo <= x) and (x < hi if self.hi_open else x <= hi)


@lru_cache(maxsize=None)
def interval(spelling: str) -> Interval:
    """The interval spelled ``spelling``, e.g. ``"[1, inf)"``; an end may be ``pi``."""
    ends = [end.strip() for end in spelling[1:-1].split(",")]
    lo, hi = (math.pi if end == "pi" else float(end) for end in ends)
    lo_open, hi_open = spelling[0] == "(" or lo == -math.inf, spelling[-1] == ")" or hi == math.inf
    message = (
        f"must be in {spelling}" if hi < math.inf
        else "must be finite" if lo == -math.inf
        else "must be positive" if lo == 0.0 and lo_open
        else f"must be {'>' if lo_open else '>='} {ends[0]}"
    )
    return Interval(lo, hi, lo_open, hi_open, message)


def ranged(spelling: str, default: object = MISSING):
    """A dataclass field declared in the interval ``spelling``."""
    return field(default=default, metadata={"range": interval(spelling)})


@lru_cache(maxsize=None)
def _declared(cls: type) -> tuple[list[tuple], list[tuple]]:
    """The declared scalar fields of ``cls``, and its declared tuple fields."""
    declared = [(f, f.metadata["range"]) for f in fields(cls) if f.metadata]
    scalars = [(f.name, f.default is None, *r) for f, r in declared if type(f.default) is not tuple]
    return scalars, [(f.name, r) for f, r in declared if type(f.default) is tuple]


def check_ranges(obj: object) -> None:
    """Raise ``ValueError`` at the first declared field of dataclass ``obj`` out of range."""
    scalars, tuples = _declared(type(obj))
    for name, optional, lo, hi, lo_open, hi_open, message in scalars:
        x = getattr(obj, name)
        if optional and x is None:
            continue
        # Interval.holds written out: a call per field would double the cost
        if not ((lo < x if lo_open else lo <= x) and (x < hi if hi_open else x <= hi)):
            raise ValueError(f"{name} {message}")
    for name, allowed in tuples:
        if not all(map(allowed.holds, getattr(obj, name))):
            raise ValueError(f"{name}: every entry {allowed.message}")


def check_arguments(declared: Mapping[str, str], counts: Collection[str], **arguments) -> None:
    """:func:`check_ranges` for keyword ``arguments`` by ``declared`` spellings; one in
    ``counts`` must be an integer, refused in the words a config count's parse uses."""
    for name, x in arguments.items():
        if name in counts and not isinstance(x, Integral):
            raise ValueError(f"{name}: expected an integer, got {str(x)!r}")
        allowed = interval(declared[name])
        if not allowed.holds(x):
            raise ValueError(f"{name} {allowed.message}")


def check_size(count: float, limit: int, message: str) -> None:
    """Raise ``ValueError(message)`` unless ``count`` is at most ``limit``; NaN is not."""
    if not count <= limit:
        raise ValueError(message)
