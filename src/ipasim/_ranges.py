"""Declared ranges of numeric parameters, and the one check of them.

A parameter declares its interval once, spelled like ``"[0, 0.93]"``: a
dataclass field through :func:`ranged`, a config key through :func:`interval`.
The test is ``lo <= x <= hi``, each end open or closed as spelled, so NaN fails
it; an infinite end is always open, so ``"(0, inf)"`` means positive and
finite.  A field whose default is None may be None.  A refusal reads ``must be
finite`` for (-inf, inf), ``must be positive`` for (0, inf), ``must be >= lo``
(or ``> lo``) for another range open above, else ``must be in`` the spelling.
"""

import math
from dataclasses import MISSING, field, fields
from functools import lru_cache
from typing import NamedTuple


class Interval(NamedTuple):
    lo: float
    hi: float
    lo_open: bool
    hi_open: bool
    message: str

    def holds(self, x: float) -> bool:
        lo, hi = self.lo, self.hi
        return (lo < x if self.lo_open else lo <= x) and (x < hi if self.hi_open else x <= hi)


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
def _declared(cls: type) -> list[tuple]:
    return [(f.name, f.default is None, *f.metadata["range"]) for f in fields(cls) if f.metadata]


def check_ranges(obj: object) -> None:
    """Raise ``ValueError`` at the first declared field of dataclass ``obj`` out of range."""
    for name, optional, lo, hi, lo_open, hi_open, message in _declared(type(obj)):
        x = getattr(obj, name)
        if optional and x is None:
            continue
        # Interval.holds written out: a call per field would double the cost
        if not ((lo < x if lo_open else lo <= x) and (x < hi if hi_open else x <= hi)):
            raise ValueError(f"{name} {message}")
