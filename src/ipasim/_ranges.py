"""Declared ranges of numeric parameters, the size bounds, and the one check of each.

A parameter declares its interval once, spelled like ``"[0, 0.93]"``: a
dataclass field through :func:`ranged`, a config key through :func:`interval`,
a function argument as an :class:`Interval` it checks at entry (most often one
of the shared windows below, ``VOLTS``, ``WATTS``, ``SECONDS``...), and a
runner argument a config key sets in ``attack.RUN_ARGUMENTS``.  Every float a
config key or a public call takes lies in a physical window with finite ends,
and together the windows keep every value derived from them a finite float,
so no call refuses an overflow.  The test is ``lo <= x <= hi``, each end
open or closed as spelled, so NaN fails it; an infinite end is always open, so
``"(0, inf)"`` means positive and finite.  An array or a tuple field holds if
every entry does; a field may be None if its default is.  A refusal of one
argument is a :class:`Refusal`: its ``name`` says which argument, and its message
leads with that name: ``must be finite`` for (-inf, inf), ``must be positive``
for (0, inf), ``must be >= lo`` (or ``> lo``) for another range open above, else
``must be in`` the spelling; a count (``"int [1, 10]"``) that is no integer is
refused as a config count's parse is: ``n: expected an integer, got '1.5'``.  A
refusal of a relation between arguments, or of a state, is a plain ValueError.

Every call that allocates a grid or a trace checks its size against
``MAX_GRID_POINTS`` or ``MAX_STEPS`` with :func:`check_size` before it does.
"""

import math
from dataclasses import MISSING, field, fields
from functools import lru_cache
from typing import Mapping, NamedTuple

import numpy as np

# Most points a grid may have (distances, voltage-curve points, trace points,
# and the rows of a sweep or of all the traces or curves a curve verb makes):
# enough for any plot, small enough to stay in memory.
MAX_GRID_POINTS = 100_000
# Most steps a saturation run, an exposure program or a pulse loop may take:
# each one is a trace row.
MAX_STEPS = 1_000_000


class Refusal(ValueError):
    """The refusal of the one argument or field ``name``, which a caller reads to know
    which one, never the message; ``str()`` is ``message``, and ``reason`` is what
    follows its leading name and colon (all of it if it leads with neither)."""

    def __init__(self, name: str, message: str) -> None:
        super().__init__(message)
        self.name, self.reason = name, message.removeprefix(name).removeprefix(":").lstrip()

    def __reduce__(self):  # a process pool pickles it back as it was raised
        return type(self), (self.name, str(self))


class Interval(NamedTuple):
    lo: float
    hi: float
    least: float  # the least and the most float that hold: the interval, both ends closed
    most: float
    integer: bool
    message: str

    def holds(self, x) -> bool:
        """``x``, a number or every entry of an array, lies in the interval; NaN does not."""
        low, high = (x, x) if isinstance(x, (int, float)) else extremes(x)
        return bool(self.least <= low and high <= self.most)

    def check(self, name: str, x) -> None:
        """Raise a :class:`Refusal` of ``name`` unless ``x`` holds, a count an integer."""
        if self.integer and not isinstance(x, (int, np.integer)):
            raise Refusal(name, f"{name}: expected an integer, got {str(x)!r}")
        if not self.holds(x):
            raise Refusal(name, f"{name} {self.message}")


def extremes(x) -> tuple[float, float]:
    """The least and the greatest entry of ``x``, a number or an array, NaN if any is;
    (inf, -inf) if none.  The ufuncs reduce: ndarray.min/max cost a method call more."""
    x = np.asarray(x, dtype=float)
    return (np.minimum.reduce(x, axis=None, initial=math.inf),
            np.maximum.reduce(x, axis=None, initial=-math.inf))


@lru_cache(maxsize=None)
def interval(spelling: str) -> Interval:
    """The interval spelled ``spelling``, e.g. ``"[1, inf)"``; an end may be ``pi``."""
    integer = spelling.startswith("int ")
    spelling = spelling.removeprefix("int ")
    ends = [end.strip() for end in spelling[1:-1].split(",")]
    lo, hi = (math.pi if end == "pi" else float(end) for end in ends)
    lo_open, hi_open = spelling[0] == "(" or lo == -math.inf, spelling[-1] == ")" or hi == math.inf
    message = (
        f"must be in {spelling}" if hi < math.inf
        else "must be finite" if lo == -math.inf
        else "must be positive" if lo == 0.0 and lo_open
        else f"must be {'>' if lo_open else '>='} {ends[0]}"
    )
    least = math.nextafter(lo, math.inf) if lo_open else lo
    most = math.nextafter(hi, -math.inf) if hi_open else hi
    return Interval(lo, hi, least, most, integer, message)


POSITIVE = interval("(0, inf)")

# The physical windows several modules declare, one spelling each.  A drive
# voltage: tens of volts drive a LiNbO3 modulator, and 10 kV breaks down any gap.
VOLTS = "[-1e4, 1e4]"
# An injected power, dark or lit: the attack lands nW to tens of uW, 1 W burns a
# waveguide, and a lit one is at least a 405 nm photon per age of the universe.
WATTS, LIT_WATTS = "[0, 1]", "[1e-36, 1]"
# A time: 1e15 s (3e7 years) outlasts any exposure and 100 of the slowest dark
# relaxation times the material windows admit (8.9e12 s).
SECONDS = "(0, 1e15]"
PHOTONS = "[0, 1e6]"  # photons per pulse into the device: 1e6 is past any QKD source


def ranged(spelling: str, default: object = MISSING):
    """A dataclass field declared in the interval ``spelling``."""
    return field(default=default, metadata={"range": interval(spelling)})


@lru_cache(maxsize=None)
def _declared(cls: type) -> tuple[list[tuple], list[tuple]]:
    """The declared scalar fields of ``cls``, and its declared tuple fields."""
    declared = [(f, f.metadata["range"]) for f in fields(cls) if f.metadata]
    scalars = [(f.name, f.default is None, r) for f, r in declared if type(f.default) is not tuple]
    return scalars, [(f.name, r) for f, r in declared if type(f.default) is tuple]


def check_ranges(obj: object) -> None:
    """Raise a :class:`Refusal` of the first declared field of dataclass ``obj`` out of range."""
    scalars, tuples = _declared(type(obj))
    for name, optional, allowed in scalars:
        x = getattr(obj, name)
        if optional and x is None:
            continue
        # Interval.holds written out for a float: a call per field would double the cost
        if allowed.integer or not allowed.least <= x <= allowed.most:
            allowed.check(name, x)
    for name, allowed in tuples:
        if not all(map(allowed.holds, getattr(obj, name))):
            raise Refusal(name, f"{name}: every entry {allowed.message}")


def check_arguments(declared: Mapping[str, str], **arguments) -> None:
    """:meth:`Interval.check` each keyword argument by the interval ``declared`` spells for it."""
    for name, x in arguments.items():
        interval(declared[name]).check(name, x)


def check_size(count: float, limit: int, message: str, name: str | None = None) -> None:
    """Raise ``ValueError(message)``, a :class:`Refusal` of ``name`` if given, unless
    ``count`` is at most ``limit``; NaN is not."""
    if not count <= limit:
        raise ValueError(message) if name is None else Refusal(name, message)
