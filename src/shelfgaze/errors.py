"""Domain exceptions shared across the toolkit, and the one check on numeric
settings.

Each numeric field of a settings dataclass declares one closed physical
range with ``in_range``, and its ``__post_init__`` calls ``check_ranges``.
The ranges keep every formula downstream finite: no sampled stature,
per-sample drop, squared residual, millimeter value or run end in
milliseconds overflows or underflows for values inside them. A rule that
compares two fields stays in the ``__post_init__`` that needs it.

Construction-time invariant violations (bad config values, malformed input)
raise plain ValueError; these classes cover failures of otherwise
well-formed requests. The CLI maps ShelfGazeError to exit code 2 and
input errors to exit code 1.
"""

import math
from dataclasses import MISSING, field, fields


def in_range(lo: float, hi: float, default: object = MISSING):
    """A dataclass field holding a number in [lo, hi], an integer when ``lo``
    is an int, with an optional ``default``."""
    return field(default=default, metadata={"range": (lo, hi)})


def field_range(cls: type, name: str) -> tuple:
    """The (lo, hi) that field ``name`` of dataclass ``cls`` declares."""
    return cls.__dataclass_fields__[name].metadata["range"]


def check_value(name: str, value: object, lo: float, hi: float) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is a number (a bool
    is not one), finite, an int when ``lo`` is one, and in [lo, hi]."""
    try:
        finite = math.isfinite(value)
    except TypeError:
        finite = None
    except OverflowError:  # an int past the float range: the range rejects it
        finite = True
    if finite is None or isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not finite:
        raise ValueError(f"{name} must be finite, got {value}")
    if isinstance(lo, int) and not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not lo <= value <= hi:
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value}")


def check_ranges(obj: object) -> None:
    """``check_value`` on each field of the dataclass ``obj`` that declares a
    range, in field order."""
    for f in fields(obj):
        if "range" in f.metadata:
            check_value(f.name, getattr(obj, f.name), *f.metadata["range"])


def require_finite(obj: object, *names: str) -> None:
    """``check_value`` with no bounds on each of ``obj``'s attributes ``names``."""
    for name in names:
        check_value(name, getattr(obj, name), -math.inf, math.inf)


class ShelfGazeError(Exception):
    """Base class for domain errors."""


class EyeBelowPanelBottomError(ShelfGazeError):
    """Eye level at or below the panel's bottom edge: the side-view geometry degenerates."""


class NoValidDistanceError(ShelfGazeError):
    """No positive standing distance puts the camera on the gaze bisector for this person."""


class AllSamplesRejectedError(ShelfGazeError):
    """Every Monte Carlo sample failed the geometry preconditions."""


class IndexOutOfRangeError(ShelfGazeError):
    """Cell index outside 1..rows*cols."""


class OutOfPanelError(ShelfGazeError):
    """Point lies outside the panel rectangle. ``args`` is the point and the
    panel size, ``(x, y, width, height)``; the message is built when read."""

    def __str__(self) -> str:
        x, y, width, height = self.args
        return f"point ({x}, {y}) outside panel [0, {width}] x [0, {height}]"


class NoIntersectionError(ShelfGazeError):
    """Gaze ray is parallel to the shelf plane or points away from it."""


class DegenerateEyeError(ShelfGazeError):
    """Eye landmarks have zero horizontal extent; the aspect ratio is undefined."""


class EmptyBatchError(ShelfGazeError):
    """Statistics requested over an empty collection of readings."""


class UnknownSetSizeError(ShelfGazeError):
    """Requested calibration set size has no configured cell list."""
