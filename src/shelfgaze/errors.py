"""Domain exceptions shared across the toolkit.

Construction-time invariant violations (bad config values, malformed input)
raise plain ValueError; these classes cover failures of otherwise
well-formed requests. The CLI maps ShelfGazeError to exit code 2 and
input errors to exit code 1.
"""

import math


def require_finite(obj: object, *names: str) -> None:
    """Raise ValueError naming the first of ``obj``'s attributes ``names``
    that is not a number (a bool is not one), or is NaN or infinite."""
    for name in names:
        value = getattr(obj, name)
        try:
            finite = math.isfinite(value)
        except TypeError:
            finite = None
        except OverflowError:  # an int past the float range
            finite = False
        if finite is None or value is True or value is False:
            raise ValueError(f"{name} must be a number, got {value!r}")
        if not finite:
            raise ValueError(f"{name} must be finite, got {value}")


def require_int(obj: object, *names: str) -> None:
    """Raise ValueError naming the first of ``obj``'s attributes ``names``
    that is not an int (a bool is not one)."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an integer, got {value!r}")


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
    """Point lies outside the panel rectangle."""


class NoIntersectionError(ShelfGazeError):
    """Gaze ray is parallel to the shelf plane or points away from it."""


class DegenerateEyeError(ShelfGazeError):
    """Eye landmarks have zero horizontal extent; the aspect ratio is undefined."""


class EmptyBatchError(ShelfGazeError):
    """Statistics requested over an empty collection of readings."""


class UnknownSetSizeError(ShelfGazeError):
    """Requested calibration set size has no configured cell list."""
