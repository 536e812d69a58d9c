"""Eye aspect ratio from six per-eye landmarks, with open/closed
classification used to diagnose bad camera placements.

Landmark convention: p1 outer corner, p4 inner corner, (p2, p6) the outer
upper/lower lid pair, (p3, p5) the inner pair, ordered counterclockwise.
Any consistent planar unit works; the ratio is unit-free.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import NamedTuple, Sequence

from .errors import DegenerateEyeError, EmptyBatchError

OPEN_THRESHOLD = 0.2

Point2 = tuple[float, float]


class EyeLandmarks(NamedTuple):
    p1: Point2
    p2: Point2
    p3: Point2
    p4: Point2
    p5: Point2
    p6: Point2

    @classmethod
    def from_flat(cls, values: Sequence[float]) -> EyeLandmarks:
        """Twelve numbers: x1, y1, ..., x6, y6."""
        if len(values) != 12:
            raise ValueError(f"expected 12 coordinates, got {len(values)}")
        x1, y1, x2, y2, x3, y3, x4, y4, x5, y5, x6, y6 = map(float, values)
        return cls((x1, y1), (x2, y2), (x3, y3), (x4, y4), (x5, y5), (x6, y6))


def ear(l: EyeLandmarks) -> float:
    """Summed vertical lid gaps over twice the horizontal eye width. A
    width or ratio that is NaN or infinite is a ValueError."""
    (x1, y1), (x2, y2), (x3, y3), (x4, y4), (x5, y5), (x6, y6) = l
    width = math.hypot(x1 - x4, y1 - y4)
    if width == 0:
        raise DegenerateEyeError("eye corners coincide; aspect ratio undefined")
    value = (math.hypot(x2 - x6, y2 - y6) + math.hypot(x3 - x5, y3 - y5)) / (2.0 * width)
    if not (width < math.inf and value < math.inf):  # NaN included
        raise ValueError(f"eye width {width} and aspect ratio {value} must be finite")
    return value


def check_threshold(threshold: float) -> None:
    """An open/closed threshold must be positive and finite: else a ValueError."""
    if not 0 < threshold < math.inf:  # NaN included
        raise ValueError(f"threshold must be positive and finite, got {threshold}")


def classify(value: float, threshold: float = OPEN_THRESHOLD) -> bool:
    """True when the eye reads as open: value strictly above the threshold.
    The value is checked first, then the threshold."""
    if not -math.inf < value < math.inf:  # NaN included
        raise ValueError(f"value must be finite, got {value}")
    check_threshold(threshold)
    return value > threshold


class BatchStats(NamedTuple):
    mean: float
    min: float
    fraction_open: float


def batch_stats(values: Sequence[float], threshold: float = OPEN_THRESHOLD) -> BatchStats:
    """Mean, minimum, and open fraction of a recording's EAR values. Each
    reading and the threshold are checked by ``classify``, before the mean."""
    if not values:
        raise EmptyBatchError("no readings to summarize")
    n = len(values)
    open_count = sum(map(classify, values, repeat(threshold)))
    mean = sum(values) / n
    if not -math.inf < mean < math.inf:  # the float sum overflowed; the exact mean cannot
        from fractions import Fraction

        mean = float(sum(map(Fraction, values)) / n)
    return BatchStats(mean, min(values), open_count / n)
