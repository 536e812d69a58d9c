"""Eye aspect ratio from six per-eye landmarks, with open/closed
classification used to diagnose bad camera placements.

Landmark convention: p1 outer corner, p4 inner corner, (p2, p6) the outer
upper/lower lid pair, (p3, p5) the inner pair, ordered counterclockwise.
Any consistent planar unit works; the ratio is unit-free.
"""

from __future__ import annotations

import math
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
        coords = [float(v) for v in values]
        points = [(coords[i], coords[i + 1]) for i in range(0, 12, 2)]
        return cls(*points)


def _dist(a: Point2, b: Point2) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def ear(l: EyeLandmarks) -> float:
    """Summed vertical lid gaps over twice the horizontal eye width. A
    width or ratio that is NaN or infinite is a ValueError."""
    width = _dist(l.p1, l.p4)
    if width == 0:
        raise DegenerateEyeError("eye corners coincide; aspect ratio undefined")
    value = (_dist(l.p2, l.p6) + _dist(l.p3, l.p5)) / (2.0 * width)
    if not (width < math.inf and value < math.inf):  # NaN included
        raise ValueError(f"eye width {width} and aspect ratio {value} must be finite")
    return value


def classify(value: float, threshold: float = OPEN_THRESHOLD) -> bool:
    """True when the eye reads as open: value strictly above the threshold."""
    if not 0 < threshold < math.inf:
        raise ValueError(f"threshold must be positive and finite, got {threshold}")
    return value > threshold


class BatchStats(NamedTuple):
    mean: float
    min: float
    fraction_open: float


def batch_stats(values: Sequence[float], threshold: float = OPEN_THRESHOLD) -> BatchStats:
    """Mean, minimum, and open fraction of a recording's EAR values."""
    if not values:
        raise EmptyBatchError("no readings to summarize")
    for v in values:
        if not -math.inf < v < math.inf:  # NaN included
            raise ValueError(f"values must be finite, got {v}")
    n = len(values)
    mean = sum(values) / n
    if not -math.inf < mean < math.inf:  # the float sum overflowed; the exact mean cannot
        from fractions import Fraction

        mean = float(sum(map(Fraction, values)) / n)
    open_count = sum(1 for v in values if classify(v, threshold))
    return BatchStats(mean, min(values), open_count / n)
