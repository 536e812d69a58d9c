"""Eye aspect ratio from six per-eye landmarks, with open/closed
classification used to diagnose bad camera placements.

Landmark convention: p1 outer corner, p4 inner corner, (p2, p6) the outer
upper/lower lid pair, (p3, p5) the inner pair, ordered counterclockwise.
Any consistent planar unit works; the ratio is unit-free.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import DegenerateEyeError, EmptyBatchError

OPEN_THRESHOLD = 0.2

Point2 = tuple[float, float]


@dataclass(frozen=True)
class EyeLandmarks:
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
    """Summed vertical lid gaps over twice the horizontal eye width."""
    width = _dist(l.p1, l.p4)
    if width == 0:
        raise DegenerateEyeError("eye corners coincide; aspect ratio undefined")
    return (_dist(l.p2, l.p6) + _dist(l.p3, l.p5)) / (2.0 * width)


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
    open_count = sum(1 for v in values if classify(v, threshold))
    return BatchStats(sum(values) / len(values), min(values), open_count / len(values))


def _parsed_eye(values: Sequence) -> EyeLandmarks:
    """``EyeLandmarks.from_flat`` for numbers read from text, where NaN and
    infinity are input errors."""
    coords = [float(v) for v in values]
    for c in coords:
        if not math.isfinite(c):
            raise ValueError(f"coordinates must be finite, got {c}")
    return EyeLandmarks.from_flat(coords)


def landmarks_from_csv(text: str) -> list[EyeLandmarks]:
    """One eye per line: x1,y1,...,x6,y6. Blank lines are skipped."""
    eyes = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            eyes.append(_parsed_eye(line.split(",")))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    return eyes


def landmarks_from_json(text: str) -> list[EyeLandmarks]:
    """JSON array of eyes, each either 12 flat numbers or six [x, y] pairs."""
    data = json.loads(text)
    if not isinstance(data, list):
        raise ValueError("expected a JSON array of eyes")
    eyes = []
    for entry in data:
        if len(entry) == 6 and all(isinstance(p, (list, tuple)) for p in entry):
            flat = [c for p in entry for c in p]
        else:
            flat = list(entry)
        eyes.append(_parsed_eye(flat))
    return eyes
