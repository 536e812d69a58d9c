"""Closed-form side-view geometry of one person looking at a shelf panel.

All lengths are centimeters. The side view puts the eye at height
``eye_height_cm`` a horizontal distance ``distance_cm`` in front of the
shelf plane. The panel hangs with its top edge flush with the shelf top
(height ``shelf_height_cm``) and its bottom edge at
``shelf_height_cm - panel_height_cm``. The camera sits on the panel,
``camera_drop_cm`` below the shelf top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .errors import EyeBelowPanelBottomError, check_ranges, in_range

# Eye heights at or above this are rejected as unit-conversion mistakes
# (a millimeter stature fed in as centimeters, for instance).
MAX_EYE_HEIGHT_CM = 250.0


def require_on_panel(label: str, value: float, extent: float) -> None:
    """Raise ValueError, naming ``label``, unless ``value`` lies on a panel
    whose height or width is ``extent``: in [0, extent]."""
    if not 0 <= value <= extent:
        raise ValueError(f"{label} {value} outside [0, {extent}]")


@dataclass(frozen=True)
class ShelfConfig:
    """Physical shelf, panel, camera, and grid layout. Defaults match the
    181 cm shelf with a 102x138 cm panel split into a 6x6 grid of 17x23 cm
    cells, camera centered horizontally and 55.5 cm below the top.

    Construction also sets the derived ``cell_width_cm``, ``cell_height_cm``,
    ``cell_count`` and ``panel_bottom_height_cm`` (the height of the panel's
    bottom edge above the floor, 43 for defaults)."""

    shelf_height_cm: float = in_range(1.0, 10_000.0, default=181.0)
    panel_height_cm: float = in_range(1.0, 1_000.0, default=138.0)
    panel_width_cm: float = in_range(1.0, 1_000.0, default=102.0)
    camera_x_cm: float = in_range(0.0, 1_000.0, default=51.0)
    camera_drop_cm: float = in_range(0.0, 1_000.0, default=55.5)
    eye_crown_offset_cm: float = in_range(0.0, 100.0, default=4.8)
    grid_rows: int = in_range(1, 1_000, default=6)
    grid_cols: int = in_range(1, 1_000, default=6)

    def __post_init__(self) -> None:
        check_ranges(self)
        if self.panel_height_cm > self.shelf_height_cm:
            raise ValueError(f"panel height {self.panel_height_cm} is above shelf height {self.shelf_height_cm}")
        require_on_panel("camera drop", self.camera_drop_cm, self.panel_height_cm)
        require_on_panel("camera x", self.camera_x_cm, self.panel_width_cm)
        # Derived sizes are plain attributes, not fields, so --config keys
        # stay the fields and per-call lookups read them at field
        # speed: a property recomputes on each read, and cached_property
        # materializes the instance __dict__, which slows every attribute read.
        object.__setattr__(self, "cell_width_cm", self.panel_width_cm / self.grid_cols)
        object.__setattr__(self, "cell_height_cm", self.panel_height_cm / self.grid_rows)
        object.__setattr__(self, "cell_count", self.grid_rows * self.grid_cols)
        object.__setattr__(self, "panel_bottom_height_cm", self.shelf_height_cm - self.panel_height_cm)


@dataclass(frozen=True)
class PersonSample:
    """One sampled person standing in front of the shelf."""

    stature_cm: float = in_range(0.0, 1_000.0)
    eye_height_cm: float = in_range(-100.0, 1_000.0)  # a stature less the largest eye offset
    distance_cm: float = in_range(1e-3, 10_000.0)

    def __post_init__(self) -> None:
        check_ranges(self)

    @classmethod
    def from_stature(cls, stature_cm: float, distance_cm: float, cfg: ShelfConfig) -> PersonSample:
        """Build a sample from full body height; eye level sits the configured
        eye-to-crown offset below the crown."""
        return cls(stature_cm, stature_cm - cfg.eye_crown_offset_cm, distance_cm)

    @classmethod
    def from_eye_height(cls, eye_height_cm: float, distance_cm: float, cfg: ShelfConfig) -> PersonSample:
        return cls(eye_height_cm + cfg.eye_crown_offset_cm, eye_height_cm, distance_cm)


class SplitResult(NamedTuple):
    """Bisector split of the panel as seen from one eye position.

    ``db_cm`` is the drop below the shelf top at which a camera would sit
    exactly on the bisector of the top/bottom gaze rays. ``alpha1_rad`` and
    ``alpha2_rad`` are the angles the *configured* camera position actually
    splits the gaze cone into (top ray to camera ray, camera ray to bottom
    ray).
    """

    ab_cm: float
    ac_cm: float
    db_cm: float
    alpha1_rad: float
    alpha2_rad: float


def validate_person(cfg: ShelfConfig, p: PersonSample) -> None:
    """Reject samples whose geometry degenerates instead of clamping them.

    Eyes at or below the panel bottom break the side-view triangle; eyes
    above MAX_EYE_HEIGHT_CM are treated as unit mistakes.
    """
    if p.eye_height_cm <= cfg.panel_bottom_height_cm:
        raise EyeBelowPanelBottomError(
            f"eye height {p.eye_height_cm} cm is at or below the panel bottom"
            f" ({cfg.panel_bottom_height_cm} cm)"
        )
    if p.eye_height_cm >= MAX_EYE_HEIGHT_CM:
        raise ValueError(
            f"eye height {p.eye_height_cm} cm exceeds the sane bound {MAX_EYE_HEIGHT_CM} cm;"
            " check input units"
        )


def _split_angles(cfg: ShelfConfig, p: PersonSample, drops: Iterable[float]) -> Iterator[tuple[float, float, float]]:
    """For a camera at each drop: the drop and the angles (top ray to camera
    ray, camera ray to bottom ray) at the eye.

    Each ray's elevation is atan2(height difference, distance) with a single
    signed convention: positive above the eye line. The top and bottom rays
    do not depend on the drop, so each drop costs one atan2. For any drop
    within the panel the three rays are ordered top >= camera >= bottom, so
    both differences are nonnegative. Nothing is checked here.
    """
    d = p.distance_cm
    h = p.eye_height_cm
    top = cfg.shelf_height_cm
    theta_top = math.atan2(top - h, d)
    theta_bottom = math.atan2(cfg.panel_bottom_height_cm - h, d)
    for drop in drops:
        theta_cam = math.atan2(top - drop - h, d)
        yield drop, theta_top - theta_cam, theta_cam - theta_bottom


def bisector_split(cfg: ShelfConfig, p: PersonSample) -> SplitResult:
    """Where the bisector of the top/bottom gaze rays crosses the panel.

    The bisector of angle A in a triangle divides the opposite side in the
    ratio of the adjacent sides, so the split point measured from the shelf
    top is ``panel_height * AB / (AB + AC)``, where AB and AC run from the
    eye to the shelf top and to the panel bottom.
    """
    validate_person(cfg, p)
    ab = math.hypot(p.distance_cm, cfg.shelf_height_cm - p.eye_height_cm)
    ac = math.hypot(p.distance_cm, p.eye_height_cm - cfg.panel_bottom_height_cm)
    db = cfg.panel_height_cm * ab / (ab + ac)
    ((_, alpha1, alpha2),) = _split_angles(cfg, p, (cfg.camera_drop_cm,))
    return SplitResult(ab, ac, db, alpha1, alpha2)


def imbalance_sweep(cfg: ShelfConfig, p: PersonSample, drops: Iterable[float]) -> list[tuple[float, float]]:
    """(drop, alpha1 - alpha2) for a camera at each candidate drop.

    The signed residual is zero exactly when the camera lies on the
    bisector. It increases monotonically with the drop: a camera above the
    bisector point (drop too small) leaves alpha1 < alpha2 and the residual
    negative; below it, positive. Checks run in drop order, each before its
    residual is kept: the first drop on the panel, then the person, then
    each further drop. No drops give [] without a check.
    """
    sweep = []
    for drop, alpha1, alpha2 in _split_angles(cfg, p, drops):
        require_on_panel("camera drop", drop, cfg.panel_height_cm)
        if not sweep:
            validate_person(cfg, p)
        sweep.append((drop, alpha1 - alpha2))
    return sweep
