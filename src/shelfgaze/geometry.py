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
from dataclasses import dataclass, fields

from .errors import EyeBelowPanelBottomError, require_finite

# Eye heights at or above this are rejected as unit-conversion mistakes
# (a millimeter stature fed in as centimeters, for instance).
MAX_EYE_HEIGHT_CM = 250.0


@dataclass(frozen=True)
class ShelfConfig:
    """Physical shelf, panel, camera, and grid layout. Defaults match the
    181 cm shelf with a 102x138 cm panel split into a 6x6 grid of 17x23 cm
    cells, camera centered horizontally and 55.5 cm below the top.

    Construction also sets the derived ``cell_width_cm``, ``cell_height_cm``,
    ``cell_count`` and ``panel_bottom_height_cm`` (the height of the panel's
    bottom edge above the floor, 43 for defaults)."""

    shelf_height_cm: float = 181.0
    panel_height_cm: float = 138.0
    panel_width_cm: float = 102.0
    camera_x_cm: float = 51.0
    camera_drop_cm: float = 55.5
    eye_crown_offset_cm: float = 4.8
    grid_rows: int = 6
    grid_cols: int = 6

    def __post_init__(self) -> None:
        require_finite(self, *(f.name for f in fields(self)))
        if not 0 < self.panel_height_cm <= self.shelf_height_cm:
            raise ValueError(
                f"panel height {self.panel_height_cm} must be in (0, shelf height"
                f" {self.shelf_height_cm}]"
            )
        if self.panel_width_cm <= 0:
            raise ValueError(f"panel width must be positive, got {self.panel_width_cm}")
        if not 0 <= self.camera_drop_cm <= self.panel_height_cm:
            raise ValueError(
                f"camera drop {self.camera_drop_cm} outside [0, {self.panel_height_cm}]"
            )
        if not 0 <= self.camera_x_cm <= self.panel_width_cm:
            raise ValueError(
                f"camera x {self.camera_x_cm} outside [0, {self.panel_width_cm}]"
            )
        if self.eye_crown_offset_cm < 0:
            raise ValueError("eye-to-crown offset must be nonnegative")
        if self.grid_rows < 1 or self.grid_cols < 1:
            raise ValueError("grid must have at least one row and one column")
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

    stature_cm: float
    eye_height_cm: float
    distance_cm: float

    def __post_init__(self) -> None:
        require_finite(self, "stature_cm", "eye_height_cm", "distance_cm")
        if self.distance_cm <= 0:
            raise ValueError(f"standing distance must be positive, got {self.distance_cm}")

    @classmethod
    def from_stature(cls, stature_cm: float, distance_cm: float, cfg: ShelfConfig) -> PersonSample:
        """Build a sample from full body height; eye level sits the configured
        eye-to-crown offset below the crown."""
        return cls(stature_cm, stature_cm - cfg.eye_crown_offset_cm, distance_cm)

    @classmethod
    def from_eye_height(cls, eye_height_cm: float, distance_cm: float, cfg: ShelfConfig) -> PersonSample:
        return cls(eye_height_cm + cfg.eye_crown_offset_cm, eye_height_cm, distance_cm)


@dataclass(frozen=True)
class SplitResult:
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


def eye_to_top(cfg: ShelfConfig, p: PersonSample) -> float:
    """Distance from the eye to the shelf's top edge (hypotenuse over d)."""
    validate_person(cfg, p)
    return math.hypot(p.distance_cm, cfg.shelf_height_cm - p.eye_height_cm)


def eye_to_bottom(cfg: ShelfConfig, p: PersonSample) -> float:
    """Distance from the eye to the panel's bottom edge."""
    validate_person(cfg, p)
    return math.hypot(p.distance_cm, p.eye_height_cm - cfg.panel_bottom_height_cm)


def _split_angles(cfg: ShelfConfig, p: PersonSample, camera_drop_cm: float) -> tuple[float, float]:
    """Angles (top ray to camera ray, camera ray to bottom ray) at the eye.

    Each ray's elevation is atan2(height difference, distance) with a single
    signed convention: positive above the eye line. For any drop within the
    panel the three rays are ordered top >= camera >= bottom, so both
    differences are nonnegative.
    """
    d = p.distance_cm
    h = p.eye_height_cm
    theta_top = math.atan2(cfg.shelf_height_cm - h, d)
    theta_cam = math.atan2(cfg.shelf_height_cm - camera_drop_cm - h, d)
    theta_bottom = math.atan2(cfg.panel_bottom_height_cm - h, d)
    return theta_top - theta_cam, theta_cam - theta_bottom


def bisector_split(cfg: ShelfConfig, p: PersonSample) -> SplitResult:
    """Where the bisector of the top/bottom gaze rays crosses the panel.

    The bisector of angle A in a triangle divides the opposite side in the
    ratio of the adjacent sides, so the split point measured from the shelf
    top is ``panel_height * AB / (AB + AC)``.
    """
    ab = eye_to_top(cfg, p)
    ac = eye_to_bottom(cfg, p)
    db = cfg.panel_height_cm * ab / (ab + ac)
    alpha1, alpha2 = _split_angles(cfg, p, cfg.camera_drop_cm)
    return SplitResult(ab_cm=ab, ac_cm=ac, db_cm=db, alpha1_rad=alpha1, alpha2_rad=alpha2)


def angular_imbalance(cfg: ShelfConfig, p: PersonSample, camera_drop_cm: float) -> float:
    """Signed residual alpha1 - alpha2 for a camera at the given drop.

    Zero exactly when the camera lies on the bisector. The residual
    increases monotonically with the drop: a camera above the bisector
    point (drop too small) leaves alpha1 < alpha2 and the residual
    negative; below it, positive.
    """
    if not 0 <= camera_drop_cm <= cfg.panel_height_cm:
        raise ValueError(
            f"camera drop {camera_drop_cm} outside [0, {cfg.panel_height_cm}]"
        )
    validate_person(cfg, p)
    alpha1, alpha2 = _split_angles(cfg, p, camera_drop_cm)
    return alpha1 - alpha2
