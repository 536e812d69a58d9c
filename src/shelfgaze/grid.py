"""The labeled shelf grid: cell indexing, shelf/camera coordinate transforms,
and gaze-ray-to-cell resolution.

Shelf coordinates put (0,0) at the panel's top-left corner, x right,
y down, in centimeters. Cells are numbered 1 at the top-left, row-major,
to rows*cols at the bottom-right. Camera coordinates share the axes but
originate at the camera pinhole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import IndexOutOfRangeError, NoIntersectionError, OutOfPanelError, field_range
from .geometry import PersonSample, ShelfConfig

_UNIT_TOL = 1e-9
# An eye is no nearer the panel plane, and no farther from its origin along
# x or y, than a person's distance may be; past these a hit point underflows
# or cancels. Far in z stays valid: the ray still meets the plane.
_EYE_MIN_Z_CM, _EYE_REACH_CM = field_range(PersonSample, "distance_cm")


@dataclass(frozen=True, slots=True)
class PlanePoint:
    """Point on the panel plane, shelf or camera origin depending on context."""

    x_cm: float
    y_cm: float


class GridSpec:
    """Former name of the grid layout, kept only because bench/workloads.py
    runs ``from shelfgaze import GridSpec`` and ``GRID = GridSpec.from_shelf(CFG)``.
    ``ShelfConfig`` is the layout: ``from_shelf(cfg)`` returns ``cfg``."""

    @staticmethod
    def from_shelf(cfg: ShelfConfig) -> ShelfConfig:
        return cfg


@dataclass(frozen=True, slots=True)
class GazeRay:
    """Eye position in front of the shelf plane and a unit direction."""

    eye_point: tuple[float, float, float]
    direction: tuple[float, float, float]

    def __post_init__(self) -> None:
        norm = math.hypot(*self.direction)
        if not abs(norm - 1.0) <= _UNIT_TOL:  # NaN included
            raise ValueError(f"direction must be a unit vector, |v| = {norm}")
        x, y, z = self.eye_point
        if not (abs(x) <= _EYE_REACH_CM >= abs(y) and z >= _EYE_MIN_Z_CM):  # NaN included
            raise ValueError(f"eye {self.eye_point} needs |x|, |y| <= {_EYE_REACH_CM} cm and z >= {_EYE_MIN_Z_CM} cm")

    @classmethod
    def aimed_at(cls, eye_point: tuple[float, float, float], target: PlanePoint) -> GazeRay:
        """Ray from the eye toward a point on the panel plane (z = 0)."""
        dx = target.x_cm - eye_point[0]
        dy = target.y_cm - eye_point[1]
        dz = -eye_point[2]
        norm = math.hypot(dx, dy, dz)
        if norm == 0:
            raise ValueError("eye and target coincide")
        return cls(eye_point, (dx / norm, dy / norm, dz / norm))


def cell_center(cfg: ShelfConfig, index: int) -> PlanePoint:
    """Center of the numbered cell, shelf coordinates."""
    if type(index) is not int:  # a bool or a whole float is no index
        raise ValueError(f"index must be an int, got {index!r}")
    if not 1 <= index <= cfg.cell_count:
        raise IndexOutOfRangeError(f"cell index {index} outside 1..{cfg.cell_count}")
    col = (index - 1) % cfg.grid_cols
    row = (index - 1) // cfg.grid_cols
    w, h = cfg.cell_width_cm, cfg.cell_height_cm
    return PlanePoint(col * w + w / 2.0, row * h + h / 2.0)


def point_to_cell(cfg: ShelfConfig, p: PlanePoint) -> int:
    """Cell owning the point. Cells are half-open in both axes except that
    the panel's right and bottom edges belong to the last column and row, so
    the closed panel is tiled exactly."""
    if not (0.0 <= p.x_cm <= cfg.panel_width_cm and 0.0 <= p.y_cm <= cfg.panel_height_cm):
        raise OutOfPanelError(p.x_cm, p.y_cm, cfg.panel_width_cm, cfg.panel_height_cm)
    col = min(int(p.x_cm // cfg.cell_width_cm), cfg.grid_cols - 1)
    row = min(int(p.y_cm // cfg.cell_height_cm), cfg.grid_rows - 1)
    return row * cfg.grid_cols + col + 1


def to_camera_coords(cfg: ShelfConfig, p: PlanePoint) -> PlanePoint:
    return PlanePoint(p.x_cm - cfg.camera_x_cm, p.y_cm - cfg.camera_drop_cm)


def ray_to_cell(cfg: ShelfConfig, ray: GazeRay) -> tuple[PlanePoint, int]:
    """Intersect the gaze ray with the panel plane and resolve the cell.

    The plane is z = 0 with the eye at z > 0, so the ray must descend in z
    (direction z-component negative) to hit it.
    """
    dz = ray.direction[2]
    if dz >= 0:
        raise NoIntersectionError(
            "ray is parallel to the shelf plane" if dz == 0 else "ray points away from the shelf plane"
        )
    t = -ray.eye_point[2] / dz
    hit = PlanePoint(
        ray.eye_point[0] + t * ray.direction[0],
        ray.eye_point[1] + t * ray.direction[1],
    )
    return hit, point_to_cell(cfg, hit)
