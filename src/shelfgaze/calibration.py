"""Planning for gaze calibration recordings on the panel grid.

A calibration session records a fixed number of frames while the subject
looks at each target cell. Training targets come in nested set sizes, and
four held-out cells serve as a validation set regardless of which training
set size is used. Frame selection within a cell is a seeded shuffle, so a
plan is reproducible from its seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from math import isclose

from .errors import UnknownSetSizeError, require_finite
from .geometry import ShelfConfig
from .grid import PlanePoint, cell_center, to_camera_coords

VALIDATION_CELLS: tuple[int, ...] = (8, 11, 26, 29)

TRAINING_SETS: dict[int, tuple[int, ...]] = {
    2: (6, 31),
    4: (3, 13, 18, 33),
    8: (1, 3, 6, 13, 18, 31, 33, 36),
    16: (1, 3, 4, 6, 13, 15, 16, 18, 19, 21, 22, 24, 31, 33, 34, 36),
    32: (
        1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 13, 14, 15, 16, 17, 18,
        19, 20, 21, 22, 23, 24, 25, 27, 28, 30, 31, 32, 33, 34, 35, 36,
    ),
}


def _check_cells(label: str, cells: tuple[int, ...]) -> None:
    """Layout-free checks; the upper bound depends on the grid, so
    validate_spec reports cells beyond it."""
    for cell in cells:
        if not cell >= 1:  # NaN included
            raise ValueError(f"{label} cell {cell} is below 1")
    if len(set(cells)) != len(cells):
        raise ValueError(f"{label} cells contain duplicates: {cells}")


@dataclass(frozen=True)
class CalibrationSpec:
    frames_per_point: int = 10
    train_frames_per_point: int = 3
    val_frames_per_point: int = 1
    validation_cells: tuple[int, ...] = VALIDATION_CELLS
    training_sets: dict[int, tuple[int, ...]] = field(default_factory=TRAINING_SETS.copy)
    seed: int = 0

    def __post_init__(self) -> None:
        require_finite(self, "frames_per_point", "train_frames_per_point", "val_frames_per_point")
        if self.frames_per_point < 1:
            raise ValueError(f"frames_per_point must be >= 1, got {self.frames_per_point}")
        if self.train_frames_per_point < 1:
            raise ValueError(f"train_frames_per_point must be >= 1, got {self.train_frames_per_point}")
        if self.val_frames_per_point < 0:
            raise ValueError(f"val_frames_per_point must be >= 0, got {self.val_frames_per_point}")
        _check_cells("validation", self.validation_cells)
        for size, cells in self.training_sets.items():
            _check_cells(f"training[{size}]", cells)


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str


def validate_spec(spec: CalibrationSpec, cfg: ShelfConfig) -> list[Violation]:
    """Soft consistency checks. Returns problems instead of raising so a
    proposed protocol can be inspected as data."""
    violations: list[Violation] = []

    def check_range(label: str, cells: tuple[int, ...]) -> None:
        outside = [cell for cell in cells if cell > cfg.cell_count]
        if outside:
            violations.append(
                Violation("cell-range", f"{label} cells {outside} outside 1..{cfg.cell_count}")
            )

    for size in sorted(spec.training_sets):
        cells = spec.training_sets[size]
        check_range(f"set {size}", cells)
        if len(cells) != size:
            violations.append(
                Violation("size-mismatch", f"set {size} lists {len(cells)} cells")
            )
        overlap = sorted(set(cells) & set(spec.validation_cells))
        if overlap:
            violations.append(
                Violation("overlap", f"set {size} shares cells {overlap} with validation")
            )

    # Validation targets should mirror each other across the vertical
    # midline of the panel so left and right gaze are probed equally.
    check_range("validation", spec.validation_cells)
    xs = sorted(
        cell_center(cfg, cell).x_cm for cell in spec.validation_cells if cell <= cfg.cell_count
    )
    mirrored = sorted(cfg.panel_width_cm - x for x in xs)
    if not all(isclose(a, b, abs_tol=1e-9) for a, b in zip(xs, mirrored)):
        violations.append(
            Violation("asymmetric-validation", f"center x values {xs} not mirror-symmetric")
        )

    budget = spec.train_frames_per_point + spec.val_frames_per_point
    if budget > spec.frames_per_point:
        violations.append(
            Violation(
                "frame-budget",
                f"{budget} frames requested per point but only "
                f"{spec.frames_per_point} recorded",
            )
        )

    return violations


@dataclass(frozen=True)
class PlanEntry:
    cell: int
    target: PlanePoint
    train_frames: tuple[int, ...]
    val_frames: tuple[int, ...]


@dataclass(frozen=True)
class CalibrationPlan:
    set_size: int
    entries: tuple[PlanEntry, ...]


def plan(spec: CalibrationSpec, set_size: int, cfg: ShelfConfig) -> CalibrationPlan:
    """Frame selection for one session: training cells in their listed
    order, then validation cells. Each cell gets an independent shuffle of
    the recorded frame indices from one shared seeded generator."""
    if set_size not in spec.training_sets:
        known = sorted(spec.training_sets)
        raise UnknownSetSizeError(f"set size {set_size} not in {known}")
    budget = spec.train_frames_per_point + spec.val_frames_per_point
    if budget > spec.frames_per_point:
        raise ValueError(
            f"cannot select {budget} frames from {spec.frames_per_point} per point"
        )

    rng = random.Random(spec.seed)
    entries = []
    for cell in spec.training_sets[set_size] + spec.validation_cells:
        perm = list(range(spec.frames_per_point))
        rng.shuffle(perm)
        train = tuple(perm[: spec.train_frames_per_point])
        val = tuple(perm[spec.train_frames_per_point : budget])
        entries.append(PlanEntry(cell, cell_center(cfg, cell), train, val))
    return CalibrationPlan(set_size, tuple(entries))


@dataclass(frozen=True)
class GroundTruthRecord:
    frame: int
    cell: int
    shelf: tuple[float, float]
    camera: tuple[float, float]
    split: str


def emit_ground_truth(cal_plan: CalibrationPlan, cfg: ShelfConfig) -> list[GroundTruthRecord]:
    """Per-frame labels for the planned session, training frames first
    within each cell. Targets are cell centers in both panel coordinates
    and camera-origin coordinates."""
    records = []
    for entry in cal_plan.entries:
        shelf = (entry.target.x_cm, entry.target.y_cm)
        cam = to_camera_coords(cfg, entry.target)
        camera = (cam.x_cm, cam.y_cm)
        for frame in entry.train_frames:
            records.append(GroundTruthRecord(frame, entry.cell, shelf, camera, "train"))
        for frame in entry.val_frames:
            records.append(GroundTruthRecord(frame, entry.cell, shelf, camera, "val"))
    return records


def ground_truth_jsonl(records: list[GroundTruthRecord]) -> str:
    lines = []
    for rec in records:
        lines.append(
            json.dumps(
                {
                    "frame": rec.frame,
                    "cell": rec.cell,
                    "shelf": [rec.shelf[0], rec.shelf[1]],
                    "camera": [rec.camera[0], rec.camera[1]],
                    "split": rec.split,
                },
                separators=(",", ":"),
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")
