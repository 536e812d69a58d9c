"""Planning for gaze calibration recordings on the panel grid.

A calibration session records a fixed number of frames while the subject
looks at each target cell. Training targets come in nested set sizes, and
four held-out cells serve as a validation set regardless of which training
set size is used. Frame selection within a cell is a seeded shuffle, so a
plan is reproducible from its seed.

``emit_ground_truth`` labels each planned frame, and ``ground_truth_jsonl``
writes those records as JSON lines. ``plan_jsonl`` writes the same text
straight from the plan; it is what ``shelfgaze calib-plan`` prints.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from math import isclose
from typing import NamedTuple

from .errors import UnknownSetSizeError, check_ranges, in_range
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
        if type(cell) in (int, float) and not cell >= 1:  # NaN included
            raise ValueError(f"{label} cell {cell} is below 1")
        if type(cell) is not int:
            raise ValueError(f"{label} cell {cell!r} is not an integer")
    if len(set(cells)) != len(cells):
        raise ValueError(f"{label} cells contain duplicates: {cells}")


@dataclass(frozen=True)
class CalibrationSpec:
    # A plan shuffles a list of frames_per_point frame indices per cell.
    frames_per_point: int = in_range(1, 100_000, default=10)
    train_frames_per_point: int = in_range(1, 100_000, default=3)
    val_frames_per_point: int = in_range(0, 100_000, default=1)
    validation_cells: tuple[int, ...] = VALIDATION_CELLS
    training_sets: dict[int, tuple[int, ...]] = field(default_factory=TRAINING_SETS.copy)
    seed: int = in_range(0, 2**128 - 1, default=0)

    def __post_init__(self) -> None:
        # Any iterables of cells are stored as tuples, so that plan can chain them.
        object.__setattr__(self, "validation_cells", tuple(self.validation_cells))
        object.__setattr__(self, "training_sets", {k: tuple(v) for k, v in self.training_sets.items()})
        check_ranges(self)
        _check_cells("validation", self.validation_cells)
        for size, cells in self.training_sets.items():
            _check_cells(f"training[{size}]", cells)


class Violation(NamedTuple):
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


class PlanEntry(NamedTuple):
    cell: int
    target: PlanePoint
    train_frames: tuple[int, ...]
    val_frames: tuple[int, ...]


class CalibrationPlan(NamedTuple):
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


class GroundTruthRecord(NamedTuple):
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


# One encoder for every record; ``json.dumps`` with ``separators`` builds one per call.
_encode_compact = json.JSONEncoder(separators=(",", ":")).encode


def ground_truth_jsonl(records: list[GroundTruthRecord]) -> str:
    """One compact JSON object per record, its fields in order, each line ended."""
    return "".join(_encode_compact(rec._asdict()) + "\n" for rec in records)


def plan_jsonl(cal_plan: CalibrationPlan, cfg: ShelfConfig) -> str:
    """The text of ``ground_truth_jsonl(emit_ground_truth(cal_plan, cfg))``,
    written from the plan: the fields a cell's lines share are encoded once
    per cell, and each frame's line adds only its number."""
    frame_key, *shared_keys, split_key = GroundTruthRecord._fields
    head = "{" + _encode_compact(frame_key) + ":"
    # ',"split":"train"}\n': the split field, the end of the object and the line.
    ends = ["," + _encode_compact({split_key: split})[1:] + "\n" for split in ("train", "val")]
    shared = []
    for entry in cal_plan.entries:
        cam = to_camera_coords(cfg, entry.target)
        shelf, camera = (entry.target.x_cm, entry.target.y_cm), (cam.x_cm, cam.y_cm)
        shared.append(dict(zip(shared_keys, (entry.cell, shelf, camera))))
    # One encoder pass for every cell: an object of numbers and arrays holds
    # no braces, so "},{" parts the cells' objects exactly.
    bodies = _encode_compact(shared)[2:-2].split("},{")
    del shared  # not needed past its text, so the lines are written without it
    blocks = []
    for entry, body in zip(cal_plan.entries, bodies):
        for end, frames in zip(ends, (entry.train_frames, entry.val_frames)):
            if frames:
                tail = "," + body + end
                # The frames are plain ints from plan's shuffle, which str writes as the encoder does.
                blocks.append(head + (tail + head).join(map(str, frames)) + tail)
    return "".join(blocks)
