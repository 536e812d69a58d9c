"""Calibration session planning and protocol validation."""

import json

import pytest

from shelfgaze.calibration import (
    TRAINING_SETS,
    VALIDATION_CELLS,
    CalibrationSpec,
    Violation,
    emit_ground_truth,
    ground_truth_jsonl,
    plan,
    validate_spec,
)
from shelfgaze.errors import UnknownSetSizeError
from shelfgaze.geometry import ShelfConfig
from shelfgaze.grid import cell_center

CFG = ShelfConfig()


def test_training_sets_frozen():
    assert VALIDATION_CELLS == (8, 11, 26, 29)
    assert TRAINING_SETS[2] == (6, 31)
    assert TRAINING_SETS[4] == (3, 13, 18, 33)
    assert TRAINING_SETS[8] == (1, 3, 6, 13, 18, 31, 33, 36)
    assert TRAINING_SETS[16] == (1, 3, 4, 6, 13, 15, 16, 18, 19, 21, 22, 24, 31, 33, 34, 36)
    assert len(TRAINING_SETS[32]) == 32
    for size, cells in TRAINING_SETS.items():
        assert len(cells) == size
        assert not set(cells) & set(VALIDATION_CELLS)
    # The largest set is everything except the validation cells.
    assert set(TRAINING_SETS[32]) | set(VALIDATION_CELLS) == set(range(1, 37))


def test_spec_constructor_sanity_checks():
    with pytest.raises(ValueError):
        CalibrationSpec(validation_cells=(0, 11, 26, 29))
    with pytest.raises(ValueError):
        CalibrationSpec(validation_cells=(8, 8, 26, 29))
    with pytest.raises(ValueError):
        CalibrationSpec(training_sets={2: (6, -1)})
    with pytest.raises(ValueError):
        CalibrationSpec(frames_per_point=0)
    # A spec file can hold NaN: it is rejected, not planned around.
    with pytest.raises(ValueError, match="^frames_per_point must be finite"):
        CalibrationSpec(frames_per_point=float("nan"))
    with pytest.raises(ValueError, match="^validation cell nan is below 1"):
        CalibrationSpec(validation_cells=(8, 11, 26, float("nan")))
    # The upper bound belongs to the layout: validate_spec reports it.
    spec = CalibrationSpec(validation_cells=(8, 11, 26, 37), training_sets={2: (6, 40)})
    assert [v for v in validate_spec(spec, CFG) if v.kind == "cell-range"] == [
        Violation("cell-range", "set 2 cells [40] outside 1..36"),
        Violation("cell-range", "validation cells [37] outside 1..36"),
    ]


def test_validate_reports_cells_beyond_the_layout():
    small = ShelfConfig(grid_rows=3, grid_cols=3)
    violations = validate_spec(CalibrationSpec(), small)
    assert Violation("cell-range", "validation cells [11, 26, 29] outside 1..9") in violations
    # Only in-range cells enter the mirror check, and cell 8 (bottom middle)
    # mirrors itself, so no asymmetric-validation is reported.
    assert {v.kind for v in violations} == {"cell-range"}


def test_default_protocol_is_clean():
    assert validate_spec(CalibrationSpec(), CFG) == []


def test_validate_reports_overlap_and_asymmetry():
    # Swapping validation cell 29 for 30 makes the set collide with the
    # 32-cell training set and breaks the left/right mirror.
    spec = CalibrationSpec(validation_cells=(8, 11, 26, 30))
    kinds = {v.kind for v in validate_spec(spec, CFG)}
    assert "overlap" in kinds
    assert "asymmetric-validation" in kinds


def test_validate_reports_size_mismatch_and_budget():
    spec = CalibrationSpec(
        frames_per_point=3,
        train_frames_per_point=3,
        val_frames_per_point=1,
        training_sets={2: (6, 31, 33)},
    )
    kinds = {v.kind for v in validate_spec(spec, CFG)}
    assert "size-mismatch" in kinds
    assert "frame-budget" in kinds


def test_validation_cells_mirror_about_midline():
    xs = sorted(cell_center(CFG, c).x_cm for c in VALIDATION_CELLS)
    assert xs == sorted(102.0 - x for x in xs)
    assert sum(xs) / len(xs) == pytest.approx(51.0)


def test_plan_structure_all_sizes():
    spec = CalibrationSpec()
    for size, cells in TRAINING_SETS.items():
        session = plan(spec, size, CFG)
        assert session.set_size == size
        assert tuple(e.cell for e in session.entries) == cells + VALIDATION_CELLS
        for entry in session.entries:
            assert len(entry.train_frames) == 3
            assert len(entry.val_frames) == 1
            picked = set(entry.train_frames) | set(entry.val_frames)
            assert len(picked) == 4  # no frame reused across splits
            assert picked <= set(range(10))
            assert entry.target == cell_center(CFG, entry.cell)


def test_plan_deterministic_and_seed_sensitive():
    spec = CalibrationSpec(seed=0)
    assert plan(spec, 8, CFG) == plan(spec, 8, CFG)
    other = plan(CalibrationSpec(seed=1), 8, CFG)
    assert plan(spec, 8, CFG) != other


def test_plan_unknown_size():
    with pytest.raises(UnknownSetSizeError):
        plan(CalibrationSpec(), 3, CFG)


def test_plan_rejects_overcommitted_budget():
    spec = CalibrationSpec(frames_per_point=3, train_frames_per_point=3, val_frames_per_point=1)
    with pytest.raises(ValueError):
        plan(spec, 2, CFG)


def test_ground_truth_records():
    session = plan(CalibrationSpec(), 2, CFG)
    records = emit_ground_truth(session, CFG)
    assert len(records) == (2 + 4) * 4  # 3 train + 1 val per cell
    # Train frames precede val frames within each cell block.
    for block_start in range(0, len(records), 4):
        block = records[block_start : block_start + 4]
        assert [r.split for r in block] == ["train", "train", "train", "val"]
        assert len({r.cell for r in block}) == 1
    # Camera coordinates are panel coordinates re-origined at the camera.
    for r in records:
        assert r.camera == (r.shelf[0] - 51.0, r.shelf[1] - 55.5)


def test_ground_truth_jsonl_bytes():
    session = plan(CalibrationSpec(), 2, CFG)
    out = ground_truth_jsonl(emit_ground_truth(session, CFG))
    lines = out.splitlines()
    assert len(lines) == 24
    assert lines[0] == '{"frame":7,"cell":6,"shelf":[93.5,11.5],"camera":[42.5,-44.0],"split":"train"}'
    first = json.loads(lines[0])
    assert list(first) == ["frame", "cell", "shelf", "camera", "split"]
    assert out.endswith("\n")
    assert ground_truth_jsonl([]) == ""
