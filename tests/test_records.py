"""Values that calls return are NamedTuples: field order, repr, no
assignment, and no instance __dict__."""

import tracemalloc

import pytest

from shelfgaze.calibration import (
    CalibrationSpec,
    GroundTruthRecord,
    emit_ground_truth,
    ground_truth_jsonl,
    plan,
    plan_jsonl,
    validate_spec,
)
from shelfgaze.blink import EyeLandmarks
from shelfgaze.geometry import PersonSample, ShelfConfig, SplitResult, bisector_split
from shelfgaze.pipeline import FixedTime, SimConfig, simulate, sweep_processing_time
from shelfgaze.placement import PlacementResult, distance_table

CFG = ShelfConfig()
# One training cell, no validation cells, two frames: a one-entry plan.
ONE_CELL = plan(
    CalibrationSpec(frames_per_point=2, train_frames_per_point=1, validation_cells=(), training_sets={1: (6,)}), 1, CFG
)

RECORDS = [
    (
        SplitResult(1.0, 2.0, 3.0, 0.25, 0.5),
        ("ab_cm", "ac_cm", "db_cm", "alpha1_rad", "alpha2_rad"),
        "SplitResult(ab_cm=1.0, ac_cm=2.0, db_cm=3.0, alpha1_rad=0.25, alpha2_rad=0.5)",
    ),
    (
        distance_table(CFG, [48.8])[0],
        ("stature_cm", "distance_cm", "status"),
        "DistanceRow(stature_cm=48.8, distance_cm=None, status='no_valid_distance')",
    ),
    (
        EyeLandmarks.from_flat(range(12)),
        ("p1", "p2", "p3", "p4", "p5", "p6"),
        "EyeLandmarks(p1=(0.0, 1.0), p2=(2.0, 3.0), p3=(4.0, 5.0),"
        " p4=(6.0, 7.0), p5=(8.0, 9.0), p6=(10.0, 11.0))",
    ),
    (
        PlacementResult(50.0, 50.5, 1.5, 51.0, 0, 10),
        ("mean_db_cm", "median_db_cm", "std_db_cm", "residual_db_cm", "rejected_samples", "sample_count"),
        "PlacementResult(mean_db_cm=50.0, median_db_cm=50.5, std_db_cm=1.5, residual_db_cm=51.0,"
        " rejected_samples=0, sample_count=10)",
    ),
    (
        simulate(SimConfig(FixedTime(50.0), duration_s=0.01)),
        (
            "processed_count", "captured_count", "dropped_count", "in_flight_count", "effective_fps",
            "mean_skips", "skips_per_processed", "latency_mean_ms", "latency_p95_ms",
        ),
        "SimMetrics(processed_count=0, captured_count=1, dropped_count=0, in_flight_count=1, effective_fps=0.0,"
        " mean_skips=None, skips_per_processed={}, latency_mean_ms=None, latency_p95_ms=None)",
    ),
    (
        sweep_processing_time(SimConfig(FixedTime(50.0), duration_s=0.1), [50.0])[0],
        ("time_ms", "effective_fps", "mean_skips"),
        "SweepRow(time_ms=50.0, effective_fps=20.0, mean_skips=0.0)",
    ),
    (
        validate_spec(CalibrationSpec(frames_per_point=3), CFG)[0],
        ("kind", "detail"),
        "Violation(kind='frame-budget', detail='4 frames requested per point but only 3 recorded')",
    ),
    (
        ONE_CELL.entries[0],
        ("cell", "target", "train_frames", "val_frames"),
        "PlanEntry(cell=6, target=PlanePoint(x_cm=93.5, y_cm=11.5), train_frames=(0,), val_frames=(1,))",
    ),
    (
        ONE_CELL,
        ("set_size", "entries"),
        "CalibrationPlan(set_size=1, entries=(PlanEntry(cell=6, target=PlanePoint(x_cm=93.5, y_cm=11.5),"
        " train_frames=(0,), val_frames=(1,)),))",
    ),
    (
        emit_ground_truth(ONE_CELL, CFG)[0],
        ("frame", "cell", "shelf", "camera", "split"),
        "GroundTruthRecord(frame=0, cell=6, shelf=(93.5, 11.5), camera=(42.5, -44.0), split='train')",
    ),
]


@pytest.mark.parametrize("record, names, text", RECORDS, ids=[type(r[0]).__name__ for r in RECORDS])
def test_record_contract(record, names, text):
    assert isinstance(record, tuple)
    assert record._fields == names
    assert tuple(record) == tuple(getattr(record, name) for name in names)
    assert repr(record) == text
    with pytest.raises(AttributeError):
        setattr(record, names[0], 0.0)
    with pytest.raises(AttributeError):
        record.extra = 0.0


def test_split_memory_per_result():
    # Measured on Python 3.11.7: 2,000 splits peak at about 215 B each as
    # NamedTuples and 239 B as frozen dataclasses with an instance __dict__.
    people = [PersonSample.from_eye_height(100.0 + i * 0.05, 75.0 + i * 0.03, CFG) for i in range(2000)]
    bisector_split(CFG, people[0])
    tracemalloc.start()
    try:
        splits = [bisector_split(CFG, q) for q in people]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(splits) == 2000 and type(splits[0]) is SplitResult
    assert peak <= 228 * len(splits)


def test_landmarks_memory_per_record():
    # Measured on Python 3.10.13 to 3.13.0: 1,000 from_flat calls on float rows
    # peak at about 440 B each, list slot included, whether the twelve numbers
    # are unpacked or paired by list comprehensions; cls._make(zip(it, it))
    # over-allocates the 6-tuple and reads about 505 B.
    rows = [tuple(i * 12.0 + j + 0.5 for j in range(12)) for i in range(1000)]
    EyeLandmarks.from_flat(rows[0])
    tracemalloc.start()
    try:
        eyes = [EyeLandmarks.from_flat(row) for row in rows]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(eyes) == 1000 and type(eyes[0]) is EyeLandmarks
    assert peak <= 441 * len(eyes)


def test_ground_truth_memory_per_record():
    # Measured on Python 3.11.7: labelling and writing the 144 frames of set
    # size 32 peaks at about 313 B a record as NamedTuples and 366 B as
    # frozen dataclasses, whose instance __dict__ the JSON line was read from.
    # plan_jsonl, writing the same lines from the plan, peaks at 228.6 B a
    # line in this test on 3.11.7, and at 210.0-216.6 B in a bare 3.10 to
    # 3.13 interpreter, whose free lists supply the cells' dicts: each 78.75 B
    # line is held twice, in its cell's block and in the joined text.
    session = plan(CalibrationSpec(), 32, CFG)
    ground_truth_jsonl(emit_ground_truth(session, CFG))
    plan_jsonl(session, CFG)
    tracemalloc.start()
    try:
        records = emit_ground_truth(session, CFG)
        text = ground_truth_jsonl(records)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) == 144 == text.count("\n") and type(records[0]) is GroundTruthRecord
    assert peak <= 350 * len(records)
    tracemalloc.start()
    try:
        written = plan_jsonl(session, CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert written == text
    assert peak <= 240 * len(records)
