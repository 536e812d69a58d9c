"""Values that calls return are NamedTuples: field order, repr, no
assignment, and no instance __dict__."""

import tracemalloc

import pytest

from shelfgaze.ear import EyeLandmarks
from shelfgaze.geometry import PersonSample, ShelfConfig, SplitResult, bisector_split
from shelfgaze.placement import distance_table

CFG = ShelfConfig()

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
