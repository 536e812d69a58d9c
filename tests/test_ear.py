"""Eye aspect ratio: value, classification, parsing, invariance."""

import io
import math
import random

import pytest

from shelfgaze.cli import main
from shelfgaze.ear import (
    OPEN_THRESHOLD,
    EyeLandmarks,
    batch_stats,
    classify,
    ear,
    landmarks_from_csv,
    landmarks_from_json,
)
from shelfgaze.errors import DegenerateEyeError, EmptyBatchError

# Comfortable open eye: width 4, both vertical gaps 2 -> EAR 0.5.
OPEN_EYE = EyeLandmarks(
    p1=(0.0, 0.0),
    p2=(1.0, 1.0),
    p3=(3.0, 1.0),
    p4=(4.0, 0.0),
    p5=(3.0, -1.0),
    p6=(1.0, -1.0),
)

# Narrow but genuinely open eye: width 3, gaps 0.2 -> EAR 0.0667, which a
# 0.2 threshold calls closed.
SQUINT_EYE = EyeLandmarks(
    p1=(0.0, 0.0),
    p2=(1.0, 0.1),
    p3=(2.0, 0.1),
    p4=(3.0, 0.0),
    p5=(2.0, -0.1),
    p6=(1.0, -0.1),
)


def test_known_values():
    assert ear(OPEN_EYE) == pytest.approx(0.5)
    assert ear(SQUINT_EYE) == pytest.approx(0.4 / 6.0)
    assert round(ear(SQUINT_EYE), 4) == 0.0667


def test_squint_misclassified_as_closed():
    # The landmarks describe an open (if narrow) eye, yet the standard
    # threshold reads it as closed. This is the known failure mode of a
    # fixed-threshold classifier on narrow eyes.
    assert classify(ear(SQUINT_EYE), OPEN_THRESHOLD) is False


def test_threshold_is_strict():
    assert classify(0.2, 0.2) is False
    assert classify(0.2 + 1e-12, 0.2) is True
    for bad in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^threshold must be positive and finite"):
            classify(0.5, bad)


def test_degenerate_eye_rejected():
    collapsed = EyeLandmarks(
        p1=(1.0, 1.0),
        p2=(1.0, 2.0),
        p3=(1.0, 2.0),
        p4=(1.0, 1.0),
        p5=(1.0, 0.0),
        p6=(1.0, 0.0),
    )
    with pytest.raises(DegenerateEyeError):
        ear(collapsed)


def test_from_flat_length_check():
    with pytest.raises(ValueError):
        EyeLandmarks.from_flat([0.0] * 11)
    e = EyeLandmarks.from_flat([0, 0, 1, 1, 3, 1, 4, 0, 3, -1, 1, -1])
    assert e == OPEN_EYE


def test_similarity_invariance():
    # EAR is a ratio of distances, so rotation + uniform scale + translation
    # must not change it.
    rng = random.Random(7)
    base = ear(OPEN_EYE)
    points = [OPEN_EYE.p1, OPEN_EYE.p2, OPEN_EYE.p3, OPEN_EYE.p4, OPEN_EYE.p5, OPEN_EYE.p6]
    for _ in range(200):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        scale = rng.uniform(0.1, 10.0)
        tx, ty = rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0)
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        moved = [
            (scale * (x * cos_t - y * sin_t) + tx, scale * (x * sin_t + y * cos_t) + ty)
            for x, y in points
        ]
        value = ear(EyeLandmarks(*moved))
        assert abs(value - base) / base < 1e-9


def test_reading_json_bytes(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0,0,1,1,3,1,4,0,3,-1,1,-1\n"))
    assert main(["ear", "--input", "-"]) == 0
    assert capsys.readouterr().out == '{"value":0.5,"open":true,"threshold":0.2}\n'
    monkeypatch.setattr("sys.stdin", io.StringIO("0,0,1,0.2,3,0.2,4,0,3,-0.2,1,-0.2\n"))
    assert main(["ear", "--input", "-", "--threshold", "0.15"]) == 0
    assert capsys.readouterr().out == '{"value":0.1,"open":false,"threshold":0.15}\n'


def test_batch_stats():
    values = [0.31, 0.05, 0.29, 0.25]
    stats = batch_stats(values, 0.2)
    assert stats.mean == pytest.approx(sum(values) / 4.0)
    assert stats.min == 0.05
    assert stats.fraction_open == pytest.approx(0.75)
    with pytest.raises(EmptyBatchError):
        batch_stats([], 0.2)


def test_csv_parsing():
    text = "0,0,1,1,3,1,4,0,3,-1,1,-1\n\n0,0,1,0.1,2,0.1,3,0,2,-0.1,1,-0.1\n"
    eyes = landmarks_from_csv(text)
    assert len(eyes) == 2
    assert ear(eyes[0]) == pytest.approx(0.5)
    with pytest.raises(ValueError, match="line 2"):
        landmarks_from_csv("0,0,1,1,3,1,4,0,3,-1,1,-1\n1,2,3\n")
    with pytest.raises(ValueError, match="^line 1: coordinates must be finite, got inf"):
        landmarks_from_csv("0,0,1,1,3,1,inf,0,3,-1,1,-1\n")


def test_json_parsing_accepts_both_shapes():
    flat = "[[0,0,1,1,3,1,4,0,3,-1,1,-1]]"
    pairs = "[[[0,0],[1,1],[3,1],[4,0],[3,-1],[1,-1]]]"
    assert landmarks_from_json(flat) == landmarks_from_json(pairs)
    with pytest.raises(ValueError):
        landmarks_from_json('{"not": "a list"}')
    with pytest.raises(ValueError, match="^coordinates must be finite, got nan"):
        landmarks_from_json("[[[0,0],[1,1],[3,1],[4,0],[3,-1],[1,NaN]]]")
