"""Eye aspect ratio: value, classification, parsing, invariance."""

import io
import math
import re
import sys
from fractions import Fraction
from itertools import repeat

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shelfgaze.cli import landmarks_from_csv, landmarks_from_json, main
from shelfgaze.blink import OPEN_THRESHOLD, EyeLandmarks, batch_stats, classify, ear
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


def test_classify_rejects_non_finite_value():
    # The value is checked before the threshold.
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^value must be finite, got {bad}$"):
            classify(bad)
        with pytest.raises(ValueError, match="^value must be finite"):
            classify(bad, math.nan)


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


def test_ear_rejects_non_finite_landmarks():
    finite = [0.0, 0.0, 1.0, 1.0, 3.0, 1.0, 4.0, 0.0, 3.0, -1.0, 1.0, -1.0]
    nan_lid = finite[:11] + [math.nan]
    inf_corner = [math.inf] + finite[1:]
    # Finite landmarks whose ratio overflows at any scale: gaps of 1e308 over
    # a width of 1e-300.
    narrow = [0.0, 0.0, 1e308, 0.0, 0.0, 0.0, 1e-300, 0.0, 0.0, 0.0, 0.0, 0.0]
    for coords in (nan_lid, inf_corner, narrow):
        with pytest.raises(ValueError, match="^eye width .* and aspect ratio .* must be finite$"):
            ear(EyeLandmarks.from_flat(coords))
    assert ear(EyeLandmarks.from_flat(finite)) == 0.5


@pytest.mark.parametrize("coords, value", [
    # 2 * width overflows, and the gaps over it read 0.0.
    ([1e308, 0, -1e308, 1, 3, 1, 4, 0, 3, -1, 1, -1], 0.5),
    # 2 * width and the gap sum overflow, and their ratio reads NaN.
    ([-8e307, 0, 0, 5e307, 1, 5e307, 8e307, 0, 1, -5e307, 0, -5e307], 0.625),
    # The width and each gap overflow: coordinate differences reach 2e308.
    ([-1e308, 0, 0, 1e308, 0, 1e308, 1e308, 0, 0, -1e308, 0, -1e308], 1.0),
    # Corners near opposite ends of the float range: at 2**-2 scale, 2 * width still overflows.
    ([-1.7e308, -1.7e308, 0, 1.7e308, 1, 1.7e308, 1.7e308, 1.7e308, 1, -1.7e308, 0, -1.7e308], 0.5 ** 0.5),
    # Only the gap sum overflows, over a width of 0.75: the ratio is near the top of the float range.
    ([0, 0, 0, 5e307, 1, 5e307, 0.75, 0, 1, -5e307, 0, -5e307], 1e308 / 0.75),
])
def test_an_eye_too_wide_for_its_own_scale_is_measured_at_an_eighth(coords, value, capsys, monkeypatch):
    eye = EyeLandmarks.from_flat(coords)
    assert ear(eye) == pytest.approx(value, rel=1e-15)
    assert ear(eye) == ear(EyeLandmarks(*((x / 8, y / 8) for x, y in eye)))
    monkeypatch.setattr("sys.stdin", io.StringIO(",".join(map(repr, map(float, coords))) + "\n"))
    assert main(["ear", "--input", "-"]) == 0
    assert capsys.readouterr().out == f'{{"value":{ear(eye)!r},"open":true,"threshold":0.2}}\n'


def test_from_flat_length_check():
    with pytest.raises(ValueError):
        EyeLandmarks.from_flat([0.0] * 11)
    e = EyeLandmarks.from_flat([0, 0, 1, 1, 3, 1, 4, 0, 3, -1, 1, -1])
    assert e == OPEN_EYE


def _reference_from_flat(values):
    """``EyeLandmarks.from_flat`` as the two list comprehensions wrote it."""
    if len(values) != 12:
        raise ValueError(f"expected 12 coordinates, got {len(values)}")
    coords = [float(v) for v in values]
    return [(coords[i], coords[i + 1]) for i in range(0, 12, 2)]


def _reference_ear(points):
    """``ear`` as three ``_dist`` calls wrote it."""

    def dist(a, b):
        return math.hypot(a[0] - b[0], a[1] - b[1])

    p1, p2, p3, p4, p5, p6 = points
    width = dist(p1, p4)
    if width == 0:
        raise DegenerateEyeError("eye corners coincide; aspect ratio undefined")
    value = (dist(p2, p6) + dist(p3, p5)) / (2.0 * width)
    if not (width < math.inf and value < math.inf):
        raise ValueError(f"eye width {width} and aspect ratio {value} must be finite")
    return value


def _outcome(call, *args):
    """A float's hex, or the exception's type and message."""
    try:
        result = call(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return result.hex() if isinstance(result, float) else result


ANY_FLOAT = st.one_of(st.floats(), st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308]))


def _reference_overflows(points):
    """Whether the reference's doubled width or gap sum overflows on finite
    landmarks, where it reads 0.0 or NaN: ``ear`` measures such an eye at
    2**-3 of its scale, which ``test_ear_is_scale_invariant`` checks."""
    p1, p2, p3, p4, p5, p6 = points
    if not all(math.isfinite(c) for p in points for c in p):
        return False
    gaps = math.hypot(p2[0] - p6[0], p2[1] - p6[1]) + math.hypot(p3[0] - p5[0], p3[1] - p5[1])
    return not (2.0 * math.hypot(p1[0] - p4[0], p1[1] - p4[1]) < math.inf and gaps < math.inf)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(ANY_FLOAT, min_size=12, max_size=12), same_corners=st.booleans())
def test_ear_matches_reference_bit_for_bit(values, same_corners):
    if same_corners:  # p4 = p1: a degenerate eye unless a corner is NaN or infinite
        values[6:8] = values[0:2]
    eye = EyeLandmarks.from_flat(values)
    assert [c.hex() for p in eye for c in p] == [c.hex() for p in _reference_from_flat(values) for c in p]
    if not _reference_overflows(_reference_from_flat(values)):
        assert _outcome(ear, eye) == _outcome(_reference_ear, _reference_from_flat(values))


# Zero, or a normal float whose exponent is at least -960: a nonzero
# difference of two is then normal, at 2**-3 of their scale too.
NORMAL_EXPONENT = -960


@st.composite
def _scaled_pair(draw):
    """Twelve coordinates and a power of two that keeps each nonzero one at
    an exponent from NORMAL_EXPONENT to the largest finite."""
    coords = draw(st.lists(st.one_of(st.just(0.0), st.builds(
        lambda sign, mantissa, exponent: math.copysign(math.ldexp(mantissa, exponent), sign),
        st.sampled_from([1.0, -1.0]), st.floats(0.5, 1.0, exclude_max=True), st.integers(NORMAL_EXPONENT + 1, 1024),
    )), min_size=12, max_size=12))
    if draw(st.booleans()):  # p4 = p1: a degenerate eye
        coords[6:8] = coords[0:2]
    exponents = [math.frexp(c)[1] for c in coords if c]
    power = draw(st.integers(NORMAL_EXPONENT + 1 - min(exponents, default=0), 1024 - max(exponents, default=0)))
    return coords, power


@settings(max_examples=300, deadline=None)
@given(pair=_scaled_pair())
@example(pair=([1e308, 0, -1e308, 1, 3, 1, 4, 0, 3, -1, 1, -1], -3))
@example(pair=([-8e307, 0, 0, 5e307, 1, 5e307, 8e307, 0, 1, -5e307, 0, -5e307], -3))
@example(pair=([-1.7e308, -1.7e308, 0, 1.7e308, 1, 1.7e308, 1.7e308, 1.7e308, 1, -1.7e308, 0, -1.7e308], -1))
@example(pair=([0, 0, 0, 5e307, 1, 5e307, 0.75, 0, 1, -5e307, 0, -5e307], -10))
# The ratio overflows at both scales; scaled, the gap sum overflows too, over a width of 0.5.
@example(pair=([0, 0, math.ldexp(3, 64), 0, math.ldexp(3, 64), 0, math.ldexp(1, -959), 0, 0, 0, 0, 0], 958))
def test_ear_is_scale_invariant(pair):
    # The ratio is unit-free: scaling every landmark by a power of two that
    # keeps them normal and finite gives the same bits, or the same error.
    coords, power = pair
    eye = EyeLandmarks.from_flat(coords)
    scaled = EyeLandmarks.from_flat([math.ldexp(c, power) for c in coords])
    outcome, scaled_outcome = _outcome(ear, eye), _outcome(ear, scaled)
    if isinstance(outcome, tuple):
        assert isinstance(scaled_outcome, tuple) and scaled_outcome[0] is outcome[0]
    else:
        assert scaled_outcome == outcome


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(ANY_FLOAT, min_size=11, max_size=13),
    junk=st.sampled_from(["", "x", "1,2", None, [1.0], object()]),
    where=st.integers(0, 12),
)
def test_from_flat_errors_match_reference(values, junk, where):
    if len(values) != 12:
        assert _outcome(EyeLandmarks.from_flat, values) == _outcome(_reference_from_flat, values)
    values = values[:where] + [junk] + values[where + 1 :]
    expected = _outcome(_reference_from_flat, values)
    assert isinstance(expected, tuple) and expected[0] in (TypeError, ValueError)
    assert _outcome(EyeLandmarks.from_flat, values) == expected


@settings(max_examples=200, deadline=None)
@given(
    theta=st.floats(0.0, 2.0 * math.pi),
    scale=st.floats(0.1, 10.0),
    tx=st.floats(-100.0, 100.0),
    ty=st.floats(-100.0, 100.0),
)
def test_similarity_invariance(theta, scale, tx, ty):
    # EAR is a ratio of distances, so rotation + uniform scale + translation
    # must not change it.
    base = ear(OPEN_EYE)
    points = [OPEN_EYE.p1, OPEN_EYE.p2, OPEN_EYE.p3, OPEN_EYE.p4, OPEN_EYE.p5, OPEN_EYE.p6]
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    moved = [(scale * (x * cos_t - y * sin_t) + tx, scale * (x * sin_t + y * cos_t) + ty) for x, y in points]
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
    # The float mean (0x1.999999999999bp-3), not the exact one (...ap-3).
    assert batch_stats([0.1, 0.2, 0.3]).mean == (0.1 + 0.2 + 0.3) / 3
    assert stats.min == 0.05
    assert stats.fraction_open == pytest.approx(0.75)
    with pytest.raises(EmptyBatchError):
        batch_stats([], 0.2)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^value must be finite, got {bad}$"):
            batch_stats([0.3, bad])
    # Finite readings whose sum overflows still have a finite mean.
    assert batch_stats([1e308, 1e308]) == (1e308, 1e308, 1.0)
    assert batch_stats([-1e308, -1e308, 1e308]) == (-1e308 / 3, -1e308, 1 / 3)
    top = sys.float_info.max
    assert batch_stats([top] * 3) == (top, top, 1.0)


def _reference_mean(values):
    """The float mean, or the exact one when the float sum overflows."""
    mean = sum(values) / len(values)
    if not -math.inf < mean < math.inf:
        mean = float(sum(map(Fraction, values)) / len(values))
    return mean


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(st.one_of(ANY_FLOAT, st.floats(0.0, 1.0)), min_size=1, max_size=8),
    threshold=st.one_of(ANY_FLOAT, st.floats(1e-3, 1.0)),
)
def test_batch_stats_leaves_the_reading_rule_to_classify(values, threshold):
    # Any floats, NaN, inf and subnormals included: batch_stats raises what
    # the first failing classify(v, threshold) raises, or returns the float
    # mean and min and the fraction that classify calls open.
    for v in values:
        try:
            classify(v, threshold)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$") as raised:
                batch_stats(values, threshold)
            assert raised.type is type(exc)
            return
    mean, low, fraction_open = batch_stats(values, threshold)
    assert fraction_open == sum(map(classify, values, repeat(threshold))) / len(values)
    assert (mean.hex(), low.hex()) == (_reference_mean(values).hex(), min(values).hex())


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
