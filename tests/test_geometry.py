"""Side-view geometry: ray lengths, bisector split, angular imbalance."""

import math
import random

import pytest

from shelfgaze.errors import EyeBelowPanelBottomError
from shelfgaze.geometry import (
    MAX_EYE_HEIGHT_CM,
    PersonSample,
    ShelfConfig,
    angular_imbalance,
    bisector_split,
    eye_to_bottom,
    eye_to_top,
    validate_person,
)

CFG = ShelfConfig()


def person(eye_height_cm, distance_cm):
    return PersonSample.from_eye_height(eye_height_cm, distance_cm, CFG)


def test_default_config_derived_values():
    assert CFG.panel_bottom_height_cm == 43.0
    assert CFG.cell_width_cm == 17.0
    assert CFG.cell_height_cm == 23.0


def test_config_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        ShelfConfig(panel_height_cm=200.0)  # taller than the shelf
    with pytest.raises(ValueError):
        ShelfConfig(panel_width_cm=-1.0)
    with pytest.raises(ValueError):
        ShelfConfig(camera_drop_cm=139.0)  # below the panel
    with pytest.raises(ValueError):
        ShelfConfig(camera_x_cm=103.0)
    with pytest.raises(ValueError):
        ShelfConfig(grid_rows=0)
    with pytest.raises(ValueError):
        ShelfConfig(eye_crown_offset_cm=-0.1)
    # Non-finite values are rejected by name, before any range check.
    for name in ("shelf_height_cm", "panel_height_cm", "panel_width_cm", "camera_x_cm",
                 "camera_drop_cm", "eye_crown_offset_cm", "grid_rows", "grid_cols"):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                ShelfConfig(**{name: bad})


def test_config_scales_uniformly():
    # The geometry has no intrinsic length unit: scaling every dimension by k
    # scales the split point by k. Scale down so the absolute unit-mistake
    # guard on eye height stays out of the way.
    k = 0.37
    scaled = ShelfConfig(
        shelf_height_cm=181.0 * k,
        panel_height_cm=138.0 * k,
        panel_width_cm=102.0 * k,
        camera_x_cm=51.0 * k,
        camera_drop_cm=55.5 * k,
        eye_crown_offset_cm=4.8 * k,
    )
    base = bisector_split(CFG, person(160.2, 112.5))
    big = bisector_split(scaled, PersonSample.from_eye_height(160.2 * k, 112.5 * k, scaled))
    assert math.isclose(big.db_cm, base.db_cm * k, rel_tol=1e-12)


def test_person_constructors():
    p = PersonSample.from_stature(165.0, 112.5, CFG)
    assert p.eye_height_cm == pytest.approx(160.2)
    q = PersonSample.from_eye_height(160.2, 112.5, CFG)
    assert q.stature_cm == pytest.approx(165.0)
    with pytest.raises(ValueError):
        PersonSample(165.0, 160.2, 0.0)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="^stature_cm must be finite"):
            PersonSample(bad, 160.2, 112.5)
        with pytest.raises(ValueError, match="^eye_height_cm must be finite"):
            PersonSample(165.0, bad, 112.5)
        with pytest.raises(ValueError, match="^distance_cm must be finite"):
            PersonSample.from_stature(165.0, bad, CFG)


def test_validate_person_bounds():
    with pytest.raises(EyeBelowPanelBottomError):
        validate_person(CFG, person(43.0, 100.0))  # exactly at the panel bottom
    with pytest.raises(ValueError):
        validate_person(CFG, person(MAX_EYE_HEIGHT_CM, 100.0))
    validate_person(CFG, person(43.001, 100.0))
    validate_person(CFG, person(249.999, 100.0))


def test_ray_lengths_frozen():
    p = person(170.0, 111.4)
    assert eye_to_top(CFG, p) == pytest.approx(111.94177057738545, rel=1e-12)
    assert eye_to_bottom(CFG, p) == pytest.approx(168.9347803147712, rel=1e-12)
    # Pythagorean sanity: never shorter than the horizontal distance.
    assert eye_to_top(CFG, p) >= p.distance_cm
    assert eye_to_bottom(CFG, p) >= p.distance_cm


def test_bisector_split_frozen_values():
    r = bisector_split(CFG, person(160.2, 112.5))
    assert r.db_cm == pytest.approx(57.025013861164574, rel=1e-12)
    assert r.ab_cm == pytest.approx(math.hypot(112.5, 181.0 - 160.2), rel=1e-12)
    assert r.ac_cm == pytest.approx(math.hypot(112.5, 160.2 - 43.0), rel=1e-12)
    # Split point stays inside the panel and follows the section formula.
    assert 0.0 < r.db_cm < CFG.panel_height_cm
    assert r.db_cm == pytest.approx(CFG.panel_height_cm * r.ab_cm / (r.ab_cm + r.ac_cm))

    tall = bisector_split(CFG, person(170.0, 114.5))
    assert tall.db_cm == pytest.approx(55.49834131145965, rel=1e-12)
    assert abs(tall.db_cm - 55.3) <= 0.2


def test_bisector_split_symmetric_eye():
    # Eye level exactly mid-panel (43 + 69 = 112): the bisector is the
    # midline at any distance.
    for d in (50.0, 75.0, 112.5, 300.0):
        assert bisector_split(CFG, person(112.0, d)).db_cm == pytest.approx(69.0, abs=1e-12)


def test_bisector_split_zero_imbalance():
    # The returned drop is the zero of the signed imbalance by definition.
    for eye, d in ((150.0, 80.0), (160.2, 112.5), (175.0, 140.0), (50.0, 100.0)):
        r = bisector_split(CFG, person(eye, d))
        assert abs(angular_imbalance(CFG, person(eye, d), r.db_cm)) < 1e-12


def test_split_alphas_at_configured_camera():
    # alpha1/alpha2 describe the configured camera drop, not the ideal one.
    p = person(160.2, 112.5)
    r = bisector_split(CFG, p)
    assert r.alpha1_rad - r.alpha2_rad == pytest.approx(angular_imbalance(CFG, p, 55.5))
    assert r.alpha1_rad + r.alpha2_rad > 0  # the sum is the full top-to-bottom cone angle


def test_transposed_numerator_variant_is_not_a_bisector():
    p = person(160.2, 112.5)
    # The bisector ratio with the eye-to-bottom distance in the numerator.
    top, bottom = eye_to_top(CFG, p), eye_to_bottom(CFG, p)
    swapped = CFG.panel_height_cm * bottom / (top + bottom)
    assert swapped == pytest.approx(80.97498613883543, rel=1e-12)
    # The two variants mirror each other about the panel midline.
    assert swapped + bisector_split(CFG, p).db_cm == pytest.approx(CFG.panel_height_cm)
    # A camera at the swapped drop visibly fails to split the cone evenly.
    assert abs(angular_imbalance(CFG, p, swapped)) > 0.1


def test_eye_below_panel_rejected():
    with pytest.raises(EyeBelowPanelBottomError):
        bisector_split(CFG, person(42.0, 100.0))
    with pytest.raises(EyeBelowPanelBottomError):
        angular_imbalance(CFG, person(42.0, 100.0), 55.5)


def test_imbalance_frozen_signs():
    p = person(160.2, 112.5)
    high = angular_imbalance(CFG, p, 24.5)
    near = angular_imbalance(CFG, p, 55.5)
    # Camera above the bisector sees alpha1 < alpha2, so the signed value is
    # negative; magnitude shrinks as the drop approaches the bisector.
    assert high == pytest.approx(-0.5572783737840685, rel=1e-12)
    assert near == pytest.approx(-0.024660703452721755, rel=1e-12)
    assert high < near < 0.0


def test_imbalance_monotone_in_drop():
    p = person(160.2, 112.5)
    drops = [i * 1.38 for i in range(101)]
    values = [angular_imbalance(CFG, p, d) for d in drops]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[0] < 0 < values[-1]


def test_imbalance_rejects_drop_outside_panel():
    p = person(160.2, 112.5)
    with pytest.raises(ValueError):
        angular_imbalance(CFG, p, -0.1)
    with pytest.raises(ValueError):
        angular_imbalance(CFG, p, 138.1)


def test_closed_form_matches_bisection_root():
    # Independent root finder on the signed imbalance recovers the closed form.
    from scipy.optimize import bisect

    rng = random.Random(20260815)
    for _ in range(200):
        p = person(rng.uniform(44.0, 240.0), rng.uniform(20.0, 300.0))
        root = bisect(
            lambda drop: angular_imbalance(CFG, p, drop),
            0.0,
            CFG.panel_height_cm,
            xtol=1e-12,
        )
        assert abs(root - bisector_split(CFG, p).db_cm) < 1e-9
