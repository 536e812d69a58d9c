"""Population sampling, drop optimization, and the distance table."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from shelfgaze.cli import main
from shelfgaze.errors import AllSamplesRejectedError, NoValidDistanceError
from shelfgaze.geometry import PersonSample, ShelfConfig, angular_imbalance
from shelfgaze.placement import (
    RESIDUAL_GRID_STEP_CM,
    RESIDUAL_REFINE_TOL_CM,
    STATUS_NO_DISTANCE,
    STATUS_OK,
    PopulationSpec,
    _golden_min,
    distance_table,
    imbalance_sweep,
    optimize_camera_drop,
    recommended_distance,
    sample_population,
)

CFG = ShelfConfig()


def test_population_spec_validation():
    with pytest.raises(ValueError):
        PopulationSpec(height_std_cm=0.0)
    with pytest.raises(ValueError):
        PopulationSpec(distance_min_cm=150.0, distance_max_cm=75.0)
    with pytest.raises(ValueError):
        PopulationSpec(distance_min_cm=0.0)
    with pytest.raises(ValueError):
        PopulationSpec(sample_count=0)
    for field in ("height_mean_cm", "height_std_cm", "distance_min_cm", "distance_max_cm"):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"^{field} must be finite"):
                PopulationSpec(**{field: bad})
    for bad in (-1, 2**128):
        with pytest.raises(ValueError, match=r"^seed must be in \[0, 2\*\*128\)"):
            PopulationSpec(seed=bad)
    PopulationSpec(seed=2**128 - 1)


def test_import_does_not_load_scipy():
    # scipy is needed only to sample a population; the CLI's other
    # subcommands should not pay for importing it.
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import shelfgaze, sys; assert 'scipy.special' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_sampling_reproducible_and_seed_sensitive():
    pop = PopulationSpec(sample_count=5000)
    eye_a, dist_a, rej_a = sample_population(CFG, pop)
    eye_b, dist_b, rej_b = sample_population(CFG, pop)
    assert np.array_equal(eye_a, eye_b)
    assert np.array_equal(dist_a, dist_b)
    assert rej_a == rej_b
    eye_c, _, _ = sample_population(CFG, PopulationSpec(sample_count=5000, seed=1))
    assert not np.array_equal(eye_a, eye_c)


def test_sampling_respects_bounds():
    pop = PopulationSpec(sample_count=20000)
    eye, dist, rejected = sample_population(CFG, pop)
    assert eye.size + rejected == pop.sample_count
    assert np.all(dist >= pop.distance_min_cm)
    assert np.all(dist <= pop.distance_max_cm)
    assert np.all(eye > CFG.panel_bottom_height_cm)
    # Sample moments land near the population parameters.
    assert abs(eye.mean() - (165.0 - 4.8)) < 0.2
    assert abs(dist.mean() - 112.5) < 1.0


def test_sampling_rejects_degenerate_eyes():
    # A population centered below the panel bottom is rejected, not clamped.
    short = PopulationSpec(height_mean_cm=30.0, height_std_cm=0.1, sample_count=200)
    with pytest.raises(AllSamplesRejectedError):
        optimize_camera_drop(CFG, short)
    mixed = PopulationSpec(height_mean_cm=48.0, height_std_cm=2.0, sample_count=2000)
    eye, _, rejected = sample_population(CFG, mixed)
    assert 0 < rejected < 2000
    assert np.all(eye > CFG.panel_bottom_height_cm)
    # Eyes that overflow to -inf are below the panel too, with no RuntimeWarning.
    far = PopulationSpec(height_mean_cm=-1e308, sample_count=200)
    with pytest.raises(AllSamplesRejectedError):
        optimize_camera_drop(ShelfConfig(eye_crown_offset_cm=1e308), far)


def test_optimize_frozen_default_seed():
    result = optimize_camera_drop(CFG, PopulationSpec(sample_count=100_000, seed=0))
    assert result.mean_db_cm == pytest.approx(56.52322680671663, rel=1e-12)
    assert result.median_db_cm == pytest.approx(57.104438575432674, rel=1e-12)
    assert result.std_db_cm == pytest.approx(3.5376877298337708, rel=1e-12)
    assert result.residual_db_cm == pytest.approx(55.517678116363, abs=1e-3)
    assert result.rejected_samples == 0
    assert result.sample_count == 100_000


def _exhaustive_residual_drop(cfg, pop):
    """The residual estimator as a scan of every 0.1 cm drop: the reference
    that the coarse-to-fine search must match exactly."""
    eye, distance, _ = sample_population(cfg, pop)
    top, bottom = cfg.shelf_height_cm, cfg.panel_bottom_height_cm
    theta_sum = np.arctan2(top - eye, distance) + np.arctan2(bottom - eye, distance)

    def mean_sq_residual(drop):
        r = theta_sum - 2.0 * np.arctan2(top - drop - eye, distance)
        return float(np.mean(r * r))

    grid = np.arange(0.0, cfg.panel_height_cm + RESIDUAL_GRID_STEP_CM / 2, RESIDUAL_GRID_STEP_CM)
    best = int(np.argmin([mean_sq_residual(drop) for drop in grid]))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    return _golden_min(mean_sq_residual, float(lo), float(hi), RESIDUAL_REFINE_TOL_CM)


@settings(max_examples=50, deadline=None)
@given(
    shelf=st.floats(min_value=120.0, max_value=260.0),
    panel=st.floats(min_value=30.0, max_value=200.0),
    mean=st.floats(min_value=60.0, max_value=260.0),
    std=st.floats(min_value=0.1, max_value=60.0),
    dist_a=st.floats(min_value=1.0, max_value=1200.0),
    dist_b=st.floats(min_value=1.0, max_value=1200.0),
    samples=st.integers(min_value=1, max_value=500),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# Shoppers 4 cm from the shelf with a 60 cm stature spread: the residual curve
# has several local minima, and a search that only refines around the
# coarse best point returns 110.15 cm here instead of 73.40 cm.
@example(200.12194678244174, 163.48325865314436, 92.14461510456644, 59.97594061747089,
         3.979919236495098, 4.203434661477764, 66, 3687684159)
def test_residual_drop_matches_exhaustive_scan(shelf, panel, mean, std, dist_a, dist_b, samples, seed):
    assume(dist_a != dist_b and panel <= shelf)
    cfg = ShelfConfig(shelf_height_cm=shelf, panel_height_cm=panel, camera_drop_cm=0.0)
    pop = PopulationSpec(
        height_mean_cm=mean,
        height_std_cm=std,
        distance_min_cm=min(dist_a, dist_b),
        distance_max_cm=max(dist_a, dist_b),
        sample_count=samples,
        seed=seed,
    )
    assume(sample_population(cfg, pop)[0].size > 0)
    assert optimize_camera_drop(cfg, pop).residual_db_cm == _exhaustive_residual_drop(cfg, pop)


def test_optimize_estimators_agree():
    # Mean-of-per-person-optima and the shared minimum-residual drop answer
    # the same question two ways; they should land close together.
    result = optimize_camera_drop(CFG, PopulationSpec(sample_count=20000, seed=3))
    assert abs(result.mean_db_cm - result.residual_db_cm) < 2.0
    assert 0.0 < result.residual_db_cm < CFG.panel_height_cm


def test_optimize_result_as_dict_round_trips():
    result = optimize_camera_drop(CFG, PopulationSpec(sample_count=1000))
    d = result.as_dict()
    assert set(d) == {
        "mean_db_cm",
        "median_db_cm",
        "std_db_cm",
        "residual_db_cm",
        "rejected_samples",
        "sample_count",
    }
    assert d["mean_db_cm"] == result.mean_db_cm


def test_recommended_distance_frozen():
    assert recommended_distance(CFG, 174.8) == pytest.approx(114.51055264326806, rel=1e-12)


def test_recommended_distance_puts_camera_on_bisector():
    for stature in (150.0, 165.0, 174.8, 180.0):
        d = recommended_distance(CFG, stature)
        p = PersonSample.from_stature(stature, d, CFG)
        assert abs(angular_imbalance(CFG, p, CFG.camera_drop_cm)) < 1e-12


def test_recommended_distance_failures():
    with pytest.raises(NoValidDistanceError):
        recommended_distance(CFG, 45.0)  # eye below the panel bottom
    with pytest.raises(NoValidDistanceError):
        recommended_distance(CFG, 48.8)  # eye barely above: no real solution
    with pytest.raises(NoValidDistanceError):
        recommended_distance(CFG, 260.0)  # unit-mistake guard
    mid = ShelfConfig(camera_drop_cm=69.0)  # camera exactly mid-panel
    with pytest.raises(NoValidDistanceError):
        recommended_distance(mid, 174.8)


def test_distance_table_values_and_monotonicity():
    statures = [150.0, 155.0, 160.0, 165.0, 170.0, 175.0, 180.0]
    rows = distance_table(CFG, statures)
    expected_mm = [793.315, 881.324, 958.705, 1027.862, 1090.359, 1147.286, 1199.437]
    for row, mm in zip(rows, expected_mm):
        assert row.status == STATUS_OK
        assert row.distance_cm * 10.0 == pytest.approx(mm, abs=5e-4)
    distances = [row.distance_cm for row in rows]
    assert distances == sorted(distances)
    assert all(a < b for a, b in zip(distances, distances[1:]))


def test_distance_table_marks_unreachable_rows():
    rows = distance_table(CFG, [48.8, 165.0])
    assert rows[0].status == STATUS_NO_DISTANCE
    assert rows[0].distance_cm is None
    assert rows[1].status == STATUS_OK
    with pytest.raises(ValueError):
        distance_table(CFG, [])


def test_distance_table_csv_format(capsys):
    assert main(["distance-table", "--statures", "150,48.8"]) == 0
    csv = capsys.readouterr().out
    lines = csv.splitlines()
    assert lines[0] == "stature_mm,distance_mm,status"
    assert lines[1] == "1500,793.315,ok"
    assert lines[2] == "488,,no_valid_distance"
    assert csv.endswith("\n")


def test_imbalance_sweep_csv(capsys):
    p = PersonSample.from_eye_height(160.2, 112.5, CFG)
    rows = imbalance_sweep(CFG, p, [24.5, 55.5])
    assert rows[0] == (24.5, pytest.approx(-0.5572783737840685))
    argv = ["sweep", "--stature", "165", "--distance", "112.5", "--start", "24.5", "--stop", "55.5", "--step", "31"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "drop_cm,residual_rad"
    assert lines[1].startswith("24.5,-0.557278")
    assert len(lines) == 3
