"""End-to-end acceptance checks for the toolkit's headline numbers.

Each criterion prints one PASS/FAIL line directly to the terminal (bypassing
capture) so a full run reads as a checklist.
"""

import math
import random
import time

import numpy as np
import pytest
from scipy.optimize import bisect

from shelfgaze.calibration import TRAINING_SETS, VALIDATION_CELLS, CalibrationSpec, plan
from shelfgaze.ear import EyeLandmarks, classify, ear
from shelfgaze.geometry import (
    PersonSample,
    ShelfConfig,
    angular_imbalance,
    bisector_split,
    eye_to_bottom,
    eye_to_top,
)
from shelfgaze.grid import GazeRay, PlanePoint, cell_center, point_to_cell, ray_to_cell
from shelfgaze.pipeline import FixedTime, SimConfig, UniformTime, simulate
from shelfgaze.placement import PopulationSpec, distance_table, optimize_camera_drop

CFG = ShelfConfig()


def _criterion(capsys, number, name):
    class Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            with capsys.disabled():
                print(f"{verdict}: criterion {number} - {name}", flush=True)
            return False

    return Reporter()


def test_criterion_1_population_mean_drop(capsys):
    with _criterion(capsys, 1, "population mean camera drop 55.5 +/- 2.0 cm in under 5 s"):
        start = time.perf_counter()
        result = optimize_camera_drop(CFG, PopulationSpec())
        elapsed = time.perf_counter() - start
        assert abs(result.mean_db_cm - 55.5) <= 2.0
        assert elapsed <= 5.0


def test_criterion_2_closed_form_matches_root_finder(capsys):
    with _criterion(capsys, 2, "closed-form drop equals the imbalance root; swapped form fails"):
        rng = random.Random(1337)
        for _ in range(1000):
            p = PersonSample.from_eye_height(
                rng.uniform(44.0, 240.0), rng.uniform(20.0, 300.0), CFG
            )
            root = bisect(
                lambda drop: angular_imbalance(CFG, p, drop), 0.0, 138.0, xtol=1e-12
            )
            assert abs(root - bisector_split(CFG, p).db_cm) < 1e-9

        # Negative control: the transposed-numerator variant is not a
        # bisector. Its drop leaves a visible imbalance for the mean person
        # and lands far from the root-finder answer.
        p = PersonSample.from_eye_height(160.2, 112.5, CFG)
        top, bottom = eye_to_top(CFG, p), eye_to_bottom(CFG, p)
        swapped = CFG.panel_height_cm * bottom / (top + bottom)
        true_root = bisect(lambda d: angular_imbalance(CFG, p, d), 0.0, 138.0, xtol=1e-12)
        assert abs(swapped - true_root) > 20.0
        assert abs(angular_imbalance(CFG, p, swapped)) > 0.1


def test_criterion_3_distance_table(capsys):
    with _criterion(capsys, 3, "distance table within 10% of reference, strictly increasing"):
        reference_mm = [851.453, 928.174, 996.515, 1058.101, 1114.053, 1165.182, 1212.100]
        statures_cm = [150.0, 155.0, 160.0, 165.0, 170.0, 175.0, 180.0]
        rows = distance_table(CFG, statures_cm)
        for row, ref in zip(rows, reference_mm):
            assert row.status == "ok"
            assert abs(row.distance_cm * 10.0 - ref) / ref < 0.10
        distances = [row.distance_cm for row in rows]
        assert all(a < b for a, b in zip(distances, distances[1:]))


def test_criterion_4_imbalance_smaller_at_recommended_drop(capsys):
    with _criterion(capsys, 4, "mean person: |imbalance| at drop 55.5 < at drop 24.5"):
        p = PersonSample.from_eye_height(160.2, 112.5, CFG)
        assert abs(angular_imbalance(CFG, p, 55.5)) < abs(angular_imbalance(CFG, p, 24.5))


def test_criterion_5_pipeline_rates(capsys):
    with _criterion(capsys, 5, "pipeline: 12 fps at fixed 83.33 ms; 10-15 fps, skips 1-5 uniform"):
        start = time.perf_counter()
        fixed = simulate(SimConfig(processing_time=FixedTime(83.33)))
        assert abs(fixed.effective_fps - 12.0) <= 0.1
        assert abs(fixed.mean_skips - 1.5) <= 0.1

        uniform = simulate(SimConfig(processing_time=UniformTime(66.7, 100.0), seed=0))
        assert 10.0 <= uniform.effective_fps <= 15.0
        assert uniform.skips_per_processed  # nonempty
        assert set(uniform.skips_per_processed) <= {1, 2, 3, 4, 5}
        assert time.perf_counter() - start < 1.0


def test_criterion_6_grid_partition_and_rays(capsys):
    with _criterion(capsys, 6, "grid: center round-trip, gapless 1 mm tiling, 1000 ray lookups"):
        for index in range(1, 37):
            assert point_to_cell(CFG, cell_center(CFG, index)) == index

        # Ownership factorizes per axis, so exhaustive axis counts on the
        # 1 mm lattice prove the 2D tiling has no gaps or overlaps.
        cols = [point_to_cell(CFG, PlanePoint(i / 10.0, 0.0)) - 1 for i in range(1021)]
        rows = [(point_to_cell(CFG, PlanePoint(0.0, j / 10.0)) - 1) // 6 for j in range(1381)]
        assert [cols.count(c) for c in range(6)] == [170] * 5 + [171]
        assert [rows.count(r) for r in range(6)] == [230] * 5 + [231]

        rng = random.Random(2025)
        for _ in range(1000):
            col, row = rng.randrange(6), rng.randrange(6)
            target = PlanePoint(
                (col + rng.uniform(0.05, 0.95)) * 17.0,
                (row + rng.uniform(0.05, 0.95)) * 23.0,
            )
            eye = (
                rng.uniform(-50.0, 150.0),
                rng.uniform(-50.0, 200.0),
                rng.uniform(10.0, 300.0),
            )
            hit, cell = ray_to_cell(CFG, GazeRay.aimed_at(eye, target))
            assert cell == point_to_cell(CFG, target) == row * 6 + col + 1
            assert math.isclose(hit.x_cm, target.x_cm, abs_tol=1e-9)
            assert math.isclose(hit.y_cm, target.y_cm, abs_tol=1e-9)


def test_criterion_7_ear_invariance_and_squint(capsys):
    with _criterion(capsys, 7, "EAR similarity-invariant; narrow open eye reads closed at 0.2"):
        base_points = [(0.0, 0.0), (1.0, 1.0), (3.0, 1.0), (4.0, 0.0), (3.0, -1.0), (1.0, -1.0)]
        base = ear(EyeLandmarks(*base_points))
        rng = random.Random(31415)
        for _ in range(1000):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            scale = rng.uniform(0.1, 10.0)
            tx, ty = rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0)
            cos_t, sin_t = math.cos(theta), math.sin(theta)
            moved = [
                (scale * (x * cos_t - y * sin_t) + tx, scale * (x * sin_t + y * cos_t) + ty)
                for x, y in base_points
            ]
            assert abs(ear(EyeLandmarks(*moved)) - base) / base < 1e-9

        # Narrow but open eye: EAR 0.0667 falls under the 0.2 threshold, so
        # the classifier calls a truly open eye closed.
        squint = EyeLandmarks(
            p1=(0.0, 0.0), p2=(1.0, 0.1), p3=(2.0, 0.1),
            p4=(3.0, 0.0), p5=(2.0, -0.1), p6=(1.0, -0.1),
        )
        value = ear(squint)
        assert round(value, 4) == 0.0667
        assert classify(value, 0.2) is False


def test_criterion_8_calibration_plans(capsys):
    with _criterion(capsys, 8, "calibration: exact cell sets, disjoint, deterministic, symmetric"):
        spec = CalibrationSpec()
        expected = {
            2: (6, 31),
            4: (3, 13, 18, 33),
            8: (1, 3, 6, 13, 18, 31, 33, 36),
            16: (1, 3, 4, 6, 13, 15, 16, 18, 19, 21, 22, 24, 31, 33, 34, 36),
            32: tuple(c for c in range(1, 37) if c not in {8, 11, 26, 29}),
        }
        assert set(TRAINING_SETS) == set(expected)
        for size, cells in expected.items():
            session = plan(spec, size, CFG)
            planned = tuple(e.cell for e in session.entries[:size])
            assert planned == cells
            assert not set(planned) & set(VALIDATION_CELLS)
            assert plan(spec, size, CFG) == session  # deterministic replan

        xs = sorted(cell_center(CFG, c).x_cm for c in VALIDATION_CELLS)
        assert xs == sorted(102.0 - x for x in xs)
        assert np.mean(xs) == pytest.approx(51.0)
