"""Population sampling, drop optimization, and the distance table."""

import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from shelfgaze import placement
from shelfgaze.cli import main
from shelfgaze.errors import (
    AllSamplesRejectedError,
    NoValidDistanceError,
    ShelfGazeError,
    field_range,
)
from shelfgaze.geometry import (
    MAX_EYE_HEIGHT_CM,
    PersonSample,
    ShelfConfig,
    imbalance_sweep,
    require_on_panel,
    validate_person,
)
from shelfgaze.placement import (
    RESIDUAL_GRID_STEP_CM,
    RESIDUAL_REFINE_TOL_CM,
    STATUS_NO_DISTANCE,
    STATUS_OK,
    PopulationSpec,
    _golden_min,
    _grid_argmin,
    _mean_squares,
    _uniform01,
    distance_table,
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
        with pytest.raises(ValueError, match=rf"^seed must be in \[0, {2**128 - 1}\], got {bad}$"):
            PopulationSpec(seed=bad)
    PopulationSpec(seed=2**128 - 1)


NUMPY_FREE_CALLS = (
    "cell --index 19",
    "gaze --eye 51,55.5,100 --target 8.5,80.5",
    "ear --input -",
    "distance-table",
    "sweep --distance 100",
    "simulate --duration 1",
    "calib-plan --size 2",
    "validate-calib",
)

IMPORT_PROBE = """
import io, sys
import shelfgaze
import shelfgaze.cli as cli

def loaded():
    return {"numpy", "scipy"} & set(sys.modules)

assert not loaded(), loaded()
for call in sys.argv[1:]:
    sys.stdin = io.StringIO("0,0,1,1,3,1,4,0,3,-1,1,-1\\n")
    assert cli.main(call.split()) == 0, call
    assert not loaded(), (call, loaded())
assert cli.main(["optimize", "--samples", "10"]) == 0
assert loaded() == {"numpy", "scipy"}, loaded()
"""


def test_import_does_not_load_numpy():
    # numpy and scipy are needed only to sample a population: the package,
    # the CLI and every subcommand but `optimize` run without loading them.
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *NUMPY_FREE_CALLS], env=env, capture_output=True, text=True
    )
    assert probe.returncode == 0, probe.stderr


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
    # Eyes that would overflow to -inf lie outside the declared ranges.
    with pytest.raises(ValueError, match=r"^height_mean_cm must be in \[0.0, 1000.0\], got -1e\+308$"):
        PopulationSpec(height_mean_cm=-1e308, sample_count=200)
    with pytest.raises(ValueError, match=r"^eye_crown_offset_cm must be in \[0.0, 100.0\], got 1e\+308$"):
        ShelfConfig(eye_crown_offset_cm=1e308)


def test_uniform01_stays_below_one():
    from scipy.special import ndtri

    class Draws:
        def integers(self, low, high, size):
            return np.array([0, 2**53 - 1], dtype=np.int64)

    u = _uniform01(Draws(), 2)
    # The top midpoint rounds to 1.0 and is clamped; the bottom one keeps its bits.
    assert u.tolist() == [0.5 / 2**53, np.nextafter(1.0, 0.0)]
    assert np.all(np.isfinite(ndtri(u)))


def test_residual_grid_is_bounded():
    # The tallest panel in range, 1,000 cm, has a 10,001-point 0.1 cm grid.
    assert field_range(ShelfConfig, "panel_height_cm")[1] == 1000.0
    assert len(np.arange(0.0, 1000.0 + RESIDUAL_GRID_STEP_CM / 2, RESIDUAL_GRID_STEP_CM)) == 10_001
    pop = PopulationSpec(sample_count=10)
    optimize_camera_drop(ShelfConfig(shelf_height_cm=1100.0, panel_height_cm=1000.0), pop)
    for panel, reason in (
        (1000.1, "panel_height_cm must be in [1.0, 1000.0], got 1000.1"),
        (1e20, "shelf_height_cm must be in [1.0, 10000.0], got 1e+20"),
        (1e308, "shelf_height_cm must be in [1.0, 10000.0], got 1e+308"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
            ShelfConfig(shelf_height_cm=panel + 100.0, panel_height_cm=panel)


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
    that the branch-and-bound search must match exactly."""
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


def _counted(evaluate, indices):
    def wrapped(i):
        indices.append(i)
        return evaluate(i)

    return wrapped


@settings(max_examples=100, deadline=None)
@given(
    last=st.integers(min_value=0, max_value=600),
    elements=st.lists(
        st.tuples(
            st.sampled_from(["line", "tanh", "step"]),
            st.floats(min_value=-10.0, max_value=70.0),  # where the element crosses zero, in cm
            st.floats(min_value=1e-3, max_value=50.0),  # steepness per cm
            st.floats(min_value=1e-3, max_value=10.0),  # weight
        ),
        min_size=1,
        max_size=6,
    ),
)
# Two saturating elements far apart: local minima near 10 cm and 50 cm, the
# later one lower.
@example(600, [("tanh", 10.0, 5.0, 0.9), ("tanh", 50.0, 5.0, 1.0)])
# Step elements only: the curve is flat between steps, so grid points tie
# exactly and the first of them must win.
@example(600, [("step", 20.0, 0.1, 1.0), ("step", 40.0, 0.1, 1.0)])
# Without the margin's relative part, rounding in P + N prunes the span that
# holds the minimum; without its absolute part, so do subnormal squares.
@example(191, [("tanh", 0.0, 1.0, 1.0), ("tanh", 0.0, 1.0, 3.0), ("step", 29.0, 1.0, 1.0)])
@example(246, [("line", 0.0, 0.001, 1e-160), ("line", 18.0, 1.0, 2e-162), ("tanh", 0.0, 1.0, 2e-162)])
@example(1, [("line", 0.05, 1.0, 1.0)])
@example(0, [("line", 0.0, 1.0, 1.0)])
def test_grid_argmin_matches_full_scan(last, elements):
    kinds = np.array([kind for kind, *_ in elements])
    center, slope, weight = (np.array(column) for column in list(zip(*elements))[1:])

    def residual(drop):
        z = slope * (drop - center)
        return weight * np.where(kinds == "line", z, np.where(kinds == "tanh", np.tanh(z), np.floor(z)))

    def evaluate(i):
        r = residual(i * RESIDUAL_GRID_STEP_CM)
        pos, neg = np.maximum(r, 0.0), np.minimum(r, 0.0)
        return float(np.mean(r * r)), float(np.mean(pos * pos)), float(np.mean(neg * neg))

    full = [evaluate(i)[0] for i in range(last + 1)]
    indices = []
    assert _grid_argmin(_counted(evaluate, indices), last) == int(np.argmin(full))
    assert all(type(i) is int and 0 <= i <= last for i in indices)
    assert len(indices) == len(set(indices))


def test_residual_search_evaluations_and_memory(monkeypatch):
    # 100k shoppers, seed 7: the search evaluates 30 grid points, each once
    # (the stride scan it replaced took 70 evaluations of 60 points).
    indices = []
    search = placement._grid_argmin
    monkeypatch.setattr(placement, "_grid_argmin", lambda evaluate, last: search(_counted(evaluate, indices), last))
    pop = PopulationSpec(sample_count=100_000, seed=7)
    optimize_camera_drop(CFG, pop)
    assert len(indices) == len(set(indices)) <= 40
    # The peak is the search's: eye, distance, theta_sum, the one residual
    # vector every evaluation overwrites, and a quarter-length work vector,
    # 4.25 vectors of 0.8 MB (the out-of-place search held 6.0, 4.81 MB).
    assert _traced_peak(lambda: optimize_camera_drop(CFG, pop)) <= 3.41e6 * 1.02


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampling_memory():
    # 100k shoppers: the eye heights, plus the distance draw's integers and
    # floats, 3 vectors of 0.8 MB (drawing out of place held 5.1, 4.10 MB).
    assert _traced_peak(lambda: sample_population(CFG, PopulationSpec(sample_count=100_000, seed=7))) <= 2.5e6


def _out_of_place_population(cfg, pop):
    """sample_population as one expression per array, each a new array: the
    reference whose bits the in-place draws must keep."""
    from scipy.special import ndtri

    gen = np.random.Generator(np.random.Philox(key=pop.seed))

    def uniform01():
        u = (gen.integers(0, 2**53, pop.sample_count).astype(np.float64) + 0.5) / 2**53
        return np.minimum(u, np.nextafter(1.0, 0.0))

    stature = pop.height_mean_cm + pop.height_std_cm * ndtri(uniform01())
    distance = pop.distance_min_cm + (pop.distance_max_cm - pop.distance_min_cm) * uniform01()
    eye = stature - cfg.eye_crown_offset_cm
    valid = (eye > cfg.panel_bottom_height_cm) & (eye < MAX_EYE_HEIGHT_CM)
    return eye[valid], distance[valid], int(pop.sample_count - valid.sum())


@settings(max_examples=200, deadline=None)
@given(
    mean=st.sampled_from([165.0, 48.0, 30.0, 262.0]) | st.floats(0.0, 300.0),
    std=st.floats(1e-3, 100.0),
    dist_a=st.floats(1e-3, 10_000.0),
    dist_b=st.floats(1e-3, 10_000.0),
    offset=st.floats(0.0, 100.0),
    samples=st.sampled_from([1, 2, 3, 5, 6, 7]),
    seed=st.integers(0, 2**128 - 1),
)
@example(mean=165.0, std=6.0, dist_a=75.0, dist_b=150.0, offset=4.8, samples=7, seed=0)  # none rejected
@example(mean=48.0, std=2.0, dist_a=75.0, dist_b=150.0, offset=4.8, samples=7, seed=0)  # some rejected
@example(mean=30.0, std=0.1, dist_a=75.0, dist_b=150.0, offset=4.8, samples=5, seed=0)  # all below the panel
@example(mean=262.0, std=1.0, dist_a=75.0, dist_b=150.0, offset=4.8, samples=3, seed=0)  # all too high
def test_sampling_equals_the_out_of_place_formula(mean, std, dist_a, dist_b, offset, samples, seed):
    assume(dist_a != dist_b)
    cfg = ShelfConfig(eye_crown_offset_cm=offset)
    pop = PopulationSpec(height_mean_cm=mean, height_std_cm=std, distance_min_cm=min(dist_a, dist_b),
                         distance_max_cm=max(dist_a, dist_b), sample_count=samples, seed=seed)
    got, want = sample_population(cfg, pop), _out_of_place_population(cfg, pop)
    assert got[2] == want[2]
    for a, b in zip(got[:2], want[:2]):
        assert a.dtype == b.dtype == np.float64
        assert a.tobytes() == b.tobytes()


def test_sampling_examples_reject_none_some_and_all():
    # The property's examples cover each branch of the copy through the mask.
    for mean, std, samples, rejected in ((165.0, 6.0, 7, "none"), (48.0, 2.0, 7, "some"),
                                         (30.0, 0.1, 5, "all"), (262.0, 1.0, 3, "all")):
        count = sample_population(CFG, PopulationSpec(height_mean_cm=mean, height_std_cm=std, sample_count=samples))[2]
        assert {"none": count == 0, "some": 0 < count < samples, "all": count == samples}[rejected]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40))
@example([0.75])
@example([-1.5, 2.0])
@example([0.1, -0.2, 0.3])
@example([3.0, -1e-3, 0.0, 7.5, -2.25])
def test_chunked_evaluation_matches_the_whole_vector(values):
    # The search's evaluation passes P and N through a work vector a quarter
    # of r long (n = 1, 2, 3 and 5 leave 1, 2, 3 and 3 chunks). M keeps
    # np.mean's bits; P and N sum nonnegative squares in another order, so
    # they agree with the whole-vector dot to n * eps.
    r = np.array(values)
    n = r.size
    pos, neg = np.maximum(r, 0.0), np.minimum(r, 0.0)
    m, p, q = _mean_squares(r.copy(), np.empty(-(-n // 4)))
    assert m.hex() == float(np.mean(r * r)).hex()
    tol = {"rel_tol": n * np.finfo(float).eps, "abs_tol": n * 2.0**-1074}  # the absolute part: squares that underflow
    assert math.isclose(p, float(pos @ pos) / n, **tol)
    assert math.isclose(q, float(neg @ neg) / n, **tol)


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
        assert abs(imbalance_sweep(CFG, p, (CFG.camera_drop_cm,))[0][1]) < 1e-12


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


def test_nan_stature_has_no_valid_distance():
    # A stature that has no distance is checked against its declared range,
    # as the CLI does, so NaN is named instead of given a row.
    with pytest.raises(ValueError, match="^stature_cm must be finite, got nan$"):
        recommended_distance(CFG, math.nan)
    with pytest.raises(ValueError, match="^stature_cm must be finite, got nan$"):
        distance_table(CFG, [math.nan])


@settings(max_examples=200, deadline=None)
@given(
    statures=st.lists(st.floats(), min_size=1, max_size=4),
    panel_height_cm=st.floats(1.0, 181.0),
    drop_frac=st.floats(0.0, 1.0),
    eye_crown_offset_cm=st.floats(0.0, 100.0),
)
@example(statures=[math.inf], panel_height_cm=138.0, drop_frac=0.5, eye_crown_offset_cm=4.8)
@example(statures=[-5.0], panel_height_cm=138.0, drop_frac=0.5, eye_crown_offset_cm=4.8)
@example(statures=[1500.0], panel_height_cm=138.0, drop_frac=0.5, eye_crown_offset_cm=4.8)
# A valid row first, then two invalid statures: the first one is named.
@example(statures=[150.0, 1e308, math.nan], panel_height_cm=138.0, drop_frac=0.5, eye_crown_offset_cm=4.8)
# Both ends of the range are valid statures; neither has a distance.
@example(statures=[-0.0, 1000.0], panel_height_cm=181.0, drop_frac=0.3, eye_crown_offset_cm=0.0)
def test_distance_table_keeps_the_stature_contract(statures, panel_height_cm, drop_frac, eye_crown_offset_cm):
    # Any float, NaN, inf and subnormals included: a stature in the declared
    # range gets a row, and any other raises a ValueError that names it.
    # recommended_distance owns the rule: it raises the same ValueError for
    # an invalid stature, and a distance or NoValidDistanceError otherwise.
    cfg = ShelfConfig(panel_height_cm=panel_height_cm, camera_drop_cm=drop_frac * panel_height_cm,
                      eye_crown_offset_cm=eye_crown_offset_cm)
    lo, hi = field_range(PersonSample, "stature_cm")
    for s in statures:
        valid = lo <= s <= hi  # False for NaN
        try:
            assert 0.0 < recommended_distance(cfg, s) < math.inf and valid
        except NoValidDistanceError:
            assert valid
        except ValueError as single:
            assert not valid
            with pytest.raises(ValueError, match=f"^{re.escape(str(single))}$"):
                distance_table(cfg, [s])
    invalid = [s for s in statures if not lo <= s <= hi]  # NaN included
    if invalid:
        with pytest.raises(ValueError, match="^stature_cm must be ") as raised:
            distance_table(cfg, statures)
        assert str(raised.value).endswith(f"got {invalid[0]}")
        return
    rows = distance_table(cfg, statures)
    assert [row.stature_cm for row in rows] == statures
    for row in rows:
        if row.status == STATUS_OK:
            assert 0.0 < row.distance_cm < math.inf
        else:
            assert row[1:] == (None, STATUS_NO_DISTANCE)


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


def _scalar_imbalance(cfg, p, drop):
    """The residual of one drop from scratch: both checks, then all three elevations."""
    require_on_panel("camera drop", drop, cfg.panel_height_cm)
    validate_person(cfg, p)
    h, d = p.eye_height_cm, p.distance_cm
    theta_top = math.atan2(cfg.shelf_height_cm - h, d)
    theta_cam = math.atan2(cfg.shelf_height_cm - drop - h, d)
    theta_bottom = math.atan2(cfg.panel_bottom_height_cm - h, d)
    return (theta_top - theta_cam) - (theta_cam - theta_bottom)


def _sweep_outcome(call):
    """The (drop, residual) pairs in hex, or the raised exception's type and message."""
    try:
        return [(drop.hex(), residual.hex()) for drop, residual in call()]
    except (ValueError, ShelfGazeError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(
    eye_height_cm=st.floats(0.0, 300.0),
    distance_cm=st.floats(1e-3, 10_000.0),
    drops=st.lists(st.floats(-5.0, 143.0) | st.sampled_from([0.0, 138.0, math.nan, -math.inf]), max_size=12),
)
@example(eye_height_cm=120.0, distance_cm=112.5, drops=[24.5, 200.0, 55.5])  # off panel after a valid drop
@example(eye_height_cm=40.0, distance_cm=112.5, drops=[24.5, 200.0])  # the person fails after the first drop
@example(eye_height_cm=40.0, distance_cm=112.5, drops=[-1.0, 24.5])  # both fail: the drop is named
@example(eye_height_cm=260.0, distance_cm=112.5, drops=[])  # no drops: no check
def test_sweep_equals_the_scalar_imbalance_per_drop(eye_height_cm, distance_cm, drops):
    p = PersonSample.from_eye_height(eye_height_cm, distance_cm, CFG)
    got = _sweep_outcome(lambda: imbalance_sweep(CFG, p, drops))
    assert got == _sweep_outcome(lambda: [(d, imbalance_sweep(CFG, p, (d,))[0][1]) for d in drops])
    assert got == _sweep_outcome(lambda: [(d, _scalar_imbalance(CFG, p, d)) for d in drops])

