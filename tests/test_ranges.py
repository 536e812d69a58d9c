"""One declared range per numeric setting, the formulas it keeps finite, and
the README table that documents it."""

import math
import re
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from shelfgaze.calibration import CalibrationSpec
from shelfgaze.cli import main
from shelfgaze.errors import AllSamplesRejectedError, field_range
from shelfgaze.geometry import PersonSample, ShelfConfig
from shelfgaze.pipeline import FixedTime, NormalTime, SimConfig, UniformTime, trace
from shelfgaze.placement import PopulationSpec, optimize_camera_drop, sample_population

# Each settings dataclass with the arguments it needs besides its defaults.
REQUIRED = {
    ShelfConfig: {},
    PersonSample: {"stature_cm": 165.0, "eye_height_cm": 160.2, "distance_cm": 112.5},
    PopulationSpec: {},
    FixedTime: {"ms": 83.33},
    UniformTime: {"lo_ms": 66.7, "hi_ms": 100.0},
    NormalTime: {"mean_ms": 83.0, "std_ms": 10.0},
    SimConfig: {"processing_time": FixedTime(83.33)},
    CalibrationSpec: {},
}
NUMERIC = [(cls, f.name) for cls in REQUIRED for f in fields(cls) if f.type in ("float", "int")]
# (field, 0 for the low end or 1 for the high one): the other fields that
# end needs so that every rule between two fields holds.
COMPANIONS = {
    ("shelf_height_cm", 0): {"panel_height_cm": 1.0, "camera_drop_cm": 0.0},
    ("panel_height_cm", 0): {"camera_drop_cm": 0.0},
    ("panel_height_cm", 1): {"shelf_height_cm": 1000.0},
    ("panel_width_cm", 0): {"camera_x_cm": 0.0},
    ("camera_x_cm", 1): {"panel_width_cm": 1000.0},
    ("camera_drop_cm", 1): {"shelf_height_cm": 1000.0, "panel_height_cm": 1000.0},
    ("lo_ms", 1): {"hi_ms": 1e6},
    ("hi_ms", 0): {"lo_ms": 1e-3},
}
# Ends that min < max forbids whatever the other field holds.
FORBIDDEN = {("distance_min_cm", 1), ("distance_max_cm", 0)}


def _past(end, side: int):
    if isinstance(end, int):
        return end + (1 if side else -1)
    return math.nextafter(end, math.inf if side else -math.inf)


@pytest.mark.parametrize(("cls", "name"), NUMERIC, ids=[f"{c.__name__}.{n}" for c, n in NUMERIC])
def test_every_numeric_field_declares_a_range(cls, name):
    lo, hi = field_range(cls, name)
    assert lo < hi
    for side, end in enumerate((lo, hi)):
        kwargs = {**REQUIRED[cls], **COMPANIONS.get((name, side), {})}
        if (name, side) in FORBIDDEN:
            with pytest.raises(ValueError, match="^distance range must satisfy min < max$"):
                cls(**{**kwargs, name: end})
        else:
            assert getattr(cls(**{**kwargs, name: end}), name) == end
        bad = _past(end, side)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be in [{lo}, {hi}], got {bad}')}$"):
            cls(**{**kwargs, name: bad})


def _box(cls, name):
    lo, hi = field_range(cls, name)
    return st.integers(lo, hi) if isinstance(lo, int) else st.floats(lo, hi)


SHELF_LO, SHELF_HI = field_range(ShelfConfig, "shelf_height_cm")
PANEL_LO, PANEL_HI = field_range(ShelfConfig, "panel_height_cm")
OFFSET_LO, OFFSET_HI = field_range(ShelfConfig, "eye_crown_offset_cm")
MEAN_LO, MEAN_HI = field_range(PopulationSpec, "height_mean_cm")
STD_LO, STD_HI = field_range(PopulationSpec, "height_std_cm")
DIST_LO, DIST_HI = field_range(PopulationSpec, "distance_min_cm")
SEED_HI = field_range(PopulationSpec, "seed")[1]


@settings(max_examples=60, deadline=None)
@given(
    shelf=_box(ShelfConfig, "shelf_height_cm"),
    panel=_box(ShelfConfig, "panel_height_cm"),
    offset=_box(ShelfConfig, "eye_crown_offset_cm"),
    mean=_box(PopulationSpec, "height_mean_cm"),
    std=_box(PopulationSpec, "height_std_cm"),
    dist_a=_box(PopulationSpec, "distance_min_cm"),
    dist_b=_box(PopulationSpec, "distance_max_cm"),
    seed=_box(PopulationSpec, "seed"),
)
# Corners of the box: the widest spread under the tallest panel over all
# distances, from the lowest mean and from the highest mean and offset; the
# smallest panel and spread; and a crowd at the 250 cm eye-height bound above
# a 1 cm shelf, nearest and farthest, where the panel subtends least.
@example(PANEL_HI, PANEL_HI, OFFSET_LO, MEAN_LO, STD_HI, DIST_LO, DIST_HI, SEED_HI)
@example(SHELF_HI, PANEL_HI, OFFSET_HI, MEAN_HI, STD_HI, DIST_LO, DIST_HI, 0)
@example(SHELF_LO, PANEL_LO, OFFSET_LO, MEAN_LO, STD_LO, DIST_LO, DIST_HI, 0)
@example(SHELF_LO, PANEL_LO, OFFSET_LO, 250.0, STD_LO, DIST_LO, math.nextafter(DIST_LO, 1.0), 0)
@example(SHELF_LO, PANEL_LO, OFFSET_LO, 250.0, STD_LO, math.nextafter(DIST_HI, 0.0), DIST_HI, SEED_HI)
def test_ranges_keep_every_formula_finite(shelf, panel, offset, mean, std, dist_a, dist_b, seed):
    assume(panel <= shelf and dist_a < dist_b)
    cfg = ShelfConfig(shelf_height_cm=shelf, panel_height_cm=panel, camera_drop_cm=0.0, eye_crown_offset_cm=offset)
    pop = PopulationSpec(mean, std, dist_a, dist_b, 50, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = optimize_camera_drop(cfg, pop)
        except AllSamplesRejectedError:
            return
        eye, distance, _ = sample_population(cfg, pop)
    assert all(math.isfinite(value) for value in result._asdict().values())
    # The residual at drop 0 is minus the angle the panel subtends: its mean
    # square stays positive, so the residual curve is never flat.
    r0 = np.arctan2(cfg.panel_bottom_height_cm - eye, distance) - np.arctan2(shelf - eye, distance)
    assert np.mean(r0 * r0) > 0.0


def test_longest_runs_and_tallest_statures_stay_finite(capsys):
    fps_lo, fps_hi = field_range(SimConfig, "capture_fps")
    ms_hi = field_range(FixedTime, "ms")[1]
    duration_hi = field_range(SimConfig, "duration_s")[1]
    for fps in (fps_lo, fps_hi):
        cfg = SimConfig(FixedTime(ms_hi), capture_fps=fps, duration_s=duration_hi, capture_jitter=FixedTime(ms_hi))
        assert math.isfinite(cfg.duration_s * 1000.0)
        assert all(math.isfinite(event.t_ms) for event in trace(cfg, 100))

    lo, hi = field_range(PersonSample, "stature_cm")
    assert main(["distance-table", f"--statures={lo},{hi}"]) == 2  # neither stature has a distance
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [(float(mm), distance) for mm, distance, _ in rows] == [(lo * 10.0, ""), (hi * 10.0, "")]


README = Path(__file__).resolve().parents[1] / "README.md"
ROW = re.compile(r"^\| `(\w+)\.(\w+)` \| `\[(.+), (.+)\]` \| (.+) \|$")


def test_readme_range_table_matches_the_declarations():
    table = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        match = ROW.match(line)
        if match:
            cls, name, lo, hi, _ = match.groups()
            table[cls, name] = (lo, hi)
    declared = {(cls.__name__, name): tuple(map(str, field_range(cls, name))) for cls, name in NUMERIC}
    assert table == declared
