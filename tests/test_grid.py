"""Panel grid: cell numbering, point ownership, ray intersection."""

import math
import random
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shelfgaze.cli import main
from shelfgaze.errors import IndexOutOfRangeError, NoIntersectionError, OutOfPanelError
from shelfgaze.geometry import ShelfConfig
from shelfgaze.grid import (
    GazeRay,
    PlanePoint,
    cell_center,
    point_to_cell,
    ray_to_cell,
    to_camera_coords,
)

CFG = ShelfConfig()


def test_layout_derived_values():
    assert CFG.cell_width_cm == 17.0
    assert CFG.cell_height_cm == 23.0
    assert CFG.cell_count == 36
    assert (CFG.camera_x_cm, CFG.camera_drop_cm) == (51.0, 55.5)
    # Derived sizes are attributes, not fields: --config keys stay the fields.
    assert {f.name for f in fields(ShelfConfig)}.isdisjoint(
        {"cell_width_cm", "cell_height_cm", "cell_count"}
    )


def test_layout_cells_tile_inexact_widths():
    # In floating point 3 * (50.1 / 3) != 50.1; the derived cells still cover
    # the whole panel, and the far edges close the last column and row.
    cfg = ShelfConfig(panel_width_cm=50.1, grid_cols=3, camera_x_cm=25.0)
    assert [point_to_cell(cfg, cell_center(cfg, i)) for i in range(1, 19)] == list(range(1, 19))
    assert point_to_cell(cfg, PlanePoint(50.1, 137.0)) == 18
    assert point_to_cell(cfg, PlanePoint(50.1, 138.0)) == cfg.cell_count


@settings(max_examples=200, deadline=None)
@given(
    width=st.floats(min_value=1.0, max_value=1000.0),
    height=st.floats(min_value=1.0, max_value=1000.0),
    rows=st.integers(min_value=1, max_value=12),
    cols=st.integers(min_value=1, max_value=12),
)
def test_center_roundtrip_any_layout(width, height, rows, cols):
    cfg = ShelfConfig(
        shelf_height_cm=height,
        panel_height_cm=height,
        panel_width_cm=width,
        camera_x_cm=width / 2.0,
        camera_drop_cm=height / 2.0,
        grid_rows=rows,
        grid_cols=cols,
    )
    for index in range(1, cfg.cell_count + 1):
        assert point_to_cell(cfg, cell_center(cfg, index)) == index
    assert point_to_cell(cfg, PlanePoint(width, height)) == cfg.cell_count


def test_cell_center_frozen_corners():
    assert cell_center(CFG, 1) == PlanePoint(8.5, 11.5)
    assert cell_center(CFG, 6) == PlanePoint(93.5, 11.5)
    assert cell_center(CFG, 19) == PlanePoint(8.5, 80.5)
    assert cell_center(CFG, 36) == PlanePoint(93.5, 126.5)


def test_cell_center_index_bounds():
    with pytest.raises(IndexOutOfRangeError):
        cell_center(CFG, 0)
    with pytest.raises(IndexOutOfRangeError):
        cell_center(CFG, 37)


def test_center_roundtrip_all_cells():
    for index in range(1, 37):
        assert point_to_cell(CFG, cell_center(CFG, index)) == index


def test_point_ownership_at_edges():
    assert point_to_cell(CFG, PlanePoint(0.0, 0.0)) == 1
    # Interior grid lines belong to the cell on their right/below.
    assert point_to_cell(CFG, PlanePoint(17.0, 0.0)) == 2
    assert point_to_cell(CFG, PlanePoint(0.0, 23.0)) == 7
    # The panel's outer right/bottom edges close the last column and row.
    assert point_to_cell(CFG, PlanePoint(102.0, 0.0)) == 6
    assert point_to_cell(CFG, PlanePoint(0.0, 138.0)) == 31
    assert point_to_cell(CFG, PlanePoint(102.0, 138.0)) == 36


def test_point_outside_panel_rejected():
    for x, y in ((-0.001, 10.0), (102.001, 10.0), (10.0, -0.001), (10.0, 138.001)):
        with pytest.raises(OutOfPanelError):
            point_to_cell(CFG, PlanePoint(x, y))


def test_millimeter_lattice_partitions_exactly():
    # Cell ownership factorizes into independent column(x) and row(y) maps,
    # so counting each axis on a 1 mm lattice proves the full 2D tiling has
    # no gaps or overlaps.
    cols = [point_to_cell(CFG, PlanePoint(i / 10.0, 0.0)) - 1 for i in range(1021)]
    rows = [(point_to_cell(CFG, PlanePoint(0.0, j / 10.0)) - 1) // 6 for j in range(1381)]
    col_counts = [cols.count(c) for c in range(6)]
    row_counts = [rows.count(r) for r in range(6)]
    assert col_counts == [170, 170, 170, 170, 170, 171]
    assert row_counts == [230, 230, 230, 230, 230, 231]
    assert sum(col_counts) * sum(row_counts) == 1021 * 1381

    # Spot-check that 2D lookups really are the product of the axis maps.
    rng = random.Random(99)
    for _ in range(2000):
        i = rng.randrange(1021)
        j = rng.randrange(1381)
        cell = point_to_cell(CFG, PlanePoint(i / 10.0, j / 10.0))
        assert cell == rows[j] * 6 + cols[i] + 1


def test_camera_coordinate_conversion():
    assert to_camera_coords(CFG, cell_center(CFG, 16)) == PlanePoint(8.5, 2.0)
    assert to_camera_coords(CFG, cell_center(CFG, 1)) == PlanePoint(-42.5, -44.0)


def test_gaze_ray_validation():
    with pytest.raises(ValueError):
        GazeRay((51.0, 55.5, 100.0), (0.0, 0.0, -0.5))  # not unit length
    with pytest.raises(ValueError):
        GazeRay((51.0, 55.5, 0.0), (0.0, 0.0, -1.0))  # eye on the panel plane
    ray = GazeRay.aimed_at((51.0, 55.5, 100.0), PlanePoint(8.5, 80.5))
    assert math.isclose(sum(c * c for c in ray.direction), 1.0, rel_tol=1e-12)


def test_ray_to_cell_straight_ahead():
    ray = GazeRay((8.5, 80.5, 120.0), (0.0, 0.0, -1.0))
    hit, cell = ray_to_cell(CFG, ray)
    assert cell == 19
    assert hit == PlanePoint(8.5, 80.5)


def test_ray_missing_plane():
    with pytest.raises(NoIntersectionError):
        ray_to_cell(CFG, GazeRay((51.0, 55.5, 100.0), (0.0, 1.0, 0.0)))  # parallel
    with pytest.raises(NoIntersectionError):
        ray_to_cell(CFG, GazeRay((51.0, 55.5, 100.0), (0.0, 0.0, 1.0)))  # away


def test_ray_hit_outside_panel():
    with pytest.raises(OutOfPanelError):
        ray_to_cell(CFG, GazeRay.aimed_at((51.0, 55.5, 100.0), PlanePoint(-30.0, 69.0)))


@settings(max_examples=300, deadline=None)
@given(
    col=st.integers(0, 5),
    row=st.integers(0, 5),
    fx=st.floats(0.05, 0.95),
    fy=st.floats(0.05, 0.95),
    eye=st.tuples(st.floats(-50.0, 150.0), st.floats(-50.0, 200.0), st.floats(10.0, 300.0)),
)
def test_aimed_rays_agree_with_point_lookup(col, row, fx, fy, eye):
    # Aiming at a known interior point must land in that point's cell.
    target = PlanePoint((col + fx) * 17.0, (row + fy) * 23.0)
    hit, cell = ray_to_cell(CFG, GazeRay.aimed_at(eye, target))
    assert cell == row * 6 + col + 1
    assert math.isclose(hit.x_cm, target.x_cm, abs_tol=1e-9)
    assert math.isclose(hit.y_cm, target.y_cm, abs_tol=1e-9)


def test_point_cell_json_bytes(capsys):
    assert main(["cell", "--index", "19"]) == 0
    assert capsys.readouterr().out == '{"x_cm":8.5,"y_cm":80.5,"cell":19}\n'
