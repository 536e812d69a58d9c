"""Command-line interface: output bytes, exit codes, config precedence."""

import io
import json

import pytest

from shelfgaze.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_help_exits_zero_and_documents_defaults(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "optimize" in out and "validate-calib" in out

    code, out, _ = run(capsys, "cell", "--help")
    assert code == 0
    assert "181" in out and "138" in out and "102" in out and "55.5" in out

    code, out, _ = run(capsys, "simulate", "--help")
    assert code == 0
    assert "30" in out and "fixed:83.33" in out

    code, out, _ = run(capsys, "ear", "--help")
    assert code == 0
    assert "0.2" in out


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "no-such-command")[0] == 1
    assert run(capsys, "sweep")[0] == 1  # missing --distance
    assert run(capsys, "cell", "--index", "x")[0] == 1
    assert run(capsys)[0] == 1  # no subcommand


def test_cell_by_index_bytes(capsys):
    code, out, _ = run(capsys, "cell", "--index", "19")
    assert code == 0
    assert out == '{"x_cm":8.5,"y_cm":80.5,"cell":19}\n'


def test_cell_by_point(capsys):
    code, out, _ = run(capsys, "cell", "--x", "100.0", "--y", "137.0")
    assert code == 0
    assert json.loads(out)["cell"] == 36


def test_cell_flag_conflicts(capsys):
    assert run(capsys, "cell", "--index", "3", "--x", "1.0", "--y", "1.0")[0] == 1
    assert run(capsys, "cell", "--x", "1.0")[0] == 1
    assert run(capsys, "cell")[0] == 1


def test_cell_domain_errors_exit_two(capsys):
    code, _, err = run(capsys, "cell", "--index", "40")
    assert code == 2
    assert "error" in err
    assert run(capsys, "cell", "--x", "200.0", "--y", "1.0")[0] == 2


def test_gaze_target_and_direction_agree(capsys):
    code, out, _ = run(capsys, "gaze", "--eye", "51,55.5,100", "--target", "8.5,80.5")
    assert code == 0
    assert out == '{"x_cm":8.5,"y_cm":80.5,"cell":19}\n'
    # An unnormalized direction vector is accepted and scaled internally;
    # values starting with a dash need the = form.
    code, out2, _ = run(capsys, "gaze", "--eye", "51,55.5,100", "--direction=-85,50,-200")
    assert code == 0
    assert json.loads(out2)["cell"] == 19


def test_gaze_errors(capsys):
    assert run(capsys, "gaze", "--eye", "51,55.5,100")[0] == 1  # no aim
    assert run(capsys, "gaze", "--eye", "51,55.5,100", "--target", "1,2", "--direction", "0,0,-1")[0] == 1
    assert run(capsys, "gaze", "--eye", "51,55.5", "--target", "1,2")[0] == 1  # bad triple
    assert run(capsys, "gaze", "--eye", "51,55.5,100", "--direction", "0,0,1")[0] == 2  # away


def test_distance_table_default(capsys):
    code, out, _ = run(capsys, "distance-table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "stature_mm,distance_mm,status"
    assert lines[1] == "1500,793.315,ok"
    assert len(lines) == 8


def test_distance_table_all_rows_failing_exits_two(capsys):
    code, out, err = run(capsys, "distance-table", "--statures", "45,48.8")
    assert code == 2
    assert out.count("no_valid_distance") == 2  # table still printed
    assert "error" in err


def test_sweep_output(capsys):
    code, out, _ = run(
        capsys, "sweep", "--stature", "165", "--distance", "112.5",
        "--start", "50", "--stop", "60", "--step", "5",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "drop_cm,residual_rad"
    assert len(lines) == 4
    assert run(capsys, "sweep", "--distance", "112.5", "--step", "0")[0] == 1


def test_ear_from_file_and_stdin(capsys, tmp_path, monkeypatch):
    path = tmp_path / "eyes.csv"
    path.write_text("0,0,1,1,3,1,4,0,3,-1,1,-1\n0,0,1,0.1,2,0.1,3,0,2,-0.1,1,-0.1\n")
    code, out, _ = run(capsys, "ear", "--input", str(path))
    assert code == 0
    lines = out.splitlines()
    assert json.loads(lines[0]) == {"value": 0.5, "open": True, "threshold": 0.2}
    assert json.loads(lines[1])["open"] is False

    monkeypatch.setattr("sys.stdin", io.StringIO("0,0,1,1,3,1,4,0,3,-1,1,-1\n"))
    code, out, _ = run(capsys, "ear", "--input", "-")
    assert code == 0
    assert json.loads(out)["value"] == 0.5


def test_ear_json_format_and_errors(capsys, tmp_path):
    path = tmp_path / "eyes.json"
    path.write_text("[[0,0,1,1,3,1,4,0,3,-1,1,-1]]")
    code, out, _ = run(capsys, "ear", "--input", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == 0.5
    assert run(capsys, "ear", "--input", str(tmp_path / "missing.csv"))[0] == 1
    assert run(capsys, "ear", "--input", str(path), "--threshold", "-1")[0] == 1
    empty = tmp_path / "empty.csv"
    empty.write_text("\n")
    assert run(capsys, "ear", "--input", str(empty))[0] == 1


def test_ear_degenerate_eye_exits_two(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,1,1,2,1,2,1,1,1,0,1,0\n")
    assert run(capsys, "ear", "--input", str(path))[0] == 2


def test_simulate_metrics_json(capsys):
    code, out, _ = run(capsys, "simulate", "--proc", "fixed:83.33", "--fps", "30", "--duration", "60")
    assert code == 0
    data = json.loads(out)
    assert data["effective_fps"] == 12.0
    assert data["processed_count"] == 720


def test_simulate_trace_and_sweep(capsys):
    code, out, _ = run(capsys, "simulate", "--trace", "3")
    assert code == 0
    assert out.splitlines() == ["t_ms,event,frame_id", "0.0,capture,0", "0.0,take,0", "33.333333333333336,capture,1"]
    code, out, _ = run(capsys, "simulate", "--sweep", "20,83.33,200")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "time_ms,effective_fps,mean_skips"
    assert len(lines) == 4
    assert lines[1].startswith("20.0,30.0,")
    assert run(capsys, "simulate", "--proc", "gamma:1,2")[0] == 1


def test_calib_plan_output(capsys):
    code, out, _ = run(capsys, "calib-plan", "--size", "2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 24
    assert json.loads(lines[0])["split"] == "train"
    assert run(capsys, "calib-plan", "--size", "3")[0] == 2


def test_validate_calib_default_and_bad_spec(capsys, tmp_path):
    code, out, _ = run(capsys, "validate-calib")
    assert code == 0
    assert out.strip() == "[]"

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"validation_cells": [8, 11, 26, 30]}))
    code, out, _ = run(capsys, "validate-calib", "--spec", str(spec))
    assert code == 2
    kinds = {v["kind"] for v in json.loads(out)}
    assert "overlap" in kinds

    spec.write_text(json.dumps({"bogus_key": 1}))
    assert run(capsys, "validate-calib", "--spec", str(spec))[0] == 1


def test_config_file_and_flag_precedence(capsys, tmp_path):
    cfg = tmp_path / "shelf.json"
    cfg.write_text(json.dumps({"camera_drop_cm": 69.0}))  # mid-panel: no distances
    code, out, _ = run(capsys, "distance-table", "--config", str(cfg))
    assert code == 2
    # An explicit flag wins over the config file.
    code, out, _ = run(capsys, "distance-table", "--config", str(cfg), "--camera-drop", "55.5")
    assert code == 0
    assert out.splitlines()[1] == "1500,793.315,ok"


def test_config_file_errors(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"not_a_field": 1}')
    assert run(capsys, "cell", "--config", str(bad), "--index", "1")[0] == 1
    bad.write_text("[1,2]")
    assert run(capsys, "cell", "--config", str(bad), "--index", "1")[0] == 1
    bad.write_text("{nope")
    assert run(capsys, "cell", "--config", str(bad), "--index", "1")[0] == 1
    assert run(capsys, "cell", "--config", str(tmp_path / "gone.json"), "--index", "1")[0] == 1


def test_config_grid_layouts(capsys, tmp_path):
    # A width that 3 columns do not divide exactly in binary floating point.
    cfg = tmp_path / "narrow.json"
    cfg.write_text(json.dumps({"panel_width_cm": 50.1, "grid_cols": 3, "camera_x_cm": 25}))
    code, out, _ = run(capsys, "cell", "--config", str(cfg), "--x", "50.1", "--y", "137")
    assert code == 0
    assert json.loads(out)["cell"] == 18

    # The default protocol names cells a 3x3 grid does not have: reported
    # as violations, not as an error.
    cfg.write_text(json.dumps({"grid_rows": 3, "grid_cols": 3}))
    code, out, _ = run(capsys, "validate-calib", "--config", str(cfg))
    assert code == 2
    violations = json.loads(out)
    assert {v["kind"] for v in violations} == {"cell-range"}
    assert {"kind": "cell-range", "detail": "validation cells [11, 26, 29] outside 1..9"} in violations


def test_outputs_reproducible(capsys):
    argv = ["optimize", "--samples", "5000", "--seed", "7"]
    code, first, _ = run(capsys, *argv)
    assert code == 0
    assert 50.0 < json.loads(first)["mean_db_cm"] < 62.0
    code, second, _ = run(capsys, *argv)
    assert first == second

    a = run(capsys, "calib-plan", "--size", "8", "--seed", "3")
    b = run(capsys, "calib-plan", "--size", "8", "--seed", "3")
    assert a == b


def test_optimize_bytes(capsys):
    # Frozen from the exhaustive 0.1 cm residual scan that preceded the
    # coarse-to-fine search: the search must reproduce it byte for byte.
    frozen = {
        ("2000", "7"): '{"mean_db_cm":56.530400347083265,"median_db_cm":57.18025968904544,'
        '"std_db_cm":3.515247188725515,"residual_db_cm":55.542160593401114,'
        '"rejected_samples":0,"sample_count":2000}\n',
        ("20000", "3"): '{"mean_db_cm":56.50029061474367,"median_db_cm":57.09880853711459,'
        '"std_db_cm":3.538454729387833,"residual_db_cm":55.50041187910331,'
        '"rejected_samples":0,"sample_count":20000}\n',
    }
    for (samples, seed), expected in frozen.items():
        assert run(capsys, "optimize", "--samples", samples, "--seed", seed) == (0, expected, "")


@pytest.mark.parametrize(
    ("flag", "value", "field"),
    [("--dist-max", "inf", "distance_max_cm"), ("--height-mean", "nan", "height_mean_cm")],
)
def test_optimize_non_finite_population_exits_one(capsys, flag, value, field):
    code, out, err = run(capsys, "optimize", "--samples", "100", flag, value)
    assert code == 1
    assert out == ""
    assert err == f"error: {field} must be finite, got {value}\n"
