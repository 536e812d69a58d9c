"""Command-line interface: output bytes, exit codes, config precedence."""

import csv
import hashlib
import io
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shelfgaze.cli import main
from shelfgaze.placement import PopulationSpec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_help_exits_zero_and_documents_defaults(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "optimize" in out and "validate-calib" in out

    code, out, _ = run(capsys, "optimize", "--help")
    assert code == 0
    out = " ".join(out.split())  # argparse wraps help to the terminal width
    for f in fields(PopulationSpec):
        assert f"(default {f.default})" in out

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

    # The same layers for the calibration protocol: an explicit --seed wins
    # over the --spec file, which wins over the default.
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"seed": 5}))
    plans = {seed: run(capsys, "calib-plan", "--size", "2", "--seed", seed) for seed in ("0", "5", "9")}
    assert len({out for _, out, _ in plans.values()}) == 3
    assert run(capsys, "calib-plan", "--size", "2", "--seed", "9", "--spec", str(spec)) == plans["9"]
    assert run(capsys, "calib-plan", "--size", "2", "--spec", str(spec)) == plans["5"]
    assert run(capsys, "calib-plan", "--size", "2", "--spec", str(spec), "--seed", "0") == plans["0"]


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


# Stdout and exit code of every subcommand and output mode, captured before
# cli.py took over the output formats from the library modules. Files named
# in the arguments are written by the test into its working directory.
EYES_CSV = "0,0,1,1,3,1,4,0,3,-1,1,-1\n0,0,1,0.1,2,0.1,3,0,2,-0.1,1,-0.1\n"
EYES_JSON = "[[0,0,1,1,3,1,4,0,3,-1,1,-1],[[0,0],[1,0.2],[3,0.2],[4,0],[3,-0.2],[1,-0.2]]]"
FILES = {
    "overlap.json": '{"validation_cells": [8, 11, 26, 30]}',
    "grid3x3.json": '{"grid_rows": 3, "grid_cols": 3}',
}
FROZEN = [
    (["cell", "--index", "19"], None, 0, '{"x_cm":8.5,"y_cm":80.5,"cell":19}\n'),
    (["cell", "--x", "60", "--y", "30"], None, 0, '{"x_cm":60.0,"y_cm":30.0,"cell":10}\n'),
    (["gaze", "--eye", "51,55.5,100", "--target", "8.5,80.5"], None, 0, '{"x_cm":8.5,"y_cm":80.5,"cell":19}\n'),
    (["gaze", "--eye", "51,55.5,100", "--direction=-85,50,-200"], None, 0, '{"x_cm":8.5,"y_cm":80.5,"cell":19}\n'),
    (["ear", "--input", "-"], EYES_CSV, 0,
     '{"value":0.5,"open":true,"threshold":0.2}\n{"value":0.06666666666666667,"open":false,"threshold":0.2}\n'),
    (["ear", "--input", "-", "--format", "json"], EYES_JSON, 0,
     '{"value":0.5,"open":true,"threshold":0.2}\n{"value":0.1,"open":false,"threshold":0.2}\n'),
    (["ear", "--input", "-", "--threshold", "0.15"], "0,0,1,0.2,3,0.2,4,0,3,-0.2,1,-0.2\n", 0,
     '{"value":0.1,"open":false,"threshold":0.15}\n'),
    (["simulate"], None, 0,
     '{"processed_count":720,"captured_count":1800,"dropped_count":1079,"in_flight_count":1,'
     '"effective_fps":12.0,"mean_skips":1.4993045897079276,"skips_per_processed":{"1":360,"2":359},'
     '"latency_mean_ms":107.08537037069,"latency_p95_ms":116.41699999999578}\n'),
    (["simulate", "--trace", "6"], None, 0,
     "t_ms,event,frame_id\n0.0,capture,0\n0.0,take,0\n33.333333333333336,capture,1\n"
     "66.66666666666667,capture,2\n66.66666666666667,drop,1\n83.33,complete,0\n"),
    (["simulate", "--sweep", "20,83.33,200"], None, 0,
     "time_ms,effective_fps,mean_skips\n20.0,30.0,0.0\n83.33,12.0,1.4993045897079276\n"
     "200.0,5.0,4.996655518394649\n"),
    (["simulate", "--proc", "uniform:66.7,100", "--jitter", "normal:2,1", "--duration", "5", "--seed", "3"],
     None, 0,
     '{"processed_count":58,"captured_count":150,"dropped_count":91,"in_flight_count":1,'
     '"effective_fps":11.6,"mean_skips":1.543859649122807,"skips_per_processed":{"1":26,"2":31},'
     '"latency_mean_ms":101.66188404276237,"latency_p95_ms":125.17183860403019}\n'),
    (["simulate", "--proc", "fixed:50", "--duration", "0.01"], None, 0,
     '{"processed_count":0,"captured_count":1,"dropped_count":0,"in_flight_count":1,"effective_fps":0.0,'
     '"mean_skips":null,"skips_per_processed":{},"latency_mean_ms":null,"latency_p95_ms":null}\n'),
    (["validate-calib"], None, 0, "[]\n"),
    (["validate-calib", "--spec", "overlap.json"], None, 2,
     '[{"kind":"overlap","detail":"set 32 shares cells [30] with validation"},'
     '{"kind":"asymmetric-validation","detail":"center x values [25.5, 25.5, 76.5, 93.5] not mirror-symmetric"}]\n'),
    (["validate-calib", "--config", "grid3x3.json"], None, 2,
     '[{"kind":"cell-range","detail":"set 2 cells [31] outside 1..9"},'
     '{"kind":"cell-range","detail":"set 4 cells [13, 18, 33] outside 1..9"},'
     '{"kind":"cell-range","detail":"set 8 cells [13, 18, 31, 33, 36] outside 1..9"},'
     '{"kind":"cell-range","detail":"set 16 cells [13, 15, 16, 18, 19, 21, 22, 24, 31, 33, 34, 36] outside 1..9"},'
     '{"kind":"cell-range","detail":"set 32 cells [10, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, '
     '27, 28, 30, 31, 32, 33, 34, 35, 36] outside 1..9"},'
     '{"kind":"cell-range","detail":"validation cells [11, 26, 29] outside 1..9"}]\n'),
    (["distance-table"], None, 0,
     "stature_mm,distance_mm,status\n1500,793.315,ok\n1550,881.324,ok\n1600,958.705,ok\n"
     "1650,1027.862,ok\n1700,1090.359,ok\n1750,1147.286,ok\n1800,1199.437,ok\n"),
    (["distance-table", "--statures", "45,48.8"], None, 2,
     "stature_mm,distance_mm,status\n450,,no_valid_distance\n488,,no_valid_distance\n"),
    (["sweep", "--stature", "165", "--distance", "112.5", "--start", "50", "--stop", "60", "--step", "5"],
     None, 0, "drop_cm,residual_rad\n50.0,-0.11512902790768886\n55.0,-0.03278751571125238\n"
     "60.0,0.04754425427855824\n"),
    (["optimize", "--samples", "300", "--seed", "5"], None, 0,
     '{"mean_db_cm":56.58744566920965,"median_db_cm":57.13621397866331,"std_db_cm":3.57947200367977,'
     '"residual_db_cm":55.547094971370996,"rejected_samples":0,"sample_count":300}\n'),
]
# Longer outputs, pinned by line count and sha256.
FROZEN_DIGESTS = [
    (["calib-plan", "--size", "2"], 24, "b4068a6f853dd24641084ee6db740fec7390a73cdd904560bd1549c6eab5f00d"),
    (["calib-plan", "--size", "32", "--seed", "9"], 144,
     "965d51e4a585e53da909b5f3b16ec58d45dd79738d6dd69ce99230250fa55a96"),
    (["sweep", "--distance", "112.5"], 140, "95cedcaa7a2c7c86faf7becaa30274830ebfb21decd4549601c45625a0dc7848"),
]


@pytest.mark.parametrize(("argv", "stdin", "code", "stdout"), FROZEN, ids=[" ".join(c[0]) for c in FROZEN])
def test_frozen_stdout(capsys, monkeypatch, tmp_path, argv, stdin, code, stdout):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin or ""))
    assert run(capsys, *argv)[:2] == (code, stdout)


@pytest.mark.parametrize(("argv", "lines", "digest"), FROZEN_DIGESTS, ids=[" ".join(c[0]) for c in FROZEN_DIGESTS])
def test_frozen_stdout_digests(capsys, argv, lines, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_shelf_options_only_where_the_shelf_is_read(capsys, monkeypatch):
    # ear and simulate never read the shelf, so they reject its options.
    monkeypatch.setattr("sys.stdin", io.StringIO(EYES_CSV))
    assert run(capsys, "ear", "--input", "-", "--config", "x.json")[:2] == (1, "")
    assert run(capsys, "simulate", "--camera-drop", "10")[:2] == (1, "")
    assert "--camera-drop" not in run(capsys, "simulate", "--help")[1]
    assert "--config" in run(capsys, "calib-plan", "--help")[1]


@pytest.mark.parametrize(
    ("argv", "stdin", "reason"),
    [
        (["simulate", "--proc", "fixed:nan"], None, "ms must be finite, got nan"),
        (["simulate", "--proc", "fixed:inf"], None, "ms must be finite, got inf"),
        (["simulate", "--fps", "nan"], None, "capture_fps must be finite, got nan"),
        (["simulate", "--jitter", "uniform:1,inf"], None, "hi_ms must be finite, got inf"),
        (["simulate", "--sweep", "20,inf"], None, "--sweep must be finite, got '20,inf'"),
        (["sweep", "--distance", "nan"], None, "distance_cm must be finite, got nan"),
        (["sweep", "--distance", "100", "--stop", "inf"], None, "stop must be finite, got inf"),
        (["distance-table", "--statures", "150,nan"], None, "--statures must be finite, got '150,nan'"),
        (["ear", "--input", "-"], "nan" + ",1.0" * 11 + "\n", "line 1: coordinates must be finite, got nan"),
        (["ear", "--input", "-", "--format", "json"], "[[0,0,1,1,3,1,4,0,3,-1,1,NaN]]",
         "coordinates must be finite, got nan"),
        (["ear", "--input", "-", "--threshold", "inf"], EYES_CSV, "threshold must be positive and finite, got inf"),
        (["gaze", "--eye", "51,55.5,nan", "--target", "8.5,80.5"], None, "--eye must be finite, got '51,55.5,nan'"),
        (["cell", "--x", "nan", "--y", "3"], None, "x must be finite, got nan"),
        (["cell", "--index", "3", "--camera-drop", "inf"], None, "camera_drop_cm must be finite, got inf"),
        (["optimize", "--samples", "10", "--seed", "-1"], None, "seed must be in [0, 2**128), got -1"),
        (["sweep", "--distance", "100", "--stop", "1e10", "--step", "1e-300"], None,
         "stop 10000000000.0 outside [0, 138.0]"),
        (["sweep", "--distance", "100", "--stop", "200"], None, "stop 200.0 outside [0, 138.0]"),
        (["distance-table", "--statures", "1e308"], None, "--statures overflow in millimeters, got '1e308'"),
        (["sweep", "--distance", "100", "--step", "1e-310"], None, "--step 1e-310 gives more than 100000 rows"),
        (["sweep", "--distance", "100", "--step", "0.001"], None, "--step 0.001 gives more than 100000 rows"),
        (["optimize", "--samples", "10", "--height-std", "1e308"], None,
         "height_std_cm overflows the sampled statures, got 1e+308"),
        (["optimize", "--samples", "10", "--dist-min", "1e307", "--dist-max", "1e308"], None,
         "distance_max_cm overflows the per-sample drops, got 1e+308"),
    ],
)
def test_invalid_input_exits_one_with_a_reason(capsys, monkeypatch, argv, stdin, reason):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin or ""))
    assert run(capsys, *argv) == (1, "", f"error: {reason}\n")


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _json_lines_or_csv(out: str) -> bool:
    lines = out.splitlines()
    try:
        for line in lines:
            json.loads(line, parse_constant=_reject_constant)
        return True
    except ValueError:
        pass
    rows = list(csv.reader(lines))
    return bool(re.fullmatch(r"[a-z_]+(,[a-z_]+)*", lines[0])) and all(len(r) == len(rows[0]) for r in rows)


# Any float, NaN, infinities, huge and subnormal values included, as text.
NUMBER = st.floats(allow_nan=True, allow_infinity=True).map(repr)


def numbers(n: int):
    return st.lists(NUMBER, min_size=n, max_size=n).map(",".join)


def flags(*names: str):
    """One --name=number option per flag. The = form keeps a value such as
    -inf or -1e+308 from being read as an option."""
    return st.tuples(*(NUMBER for _ in names)).map(lambda v: [f"{n}={x}" for n, x in zip(names, v)])


SHELF_FLAGS = ["--shelf-height", "--panel-height", "--panel-width", "--camera-x", "--camera-drop", "--eye-offset"]
SHELF_READERS = [["cell", "--index", "7"], ["calib-plan", "--size", "2"], ["validate-calib"]]
PROCESSING = st.one_of(
    numbers(1).map("fixed:{}".format), numbers(2).map("uniform:{}".format), numbers(2).map("normal:{}".format)
)
# Every finite capture rate and run length is valid input, and the work grows
# with their product, so simulate runs 0.5 s except where those two vary.
# Sweep rows are capped, so --start, --stop and --step take any float.
ARGVS = st.one_of(
    flags("--x", "--y").map(lambda f: ["cell", *f]),
    st.tuples(st.sampled_from(SHELF_READERS), st.sampled_from(SHELF_FLAGS).flatmap(flags)).map(lambda v: v[0] + v[1]),
    st.tuples(numbers(3), numbers(2)).map(lambda v: ["gaze", f"--eye={v[0]}", f"--target={v[1]}"]),
    st.tuples(numbers(3), numbers(3)).map(lambda v: ["gaze", f"--eye={v[0]}", f"--direction={v[1]}"]),
    flags("--stature", "--distance").map(lambda f: ["sweep", *f]),
    flags("--start", "--stop", "--step").map(lambda f: ["sweep", "--distance", "100", *f]),
    numbers(2).map(lambda v: ["distance-table", f"--statures={v}"]),
    flags("--height-mean", "--height-std", "--dist-min", "--dist-max").map(
        lambda f: ["optimize", "--samples", "50", *f]
    ),
    PROCESSING.map(lambda p: ["simulate", "--duration", "0.5", f"--proc={p}"]),
    PROCESSING.map(lambda p: ["simulate", "--duration", "0.5", f"--jitter={p}"]),
    numbers(2).map(lambda v: ["simulate", "--duration", "0.5", f"--sweep={v}"]),
    st.tuples(st.sampled_from(["nan", "inf", "-inf", "0", "-1", "30"]), st.sampled_from(["nan", "inf", "0", "0.5"])).map(
        lambda v: ["simulate", f"--fps={v[0]}", f"--duration={v[1]}"]
    ),
)
INVOCATIONS = st.one_of(
    ARGVS.map(lambda argv: (argv, "")),
    st.tuples(flags("--threshold"), numbers(12)).map(lambda v: (["ear", "--input", "-", *v[0]], v[1] + "\n")),
)


@settings(max_examples=150, deadline=None)
@given(INVOCATIONS)
def test_any_float_input_gives_a_valid_exit_and_output(invocation):
    argv, stdin = invocation
    out, saved = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        sys.stdin = saved
    out = out.getvalue()
    assert code in (0, 1, 2)
    assert "NaN" not in out and "Infinity" not in out
    # An error may follow some output (distance-table with no valid row, a
    # later eye that fails); what was printed stays well formed.
    assert _json_lines_or_csv(out)
