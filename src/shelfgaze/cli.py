"""Command-line frontend. Every subcommand prints machine-readable output
(JSON or CSV) to stdout and diagnostics to stderr.

Exit codes: 0 success, 1 input or usage error, 2 domain error (geometry or
planning cannot produce a result for valid-looking input).

Shelf settings resolve in three layers: built-in defaults, then a JSON
--config file, then explicit flags.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields as dataclass_fields

from .calibration import CalibrationSpec, emit_ground_truth, ground_truth_jsonl, plan, validate_spec
from .ear import EarReading, ear, landmarks_from_csv, landmarks_from_json
from .errors import ShelfGazeError
from .geometry import PersonSample, ShelfConfig
from .grid import GazeRay, PlanePoint, cell_center, point_cell_json, point_to_cell, ray_to_cell
from .pipeline import SimConfig, parse_distribution, simulate, sweep_processing_time, trace, trace_csv
from .placement import (
    STATUS_OK,
    PopulationSpec,
    distance_table,
    distance_table_csv,
    imbalance_sweep,
    imbalance_sweep_csv,
    optimize_camera_drop,
)

_SHELF_FLAG_FIELDS = {
    "shelf_height": "shelf_height_cm",
    "panel_height": "panel_height_cm",
    "panel_width": "panel_width_cm",
    "camera_x": "camera_x_cm",
    "camera_drop": "camera_drop_cm",
    "eye_offset": "eye_crown_offset_cm",
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; here that code is reserved for
    domain errors, so usage problems exit 1 instead."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _shelf_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("shelf configuration")
    group.add_argument(
        "--config", metavar="PATH", help="JSON file of shelf settings; explicit flags override it"
    )
    group.add_argument("--shelf-height", type=float, metavar="CM", help="shelf top height (default 181)")
    group.add_argument("--panel-height", type=float, metavar="CM", help="front panel height (default 138)")
    group.add_argument("--panel-width", type=float, metavar="CM", help="front panel width (default 102)")
    group.add_argument("--camera-x", type=float, metavar="CM", help="camera horizontal position (default 51)")
    group.add_argument(
        "--camera-drop", type=float, metavar="CM", help="camera drop below the shelf top (default 55.5)"
    )
    group.add_argument(
        "--eye-offset", type=float, metavar="CM", help="crown-to-eye vertical offset (default 4.8)"
    )
    return parent


def _shelf_from_args(args: argparse.Namespace) -> ShelfConfig:
    settings: dict = {}
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        known = {f.name for f in dataclass_fields(ShelfConfig)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        settings.update(data)
    for flag, field_name in _SHELF_FLAG_FIELDS.items():
        value = getattr(args, flag)
        if value is not None:
            settings[field_name] = value
    return ShelfConfig(**settings)


def _parse_floats(text: str, count: int, label: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"{label} must be {count} comma-separated numbers, got {text!r}") from exc
    if len(values) != count:
        raise ValueError(f"{label} must have {count} components, got {len(values)}")
    return values


def _cmd_optimize(args: argparse.Namespace) -> int:
    cfg = _shelf_from_args(args)
    pop = PopulationSpec(
        height_mean_cm=args.height_mean,
        height_std_cm=args.height_std,
        distance_min_cm=args.dist_min,
        distance_max_cm=args.dist_max,
        sample_count=args.samples,
        seed=args.seed,
    )
    result = optimize_camera_drop(cfg, pop)
    print(json.dumps(result.as_dict(), separators=(",", ":")))
    return 0


def _cmd_distance_table(args: argparse.Namespace) -> int:
    cfg = _shelf_from_args(args)
    statures = [float(s) for s in args.statures.split(",") if s.strip()]
    rows = distance_table(cfg, statures)
    print(distance_table_csv(rows), end="")
    if all(row.status != STATUS_OK for row in rows):
        print("error: no stature admits a valid distance", file=sys.stderr)
        return 2
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _shelf_from_args(args)
    person = PersonSample.from_stature(args.stature, args.distance, cfg)
    stop = cfg.panel_height_cm if args.stop is None else args.stop
    if args.step <= 0:
        raise ValueError(f"step must be positive, got {args.step}")
    if stop < args.start:
        raise ValueError(f"stop {stop} is below start {args.start}")
    count = int(math.floor((stop - args.start) / args.step + 1e-9)) + 1
    drops = [args.start + i * args.step for i in range(count)]
    print(imbalance_sweep_csv(imbalance_sweep(cfg, person, drops)), end="")
    return 0


def _cmd_cell(args: argparse.Namespace) -> int:
    cfg = _shelf_from_args(args)
    by_index = args.index is not None
    by_point = args.x is not None or args.y is not None
    if by_index == by_point:
        raise ValueError("give either --index or both --x and --y")
    if by_index:
        print(point_cell_json(cell_center(cfg, args.index), args.index))
        return 0
    if args.x is None or args.y is None:
        raise ValueError("point lookup needs both --x and --y")
    point = PlanePoint(args.x, args.y)
    print(point_cell_json(point, point_to_cell(cfg, point)))
    return 0


def _cmd_gaze(args: argparse.Namespace) -> int:
    cfg = _shelf_from_args(args)
    eye = _parse_floats(args.eye, 3, "--eye")
    if (args.direction is None) == (args.target is None):
        raise ValueError("give exactly one of --direction or --target")
    if args.direction is not None:
        d = _parse_floats(args.direction, 3, "--direction")
        norm = math.sqrt(sum(c * c for c in d))
        if norm == 0:
            raise ValueError("--direction must be nonzero")
        ray = GazeRay(eye, (d[0] / norm, d[1] / norm, d[2] / norm))
    else:
        tx, ty = _parse_floats(args.target, 2, "--target")
        ray = GazeRay.aimed_at(eye, PlanePoint(tx, ty))
    hit, cell = ray_to_cell(cfg, ray)
    print(point_cell_json(hit, cell))
    return 0


def _cmd_ear(args: argparse.Namespace) -> int:
    if args.threshold <= 0:
        raise ValueError(f"threshold must be positive, got {args.threshold}")
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input, encoding="utf-8") as fh:
            text = fh.read()
    eyes = landmarks_from_csv(text) if args.format == "csv" else landmarks_from_json(text)
    if not eyes:
        raise ValueError("no landmarks in input")
    for eye in eyes:
        print(EarReading(ear(eye), args.threshold).as_json())
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = SimConfig(
        processing_time=parse_distribution(args.proc),
        capture_fps=args.fps,
        duration_s=args.duration,
        seed=args.seed,
        capture_jitter=None if args.jitter is None else parse_distribution(args.jitter),
    )
    if args.trace is not None:
        print(trace_csv(trace(cfg, args.trace)), end="")
    elif args.sweep is not None:
        times = [float(t) for t in args.sweep.split(",") if t.strip()]
        rows = sweep_processing_time(cfg, times)
        print("time_ms,effective_fps,mean_skips")
        for row in rows:
            print(f"{row.time_ms!r},{row.effective_fps!r},{row.mean_skips!r}")
    else:
        print(simulate(cfg).as_json())
    return 0


def _calibration_spec_from_args(args: argparse.Namespace) -> CalibrationSpec:
    overrides: dict = {"seed": args.seed}
    spec_path = getattr(args, "spec", None)
    if spec_path is not None:
        with open(spec_path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("calibration spec file must hold a JSON object")
        known = {f.name for f in dataclass_fields(CalibrationSpec)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown calibration spec keys: {unknown}")
        if "validation_cells" in data:
            data["validation_cells"] = tuple(data["validation_cells"])
        if "training_sets" in data:
            data["training_sets"] = {
                int(size): tuple(cells) for size, cells in data["training_sets"].items()
            }
        overrides.update(data)
    return CalibrationSpec(**overrides)


def _cmd_calib_plan(args: argparse.Namespace) -> int:
    cfg = _shelf_from_args(args)
    spec = _calibration_spec_from_args(args)
    session = plan(spec, args.size, cfg)
    print(ground_truth_jsonl(emit_ground_truth(session, cfg)), end="")
    return 0


def _cmd_validate_calib(args: argparse.Namespace) -> int:
    cfg = _shelf_from_args(args)
    spec = _calibration_spec_from_args(args)
    violations = validate_spec(spec, cfg)
    print(
        json.dumps(
            [{"kind": v.kind, "detail": v.detail} for v in violations],
            separators=(",", ":"),
        )
    )
    return 0 if not violations else 2


def build_parser() -> _Parser:
    shelf = _shelf_parent()
    parser = _Parser(
        prog="shelfgaze",
        description="Planning and simulation tools for shelf-mounted gaze capture.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser(
        "optimize",
        parents=[shelf],
        help="Monte Carlo camera drop placement over a shopper population",
        description="Sample a shopper population and report camera drop statistics "
        "(mean/median/std of the per-person bisector drop, plus the drop minimizing "
        "the mean squared angular imbalance).",
    )
    p.add_argument("--samples", type=int, default=100_000, help="population size (default %(default)s)")
    p.add_argument("--seed", type=int, default=0, help="random seed (default %(default)s)")
    p.add_argument("--height-mean", type=float, default=165.0, help="mean stature in cm (default %(default)s)")
    p.add_argument("--height-std", type=float, default=6.0, help="stature std in cm (default %(default)s)")
    p.add_argument("--dist-min", type=float, default=75.0, help="min viewing distance in cm (default %(default)s)")
    p.add_argument("--dist-max", type=float, default=150.0, help="max viewing distance in cm (default %(default)s)")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser(
        "distance-table",
        parents=[shelf],
        help="recommended viewing distance per stature (CSV, millimeters)",
        description="For each stature, the distance at which the configured camera drop "
        "sits exactly on the person's bisector. Rows with no valid distance are marked.",
    )
    p.add_argument(
        "--statures",
        default="150,155,160,165,170,175,180",
        help="comma-separated statures in cm (default %(default)s)",
    )
    p.set_defaults(func=_cmd_distance_table)

    p = sub.add_parser(
        "sweep",
        parents=[shelf],
        help="angular imbalance vs camera drop for one person (CSV)",
        description="Signed angular imbalance (upper minus lower viewing half-angle) "
        "across candidate camera drops; the zero crossing is the bisector drop.",
    )
    p.add_argument("--stature", type=float, default=165.0, help="stature in cm (default %(default)s)")
    p.add_argument("--distance", type=float, required=True, help="viewing distance in cm")
    p.add_argument("--start", type=float, default=0.0, help="first drop in cm (default %(default)s)")
    p.add_argument("--stop", type=float, default=None, help="last drop in cm (default: panel height)")
    p.add_argument("--step", type=float, default=1.0, help="drop increment in cm (default %(default)s)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "cell",
        parents=[shelf],
        help="grid cell lookup: center of an index, or cell owning a point",
        description="With --index, print that cell's center. With --x/--y, print the "
        "cell owning the point. Coordinates are panel cm, origin top-left, y down.",
    )
    p.add_argument("--index", type=int, help="cell index 1..rows*cols, row-major from top-left")
    p.add_argument("--x", type=float, help="point x in cm")
    p.add_argument("--y", type=float, help="point y in cm")
    p.set_defaults(func=_cmd_cell)

    p = sub.add_parser(
        "gaze",
        parents=[shelf],
        help="intersect a gaze ray with the panel and report the cell",
        description="Eye position is x,y,z in panel coordinates (z toward the viewer, cm). "
        "Aim with a direction vector (normalized internally) or a target point on the panel.",
    )
    p.add_argument("--eye", required=True, metavar="X,Y,Z", help="eye position in cm")
    p.add_argument("--direction", metavar="DX,DY,DZ", help="gaze direction (any length)")
    p.add_argument("--target", metavar="X,Y", help="panel point to aim at")
    p.set_defaults(func=_cmd_gaze)

    p = sub.add_parser(
        "ear",
        parents=[shelf],
        help="eye aspect ratio readings from a landmarks file",
        description="Read six-point eye landmarks and print one JSON reading per eye "
        "with open/closed classification.",
    )
    p.add_argument("--input", required=True, help="landmarks file, or - for stdin")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="input format (default %(default)s)")
    p.add_argument("--threshold", type=float, default=0.2, help="open/closed threshold (default %(default)s)")
    p.set_defaults(func=_cmd_ear)

    p = sub.add_parser(
        "simulate",
        parents=[shelf],
        help="discrete-event run of the capture/processing pipeline",
        description="Single-slot latest-frame queue between a fixed-rate camera and a "
        "consumer with the given processing-time distribution. Prints metrics JSON, "
        "or an event trace / processing-time sweep as CSV.",
    )
    p.add_argument(
        "--proc",
        default="fixed:83.33",
        help="processing time distribution: fixed:T, uniform:LO,HI, normal:MEAN,STD in ms "
        "(default %(default)s)",
    )
    p.add_argument("--fps", type=float, default=30.0, help="capture rate (default %(default)s)")
    p.add_argument("--duration", type=float, default=60.0, help="run length in seconds (default %(default)s)")
    p.add_argument("--seed", type=int, default=0, help="random seed (default %(default)s)")
    p.add_argument("--jitter", default=None, help="optional capture-time jitter distribution")
    p.add_argument("--trace", type=int, metavar="N", default=None, help="print the first N events as CSV")
    p.add_argument(
        "--sweep",
        metavar="T1,T2,...",
        default=None,
        help="sweep fixed processing times (ms) and print fps/skips per row",
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "calib-plan",
        parents=[shelf],
        help="per-frame calibration ground truth for a training set size (JSONL)",
        description="Plan a calibration session: training cells for the chosen set size "
        "plus the four validation cells, three training frames and one validation frame "
        "per cell, selected by seeded shuffle.",
    )
    p.add_argument("--size", type=int, required=True, help="training set size (2, 4, 8, 16, or 32)")
    p.add_argument("--seed", type=int, default=0, help="shuffle seed (default %(default)s)")
    p.add_argument("--spec", metavar="PATH", default=None, help="JSON overrides for the session protocol")
    p.set_defaults(func=_cmd_calib_plan)

    p = sub.add_parser(
        "validate-calib",
        parents=[shelf],
        help="check a calibration protocol for overlap/symmetry/budget problems",
        description="Print a JSON array of violations (empty when the protocol is "
        "consistent). Exits 2 when violations are found.",
    )
    p.add_argument("--seed", type=int, default=0, help="recorded in the protocol; does not affect checks")
    p.add_argument("--spec", metavar="PATH", default=None, help="JSON overrides for the session protocol")
    p.set_defaults(func=_cmd_validate_calib)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 1
    try:
        return args.func(args)
    except ShelfGazeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
