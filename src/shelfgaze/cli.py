"""Command-line frontend, and the only module that parses command-line text
or formats output. Every subcommand prints JSON lines (compact, never NaN or
Infinity) or CSV to stdout and diagnostics to stderr. A flag that sets a
dataclass field is named by it (``dest``) and declared by ``_field_flag``.

Exit codes: 0 success, 1 input or usage error, 2 domain error (geometry or
planning cannot produce a result for valid-looking input).

Dataclass settings resolve in three layers, in ``_from_args``: the dataclass
default, then a JSON settings file (--config for the shelf, --spec for the
calibration protocol), then the flags actually given. Only subcommands that
read the shelf accept the shelf flags.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, astuple
from dataclasses import fields as dataclass_fields

from .calibration import TRAINING_SETS, CalibrationSpec, emit_ground_truth, ground_truth_jsonl, plan, validate_spec
from .ear import OPEN_THRESHOLD, EyeLandmarks, classify, ear
from .errors import ShelfGazeError, require_finite
from .geometry import PersonSample, ShelfConfig
from .grid import GazeRay, PlanePoint, cell_center, point_to_cell, ray_to_cell
from .pipeline import Distribution, FixedTime, NormalTime, SimConfig, UniformTime
from .pipeline import simulate, sweep_processing_time, trace
from .placement import STATUS_OK, PopulationSpec, distance_table, imbalance_sweep, optimize_camera_drop

MAX_SWEEP_ROWS = 100_000  # the default 138 cm panel allows a 0.0014 cm step


def _print_json(value: object) -> None:
    """One compact JSON line; NaN or infinity raises ValueError (exit 1)."""
    print(json.dumps(value, separators=(",", ":"), allow_nan=False))


def _print_csv(header: str, rows) -> None:
    """The header line, then each row's values joined by commas."""
    print("\n".join([header, *(",".join(map(str, row)) for row in rows)]))


def _print_point_cell(p: PlanePoint, cell: int) -> None:
    _print_json({**asdict(p), "cell": cell})


def _read_fields(path: str, cls: type, label: str) -> dict:
    """The JSON object in the file at ``path``, keyed by fields of ``cls``."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{label} file must hold a JSON object")
    unknown = sorted(set(data) - {f.name for f in dataclass_fields(cls)})
    if unknown:
        raise ValueError(f"unknown {label} keys: {unknown}")
    return data


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; here that code is reserved for
    domain errors, so usage problems exit 1 instead."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _field_flag(p, cls: type, flag: str, field: str, help_text: str, metavar: str | None = None) -> None:
    """``flag`` sets ``field`` of ``cls``. With no argparse default, a flag left
    out reads None; the ``{}`` in ``help_text`` shows the dataclass default."""
    default = getattr(cls, field)
    metavar = metavar or flag[2:].upper().replace("-", "_")
    p.add_argument(flag, dest=field, type=type(default), metavar=metavar, help=help_text.format(default))


def _shelf_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("shelf configuration")
    group.add_argument("--config", metavar="PATH", help="JSON file of shelf settings; explicit flags override it")
    for flag, field, text in (
        ("--shelf-height", "shelf_height_cm", "shelf top height"),
        ("--panel-height", "panel_height_cm", "front panel height"),
        ("--panel-width", "panel_width_cm", "front panel width"),
        ("--camera-x", "camera_x_cm", "camera horizontal position"),
        ("--camera-drop", "camera_drop_cm", "camera drop below the shelf top"),
        ("--eye-offset", "eye_crown_offset_cm", "crown-to-eye vertical offset"),
    ):
        _field_flag(group, ShelfConfig, flag, field, text + " (default {:g})", "CM")
    return parent


def _from_args(cls: type, args: argparse.Namespace, settings: dict | None = None):
    """``cls`` from its defaults, overridden by ``settings``, overridden by
    every flag whose dest is one of its fields and whose value is not None."""
    given = {f.name: getattr(args, f.name) for f in dataclass_fields(cls) if getattr(args, f.name, None) is not None}
    return cls(**{**(settings or {}), **given})


def _shelf_from_args(args: argparse.Namespace) -> ShelfConfig:
    settings = None if args.config is None else _read_fields(args.config, ShelfConfig, "config")
    return _from_args(ShelfConfig, args, settings)


def _parse_floats(text: str, label: str, count: int | None = None) -> tuple[float, ...]:
    """Finite comma-separated numbers given to the flag ``label``: exactly
    ``count`` of them, or any number with blank items skipped."""
    parts = [part for part in text.split(",") if count is not None or part.strip()]
    try:
        values = tuple(float(part) for part in parts)
    except ValueError as exc:
        amount = "" if count is None else f"{count} "
        raise ValueError(f"{label} must be {amount}comma-separated numbers, got {text!r}") from exc
    if count is not None and len(values) != count:
        raise ValueError(f"{label} must have {count} components, got {len(values)}")
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{label} must be finite, got {text!r}")
    return values


def parse_distribution(text: str) -> Distribution:
    """Parse CLI notation: fixed:T, uniform:LO,HI, or normal:MEAN,STD."""
    kind, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"expected kind:params, got {text!r}")
    try:
        params = [float(p) for p in rest.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad distribution parameters in {text!r}") from exc
    if kind == "fixed" and len(params) == 1:
        return FixedTime(params[0])
    if kind == "uniform" and len(params) == 2:
        return UniformTime(params[0], params[1])
    if kind == "normal" and len(params) == 2:
        return NormalTime(params[0], params[1])
    raise ValueError(f"unknown distribution {text!r}")


def _parsed_eye(values: list) -> EyeLandmarks:
    """``EyeLandmarks.from_flat`` for numbers read from text, where NaN and
    infinity are input errors."""
    coords = [float(v) for v in values]
    for c in coords:
        if not math.isfinite(c):
            raise ValueError(f"coordinates must be finite, got {c}")
    return EyeLandmarks.from_flat(coords)


def landmarks_from_csv(text: str) -> list[EyeLandmarks]:
    """One eye per line: x1,y1,...,x6,y6. Blank lines are skipped."""
    eyes = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            eyes.append(_parsed_eye(line.split(",")))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    return eyes


def landmarks_from_json(text: str) -> list[EyeLandmarks]:
    """JSON array of eyes, each either 12 flat numbers or six [x, y] pairs."""
    data = json.loads(text)
    if not isinstance(data, list):
        raise ValueError("expected a JSON array of eyes")
    eyes = []
    for entry in data:
        if len(entry) == 6 and all(isinstance(p, (list, tuple)) for p in entry):
            flat = [c for p in entry for c in p]
        else:
            flat = list(entry)
        eyes.append(_parsed_eye(flat))
    return eyes


def _cmd_optimize(args: argparse.Namespace) -> int:
    cfg = _shelf_from_args(args)
    _print_json(optimize_camera_drop(cfg, _from_args(PopulationSpec, args)).as_dict())
    return 0


def _cmd_distance_table(args: argparse.Namespace) -> int:
    cfg = _shelf_from_args(args)
    statures = _parse_floats(args.statures, "--statures")
    if not all(math.isfinite(stature * 10.0) for stature in statures):
        raise ValueError(f"--statures overflow in millimeters, got {args.statures!r}")
    rows = distance_table(cfg, list(statures))
    table = []  # in millimeters, the reporting unit of the printed table
    for row in rows:
        distance_mm = "" if row.distance_cm is None else f"{row.distance_cm * 10.0:.3f}"
        table.append((f"{row.stature_cm * 10.0:g}", distance_mm, row.status))
    _print_csv("stature_mm,distance_mm,status", table)
    if all(row.status != STATUS_OK for row in rows):
        print("error: no stature admits a valid distance", file=sys.stderr)
        return 2
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _shelf_from_args(args)
    stature = PopulationSpec.height_mean_cm if args.stature is None else args.stature
    person = PersonSample.from_stature(stature, args.distance, cfg)
    args.stop = cfg.panel_height_cm if args.stop is None else args.stop
    require_finite(args, "start", "stop", "step")
    for name in ("start", "stop"):
        if not 0 <= getattr(args, name) <= cfg.panel_height_cm:
            raise ValueError(f"{name} {getattr(args, name)} outside [0, {cfg.panel_height_cm}]")
    if args.step <= 0:
        raise ValueError(f"step must be positive, got {args.step}")
    if args.stop < args.start:
        raise ValueError(f"stop {args.stop} is below start {args.start}")
    # A float, so a subnormal step gives inf here instead of an OverflowError.
    steps = (args.stop - args.start) / args.step + 1e-9
    if steps >= MAX_SWEEP_ROWS:
        raise ValueError(f"--step {args.step} gives more than {MAX_SWEEP_ROWS} rows")
    drops = [args.start + i * args.step for i in range(int(steps) + 1)]
    _print_csv("drop_cm,residual_rad", imbalance_sweep(cfg, person, drops))
    return 0


def _cmd_cell(args: argparse.Namespace) -> int:
    cfg = _shelf_from_args(args)
    by_index = args.index is not None
    by_point = args.x is not None or args.y is not None
    if by_index == by_point:
        raise ValueError("give either --index or both --x and --y")
    if by_index:
        _print_point_cell(cell_center(cfg, args.index), args.index)
        return 0
    if args.x is None or args.y is None:
        raise ValueError("point lookup needs both --x and --y")
    require_finite(args, "x", "y")
    point = PlanePoint(args.x, args.y)
    _print_point_cell(point, point_to_cell(cfg, point))
    return 0


def _cmd_gaze(args: argparse.Namespace) -> int:
    cfg = _shelf_from_args(args)
    eye = _parse_floats(args.eye, "--eye", 3)
    if (args.direction is None) == (args.target is None):
        raise ValueError("give exactly one of --direction or --target")
    if args.direction is not None:
        d = _parse_floats(args.direction, "--direction", 3)
        norm = math.sqrt(sum(c * c for c in d))
        if norm == 0:
            raise ValueError("--direction must be nonzero")
        ray = GazeRay(eye, (d[0] / norm, d[1] / norm, d[2] / norm))
    else:
        tx, ty = _parse_floats(args.target, "--target", 2)
        ray = GazeRay.aimed_at(eye, PlanePoint(tx, ty))
    _print_point_cell(*ray_to_cell(cfg, ray))
    return 0


def _cmd_ear(args: argparse.Namespace) -> int:
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input, encoding="utf-8") as fh:
            text = fh.read()
    eyes = landmarks_from_csv(text) if args.format == "csv" else landmarks_from_json(text)
    if not eyes:
        raise ValueError("no landmarks in input")
    for eye in eyes:
        value = ear(eye)
        _print_json({"value": value, "open": classify(value, args.threshold), "threshold": args.threshold})
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    proc = parse_distribution(args.proc)
    jitter = None if args.jitter is None else parse_distribution(args.jitter)
    cfg = _from_args(SimConfig, args, {"processing_time": proc, "capture_jitter": jitter})
    if args.trace is not None:
        _print_csv("t_ms,event,frame_id", map(astuple, trace(cfg, args.trace)))
    elif args.sweep is not None:
        rows = sweep_processing_time(cfg, list(_parse_floats(args.sweep, "--sweep")))
        _print_csv("time_ms,effective_fps,mean_skips", map(astuple, rows))
    else:
        _print_json(asdict(simulate(cfg)))
    return 0


def _calibration_spec_from_args(args: argparse.Namespace) -> CalibrationSpec:
    data = {} if args.spec is None else _read_fields(args.spec, CalibrationSpec, "calibration spec")
    if "validation_cells" in data:
        data["validation_cells"] = tuple(data["validation_cells"])
    if "training_sets" in data:
        data["training_sets"] = {int(size): tuple(cells) for size, cells in data["training_sets"].items()}
    return _from_args(CalibrationSpec, args, data)


def _cmd_calib_plan(args: argparse.Namespace) -> int:
    cfg = _shelf_from_args(args)
    spec = _calibration_spec_from_args(args)
    session = plan(spec, args.size, cfg)
    print(ground_truth_jsonl(emit_ground_truth(session, cfg)), end="")
    return 0


def _cmd_validate_calib(args: argparse.Namespace) -> int:
    cfg = _shelf_from_args(args)
    violations = validate_spec(_calibration_spec_from_args(args), cfg)
    _print_json([asdict(v) for v in violations])
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
    _field_flag(p, PopulationSpec, "--samples", "sample_count", "population size (default {})")
    _field_flag(p, PopulationSpec, "--seed", "seed", "random seed (default {})")
    _field_flag(p, PopulationSpec, "--height-mean", "height_mean_cm", "mean stature in cm (default {})")
    _field_flag(p, PopulationSpec, "--height-std", "height_std_cm", "stature std in cm (default {})")
    _field_flag(p, PopulationSpec, "--dist-min", "distance_min_cm", "min viewing distance in cm (default {})")
    _field_flag(p, PopulationSpec, "--dist-max", "distance_max_cm", "max viewing distance in cm (default {})")
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
    p.add_argument("--stature", type=float, help=f"stature in cm (default {PopulationSpec.height_mean_cm})")
    p.add_argument("--distance", type=float, required=True, help="viewing distance in cm")
    p.add_argument("--start", type=float, default=0.0, help="first drop in cm (default %(default)s)")
    p.add_argument("--stop", type=float, help="last drop in cm (default: panel height)")
    step_help = f"drop increment in cm (default %(default)s); at most {MAX_SWEEP_ROWS} rows"
    p.add_argument("--step", type=float, default=1.0, help=step_help)
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
        help="eye aspect ratio readings from a landmarks file",
        description="Read six-point eye landmarks and print one JSON reading per eye "
        "with open/closed classification.",
    )
    p.add_argument("--input", required=True, help="landmarks file, or - for stdin")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="input format (default %(default)s)")
    p.add_argument(
        "--threshold", type=float, default=OPEN_THRESHOLD, help="open/closed threshold (default %(default)s)"
    )
    p.set_defaults(func=_cmd_ear)

    p = sub.add_parser(
        "simulate",
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
    _field_flag(p, SimConfig, "--fps", "capture_fps", "capture rate (default {})")
    _field_flag(p, SimConfig, "--duration", "duration_s", "run length in seconds (default {})")
    _field_flag(p, SimConfig, "--seed", "seed", "random seed (default {})")
    p.add_argument("--jitter", help="optional capture-time jitter distribution")
    p.add_argument("--trace", type=int, metavar="N", help="print the first N events as CSV")
    p.add_argument(
        "--sweep",
        metavar="T1,T2,...",
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
    *smaller, largest = TRAINING_SETS
    sizes = f"{', '.join(map(str, smaller))}, or {largest}"
    p.add_argument("--size", type=int, required=True, help=f"training set size ({sizes})")
    _field_flag(p, CalibrationSpec, "--seed", "seed", "shuffle seed (default {})")
    p.add_argument("--spec", metavar="PATH", help="JSON overrides for the session protocol")
    p.set_defaults(func=_cmd_calib_plan)

    p = sub.add_parser(
        "validate-calib",
        parents=[shelf],
        help="check a calibration protocol for overlap/symmetry/budget problems",
        description="Print a JSON array of violations (empty when the protocol is "
        "consistent). Exits 2 when violations are found.",
    )
    _field_flag(p, CalibrationSpec, "--seed", "seed", "recorded in the protocol; does not affect checks")
    p.add_argument("--spec", metavar="PATH", help="JSON overrides for the session protocol")
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
    except (ShelfGazeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ShelfGazeError) else 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
