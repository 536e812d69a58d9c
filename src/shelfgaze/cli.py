"""Command-line frontend, and the only module that parses command-line text
or prints. Every subcommand prints JSON lines (compact, never NaN or Infinity;
calib-plan's from ``calibration.plan_jsonl``) or CSV to stdout and diagnostics
to stderr. Each option is declared once, as an option row: a flag and the
keyword arguments ``add_argument`` takes. A flag that sets a dataclass field is
named by it (``dest``), and ``_field_flag`` builds its row.

Exit codes: 0 success, 1 input or usage error, 2 domain error (geometry or
planning cannot produce a result for valid-looking input).

Dataclass settings resolve in three layers, in ``_from_args``: the dataclass
default, then a JSON settings file (--config for the shelf, --spec for the
calibration protocol), then the flags actually given. Only subcommands that
read the shelf, as ``_SUBCOMMANDS`` marks them, accept the shelf flags.

The option rows are the one reader of argv after a subcommand name
(``_table_parse``): ``FLAG VALUE`` or ``FLAG=VALUE`` items, where a "--" FLAG
may be a unique prefix, a separate VALUE may start with a negative number,
and ``FLAG=--`` reads the value "--". argparse only writes help and usage
text, from the same rows: a call that names a subcommand builds that
subcommand's parser alone; only --help before it builds the top-level one.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Callable
from dataclasses import asdict
from dataclasses import fields as dataclass_fields
from operator import attrgetter
from types import SimpleNamespace
from typing import TYPE_CHECKING, NamedTuple, NoReturn

from .calibration import TRAINING_SETS, CalibrationSpec, plan, plan_jsonl, validate_spec
from .ear import OPEN_THRESHOLD, EyeLandmarks, check_threshold, classify, ear
from .errors import ShelfGazeError, check_value, field_range, require_finite
from .geometry import PersonSample, ShelfConfig, imbalance_sweep, require_on_panel
from .grid import GazeRay, PlanePoint, cell_center, point_to_cell, ray_to_cell
from .pipeline import Distribution, FixedTime, NormalTime, SimConfig, UniformTime
from .pipeline import simulate, sweep_processing_time, trace
from .placement import STATUS_OK, PopulationSpec, distance_table, optimize_camera_drop

if TYPE_CHECKING:
    import argparse

MAX_SWEEP_ROWS = 100_000  # the default 138 cm panel allows a 0.0014 cm step
MAX_CAPTURE_EVENTS = 1_000_000  # fps * duration over all runs; the default run has 1,800


# One encoder for every line; ``json.dumps`` with ``separators`` builds one per call.
_encode_json = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode


def _print_json(value: object) -> None:
    """One compact JSON line; NaN or infinity raises ValueError (exit 1)."""
    print(_encode_json(value))


def _print_csv(header: str, rows) -> None:
    """The header line, then each row's values joined by commas."""
    print("\n".join([header, *(",".join(map(str, row)) for row in rows)]))


def _print_point_cell(p: PlanePoint, cell: int) -> None:
    _print_json({**asdict(p), "cell": cell})


def _read_fields(path: str, cls: type, label: str) -> dict:
    """The JSON object in the file at ``path``, keyed by fields of ``cls``."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"{label} file nests JSON too deeply") from None
    if not isinstance(data, dict):
        raise ValueError(f"{label} file must hold a JSON object")
    unknown = sorted(set(data) - {f.name for f in dataclass_fields(cls)})
    if unknown:
        raise ValueError(f"unknown {label} keys: {unknown}")
    return data


def _field_flag(cls: type, flag: str, field: str, help_text: str, metavar: str | None = None) -> tuple[str, dict]:
    """The option row of ``flag``, which sets ``field`` of ``cls``. With no
    default, a flag left out reads None; the ``{}`` in ``help_text`` shows the
    dataclass default."""
    default = getattr(cls, field)
    metavar = metavar or flag[2:].upper().replace("-", "_")
    return flag, dict(dest=field, type=type(default), metavar=metavar, help=help_text.format(default))


def _from_args(cls: type, args: SimpleNamespace, settings: dict | None = None):
    """``cls`` from its defaults, overridden by ``settings``, overridden by
    every flag whose dest is one of its fields and whose value is not None."""
    given = {f.name: getattr(args, f.name) for f in dataclass_fields(cls) if getattr(args, f.name, None) is not None}
    return cls(**{**(settings or {}), **given})


def _shelf_from_args(args: SimpleNamespace) -> ShelfConfig:
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
    cls = {"fixed": FixedTime, "uniform": UniformTime, "normal": NormalTime}.get(kind)
    if cls is None or len(params) != len(dataclass_fields(cls)):
        raise ValueError(f"unknown distribution {text!r}")
    return cls(*params)


def _parsed_eye(values: list) -> EyeLandmarks:
    """``EyeLandmarks.from_flat`` for numbers read from text, where NaN and
    infinity are input errors."""
    coords = [float(v) for v in values]
    for c in coords:
        check_value("coordinates", c, -math.inf, math.inf)
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
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("eye landmark JSON nests too deeply") from None
    if not isinstance(data, list):
        raise ValueError("expected a JSON array of eyes")
    eyes = []
    for index, entry in enumerate(data, start=1):
        if not isinstance(entry, list):
            raise ValueError(f"eye {index} must be a JSON array, got {entry!r}")
        if len(entry) == 6 and all(isinstance(p, list) and len(p) == 2 for p in entry):
            entry = [c for p in entry for c in p]
        try:
            if any(isinstance(c, bool) or not isinstance(c, (int, float)) for c in entry):
                raise TypeError("a coordinate is not a number")
            eyes.append(_parsed_eye(entry))
        except (TypeError, OverflowError):  # not an int or float, or an int past the float range
            raise ValueError(f"eye {index} coordinates must be numbers, got {entry}") from None
    return eyes


def _cmd_optimize(args: SimpleNamespace, cfg: ShelfConfig) -> int:
    pop = _from_args(PopulationSpec, args)
    _print_json(optimize_camera_drop(cfg, pop)._asdict())
    return 0


def _cmd_distance_table(args: SimpleNamespace, cfg: ShelfConfig) -> int:
    rows = distance_table(cfg, list(_parse_floats(args.statures, "--statures")))
    table = []  # in millimeters, the reporting unit of the printed table
    for row in rows:
        distance_mm = "" if row.distance_cm is None else f"{row.distance_cm * 10.0:.3f}"
        table.append((f"{row.stature_cm * 10.0:g}", distance_mm, row.status))
    _print_csv("stature_mm,distance_mm,status", table)
    if all(row.status != STATUS_OK for row in rows):
        print("error: no stature admits a valid distance", file=sys.stderr)
        return 2
    return 0


def _cmd_sweep(args: SimpleNamespace, cfg: ShelfConfig) -> int:
    stature = PopulationSpec.height_mean_cm if args.stature is None else args.stature
    person = PersonSample.from_stature(stature, args.distance, cfg)
    args.stop = cfg.panel_height_cm if args.stop is None else args.stop
    require_finite(args, "start", "stop", "step")
    for name in ("start", "stop"):
        require_on_panel(name, getattr(args, name), cfg.panel_height_cm)
    if args.step <= 0:
        raise ValueError(f"step must be positive, got {args.step}")
    if args.stop < args.start:
        raise ValueError(f"stop {args.stop} is below start {args.start}")
    # A float, so a subnormal step gives inf here instead of an OverflowError.
    steps = (args.stop - args.start) / args.step + 1e-9
    if steps >= MAX_SWEEP_ROWS:
        raise ValueError(f"--step {args.step} gives more than {MAX_SWEEP_ROWS} rows")
    # Rounding can carry the last drop past --stop (0.3 + 1377 * 0.1 > 138).
    drops = [min(args.start + i * args.step, args.stop) for i in range(int(steps) + 1)]
    _print_csv("drop_cm,residual_rad", imbalance_sweep(cfg, person, drops))
    return 0


def _cmd_cell(args: SimpleNamespace, cfg: ShelfConfig) -> int:
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


def _cmd_gaze(args: SimpleNamespace, cfg: ShelfConfig) -> int:
    eye = _parse_floats(args.eye, "--eye", 3)
    if (args.direction is None) == (args.target is None):
        raise ValueError("give exactly one of --direction or --target")
    if args.direction is not None:
        d = _parse_floats(args.direction, "--direction", 3)
        norm = math.hypot(*d)
        if norm < sys.float_info.min:  # subnormal components: scale them exactly, or dividing rounds
            d = [math.ldexp(c, 1022) for c in d]
            norm = math.hypot(*d)
        if norm == 0:
            raise ValueError("--direction must be nonzero")
        ray = GazeRay(eye, (d[0] / norm, d[1] / norm, d[2] / norm))
    else:
        tx, ty = _parse_floats(args.target, "--target", 2)
        ray = GazeRay.aimed_at(eye, PlanePoint(tx, ty))
    _print_point_cell(*ray_to_cell(cfg, ray))
    return 0


def _cmd_ear(args: SimpleNamespace) -> int:
    check_threshold(args.threshold)  # before any eye is read, so its exit code does not depend on the data
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


def _cmd_simulate(args: SimpleNamespace) -> int:
    if args.trace is not None and args.sweep is not None:
        raise ValueError("--trace and --sweep cannot be given together")
    if args.trace is not None and args.trace < 0:
        raise ValueError(f"--trace must be nonnegative, got {args.trace}")
    proc = parse_distribution(args.proc)
    jitter = None if args.jitter is None else parse_distribution(args.jitter)
    cfg = _from_args(SimConfig, args, {"processing_time": proc, "capture_jitter": jitter})
    times = None if args.sweep is None else _parse_floats(args.sweep, "--sweep")
    runs = 1 if times is None else len(times)
    if cfg.capture_fps * cfg.duration_s * runs > MAX_CAPTURE_EVENTS:
        sweep = "" if times is None else f" times {runs} --sweep values"
        raise ValueError(
            f"--fps {cfg.capture_fps} times --duration {cfg.duration_s}{sweep} "
            f"gives more than {MAX_CAPTURE_EVENTS} capture events"
        )
    if args.trace is not None:
        _print_csv("t_ms,event,frame_id", map(attrgetter("t_ms", "kind", "frame_id"), trace(cfg, args.trace)))
    elif times is not None:
        _print_csv("time_ms,effective_fps,mean_skips", sweep_processing_time(cfg, list(times)))
    else:
        _print_json(simulate(cfg)._asdict())
    return 0


def _json_cells(value: object, label: str) -> list:
    """The JSON array of cells ``value``; another shape is a ValueError naming ``label``."""
    if not isinstance(value, list):
        raise ValueError(f"{label} must be a JSON array of cells, got {value!r}")
    return value


def _json_set_size(key: str) -> int:
    try:
        if key.isascii() and key.isdigit():  # int() alone also reads "1_0", " 2" and "+2"
            return int(key)
    except ValueError:  # more digits than int() converts
        pass
    raise ValueError(f"training_sets key {key!r} is not a set size")


def _calibration_spec_from_args(args: SimpleNamespace) -> CalibrationSpec:
    data = {} if args.spec is None else _read_fields(args.spec, CalibrationSpec, "calibration spec")
    if "validation_cells" in data:
        data["validation_cells"] = _json_cells(data["validation_cells"], "validation_cells")
    if "training_sets" in data:
        sets = data["training_sets"]
        if not isinstance(sets, dict):
            raise ValueError(f"training_sets must be a JSON object of set sizes, got {sets!r}")
        data["training_sets"] = {_json_set_size(k): _json_cells(v, f"training_sets[{k!r}]") for k, v in sets.items()}
    return _from_args(CalibrationSpec, args, data)


def _cmd_calib_plan(args: SimpleNamespace, cfg: ShelfConfig) -> int:
    spec = _calibration_spec_from_args(args)
    session = plan(spec, args.size, cfg)
    print(plan_jsonl(session, cfg), end="")
    return 0


def _cmd_validate_calib(args: SimpleNamespace, cfg: ShelfConfig) -> int:
    violations = validate_spec(_calibration_spec_from_args(args), cfg)
    _print_json([v._asdict() for v in violations])
    return 0 if not violations else 2


_SHELF_OPTIONS = (
    ("--config", dict(metavar="PATH", help="JSON file of shelf settings; explicit flags override it")),
    *(_field_flag(ShelfConfig, flag, field, label + " (default {:g})", "CM") for flag, field, label in (
        ("--shelf-height", "shelf_height_cm", "shelf top height"),
        ("--panel-height", "panel_height_cm", "front panel height"),
        ("--panel-width", "panel_width_cm", "front panel width"),
        ("--camera-x", "camera_x_cm", "camera horizontal position"),
        ("--camera-drop", "camera_drop_cm", "camera drop below the shelf top"),
        ("--eye-offset", "eye_crown_offset_cm", "crown-to-eye vertical offset"),
    )),
)
_OPTIMIZE_OPTIONS = (
    _field_flag(PopulationSpec, "--samples", "sample_count",
                f"population size (default {{}}); at most {field_range(PopulationSpec, 'sample_count')[1]}"),
    _field_flag(PopulationSpec, "--seed", "seed", "random seed (default {})"),
    _field_flag(PopulationSpec, "--height-mean", "height_mean_cm", "mean stature in cm (default {})"),
    _field_flag(PopulationSpec, "--height-std", "height_std_cm", "stature std in cm (default {})"),
    _field_flag(PopulationSpec, "--dist-min", "distance_min_cm", "min viewing distance in cm (default {})"),
    _field_flag(PopulationSpec, "--dist-max", "distance_max_cm", "max viewing distance in cm (default {})"),
)
_DISTANCE_TABLE_OPTIONS = (
    ("--statures", dict(default="150,155,160,165,170,175,180",
                        help="comma-separated statures in cm (default %(default)s)")),
)
_SWEEP_OPTIONS = (
    ("--stature", dict(type=float, help=f"stature in cm (default {PopulationSpec.height_mean_cm})")),
    ("--distance", dict(type=float, required=True, help="viewing distance in cm")),
    ("--start", dict(type=float, default=0.0, help="first drop in cm (default %(default)s)")),
    ("--stop", dict(type=float, help="last drop in cm (default: panel height)")),
    ("--step", dict(type=float, default=1.0,
                    help=f"drop increment in cm (default %(default)s); at most {MAX_SWEEP_ROWS} rows")),
)
_CELL_OPTIONS = (
    ("--index", dict(type=int, help="cell index 1..rows*cols, row-major from top-left")),
    ("--x", dict(type=float, help="point x in cm")),
    ("--y", dict(type=float, help="point y in cm")),
)
_GAZE_OPTIONS = (
    ("--eye", dict(required=True, metavar="X,Y,Z", help="eye position in cm")),
    ("--direction", dict(metavar="DX,DY,DZ", help="gaze direction (any length)")),
    ("--target", dict(metavar="X,Y", help="panel point to aim at")),
)
_EAR_OPTIONS = (
    ("--input", dict(required=True, help="landmarks file, or - for stdin")),
    ("--format", dict(choices=("csv", "json"), default="csv", help="input format (default %(default)s)")),
    ("--threshold", dict(type=float, default=OPEN_THRESHOLD, help="open/closed threshold (default %(default)s)")),
)
_SIMULATE_OPTIONS = (
    ("--proc", dict(default="fixed:83.33", help="processing time distribution: fixed:T, uniform:LO,HI, "
                    "normal:MEAN,STD in ms (default %(default)s)")),
    _field_flag(SimConfig, "--fps", "capture_fps", "capture rate (default {})"),
    _field_flag(SimConfig, "--duration", "duration_s", f"run length in seconds (default {{}}); at most "
                f"{MAX_CAPTURE_EVENTS} capture events, fps * duration summed over --sweep runs"),
    _field_flag(SimConfig, "--seed", "seed", "random seed (default {})"),
    ("--jitter", dict(help="optional capture-time jitter distribution")),
    ("--trace", dict(type=int, metavar="N", help="print the first N events as CSV")),
    ("--sweep", dict(metavar="T1,T2,...", help="sweep fixed processing times (ms) and print fps/skips per row")),
)
_SPEC_OPTION = ("--spec", dict(metavar="PATH", help="JSON overrides for the session protocol"))
_CALIB_PLAN_OPTIONS = (
    ("--size", dict(type=int, required=True, help="training set size ({}, or {})".format(
        *", ".join(map(str, TRAINING_SETS)).rsplit(", ", 1)))),
    _field_flag(CalibrationSpec, "--seed", "seed", "shuffle seed (default {})"),
    _SPEC_OPTION,
)
_VALIDATE_CALIB_OPTIONS = (
    _field_flag(CalibrationSpec, "--seed", "seed", "recorded in the protocol; does not affect checks"),
    _SPEC_OPTION,
)


class _Subcommand(NamedTuple):
    help: str  # its line in the top-level help
    description: str  # the text under its own usage
    options: tuple[tuple[str, dict], ...]  # option rows: a flag, and the keyword arguments add_argument takes
    command: Callable[..., int]
    reads_shelf: bool  # then it takes the shelf flags, and ``command`` takes ``cfg``


# Every subcommand, in --help order.
_SUBCOMMANDS = {
    "optimize": _Subcommand("Monte Carlo camera drop placement over a shopper population",
        "Sample a shopper population and report camera drop statistics (mean/median/std of the per-person "
        "bisector drop, plus the drop minimizing the mean squared angular imbalance).",
        _OPTIMIZE_OPTIONS, _cmd_optimize, True),
    "distance-table": _Subcommand("recommended viewing distance per stature (CSV, millimeters)",
        "For each stature, the distance at which the configured camera drop sits exactly on the person's "
        "bisector. Rows with no valid distance are marked.",
        _DISTANCE_TABLE_OPTIONS, _cmd_distance_table, True),
    "sweep": _Subcommand("angular imbalance vs camera drop for one person (CSV)",
        "Signed angular imbalance (upper minus lower viewing half-angle) across candidate camera drops; "
        "the zero crossing is the bisector drop.",
        _SWEEP_OPTIONS, _cmd_sweep, True),
    "cell": _Subcommand("grid cell lookup: center of an index, or cell owning a point",
        "With --index, print that cell's center. With --x/--y, print the cell owning the point. "
        "Coordinates are panel cm, origin top-left, y down.",
        _CELL_OPTIONS, _cmd_cell, True),
    "gaze": _Subcommand("intersect a gaze ray with the panel and report the cell",
        "Eye position is x,y,z in panel coordinates (z toward the viewer, cm). Aim with a direction vector "
        "(normalized internally) or a target point on the panel.",
        _GAZE_OPTIONS, _cmd_gaze, True),
    "ear": _Subcommand("eye aspect ratio readings from a landmarks file",
        "Read six-point eye landmarks and print one JSON reading per eye with open/closed classification.",
        _EAR_OPTIONS, _cmd_ear, False),
    "simulate": _Subcommand("discrete-event run of the capture/processing pipeline",
        "Single-slot latest-frame queue between a fixed-rate camera and a consumer with the given "
        "processing-time distribution. Prints metrics JSON, or an event trace / processing-time sweep as CSV.",
        _SIMULATE_OPTIONS, _cmd_simulate, False),
    "calib-plan": _Subcommand("per-frame calibration ground truth for a training set size (JSONL)",
        "Plan a calibration session: training cells for the chosen set size plus the four validation cells, "
        "three training frames and one validation frame per cell, selected by seeded shuffle.",
        _CALIB_PLAN_OPTIONS, _cmd_calib_plan, True),
    "validate-calib": _Subcommand("check a calibration protocol for overlap/symmetry/budget problems",
        "Print a JSON array of violations (empty when the protocol is consistent). Exits 2 when violations are found.",
        _VALIDATE_CALIB_OPTIONS, _cmd_validate_calib, True),
}


# The top-level usage in the three lines argparse 3.11 prints at 80 columns,
# given so that argparse does not wrap it: 3.13 keeps the "..." on the line
# before, and a terminal of 110 columns or more would get one line.
_TOP_USAGE = "shelfgaze [-h]\n{0}{{{1}}}\n{0}...".format(" " * len("usage: shelfgaze "), ",".join(_SUBCOMMANDS))


def _with_options(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """``p`` with subcommand ``name``'s option rows: the shelf rows first, in
    their own group, when its command reads the shelf."""
    row = _SUBCOMMANDS[name]
    if row.reads_shelf:
        group = p.add_argument_group("shelf configuration")
        for flag, kwargs in _SHELF_OPTIONS:
            group.add_argument(flag, **kwargs)
    for flag, kwargs in row.options:
        p.add_argument(flag, **kwargs)
    return p


def build_parser(name: str | None = None) -> argparse.ArgumentParser:
    """Subcommand ``name``'s parser, built alone; with no name, the top-level
    parser with every subcommand. They only write help and usage text:
    ``_table_parse`` reads argv. argparse (and with it gettext) is imported
    here, so a valid call loads neither."""
    import argparse

    if name is not None:
        parser = argparse.ArgumentParser(prog=f"shelfgaze {name}", description=_SUBCOMMANDS[name].description)
        return _with_options(parser, name)
    parser = argparse.ArgumentParser(
        prog="shelfgaze",
        usage=_TOP_USAGE,
        description="Planning and simulation tools for shelf-mounted gaze capture.",
    )
    # The subcommands' progs would otherwise start with the whole usage text.
    sub = parser.add_subparsers(dest="subcommand", required=True, prog="shelfgaze")
    for name, row in _SUBCOMMANDS.items():
        _with_options(sub.add_parser(name, help=row.help, description=row.description), name)
    return parser


def _usage_error(name: str | None, message: str) -> NoReturn:
    """Exit 1 with ``message`` under the usage of subcommand ``name``, or under
    the fixed top-level usage, as argparse writes a usage error; argparse exits
    2, which here is reserved for domain errors."""
    usage = f"usage: {_TOP_USAGE}\n" if name is None else build_parser(name).format_usage()
    sys.stderr.write(f"{usage}shelfgaze{'' if name is None else ' ' + name}: error: {message}\n")
    raise SystemExit(1)


def _names_option(token: str) -> bool:
    """Whether ``token`` names an option: it starts with "-", and is neither
    "-" nor a negative value (one "-" and a number before any comma)."""
    if not token.startswith("-") or token == "-":
        return False
    try:
        float(token.partition(",")[0])
    except ValueError:
        return True
    return False


def _option(name: str | None, token: str, rows: dict) -> str | None:
    """The option string of ``rows`` or the help flags that ``token``'s part
    before any "=" names: that part itself, or the one a "--" part is a unique
    prefix of; None if it names none. A help flag prints the help of
    subcommand ``name`` (with no name, the top-level help) and exits 0."""
    text = token.partition("=")[0]
    matches = [text] if text in rows or text in ("-h", "--help") else [
        flag for flag in ("--help", *rows) if text.startswith("--") and flag.startswith(text)]
    if len(matches) > 1:
        _usage_error(name, f"ambiguous option: {token} could match {', '.join(matches)}")
    if matches and matches[0] in ("-h", "--help"):
        build_parser(name).print_help()
        raise SystemExit(0)
    return matches[0] if matches else None


def _table_parse(name: str, argv: list[str]) -> tuple[SimpleNamespace, list[str]]:
    """Subcommand ``name``'s arguments read from ``argv`` by its option rows:
    every dest, set to its last value or to its default; and the tokens left
    over. An item is ``FLAG VALUE`` or ``FLAG=VALUE``, with FLAG as
    ``_option`` reads it. A separate VALUE may not name an option or be "--",
    which ends the options: it and every token after it are left over. Each
    value must convert with the row's type and lie in its choices, and every
    required option must be given; else a usage error exits 1."""
    row = _SUBCOMMANDS[name]
    rows = dict(_SHELF_OPTIONS + row.options if row.reads_shelf else row.options)
    values, extra = {}, []
    tokens = iter(argv)
    for token in tokens:
        if token == "--":
            extra += [token, *tokens]
            break
        flag = _option(name, token, rows)
        if flag is None:
            extra.append(token)
            continue
        _, eq, value = token.partition("=")
        value = value if eq else next(tokens, "--")  # a flag at the end has no value
        if not eq and _names_option(value):
            _usage_error(name, f"argument {flag}: expected one argument")
        kwargs = rows[flag]
        convert = kwargs.get("type", str)
        try:
            value = convert(value)
        except ValueError:
            _usage_error(name, f"argument {flag}: invalid {convert.__name__} value: {value!r}")
        if value not in kwargs.get("choices", (value,)):
            choices = ", ".join(map(repr, kwargs["choices"]))
            _usage_error(name, f"argument {flag}: invalid choice: {value!r} (choose from {choices})")
        values[flag] = value
    missing = [flag for flag, kwargs in rows.items() if kwargs.get("required") and flag not in values]
    if missing:
        _usage_error(name, f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(**{kwargs.get("dest", flag[2:].replace("-", "_")): values.get(flag, kwargs.get("default"))
                              for flag, kwargs in rows.items()}), extra


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    lead = []  # options before the subcommand: help exits, and any other is left over
    try:
        for token in argv:
            if token == "--" or not _names_option(token):
                break
            _option(None, token, {})
            lead.append(token)
        name, *rest = argv[len(lead):] or [None]
        if name in _SUBCOMMANDS:
            args, extra = _table_parse(name, rest)
            if lead + extra:
                _usage_error(None, f"unrecognized arguments: {' '.join(lead + extra)}")
        elif name is not None:  # worded as argparse 3.11 words it: 3.13 drops the quotes
            choices = ", ".join(map(repr, _SUBCOMMANDS))
            _usage_error(None, f"argument subcommand: invalid choice: {name!r} (choose from {choices})")
        else:
            _usage_error(None, "the following arguments are required: subcommand")
    except SystemExit as exc:
        return exc.code
    row = _SUBCOMMANDS[name]
    try:
        return row.command(args, _shelf_from_args(args)) if row.reads_shelf else row.command(args)
    except (ShelfGazeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ShelfGazeError) else 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
