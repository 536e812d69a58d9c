"""Command-line interface: output bytes, exit codes, config precedence."""

import argparse
import csv
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from shelfgaze.calibration import CalibrationSpec
from shelfgaze.cli import _SUBCOMMANDS, _rows, _table_parse, build_parser, main
from shelfgaze.geometry import ShelfConfig
from shelfgaze.placement import PopulationSpec

from replay_cli import replay

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
# Every frozen command-line case: argv, stdin, input files, exit code, stdout
# and stderr, in the shape replay_cli.py documents. The help pages and usage
# errors were captured while every call built all nine subparsers; optimize's
# outputs come from the exhaustive 0.1 cm residual scan that preceded the
# branch-and-bound search, which must reproduce them byte for byte.
CASES = json.loads((TESTS / "golden.json").read_text(encoding="utf-8"))
HELP_PAGES = [case for case in CASES if case["argv"][-1:] == ["--help"]]
ERRORS = [case for case in CASES if case["code"] == 1]
DIGESTS = [case for case in CASES if isinstance(case["stdout"], list) and case not in HELP_PAGES]
OUTPUTS = [case for case in CASES if case not in HELP_PAGES + ERRORS + DIGESTS]
# optimize is the one subcommand that loads numpy (test_import_does_not_load_numpy).
NUMPY = [case for case in OUTPUTS + DIGESTS if case["argv"][0] == "optimize"]
EYES_CSV = "0,0,1,1,3,1,4,0,3,-1,1,-1\n0,0,1,0.1,2,0.1,3,0,2,-0.1,1,-0.1\n"
DEGENERATE_CSV = "0,0,1,1,3,1,0,0,3,-1,1,-1\n" + EYES_CSV  # its corners p1 and p4 coincide


def each_case(cases: list, name=" ".join):
    return pytest.mark.parametrize("case", cases, ids=[name(case["argv"]) for case in cases])


@pytest.fixture
def workdir(monkeypatch, tmp_path):
    """A working directory for the cases' files; the COLUMNS and sys.stdin
    that replay sets are restored after the test."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr("sys.stdin", sys.stdin)


def replay_child(exe: str) -> subprocess.Popen:
    """replay_cli.py under ``exe``, reading its cases from stdin."""
    return subprocess.Popen([exe, "-I", str(TESTS / "replay_cli.py"), str(SRC)], text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)


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


@each_case(HELP_PAGES, lambda argv: " ".join(argv[:-1]) or "top")
def test_help_pages_frozen(workdir, case):
    assert replay([case]) == []


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "sweep")[0] == 1  # missing --distance
    # An option before the subcommand: the top-level help, which
    # test_help_pages_frozen pins.
    assert run(capsys, "-h", "cell") == run(capsys, "--help")


@each_case(ERRORS)
def test_frozen_stderr(workdir, case):
    assert replay([case]) == []


def _subcommands(parser) -> list[str]:
    return [name for a in parser._actions if isinstance(a, argparse._SubParsersAction) for name in a.choices]


def test_parser_builds_only_the_named_subcommand():
    lone = build_parser("cell")
    assert (lone.prog, _subcommands(lone)) == ("shelfgaze cell", [])
    everything = [case["argv"][0] for case in HELP_PAGES[1:]]
    assert _subcommands(build_parser()) == everything
    # Under the top-level parser, whose usage text is given, each is named as alone.
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert [p.prog for p in sub.choices.values()] == [f"shelfgaze {name}" for name in everything]


def _record_builds(monkeypatch) -> dict:
    """The progs of the parsers main builds, and the counts of subparsers
    added and of parses, recorded from here on."""
    seen = {"built": [], "add_parser": 0, "parses": 0}

    def build(name=None):
        parser = build_parser(name)
        seen["built"].append(parser.prog)
        return parser

    def count(key, method):
        def counted(*args, **kwargs):
            seen[key] += 1
            return method(*args, **kwargs)
        return counted

    monkeypatch.setattr("shelfgaze.cli.build_parser", build)
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                        count("add_parser", argparse._SubParsersAction.add_parser))
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                        count("parses", argparse.ArgumentParser.parse_known_args))
    return seen


def test_main_builds_the_parser_from_sys_argv(capsys, monkeypatch):
    # A valid call is read from the option table: no parser is built and argparse parses nothing.
    seen = _record_builds(monkeypatch)
    monkeypatch.setattr("sys.argv", ["shelfgaze", "cell", "--index", "19"])
    assert main() == 0
    assert capsys.readouterr().out == '{"x_cm":8.5,"y_cm":80.5,"cell":19}\n'
    assert seen == {"built": [], "add_parser": 0, "parses": 0}


def test_usage_errors_build_no_subparser_and_parse_argv_once(capsys, monkeypatch):
    # The option table reads every argv, so argparse parses none: it only
    # writes help and usage text. An error after a subcommand builds that
    # subcommand's parser alone, the top-level usage is fixed text, and only
    # help before any subcommand builds the top-level parser, with every subparser.
    seen = _record_builds(monkeypatch)
    for argv, built in (
        (["cell", "--index", "19", "extra"], []),  # what the subcommand leaves over
        ([], []),  # no subcommand
        (["no-such-command"], []),
        (["--bogus", "cell"], []),
        (["cell", "--index", "x"], ["shelfgaze cell"]),
        (["cell", "--ind", "19", "-h"], ["shelfgaze cell"]),
        (["--help"], ["shelfgaze"]),
        (["-h", "cell"], ["shelfgaze"]),
    ):
        seen.update(built=[], add_parser=0, parses=0)
        main(argv)
        capsys.readouterr()
        subparsers = len(_SUBCOMMANDS) if built == ["shelfgaze"] else 0
        assert seen == {"built": built, "add_parser": subparsers, "parses": 0}, argv


# Each call that a reader of full option strings alone could not read, with
# what main gives for it: the call whose outcome it shares, or the last line
# of stderr after exit 1, under the usage of the prog that line names if any.
HAND_OVERS = {
    "help": (["cell", "--index", "3", "-h"], ["cell", "--help"]),
    "abbreviation": (["cell", "--ind", "3"], ["cell", "--index", "3"]),
    "leftover": (["cell", "--index", "3", "extra"], "shelfgaze: error: unrecognized arguments: extra"),
    "--": (["cell", "--", "--index", "3"], "shelfgaze: error: unrecognized arguments: -- --index 3"),
    "-- as a value": (["ear", "--input=--"], "error: [Errno 2] No such file or directory: '--'"),
    "missing value": (["cell", "--x", "1", "--index"], "shelfgaze cell: error: argument --index: expected one argument"),
    "value that starts with -": (["gaze", "--eye", "-q"], "shelfgaze gaze: error: argument --eye: expected one argument"),
    "failed conversion": (["cell", "--index", "3.5"], "shelfgaze cell: error: argument --index: invalid int value: '3.5'"),
    "bad choice": (["ear", "--input", "-", "--format", "xml"],
                   "shelfgaze ear: error: argument --format: invalid choice: 'xml' (choose from 'csv', 'json')"),
    "missing required option": (["sweep", "--start", "2"],
                                "shelfgaze sweep: error: the following arguments are required: --distance"),
    "ambiguous abbreviation": (["optimize", "--s", "5"],
                               "shelfgaze optimize: error: ambiguous option: --s could match --shelf-height, --samples, --seed"),
    "unknown subcommand": (["cel", "--index", "3"], "shelfgaze: error: argument subcommand: invalid choice: 'cel' (choose "
                           "from 'optimize', 'distance-table', 'sweep', 'cell', 'gaze', 'ear', 'simulate', 'calib-plan', "
                           "'validate-calib')"),
}


def test_each_hand_over_reason_is_reached(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(EYES_CSV))
    for reason, (argv, expected) in HAND_OVERS.items():
        code, out, err = run(capsys, *argv)
        if isinstance(expected, list):
            assert (code, out, err) == run(capsys, *expected), reason
            continue
        assert (code, out, err.splitlines()[-1]) == (1, "", expected), reason
        usage = f"usage: {expected.partition(': error: ')[0]} [-h]"
        assert err.startswith(usage if expected.startswith("shelfgaze") else expected), reason


# Values that each row type converts (and "-3", which a separate VALUE may
# start with), and values of every kind for any flag.
CONVERTS = {
    int: ["7", "0", "1_0", " 2", "-3"], float: ["1.5", "nan", "1e400", "-0.25"], None: ["fixed:8", "-", "", "a=b"],
}
ANY_VALUE = ["7", "-3", "1.5", "nan", "1_0", "", "-", "abc", "a=b", "csv", "json", "xml", "--", "-h", "-4.2,20.4"]


def _table_argvs(name: str):
    """argv for subcommand ``name`` drawn from its option rows: its flags with
    values that convert, and sometimes another item (an abbreviation or other
    token, a bare flag, any value); every required option first, or not. Each
    item is ``FLAG VALUE``, ``FLAG=VALUE`` or a bare flag."""
    rows = _rows(name)
    required = [token for flag, kwargs in rows.items() if kwargs.get("required") for token in (flag, "7")]

    def tokens(flag, value, form):
        return [f"{flag}={value}"] if form == "=" else [flag, value] if form else [flag]

    def read(flag):
        values = rows[flag].get("choices") or CONVERTS[rows[flag].get("type")]
        return st.builds(tokens, st.just(flag), st.sampled_from(values), st.sampled_from([" ", "="]))

    def call(with_required, items, others, at):
        items = items[:at] + others + items[at:]
        return name, (required if with_required else []) + [token for item in items for token in item]

    flags = st.sampled_from(sorted(rows))
    other = st.builds(
        tokens,
        st.one_of(flags, flags.flatmap(lambda f: st.integers(2, len(f) - 1).map(lambda k: f[:k])),
                  st.sampled_from(["-h", "--help", "--he", "--", "-", "extra", "--bogus"])),
        st.sampled_from(ANY_VALUE),
        st.sampled_from([" ", "=", ""]),
    )
    return st.builds(call, st.booleans(), st.lists(flags.flatmap(read), max_size=5), st.lists(other, max_size=2),
                     st.integers(0, 5))


def _readings(args) -> dict:
    """Each dest's value as its repr, so that NaN equals NaN and 0.0 differs from -0.0 and 0."""
    return {dest: repr(value) for dest, value in vars(args).items()}


def _negative_value(token: str) -> bool:
    try:
        float(token.partition(",")[0])
    except ValueError:
        return False
    return token.startswith("-")


def _joined(name: str, argv: list[str]) -> list[str]:
    """``argv`` as argparse must be given it to read it as the table does: each
    negative value joined to the option before it that takes it, for argparse
    takes a token that starts with "-" for an option unless it is one plain
    number. What follows "--" is left as it is."""
    rows, joined = _rows(name), []
    for i, token in enumerate(argv):
        if token == "--":
            return joined + argv[i:]
        option = joined[-1] if joined else ""
        matches = [flag for flag in ("--help", *rows) if option.startswith("--") and flag.startswith(option)]
        takes = option in rows or len(matches) == 1 and matches[0] != "--help"
        if _negative_value(token) and "=" not in option and takes:
            joined[-1] = f"{option}={token}"
        else:
            joined.append(token)
    return joined


def _exit_or_return(call) -> tuple:
    """What ``call()`` returns, or the code it exits with; then its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            got = call()
        except SystemExit as exc:
            got = exc.code
    return got, out.getvalue(), err.getvalue()


def _plain_choices(text: str) -> str:
    """``text`` without the quotes in each "(choose from ...)" list: later
    argparse releases print the choices without them."""
    return re.sub(r"\(choose from [^)]*\)", lambda m: m.group().replace("'", ""), text)


def _hand_over_examples(test):
    """``test`` with each argv of a subcommand in ``HAND_OVERS`` as an example."""
    for argv, _ in HAND_OVERS.values():
        test = example((argv[0], argv[1:]))(test) if argv[0] in _SUBCOMMANDS else test
    return test


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(list(_SUBCOMMANDS)).flatmap(_table_argvs))
@_hand_over_examples
@example(("cell", ["--index", "3", "--index", "4"]))  # a repeated option keeps its last value
@example(("ear", ["--input=-", "--format", "json", "--threshold=-1"]))
@example(("distance-table", ["--statures", ""]))
@example(("optimize", ["--samples", "1_0", "--camera-drop=-5"]))
@example(("gaze", ["--eye", "-1,2,3", "--bogus", "-4.2,20.4", "--tar", "-4.2,20.4"]))
def test_table_parse_reads_as_argparse_or_hands_over(call):
    # argparse is the oracle: where the subcommand's parser reads the joined
    # argv, the table gives the same readings and leftovers; where the parser
    # prints help or rejects argv, the table does the same but exits 1, not 2.
    name, argv = call
    got = _exit_or_return(lambda: _table_parse(name, argv))
    oracle = _exit_or_return(lambda: build_parser(name).parse_known_args(_joined(name, argv)))
    # The deliberate deviations. FLAG=-- reads the value "--", which argparse
    # before 3.13 drops. -h=X and --help=X print help, and -hX is an unknown
    # option, where argparse reports "ignored explicit argument" (3.13 prints
    # help for -hX).
    if any(token.partition("=")[1:] == ("=", "--") or token.startswith("-h") and token != "-h" for token in argv):
        return
    if "ignored explicit argument" in oracle[2]:
        return
    # argparse reports an ambiguous abbreviation before it reads anything,
    # even after -h; the table reports it only when it reaches it.
    if "ambiguous option" in oracle[2]:
        assert got[0] in (0, 1)
        return
    if isinstance(oracle[0], tuple):
        assert ((_readings(got[0][0]), got[0][1]), *got[1:]) == ((_readings(oracle[0][0]), oracle[0][1]), *oracle[1:])
    else:
        assert (got[0], got[1], _plain_choices(got[2])) == (min(oracle[0], 1), oracle[1], _plain_choices(oracle[2]))


def test_table_parse_reads_every_golden_call():
    # Every valid frozen call is read by the table, as its subcommand's parser reads it.
    for case in OUTPUTS + DIGESTS:
        name, *argv = case["argv"]
        args, extra = _table_parse(name, argv)
        assert (_readings(args), extra) == (_readings(build_parser(name).parse_args(argv)), []), case["argv"]


def test_a_valid_call_loads_no_argparse():
    # In a fresh interpreter, argparse (and gettext, which it imports) load only for help and usage errors.
    probe = ("import sys; from shelfgaze.cli import main; main(sys.argv[1:]); "
             "print(sorted({'argparse', 'gettext'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for argv, loaded in ((["cell", "--index", "19"], []), (["cell", "--help"], ["argparse", "gettext"])):
        proc = subprocess.run([sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True, check=True)
        assert proc.stdout.splitlines()[-1] == repr(loaded), argv


# A valid call of each subcommand, and the probe that makes it in a fresh
# interpreter and prints the package modules and the stdlib modules of note loaded.
VALID_CALLS = {
    "optimize": ["--samples", "10"],
    "distance-table": [],
    "sweep": ["--distance", "100", "--step", "10"],
    "cell": ["--index", "19"],
    "gaze": ["--eye", "51,55.5,100", "--target", "8.5,80.5"],
    "ear": ["--input", "-"],
    "simulate": ["--duration", "1"],
    "calib-plan": ["--size", "2"],
    "validate-calib": [],
}
LOAD_PROBE = ("import sys; from shelfgaze.cli import main; assert main(sys.argv[1:]) in (0, 2); "
              "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'shelfgaze' or m in ('dataclasses', 'inspect')))")


@pytest.mark.parametrize("name", list(_SUBCOMMANDS))
def test_a_valid_call_loads_only_the_modules_its_row_names(name):
    # Besides the package, the CLI and errors, a fresh call loads only the
    # modules its row names: cell and gaze load no pipeline, placement,
    # calibration or blink, and ear loads no geometry and no dataclasses.
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", LOAD_PROBE, name, *VALID_CALLS[name]], env=env, input=EYES_CSV,
                          capture_output=True, text=True, check=True)
    modules = {"shelfgaze", "shelfgaze.cli", "shelfgaze.errors", *(f"shelfgaze.{m}" for m in _SUBCOMMANDS[name].modules)}
    # Every package module but blink defines a dataclass, and dataclasses imports inspect.
    stdlib = [] if _SUBCOMMANDS[name].modules == ("blink",) else ["dataclasses", "inspect"]
    assert proc.stdout.splitlines()[-1] == repr(sorted([*modules, *stdlib])), name


def test_top_level_help_loads_no_subcommand_module():
    # The top-level help reads each row's help line only.
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", LOAD_PROBE, "--help"], env=env, capture_output=True, text=True,
                          check=True)
    assert proc.stdout.splitlines()[-1] == repr(["shelfgaze", "shelfgaze.cli", "shelfgaze.errors"])


def test_module_entry_point_reads_sys_argv():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-m", "shelfgaze.cli", "cell", "--index", "19"],
                          env=env, capture_output=True, text=True, check=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, '{"x_cm":8.5,"y_cm":80.5,"cell":19}\n', "")


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
    # a value starting with a dash may be given in the = form.
    code, out2, _ = run(capsys, "gaze", "--eye", "51,55.5,100", "--direction=-85,50,-200")
    assert code == 0
    assert json.loads(out2)["cell"] == 19


def test_gaze_errors(capsys):
    assert run(capsys, "gaze", "--eye", "51,55.5,100")[0] == 1  # no aim
    assert run(capsys, "gaze", "--eye", "51,55.5,100", "--target", "1,2", "--direction", "0,0,-1")[0] == 1
    assert run(capsys, "gaze", "--eye", "51,55.5", "--target", "1,2")[0] == 1  # bad triple
    assert run(capsys, "gaze", "--eye", "51,55.5,100", "--direction", "0,0,1")[0] == 2  # away


@pytest.mark.parametrize(
    ("argv", "expected"),
    [
        # Components whose squares overflow, or underflow to zero, still give
        # a finite nonzero norm.
        (["--eye", "51,55.5,100", "--direction=1e200,0,-1e200"],
         (2, "", "error: point (151.0, 55.5) outside panel [0, 102.0] x [0, 138.0]\n")),
        (["--eye", "51,55.5,1e200", "--target", "1,1"], (0, '{"x_cm":1.0,"y_cm":1.0,"cell":1}\n', "")),
        (["--eye", "51,55.5,100", "--direction=-1e-200,0,-1e-200"],
         (2, "", "error: point (-48.999999999999986, 55.5) outside panel [0, 102.0] x [0, 138.0]\n")),
        # Subnormal components: dividing them by their norm would round, so
        # they are scaled by an exact power of two first.
        (["--eye", "51,55.5,100", "--direction=1e-320,0,-1e-320"],
         (2, "", "error: point (151.0, 55.5) outside panel [0, 102.0] x [0, 138.0]\n")),
        (["--eye", "51,55.5,100", "--direction=-5e-324,0,-1e-322"], (0, '{"x_cm":46.0,"y_cm":55.5,"cell":15}\n', "")),
    ],
)
def test_gaze_norm_of_extreme_components(capsys, argv, expected):
    assert run(capsys, "gaze", *argv) == expected


# A command line with a value that starts with a negative number, the same
# line with that value joined to its flag, and the exit code of both.
NEGATIVE_VALUES = [
    (["gaze", "--eye", "70,29,180", "--target", "-4.2,20.4"],
     ["gaze", "--eye", "70,29,180", "--target=-4.2,20.4"], 2),
    (["gaze", "--eye", "-1,2,3", "--target", "8.5,80.5"], ["gaze", "--eye=-1,2,3", "--target", "8.5,80.5"], 0),
    (["gaze", "--eye", "51,55.5,100", "--direction", "-0.01,-0.58,-0.75"],
     ["gaze", "--eye", "51,55.5,100", "--direction=-0.01,-0.58,-0.75"], 2),
    (["distance-table", "--statures", "-5,150"], ["distance-table", "--statures=-5,150"], 1),
    (["simulate", "--sweep", "-1,20"], ["simulate", "--sweep=-1,20"], 1),
    (["cell", "--x", "-1e3", "--y", "5"], ["cell", "--x=-1e3", "--y", "5"], 2),
    # Help takes no value, so it is printed as without the number.
    (["gaze", "-h", "-4.2,20.4"], ["gaze", "-h"], 0),
    (["--help", "-1,2"], ["--help"], 0),
]


@pytest.mark.parametrize(("argv", "joined", "code"), NEGATIVE_VALUES, ids=[" ".join(c[0]) for c in NEGATIVE_VALUES])
def test_a_negative_value_reads_as_its_joined_form(capsys, argv, joined, code):
    # argparse alone takes a token that starts with "-" for an option unless
    # it is one plain number, so "--target -4.2,20.4" exited 1 with
    # "expected one argument".
    got = run(capsys, *argv)
    assert got == run(capsys, *joined)
    assert got[0] == code
    if argv[-2:] == ["--target", "-4.2,20.4"]:
        assert got[2] == "error: point (-4.200000000000003, 20.4) outside panel [0, 102.0] x [0, 138.0]\n"


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


def test_sweep_last_drop_is_the_stop(capsys):
    # 0.3 + 1377 * 0.1 rounds to 138.00000000000003, past the 138 cm panel.
    code, out, _ = run(capsys, "sweep", "--distance", "100", "--start", "0.3", "--step", "0.1")
    assert code == 0
    assert out.splitlines()[-1].startswith("138.0,")


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 1380), st.none() | st.integers(0, 1380), st.integers(1, 25))
def test_sweep_drops_stay_within_start_and_stop(start_mm, stop_mm, step_mm):
    # One-decimal centimeters, as typed on the command line.
    start, stop = start_mm / 10, 138.0 if stop_mm is None else stop_mm / 10
    assume(start <= stop)
    argv = ["sweep", "--distance", "100", f"--start={start}", f"--step={step_mm / 10}"]
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv if stop_mm is None else [*argv, f"--stop={stop}"])
    drops = [float(row.split(",")[0]) for row in out.getvalue().splitlines()[1:]]
    assert code == 0
    assert drops[0] == start and all(start <= drop <= stop for drop in drops)


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


@pytest.mark.parametrize(
    ("argv", "settings", "reason"),
    [
        (["cell", "--index", "1", "--config"], {"panel_height_cm": "100"}, "panel_height_cm must be a number, got '100'"),
        (["validate-calib", "--config"], {"grid_rows": 2.5}, "grid_rows must be an integer, got 2.5"),
        (["validate-calib", "--config"], {"grid_rows": True}, "grid_rows must be a number, got True"),
        (["calib-plan", "--size", "2", "--spec"], {"frames_per_point": None}, "frames_per_point must be a number, got None"),
        (["calib-plan", "--size", "2", "--spec"], {"frames_per_point": 10.0},
         "frames_per_point must be an integer, got 10.0"),
        # The two below keep, as ids, the messages they got before the ranges.
        pytest.param(["calib-plan", "--size", "2", "--spec"], {"frames_per_point": 10**6},
                     "frames_per_point must be in [1, 100000], got 1000000",
                     id="argv5-settings5-frames_per_point 1000000 is above the cap of 100000"),
        pytest.param(["calib-plan", "--size", "2", "--spec"], {"seed": None}, "seed must be a number, got None",
                     id="argv6-settings6-seed must be an integer, got None"),
        (["calib-plan", "--size", "2", "--spec"], {"validation_cells": 5},
         "validation_cells must be a JSON array of cells, got 5"),
        (["calib-plan", "--size", "2", "--spec"], {"validation_cells": [8, 11, 26, 29.5]},
         "validation cell 29.5 is not an integer"),
        (["calib-plan", "--size", "2", "--spec"], {"training_sets": [1]},
         "training_sets must be a JSON object of set sizes, got [1]"),
        (["calib-plan", "--size", "2", "--spec"], {"training_sets": {"two": [6, 31]}},
         "training_sets key 'two' is not a set size"),
        (["calib-plan", "--size", "2", "--spec"], {"training_sets": {"2": 6}}, "training_sets['2'] must be a JSON array of cells, got 6"),
    ],
)
def test_settings_of_the_wrong_type_exit_one_naming_the_field(capsys, tmp_path, argv, settings, reason):
    path = tmp_path / "settings.json"
    path.write_text(json.dumps(settings))
    assert run(capsys, *argv, str(path)) == (1, "", f"error: {reason}\n")


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


@pytest.mark.parametrize(
    ("flag", "value", "field"),
    [("--dist-max", "inf", "distance_max_cm"), ("--height-mean", "nan", "height_mean_cm")],
)
def test_optimize_non_finite_population_exits_one(capsys, flag, value, field):
    code, out, err = run(capsys, "optimize", "--samples", "100", flag, value)
    assert code == 1
    assert out == ""
    assert err == f"error: {field} must be finite, got {value}\n"


@each_case(OUTPUTS)
def test_frozen_stdout(workdir, case):
    assert replay([case]) == []


@each_case(DIGESTS)
def test_frozen_stdout_digests(workdir, case):
    assert replay([case]) == []


def test_replay_reports_exactly_the_edited_cases(workdir, tmp_path):
    edited = json.loads(json.dumps([case for case in CASES if case not in NUMPY]))
    out_case = next(case for case in edited if case["argv"] == ["cell", "--index", "19"])
    out_case["stdout"] = out_case["stdout"].replace("19}", "18}")
    err_case = next(case for case in edited if case["argv"] == ["distance-table", "--statures", "150,-5"])
    err_case["stderr"] = err_case["stderr"].replace("-5.0", "-6.0")
    assert [argv for argv, *_ in replay(edited)] == [out_case["argv"], err_case["argv"]]
    # The same two and one unedited case, through a script on PATH that runs
    # what the console script runs.
    script = tmp_path / "bin" / "shelfgaze"
    script.parent.mkdir()
    script.write_text(f"#!{sys.executable}\nfrom shelfgaze.cli import entry\nentry()\n")
    script.chmod(0o755)
    env = {**os.environ, "PATH": f"{script.parent}{os.pathsep}{os.environ['PATH']}", "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, str(TESTS / "replay_cli.py"), "--installed"], env=env, text=True,
                          input=json.dumps([out_case, edited[0], err_case]), capture_output=True, check=False)
    assert proc.returncode == 1, proc.stderr
    assert [argv for argv, *_ in json.loads(proc.stdout.splitlines()[1])] == [out_case["argv"], err_case["argv"]]


CI_PYTHONS = ("3.10", "3.11", "3.12", "3.13")


def _other_ci_pythons() -> list[str]:
    """Interpreters of the other CI versions: on PATH as pythonX.Y, and
    pyenv's builds."""
    versions = [v for v in CI_PYTHONS if v != "{}.{}".format(*sys.version_info)]
    pyenv = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    found = [shutil.which(f"python{v}") for v in versions]
    found += sorted(str(p) for v in versions for p in pyenv.glob(f"{v}.*/bin/python"))
    return list(dict.fromkeys(os.path.realpath(p) for p in found if p))


def test_frozen_bytes_on_the_other_ci_pythons():
    # The frozen cases but optimize's, replayed with the standard library
    # under every other CI version that starts here; those interpreters may
    # have neither numpy nor pytest.
    cases = json.dumps([case for case in CASES if case not in NUMPY])
    runs = {exe: replay_child(exe) for exe in _other_ci_pythons()}
    replayed = {}
    for exe, proc in runs.items():
        out, err = proc.communicate(cases, timeout=60)
        started, _, differ = out.partition("\n")
        if ".".join(started.strip("[]").split(", ")[:2]) in CI_PYTHONS:  # else it did not start
            assert err == "", exe
            replayed[f"{exe} {started}"] = json.loads(differ)
    if not replayed:
        pytest.skip(f"no other interpreter of Python {', '.join(CI_PYTHONS)} starts here")
    assert replayed == dict.fromkeys(replayed, [])


def test_shelf_options_only_where_the_shelf_is_read(capsys, monkeypatch):
    # ear and simulate never read the shelf, so they reject its options.
    monkeypatch.setattr("sys.stdin", io.StringIO(EYES_CSV))
    assert run(capsys, "ear", "--input", "-", "--config", "x.json")[:2] == (1, "")
    assert run(capsys, "simulate", "--camera-drop", "10")[:2] == (1, "")
    assert "--camera-drop" not in run(capsys, "simulate", "--help")[1]
    assert "--config" in run(capsys, "calib-plan", "--help")[1]
    # The table's shelf column decides, for every subcommand, whether its help lists the shelf flags.
    readers = [name for name, row in _SUBCOMMANDS.items() if row.reads_shelf]
    assert readers == ["optimize", "distance-table", "sweep", "cell", "gaze", "calib-plan", "validate-calib"]
    for name in _SUBCOMMANDS:
        assert ("--config" in run(capsys, name, "--help")[1]) == (name in readers), name


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
        # A probe that a declared range rejects keeps, as its id, the message
        # it got before the ranges, which says what is wrong with its input.
        pytest.param(["optimize", "--samples", "10", "--seed", "-1"], None,
                     "seed must be in [0, 340282366920938463463374607431768211455], got -1",
                     id="argv14-None-seed must be in [0, 2**128), got -1"),
        (["sweep", "--distance", "100", "--stop", "1e10", "--step", "1e-300"], None,
         "stop 10000000000.0 outside [0, 138.0]"),
        (["sweep", "--distance", "100", "--stop", "200"], None, "stop 200.0 outside [0, 138.0]"),
        pytest.param(["distance-table", "--statures", "1e308"], None, "stature_cm must be in [0.0, 1000.0], got 1e+308",
                     id="argv17-None---statures overflow in millimeters, got '1e308'"),
        (["sweep", "--distance", "100", "--step", "1e-310"], None, "--step 1e-310 gives more than 100000 rows"),
        (["sweep", "--distance", "100", "--step", "0.001"], None, "--step 0.001 gives more than 100000 rows"),
        pytest.param(["optimize", "--samples", "10", "--height-std", "1e308"], None,
                     "height_std_cm must be in [0.001, 100.0], got 1e+308",
                     id="argv20-None-height_std_cm overflows the sampled statures, got 1e+308"),
        pytest.param(["optimize", "--samples", "10", "--dist-min", "1e307", "--dist-max", "1e308"], None,
                     "distance_min_cm must be in [0.001, 10000.0], got 1e+307",
                     id="argv21-None-distance_max_cm overflows the per-sample drops, got 1e+308"),
        (["simulate", "--fps", "1e9", "--duration", "1"], None,
         "--fps 1000000000.0 times --duration 1.0 gives more than 1000000 capture events"),
        (["simulate", "--sweep", "20,83.33,200,300", "--duration", "10000"], None,
         "--fps 30.0 times --duration 10000.0 times 4 --sweep values gives more than 1000000 capture events"),
        pytest.param(["optimize", "--samples", "10000000000"], None, "sample_count must be in [1, 1000000], got 10000000000",
                     id="argv24-None---samples 10000000000 is above the cap of 1000000"),
        pytest.param(["optimize", "--samples", "10", "--shelf-height", "1e20", "--panel-height", "1e20"], None,
                     "shelf_height_cm must be in [1.0, 10000.0], got 1e+20",
                     id="argv25-None-panel_height_cm 1e+20 gives more than 10001 residual grid points"),
        pytest.param(["optimize", "--samples", "10", "--dist-max", "1e306"], None,
                     "distance_max_cm must be in [0.001, 10000.0], got 1e+306",
                     id="argv26-None-distance_max_cm underflows every squared residual, got 1e+306"),
        (["simulate", "--trace", "3", "--sweep", "garbage"], None, "--trace and --sweep cannot be given together"),
        (["simulate", "--trace", "-1"], None, "--trace must be nonnegative, got -1"),
        pytest.param(["simulate", "--proc", "fixed:1e308", "--fps", "1e-304", "--duration", "1e306"], None,
                     "ms must be in [0.001, 1000000.0], got 1e+308",
                     id="argv29-None-duration_s overflows in milliseconds, got 1e+306"),
        (["ear", "--input", "-", "--format", "json"], "[5]", "eye 1 must be a JSON array, got 5"),
        (["ear", "--input", "-", "--format", "json"], "[[0,0,1,1,3,1,4,0,3,-1,1,null]]",
         "eye 1 coordinates must be numbers, got [0, 0, 1, 1, 3, 1, 4, 0, 3, -1, 1, None]"),
        (["ear", "--input", "-", "--format", "json"], '[["0","0","1","1","3","1","4","0","3","-1","1",true]]',
         "eye 1 coordinates must be numbers, got ['0', '0', '1', '1', '3', '1', '4', '0', '3', '-1', '1', True]"),
        (["ear", "--input", "-", "--format", "json"], "[[0,0,1,1,3,1,4,0,3,-1,1,true]]",
         "eye 1 coordinates must be numbers, got [0, 0, 1, 1, 3, 1, 4, 0, 3, -1, 1, True]"),
        (["calib-plan", "--size", "10", "--spec", "stdin.json"], '{"training_sets": {"1_0": [1,2,3,4,5,6,7,9,10,12]}}',
         "training_sets key '1_0' is not a set size"),
        (["calib-plan", "--size", "2", "--spec", "stdin.json"], '{"training_sets": {" 2": [6, 31]}}',
         "training_sets key ' 2' is not a set size"),
        (["calib-plan", "--size", "2", "--spec", "stdin.json"], '{"training_sets": {"+2": [6, 31]}}',
         "training_sets key '+2' is not a set size"),
        (["calib-plan", "--size", "2", "--spec", "stdin.json"], '{"training_sets": {"\\u0662": [6, 31]}}',
         "training_sets key '\u0662' is not a set size"),
        # JSON nested past the parser's recursion limit; the ids spell the input.
        pytest.param(["ear", "--input", "-", "--format", "json"], "[" * 100_000, "eye landmark JSON nests too deeply",
                     id="argv38-'[' * 100000-eye landmark JSON nests too deeply"),
        pytest.param(["cell", "--index", "1", "--config", "stdin.json"], "[" * 100_000, "config file nests JSON too deeply",
                     id="argv39-'[' * 100000-config file nests JSON too deeply"),
        pytest.param(["calib-plan", "--size", "2", "--spec", "stdin.json"], "[" * 100_000,
                     "calibration spec file nests JSON too deeply",
                     id="argv40-'[' * 100000-calibration spec file nests JSON too deeply"),
        # Eyes whose hit point would underflow or cancel to a wrong cell.
        (["gaze", "--eye", "51,55.5,1e-320", "--target", "1,1"], None,
         "eye (51.0, 55.5, 1e-320) needs |x|, |y| <= 10000.0 cm and z >= 0.001 cm"),
        (["gaze", "--eye", "1e308,55.5,1", "--target", "1,1"], None,
         "eye (1e+308, 55.5, 1.0) needs |x|, |y| <= 10000.0 cm and z >= 0.001 cm"),
        (["gaze", "--eye", "10,abc,50", "--target", "1,1"], None,
         "--eye must be 3 comma-separated numbers, got '10,abc,50'"),
        (["sweep", "--distance", "100", "--start", "50", "--stop", "10"], None, "stop 10.0 is below start 50.0"),
        (["gaze", "--eye", "10,10,50", "--direction", "0,0,0"], None, "--direction must be nonzero"),
        (["gaze", "--eye", "10,10,0", "--target", "10,10"], None, "eye and target coincide"),
        # A key of more digits than int() converts (4,300 by default).
        pytest.param(["calib-plan", "--size", "2", "--spec", "stdin.json"],
                     '{"training_sets": {"%s": [6, 31]}}' % ("9" * 5000),
                     f"training_sets key '{'9' * 5000}' is not a set size",
                     id="argv47-5000-digit training_sets key-is not a set size"),
        # Six lists of twelve numbers in all, but not six pairs.
        (["ear", "--input", "-", "--format", "json"], "[[[],[0,0,1,1],[3,1],[4,0],[3,-1],[1,-1]]]",
         "eye 1 coordinates must be numbers, got [[], [0, 0, 1, 1], [3, 1], [4, 0], [3, -1], [1, -1]]"),
        # The threshold is checked before any eye is read, so a degenerate first eye does not decide the exit.
        (["ear", "--input", "-", "--threshold", "0"], DEGENERATE_CSV, "threshold must be positive and finite, got 0.0"),
        (["ear", "--input", "-", "--threshold", "nan"], DEGENERATE_CSV, "threshold must be positive and finite, got nan"),
        (["ear", "--input", "-", "--threshold", "-1"], DEGENERATE_CSV, "threshold must be positive and finite, got -1.0"),
    ],
)
def test_invalid_input_exits_one_with_a_reason(capsys, monkeypatch, tmp_path, argv, stdin, reason):
    # The stdin text is also the file stdin.json, for the probes that read a settings file.
    (tmp_path / "stdin.json").write_text(stdin or "", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
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
# The work of a run grows with capture rate times run length, and only their
# product is capped: a run near the cap takes about 2 s. So simulate runs
# 0.5 s except where those two vary, over a fixed set of values.
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


def _main_output(argv: list, stdin: str = "") -> tuple:
    """Exit code, stdout and stderr of ``main(argv)`` with ``stdin`` as its input."""
    out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(INVOCATIONS)
def test_any_float_input_gives_a_valid_exit_and_output(invocation):
    code, out, _ = _main_output(*invocation)
    assert code in (0, 1, 2)
    assert "NaN" not in out and "Infinity" not in out
    # An error may follow some output (distance-table with no valid row, a
    # later eye that fails); what was printed stays well formed.
    assert _json_lines_or_csv(out)


# Strings that a command line may hold where a value or an option goes.
STRING_TOKENS = ["--", "-", "", "nan", "1e400", "1_0", "0x10", "-4.2,20.4", "-h", "-q", "--bogus"]
# What each subcommand is given before the drawn items: its required options,
# an aim for gaze, and a population small enough to optimize at once.
BASE_CALLS = {"optimize": ["--samples", "50"], "sweep": ["--distance", "100"], "cell": ["--index", "7"],
              "gaze": ["--eye", "51,55.5,100", "--target", "8.5,80.5"], "ear": ["--input", "-"],
              "calib-plan": ["--size", "2"]}


def _string_calls(name: str):
    """``name`` and its base call, then one to four items, each one of its
    flags in full or abbreviated with a drawn string, separate or after "="."""
    flags = st.sampled_from(sorted(_rows(name))).flatmap(lambda f: st.integers(3, len(f)).map(lambda k: f[:k]))
    item = st.builds(lambda flag, value, joined: [f"{flag}={value}"] if joined else [flag, value],
                     flags, st.sampled_from(STRING_TOKENS), st.booleans())
    items = st.lists(item, min_size=1, max_size=4)
    return items.map(lambda drawn: [name, *BASE_CALLS.get(name, []), *(token for i in drawn for token in i)])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(_SUBCOMMANDS)).flatmap(_string_calls))
@example(["cell", "--index", "1", "--config=--"])
@example(["ear", "--input", "-", "--threshold=--"])
@example(["simulate", "--proc=--"])
def test_any_string_token_gives_a_valid_exit_and_a_reason(argv):
    # The files a value names are looked for in an empty directory.
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            code, _, err = _main_output(argv, EYES_CSV)
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2)
    if code == 1:
        assert re.fullmatch(r"(shelfgaze( [a-z-]+)?: )?error: .+\n", err.splitlines(keepends=True)[-1])



# Any JSON value, integers past the float range included.
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.sampled_from([10**400, -(10**400)]), st.floats(), st.text(max_size=4)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda values: st.lists(values, max_size=4) | st.dictionaries(st.text(max_size=3), values, max_size=3),
    max_leaves=8,
)
# Arrays of eyes: any JSON, twelve values, six pairs of values, or six lists
# of numbers of any length.
EYES = st.lists(
    st.one_of(
        JSON_VALUES,
        st.lists(JSON_SCALARS, min_size=12, max_size=12),
        st.lists(st.lists(JSON_SCALARS, min_size=2, max_size=2), min_size=6, max_size=6),
        st.lists(st.lists(st.integers(-5, 5), max_size=4), min_size=6, max_size=6),
    ),
    max_size=3,
)
# (argv, settings flag, field, value): a settings file that sets one field to
# any JSON value, read by a subcommand that takes the flag, or any JSON array
# of eyes on the stdin of ear.
JSON_INPUTS = st.one_of(
    st.tuples(st.sampled_from(SHELF_READERS), st.just("--config"), st.sampled_from(fields(ShelfConfig)), JSON_VALUES),
    st.tuples(
        st.sampled_from(SHELF_READERS[1:]), st.just("--spec"), st.sampled_from(fields(CalibrationSpec)), JSON_VALUES
    ),
    st.tuples(st.just(["ear", "--input", "-", "--format", "json"]), st.none(), st.none(), EYES),
)


@settings(max_examples=300, deadline=None)
@given(JSON_INPUTS)
def test_any_json_setting_or_landmarks_give_a_valid_exit_and_output(case):
    argv, flag, field, value = case
    if flag is None:
        code, out, _ = _main_output(argv, json.dumps(value))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "settings.json"
            path.write_text(json.dumps({field.name: value}))
            code, out, _ = _main_output([*argv, flag, str(path)])
    assert code in (0, 1, 2)
    assert _json_lines_or_csv(out)
