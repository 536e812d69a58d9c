"""Differential check of two source trees: the same drawn inputs through each,
compared output by output.

Usage, from the root of a checkout:

    python3 tools/differential.py PARENT_SRC CHANGE_SRC [--configs N] [--seed S]
        [--change-env NAME=VALUE ...]

PARENT_SRC and CHANGE_SRC are directories that hold a ``shelfgaze`` package,
such as the ``src`` of two archive copies. Each tree runs in its own
interpreter, which draws N configs from the seed and prints one line per
public output: ``sample_population`` (its arrays as sha256 of ``tobytes()``),
``optimize_camera_drop`` and ``distance_table`` on a drawn shelf and
population; ``simulate``, ``replay_metrics(trace(cfg))``, ``replay_metrics``
of that trace with event ``k % n`` deleted and with it duplicated (for config
k of a trace of n events, so the fold's error paths are compared too), and
``sweep_processing_time`` on a drawn pipeline run; and one command line
through ``shelfgaze.cli.main``, for a subcommand that loads no numpy: a valid
call, or one with an abbreviated option, an ``--opt=value`` pair, a repeated
option, a value that may not convert, an empty ``--opt=``, a leftover argument,
an option before the subcommand, ``-h`` at a drawn position, a bad
``--format``, its required option left out or a flag with no value at the end;
then, in a third of the lines, a flag given ``=--``, ``--``, ``-`` or a negative
list as a separate token. Each line is drawn from its own generator, so that
the configs stay those of earlier versions. A ``calib-plan`` line also draws
the panel width and the camera's place, and sometimes a ``--config`` file with
grid rows and columns and a ``--spec`` file with frame counts, written into the
worker's temporary working directory.
Then it replays every case of this checkout's ``tests/golden.json`` the same
way. A command line's output is its exit code, stdout digest and stderr; an
exception is an output too: its type and message. Each ``--change-env``
sets a variable in the change tree's interpreter only, so ``src src
--change-env NPY_DISABLE_CPU_FEATURES=...`` compares one tree under two sets
of numpy CPU kernels. The exit status is 0 when
every line matches, 1 at the first line that differs, which is printed as
both trees gave it, and 2 when a tree cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
from replay_cli import run_cases  # the standard library only: it imports shelfgaze when a case runs


def _draw_placement(rng: random.Random):
    from shelfgaze.geometry import ShelfConfig
    from shelfgaze.placement import PopulationSpec

    shelf = rng.uniform(100.0, 300.0)
    panel = rng.uniform(20.0, min(shelf, 250.0))
    cfg = ShelfConfig(shelf_height_cm=shelf, panel_height_cm=panel, camera_drop_cm=rng.uniform(0.0, panel),
                      eye_crown_offset_cm=rng.uniform(0.0, 15.0))
    near, far = sorted(rng.uniform(1.0, 1500.0) for _ in range(2))
    pop = PopulationSpec(
        height_mean_cm=rng.uniform(30.0, 280.0),  # from every eye below the panel to every eye too high
        height_std_cm=rng.uniform(0.1, 60.0),
        distance_min_cm=near,
        distance_max_cm=far,
        sample_count=round(math.exp(rng.uniform(0.0, math.log(20_000)))),
        seed=rng.getrandbits(64),
    )
    statures = [rng.uniform(40.0, 260.0) for _ in range(rng.randint(1, 6))]
    if rng.random() < 0.05:
        statures.append(rng.choice([-5.0, math.nan, 1e308]))
    return cfg, pop, statures


def _draw_pipeline(rng: random.Random):
    from shelfgaze.pipeline import FixedTime, NormalTime, SimConfig, UniformTime

    def distribution(top_ms: float):
        kind = rng.randrange(3)
        if kind == 0:
            return FixedTime(rng.uniform(1e-3, top_ms))
        if kind == 1:
            return UniformTime(*sorted(rng.uniform(1e-3, top_ms) for _ in range(2)))
        return NormalTime(rng.uniform(1e-3, top_ms), rng.uniform(0.0, top_ms / 3))

    cfg = SimConfig(
        processing_time=distribution(300.0),
        capture_fps=rng.uniform(0.5, 120.0),
        duration_s=math.exp(rng.uniform(math.log(1e-3), math.log(8.0))),
        seed=rng.getrandbits(64),
        capture_jitter=distribution(5.0) if rng.random() < 0.5 else None,
    )
    return cfg, [rng.uniform(1.0, 300.0) for _ in range(3)]


def _draw_cli(rng: random.Random) -> dict:
    """A replay case for a subcommand that loads no numpy: a valid call, or
    that call with one option abbreviated, given as --opt=value, repeated,
    given a value that may not convert or an empty --opt=, a leftover
    argument, an option before the subcommand, -h at a drawn position, a
    --format that is not csv or json, its first option (the required one,
    where it has one) left out, or a flag with no value at the end; then, in
    a third of the lines, that flag once more, given "--" after "=" or as a
    separate token, "-", or a negative list. A value that starts with a
    negative number is its own token. A calib-plan call takes shelf flags,
    and may take settings files, which the case's ``files`` hold."""
    def num(lo: float, hi: float) -> str:
        return f"{rng.uniform(lo, hi):.6g}"

    calls = {
        "distance-table": [("--statures", ",".join(num(40, 260) for _ in range(rng.randint(1, 4))))],
        "sweep": [("--distance", num(20, 400)), ("--start", num(0, 60)), ("--stop", num(60, 138)),
                  ("--step", num(1, 20))],
        "cell": ([("--index", str(rng.randint(0, 40)))] if rng.random() < 0.5
                 else [("--x", num(-5, 110)), ("--y", num(-5, 145))]),
        "gaze": [("--eye", f"{num(0, 102)},{num(0, 138)},{num(20, 300)}"),
                 rng.choice([("--target", f"{num(-5, 110)},{num(-5, 145)}"),
                             ("--direction", f"{num(-1, 1)},{num(-1, 1)},{num(-1, 0)}")])],
        "ear": [("--input", "-"), ("--format", "csv"), ("--threshold", num(0.05, 0.5))],
        "simulate": [("--fps", num(1, 60)), ("--duration", num(0.01, 2)), ("--proc", f"fixed:{num(1, 200)}"),
                     ("--seed", str(rng.randint(0, 99)))],
        "calib-plan": [("--size", str(rng.choice([2, 3, 4, 8, 16, 32]))), ("--seed", str(rng.randint(0, 99)))],
        "validate-calib": [("--seed", str(rng.randint(0, 99)))],
    }
    eyes = "".join(",".join(num(-5, 5) for _ in range(12)) + "\n" for _ in range(rng.randint(1, 3)))
    name = rng.choice(sorted(calls))
    options = calls[name]
    files = {}
    if name == "calib-plan":  # drawn after the name, so the other subcommands' lines stay as they were
        width = rng.uniform(10, 300)
        options += [("--panel-width", f"{width:.6g}"), ("--camera-x", num(0, width)), ("--camera-drop", num(0, 138))]
        if rng.random() < 0.5:  # a grid of 16 to 81 cells: the default protocol's 36 fit in some of them
            files["shelf.json"] = json.dumps({"grid_rows": rng.randint(4, 9), "grid_cols": rng.randint(4, 9)})
            options.append(("--config", "shelf.json"))
        if rng.random() < 0.5:
            frames = rng.randint(1, 40)
            spec = {"frames_per_point": frames, "train_frames_per_point": rng.randint(1, frames),
                    "val_frames_per_point": rng.randint(0, 5)}  # sometimes over the budget
            files["spec.json"] = json.dumps(spec)
            options.append(("--spec", "spec.json"))
    i = rng.randrange(len(options))
    flag, value = options[i]
    form = rng.randrange(12)
    if form == 1:
        options[i] = (flag[:rng.randint(3, len(flag))], value)
    elif form == 2:
        options[i] = (f"{flag}={value}",)
    elif form == 6:  # the last of a repeated option counts
        options.insert(rng.randint(0, len(options)), (flag, rng.choice([value, "7", "0.25"])))
    elif form == 7:
        options[i] = (flag, rng.choice(["abc", "1.5", "1_0", "0x10", ""]))
    elif form == 8:
        options[i] = (f"{flag}=",)
    elif form == 9:
        options.append(("--format", rng.choice(["xml", "CSV", "json "])))
    elif form == 10:  # the first option is the required one, where a subcommand has one
        del options[0]
    argv = [name, *(token for option in options for token in option)]
    if form == 3:
        argv.insert(rng.randint(1, len(argv)), rng.choice(["extra", "7", "-q", "--", "--bogus=1"]))
    elif form == 4:
        argv.insert(0, rng.choice(["--bogus", "-q", flag]))
    elif form == 5:
        argv.insert(rng.randint(0, len(argv)), "-h")
    elif form == 11:
        argv.append(flag)
    late = rng.randrange(12)  # drawn after the forms above, so that their lines stay as they were
    if late < 4:  # the last of a repeated option counts
        argv += [[f"{flag}=--"], [flag, "--"], [flag, "-"], [flag, f"-{num(0, 5)},{num(0, 50)}"]][late]
    return {"argv": argv, "stdin": eyes if name == "ear" else None, "files": files}


def _cli_outcome(case: dict) -> str:
    try:
        ((_, (code, out, err)),) = run_cases([case])
    except Exception as exc:  # the raised error is the output being compared
        return f"raised {type(exc).__name__}: {exc}"
    stdout = f"{out.count(chr(10))} lines, sha256 {hashlib.sha256(out.encode()).hexdigest()}"
    return f"exit {code}, stdout {stdout}, stderr {err!r}"


def _digest(array) -> str:
    return f"{array.dtype}[{array.size}]:{hashlib.sha256(array.tobytes()).hexdigest()}"


def _outcome(call) -> str:
    try:
        return repr(call())
    except Exception as exc:  # the raised error is the output being compared
        return f"raised {type(exc).__name__}: {exc}"


def _damaged(events: list, k: int, copies: int) -> list:
    """events with event k % n replaced by `copies` copies of it."""
    if events:
        i = k % len(events)
        events[i:i + 1] = [events[i]] * copies
    return events


def _outputs(configs: int, seed: int):
    """(label, output) of every compared call, in a fixed order."""
    from shelfgaze.pipeline import replay_metrics, simulate, sweep_processing_time, trace
    from shelfgaze.placement import distance_table, optimize_camera_drop, sample_population

    rng = random.Random(seed)
    for k in range(configs):
        cfg, pop, statures = _draw_placement(rng)
        eye, distance, rejected = sample_population(cfg, pop)
        yield f"{k} sample_population", f"{_digest(eye)} {_digest(distance)} rejected={rejected}"
        yield f"{k} optimize_camera_drop", _outcome(lambda: optimize_camera_drop(cfg, pop))
        yield f"{k} distance_table", _outcome(lambda: distance_table(cfg, statures))
        sim, times = _draw_pipeline(rng)
        yield f"{k} simulate", _outcome(lambda: simulate(sim))
        yield f"{k} replay_metrics(trace)", _outcome(lambda: replay_metrics(trace(sim), sim))
        for damage, copies in (("deleted", 0), ("duplicated", 2)):
            yield (f"{k} replay_metrics(trace, event k % n {damage})",
                   _outcome(lambda: replay_metrics(_damaged(trace(sim), k, copies), sim)))
        yield f"{k} sweep_processing_time", _outcome(lambda: sweep_processing_time(sim, times))
        case = _draw_cli(random.Random(f"cli {seed} {k}"))
        yield f"{k} cli {json.dumps(case['argv'])}", _cli_outcome(case)

    for case in json.loads((ROOT / "tests" / "golden.json").read_text(encoding="utf-8")):
        yield f"golden {json.dumps(case['argv'])}", _cli_outcome(case)


def worker(src: str, configs: int, seed: int) -> int:
    """Print the outputs of the shelfgaze under src, one line each."""
    sys.path.insert(0, os.path.abspath(src))
    import shelfgaze

    if Path(shelfgaze.__file__).resolve().parent != Path(src).resolve() / "shelfgaze":
        print(f"error: imported shelfgaze from {shelfgaze.__file__}, not {src}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # the command lines write their files here
        for label, output in _outputs(configs, seed):
            print(f"{label}: {output}", flush=True)
    return 0


def compare(parent: str, change: str, configs: int, seed: int, change_env: dict[str, str]) -> int:
    """Run both trees side by side, the change's worker with change_env added
    to its environment, and compare their lines in order."""
    procs = [
        subprocess.Popen([sys.executable, __file__, "--worker", src, "--configs", str(configs), "--seed", str(seed)],
                         stdout=subprocess.PIPE, text=True, env=env)
        for src, env in ((parent, None), (change, {**os.environ, **change_env}))
    ]
    equal = 0
    try:
        while True:
            got = [proc.stdout.readline() for proc in procs]
            if got[0] != got[1]:
                break
            if not got[0]:
                return 2 if any(proc.wait() for proc in procs) else 0
            equal += 1
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
            proc.stdout.close()
        print(f"{equal} equal outputs ({configs} configs, seed {seed}, and the golden CLI cases)")
    print("first difference:")
    for name, line in zip(("parent", "change"), got):
        print(f"  {name}: {line.rstrip() or '(no more output)'}")
    # A tree that stopped early with an error did not run.
    return 2 if any(not line and proc.returncode for line, proc in zip(got, procs)) else 1


def _assignment(text: str) -> tuple[str, str]:
    name, eq, value = text.partition("=")
    if not (name and eq):
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {text!r}")
    return name, value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", metavar="PARENT_SRC", nargs="?")
    parser.add_argument("change", metavar="CHANGE_SRC", nargs="?")
    parser.add_argument("--configs", type=int, default=3000, help="drawn configs (default 3000)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the drawn configs (default 0)")
    parser.add_argument("--change-env", metavar="NAME=VALUE", type=_assignment, action="append", default=[],
                        help="set a variable in the change tree's worker only (repeatable)")
    parser.add_argument("--worker", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.configs < 0 or args.seed < 0:
        parser.error("--configs and --seed must be nonnegative")
    if args.worker:
        return worker(args.worker, args.configs, args.seed)
    if not (args.parent and args.change):
        parser.error("PARENT_SRC and CHANGE_SRC are required")
    return compare(args.parent, args.change, args.configs, args.seed, dict(args.change_env))


if __name__ == "__main__":
    sys.exit(main())
