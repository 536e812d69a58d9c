"""shelfgaze benchmark: one workload, one fresh process, one JSON result.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload gaze-log --seed 1 --seconds 12 --trace 0

The package is imported from ``src/`` of the checkout, never from an
installed copy. The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` they
are its per-layer metrics, and the spans are written to
``bench/out/trace-<workload>-seed<seed>.jsonl``. The line before the result
stamps the run with the machine, the library versions and the seed. The exit
code is 1 when any reference check failed and 2 when the run cannot start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 11
# End-to-end times are rescaled to a host on which the speedometer loop takes
# this long, and importing the package's dependencies alone this long (see
# README.md, "Why the fastest, part by part", and "Set-up").
REFERENCE_LOOP_S = 1e-3
REFERENCE_DEPS_S = 0.5


def _subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; (0, 0) when there are fewer than eleven samples."""
    if len(samples) < 11:
        return 0.0, 0.0
    ordered = sorted(samples)
    rank = len(ordered) - 10
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def span_cost_s(tracer_cls) -> float:
    probe = tracer_cls("probe")
    t0 = time.perf_counter()
    for _ in range(20_000):
        with probe.span("probe"):
            pass
    return (time.perf_counter() - t0) / 20_000


def layer_of(name: str) -> str:
    """The layer a metric belongs to: ``self.<layer>_ms`` is that layer's
    self time, and any other name starts with its layer."""
    if name.startswith("self."):
        return name[len("self."):].removesuffix("_ms")
    return name.split(".", 1)[0]


def select_metrics(spec: dict, figures: dict[str, float], trace: bool, idle: set[str]) -> dict:
    """The end-to-end metrics, or with `trace` the per-layer ones, each with
    its unit. A per-layer metric of an idle layer, one that only other
    workloads call, reads 0; any other metric the run did not produce is an
    error."""
    unknown = set(figures) - {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    if unknown:
        raise KeyError(f"figures missing from BENCHMARK.json: {sorted(unknown)}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in figures and layer_of(m["name"]) not in idle]
    if missing:
        raise KeyError(f"the workload did not report {missing}")
    return {m["name"]: {"value": figures.get(m["name"], 0), "unit": m["unit"]} for m in wanted}


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=False)
    return proc.stdout.strip() or "unknown"


def stamp(args: argparse.Namespace) -> dict:
    import numpy
    import scipy

    import shelfgaze

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "quick": args.quick, "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "shelfgaze": shelfgaze.__version__, "commit": git_commit(),
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="reduced input sizes, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "shelfgaze" / "__init__.py").is_file():
        print(f"error: no shelfgaze source under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import shelfgaze
    from tracer import NullTracer, Tracer
    from workloads import WORKLOADS, Context, SetupTimer, Speedometer, run_workload

    if Path(shelfgaze.__file__).resolve().parent != SRC / "shelfgaze":
        print(f"error: imported shelfgaze from {shelfgaze.__file__}, not {SRC}", file=sys.stderr)
        return 2

    reps = 2 if args.quick else SETUP_REPS
    setup = SetupTimer(_subprocess_env(), reps, args.seconds / reps)
    run_id = f"{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}"
    tracer = Tracer(run_id) if args.trace else NullTracer()
    meter = Speedometer()
    for _ in range(20):
        meter.sample()
    ctx = Context(seed=args.seed, seconds=args.seconds, quick=args.quick, tracer=tracer, meter=meter, setup=setup)
    workload = WORKLOADS[args.workload]

    out = run_workload(workload, ctx)
    figures = {
        "setup_s": median(i / d for i, d in zip(setup.imported, setup.deps)) * REFERENCE_DEPS_S,
        "speed.deps_s": median(setup.deps),
        "cli.interp_s": median(setup.bare),
        "cli.import_s": median(setup.imported) - median(setup.bare),
        "op_peak_mb": out.peak_mb,
    }
    op_min_s = sum(min(secs) for secs in out.parts.values())
    figures["op_ref_ms"] = op_min_s * REFERENCE_LOOP_S / min(meter.samples) * 1e3
    figures["op.min_ms"] = op_min_s * 1e3
    figures["speed.loop_ms"] = min(meter.samples) * 1e3
    figures["op.p50_ms"] = median(out.op_samples_s) * 1e3
    tail_s, tail_pct = tail(out.op_samples_s)
    figures.update({"op.tail_ms": tail_s * 1e3, "op.tail_pct": tail_pct, "op.samples": len(out.op_samples_s)})
    figures.update(out.layers)
    figures["failed_frac"] = out.failed / max(out.attempted, 1)

    header = stamp(args)
    if args.trace:
        ops = len(out.op_samples_s)
        for layer, secs in tracer.self_seconds().items():
            figures[f"self.{layer}_ms"] = secs / ops * 1e3
        figures["trace.spans"] = len(tracer.spans)
        figures["trace.overhead_pct"] = 100.0 * len(tracer.spans) * span_cost_s(Tracer) / out.window_s
        figures["trace.op_ref_ms"] = figures["op_ref_ms"]
        tracer.write(ROOT / "bench" / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl", header)

    others = {layer for name, w in WORKLOADS.items() if name != args.workload for layer in w.layers}
    metrics = select_metrics(spec, figures, bool(args.trace), others - set(workload.layers))
    for what, bad in out.problems.items():
        print(f"check failed: {what}: {bad} wrong answers", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload:22s} {name:32s} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"stamp": header}))
    correct = out.failed == 0
    print(json.dumps({"correct": correct, "attempted": out.attempted, "failed": out.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
