"""Run every workload of BENCHMARK.json once untraced and once traced, and
print each metric by name, value and unit, then the tracing overhead.

    python3 bench/report.py [--seed N] [--seconds S]

Each run is a fresh ``bench/run.py`` process. The exit code is 1 when any run
failed a reference check or did not exit 0.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[int, dict | None]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        return proc.returncode or 1, None


def main() -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()

    ok = True
    overhead = []
    for workload in (w["name"] for w in spec["workloads"]):
        results = {}
        for trace in (0, 1):
            code, result = run(workload, args.seed, args.seconds, trace)
            ok &= code == 0 and result is not None and result["correct"]
            if result is None:
                print(f"{workload:22s} trace={trace} produced no result (exit {code})")
                continue
            results[trace] = result["metrics"]
            print(f"{workload:22s} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"{workload:22s} {name:32s} {m['value']:>16.6g} {m['unit']}")
        if len(results) == 2:
            plain, traced = results[0]["op_ref_ms"]["value"], results[1]["trace.op_ref_ms"]["value"]
            overhead.append((workload, 100.0 * (traced / plain - 1.0), results[1]["trace.overhead_pct"]["value"]))
    for workload, measured, estimated in overhead:
        print(f"{workload:22s} tracing overhead: op_ref_ms {measured:+.2f}% traced vs untraced run;"
              f" span bookkeeping {estimated:.3f}% of the traced window")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
