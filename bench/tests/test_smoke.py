"""Smoke test of the benchmark: every workload at reduced size, untraced and
traced. Run from the repository root with

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(BENCH))

import reference as ref  # noqa: E402
import run  # noqa: E402


def _run(*args: str, cwd: Path = BENCH.parent) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=600, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric_and_passes_its_checks(workload: str, trace: int) -> None:
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    stamp, result = json.loads(lines[-2])["stamp"], json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    for m in SPEC["end_to_end"] if not trace else []:
        assert result["metrics"][m["name"]]["value"] > 0
    assert {"nproc", "python", "numpy", "scipy", "shelfgaze", "commit", "seed"} <= set(stamp)


def test_only_idle_layers_read_zero() -> None:
    """A per-layer figure that a workload fails to produce is an error,
    unless only other workloads call its layer."""
    figures = {m["name"]: 1.0 for m in SPEC["per_layer"] if m["name"] != "cli.invalid_misreported"}
    with pytest.raises(KeyError, match="cli.invalid_misreported"):
        run.select_metrics(SPEC, figures, True, idle=set())
    assert run.select_metrics(SPEC, figures, True, idle={"cli"})["cli.invalid_misreported"]["value"] == 0
    del figures["self.cli_ms"]
    with pytest.raises(KeyError, match="self.cli_ms"):
        run.select_metrics(SPEC, figures, True, idle={"grid"})


def test_run_without_package_source_fails(tmp_path: Path) -> None:
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "gaze-log", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], capture_output=True, text=True,
                          cwd=tmp_path, timeout=120, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reference_reproduces_the_package_pins() -> None:
    """The numbers the package's own tests freeze, from the reference alone."""
    want = ref.placement(0, 100_000)
    assert want["mean_db_cm"] == pytest.approx(56.52322680671663, rel=1e-12)
    assert want["median_db_cm"] == pytest.approx(57.104438575432674, rel=1e-12)
    assert want["std_db_cm"] == pytest.approx(3.5376877298337708, rel=1e-12)
    assert want["residual_db_cm"] == pytest.approx(55.517678116363, abs=1e-3)
    assert want["rejected_samples"] == 0

    m = ref.simulate(ref.fixed(83.33), 30.0, 60.0, 0)
    assert (m["processed_count"], m["captured_count"], m["dropped_count"], m["in_flight_count"]) == (720, 1800, 1079, 1)
    assert m["skips_per_processed"] == {1: 360, 2: 359}
    assert m["mean_skips"] == pytest.approx(1.4993045897079276, rel=1e-12)
    assert m["latency_mean_ms"] == pytest.approx(107.08537037069, rel=1e-9)
    assert m["latency_p95_ms"] == pytest.approx(116.41699999999578, rel=1e-9)

    assert ref.cell_center(19) == (8.5, 80.5)
    assert ref.cell_of(np.array([17.0, 102.0, 0.0]), np.array([0.0, 138.0, 23.0])).tolist() == [2, 36, 7]
