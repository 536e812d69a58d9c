"""tools/differential.py: a tree against itself, and against a changed copy."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "differential.py"
SRC = ROOT / "src"


CASES = json.loads((ROOT / "tests" / "golden.json").read_text(encoding="utf-8"))
EQUAL = f"{20 * 9 + len(CASES)} equal outputs"  # 9 outputs a config, then the golden cases


def _differential(parent: Path, change: Path, *options: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), str(parent), str(change), "--configs", "20", "--seed", "1",
                           *options], capture_output=True, text=True, timeout=300)


def test_a_tree_matches_itself():
    run = _differential(SRC, SRC)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.startswith(EQUAL)


def test_a_tree_matches_itself_without_avx512_kernels():
    # numpy sends float64 arctan2 to an AVX-512 kernel where the CPU has one,
    # and that kernel's last bits differ from libm's. The search only compares
    # residuals, so no output may depend on which kernel ran: the drawn
    # configs and every golden case. On a CPU without AVX-512 the variable
    # changes nothing.
    run = _differential(SRC, SRC, "--change-env", "NPY_DISABLE_CPU_FEATURES=X86_V4 AVX512_ICL AVX512_SPR")
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.startswith(EQUAL)


def _copy_with_tolerance(tmp_path: Path, value: str) -> Path:
    """A copy of src whose RESIDUAL_REFINE_TOL_CM line reads ``= value``."""
    change = tmp_path / "src"
    shutil.copytree(SRC, change, ignore=shutil.ignore_patterns("__pycache__"))
    placement = change / "shelfgaze" / "placement.py"
    text = placement.read_text(encoding="utf-8")
    assert "\nRESIDUAL_REFINE_TOL_CM = 1e-4\n" in text
    placement.write_text(text.replace("\nRESIDUAL_REFINE_TOL_CM = 1e-4\n", f"\nRESIDUAL_REFINE_TOL_CM = {value}\n"))
    return change


def test_change_env_reaches_only_the_change_tree(tmp_path):
    change = _copy_with_tolerance(tmp_path, "float(__import__('os').environ.get('SHELFGAZE_TEST_TOL', '1e-4'))")
    run = _differential(SRC, change)
    assert run.returncode == 0, run.stdout + run.stderr
    # The copy against itself: the variable differs only if one worker got it.
    run = _differential(change, change, "--change-env", "SHELFGAZE_TEST_TOL=2e-4")
    assert run.returncode == 1, run.stdout + run.stderr
    assert "optimize_camera_drop: PlacementResult(" in run.stdout.splitlines()[-2]
    run = subprocess.run([sys.executable, str(TOOL), str(SRC), str(SRC), "--change-env", "SHELFGAZE_TEST_TOL"],
                         capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout) == (2, "")
    assert "--change-env: expected NAME=VALUE, got 'SHELFGAZE_TEST_TOL'" in run.stderr


def test_a_changed_solver_tolerance_is_found(tmp_path):
    run = _differential(SRC, _copy_with_tolerance(tmp_path, "2e-4"))
    assert run.returncode == 1, run.stdout + run.stderr
    parent, change = run.stdout.splitlines()[-2:]
    assert parent.startswith("  parent: ") and change.startswith("  change: ")
    assert "optimize_camera_drop: PlacementResult(" in parent and parent[10:] != change[10:]
