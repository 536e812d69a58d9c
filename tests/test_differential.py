"""tools/differential.py: a tree against itself, and against a changed copy."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "differential.py"
SRC = ROOT / "src"


def _differential(parent: Path, change: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), str(parent), str(change), "--configs", "20", "--seed", "1"],
                          capture_output=True, text=True, timeout=300)


def test_a_tree_matches_itself():
    run = _differential(SRC, SRC)
    assert run.returncode == 0, run.stdout + run.stderr
    cases = json.loads((ROOT / "tests" / "golden.json").read_text(encoding="utf-8"))
    assert run.stdout.startswith(f"{20 * 6 + len(cases)} equal outputs")  # 6 calls a config, then the CLI cases


def test_a_changed_solver_tolerance_is_found(tmp_path):
    change = tmp_path / "src"
    shutil.copytree(SRC, change, ignore=shutil.ignore_patterns("__pycache__"))
    placement = change / "shelfgaze" / "placement.py"
    text = placement.read_text(encoding="utf-8")
    assert "\nRESIDUAL_REFINE_TOL_CM = 1e-4\n" in text
    placement.write_text(text.replace("\nRESIDUAL_REFINE_TOL_CM = 1e-4\n", "\nRESIDUAL_REFINE_TOL_CM = 2e-4\n"))
    run = _differential(SRC, change)
    assert run.returncode == 1, run.stdout + run.stderr
    parent, change = run.stdout.splitlines()[-2:]
    assert parent.startswith("  parent: ") and change.startswith("  change: ")
    assert "optimize_camera_drop: PlacementResult(" in parent and parent[10:] != change[10:]
