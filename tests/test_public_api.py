"""The benchmark harness imports from the package by name; keep those names.

Each name resolves, on first read, to the object its submodule defines."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shelfgaze

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
SRC = Path(__file__).resolve().parents[1] / "src"


def test_bench_imports_resolve():
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    names = [
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "shelfgaze"
        for alias in node.names
    ]
    assert names, "no `from shelfgaze import ...` in bench/workloads.py"
    missing = [name for name in names if not hasattr(shelfgaze, name)]
    assert missing == []


def test_gridspec_shim_returns_the_layout():
    cfg = shelfgaze.ShelfConfig(grid_rows=3, grid_cols=3)
    assert shelfgaze.GridSpec.from_shelf(cfg) is cfg


def _run_fresh(probe, *args):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", probe, *args], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# A submodule sharing an export's name (`ear`) is bound as a package attribute
# when it loads, so the first access decides what a later read sees.
IDENTITY_PROBE = """
import sys
exec(sys.argv[1], {})
import shelfgaze
for name in shelfgaze.__all__:
    value = getattr(shelfgaze, name)
    module = sys.modules["shelfgaze." + shelfgaze._MODULE_OF[name]]
    assert value is getattr(module, name), (name, value)
    assert value.__module__ == module.__name__, (name, value.__module__)
"""


@pytest.mark.parametrize(
    "first_access", ["import shelfgaze.cli", "from shelfgaze import EyeLandmarks", "from shelfgaze import *"]
)
def test_every_export_is_its_submodules_object(first_access):
    _run_fresh(IDENTITY_PROBE, first_access)


LAZY_PROBE = """
import sys

def loaded():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "shelfgaze")

import shelfgaze
assert loaded() == ["shelfgaze", "shelfgaze.ear", "shelfgaze.errors"], loaded()
from shelfgaze import ray_to_cell
assert loaded() == ["shelfgaze", "shelfgaze.ear", "shelfgaze.errors", "shelfgaze.geometry", "shelfgaze.grid"], loaded()
namespace = {}
exec("from shelfgaze import *", namespace)
assert sorted(set(namespace) - {"__builtins__"}) == shelfgaze.__all__
assert set(shelfgaze.__all__) <= set(dir(shelfgaze))
assert not hasattr(shelfgaze, "no_such_name")
try:
    shelfgaze.no_such_name
except AttributeError as exc:
    assert str(exc) == "module 'shelfgaze' has no attribute 'no_such_name'", exc
else:
    raise AssertionError("no AttributeError")
"""


def test_import_loads_each_submodule_on_first_read():
    _run_fresh(LAZY_PROBE)
