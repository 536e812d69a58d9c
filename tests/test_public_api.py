"""The benchmark harness imports from the package by name; keep those names.

Each name resolves, on first read, to the object its submodule defines."""

import ast
import os
import pkgutil
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


def test_no_module_is_named_like_an_export():
    # Loading a submodule binds it as the package attribute of its name, over
    # an export of that name.
    modules = {module.name for module in pkgutil.iter_modules([str(SRC / "shelfgaze")])}
    assert "blink" in modules
    assert sorted(modules & {*shelfgaze.__all__, "__version__"}) == []


# Each export must be its submodule's object, whatever was loaded first.
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
    "first_access",
    ["import shelfgaze.cli", "from shelfgaze import EyeLandmarks", "from shelfgaze import *", "import shelfgaze.blink",
     pytest.param("import io, sys; sys.stdin = io.StringIO('0,0,1,1,3,1,4,0,3,-1,1,-1'); "
                  "from shelfgaze.cli import main; assert main(['ear', '--input', '-']) == 0", id="shelfgaze ear")],
)
def test_every_export_is_its_submodules_object(first_access):
    _run_fresh(IDENTITY_PROBE, first_access)


LAZY_PROBE = """
import sys

def loaded():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "shelfgaze")

def stdlib():
    return sorted({"dataclasses", "inspect"} & set(sys.modules))

import shelfgaze
assert (loaded(), stdlib()) == (["shelfgaze"], []), (loaded(), stdlib())
from shelfgaze import ear, EyeLandmarks, batch_stats
assert (loaded(), stdlib()) == (["shelfgaze", "shelfgaze.blink", "shelfgaze.errors"], []), (loaded(), stdlib())
assert shelfgaze.ear is ear is sys.modules["shelfgaze.blink"].ear
from shelfgaze import ray_to_cell
assert loaded() == ["shelfgaze", "shelfgaze.blink", "shelfgaze.errors", "shelfgaze.geometry", "shelfgaze.grid"], loaded()
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
