"""The benchmark harness imports from the package by name; keep those names."""

import ast
from pathlib import Path

import shelfgaze

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


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
