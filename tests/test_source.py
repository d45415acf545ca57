"""Source-level checks on the qgue package."""

import ast
from pathlib import Path

import qgue


def _trees():
    paths = sorted(Path(qgue.__file__).parent.glob("*.py"))
    assert paths
    return [(path, ast.parse(path.read_text(), str(path))) for path in paths]


def test_no_runtime_asserts():
    # `python -O` strips assert statements, so a runtime check must raise
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/qgue: {found}"


def _imported_modules(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module and not node.level:
        return [node.module]
    return []


def test_no_benchmark_imports():
    # the benchmark harness measures the package, so the package must not need it
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in _trees()
        for node in ast.walk(tree)
        for name in _imported_modules(node)
        if name.split(".")[0] == "perfbench"
    ]
    assert not found, f"imports of perfbench in src/qgue: {found}"
