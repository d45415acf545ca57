"""Source-level checks on the qgue package."""

import ast
from pathlib import Path

import qgue


def test_no_runtime_asserts():
    # `python -O` strips assert statements, so a runtime check must raise
    paths = sorted(Path(qgue.__file__).parent.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/qgue: {found}"
