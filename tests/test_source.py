"""Source rules that no single module test would notice."""

import ast
from pathlib import Path

import coconvex


def test_no_assert_in_package_source():
    """`python -O` strips `assert`, so no check in the package may use it."""
    found = []
    for path in sorted(Path(coconvex.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
