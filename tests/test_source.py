"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "axial"


def test_the_package_verifies_without_assert_statements():
    # python -O strips assert statements, so a check written as one would
    # silently vanish; every check in the package raises instead
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) >= 7
    found = [f"{path.name}:{node.lineno}" for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
