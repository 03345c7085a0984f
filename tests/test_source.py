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


def test_the_build_reads_its_eigenvalues_from_the_fusion_law():
    # alpha = 1/4 and beta = 1/32 come from sakuma.ising_law, so neither is
    # written out where the universal algebra is derived
    tree = ast.parse((SRC / "sakuma.py").read_text(encoding="utf-8"))
    build = {"axis_eigenvectors", "_seed", "_sigma_form", "build_universal"}
    functions = [node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name in build]
    assert {fn.name for fn in functions} == build
    found = [f"{fn.name}:{node.lineno}" for fn in functions for node in ast.walk(fn)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("Q", "Fraction")
             and all(isinstance(arg, ast.Constant) for arg in node.args)
             and [arg.value for arg in node.args] in ([1, 4], [1, 32])]
    assert found == []
