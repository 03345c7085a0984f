"""Checks on the package source itself."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "axial"


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


def test_the_readme_library_example_runs(monkeypatch):
    # the example under "Library entry points" reads fixtures by paths
    # relative to the repository root; run it there, as a reader would
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library entry points\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    # classify raises on any failed check, so a report is a pass
    assert namespace["cert"].passed and len(namespace["report"].points) == 9


# the definitions the package keeps for readers outside it, each with the
# reason it stays
KEPT_FOR_OUTSIDE_READERS = {
    "associativity_defects": "bench/child.py and bench/capture.py read it",
}


def test_every_definition_is_referenced_inside_the_package():
    # a def or class that no code in src/axial names, outside its own body,
    # serves only tests or bench; an import counts as a reference, so a name
    # that __init__ re-exports stays, and Python calls the dunders itself
    defined, referenced = [], {}  # name -> the definitions around each use

    def walk(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append(node)
            enclosing = enclosing | {node}
        elif isinstance(node, ast.Name):
            referenced.setdefault(node.id, []).append(enclosing)
        elif isinstance(node, ast.Attribute):
            referenced.setdefault(node.attr, []).append(enclosing)
        elif isinstance(node, ast.alias):
            name = (node.asname or node.name).rpartition(".")[2]
            referenced.setdefault(name, []).append(enclosing)
        for child in ast.iter_child_nodes(node):
            walk(child, enclosing)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    unreferenced = {node.name for node in defined
                    if not (node.name.startswith("__") and node.name.endswith("__"))
                    and all(node in enclosing for enclosing in referenced.get(node.name, []))}
    assert unreferenced == set(KEPT_FOR_OUTSIDE_READERS)
