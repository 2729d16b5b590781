"""The package layers: every import sits at module top and the relative
imports form no cycle, so `koszul` stays below `bundles` and `cli`, and the
integer kernel `minors` imports nothing from the package, so `bundles` reads
its minors without the probe's module."""

import ast
from graphlib import TopologicalSorter
from pathlib import Path

import cypairs

TREES = {
    path.stem: ast.parse(path.read_text())
    for path in sorted(Path(cypairs.__file__).parent.glob("*.py"))
}


def relative_imports(tree):
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    return out


def test_no_import_inside_a_function():
    for name, tree in TREES.items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = [
                    node.lineno
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
                assert not inner, (name, fn.name, inner)


def test_relative_imports_form_no_cycle():
    graph = {name: relative_imports(tree) for name, tree in TREES.items()}
    assert graph["koszul"].isdisjoint({"bundles", "cli"}), graph["koszul"]
    assert graph["minors"] == set(), graph["minors"]
    assert "pluecker" not in graph["bundles"], graph["bundles"]
    tuple(TopologicalSorter(graph).static_order())  # raises CycleError on a cycle
