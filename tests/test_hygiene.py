"""Repository hygiene: exports resolve, benchmark trace targets exist, no
module imports a name it never uses, and no public name is left that only
the tests use."""
import ast
import importlib.util
from pathlib import Path

import pytest

import granulab

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "granulab").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def test_trace_targets_exist():
    # perfbench/tracing.py wraps owner.__dict__[attr]; a missing attribute
    # would only surface as a KeyError in `perfbench/run.py --trace 1`
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [name for owner, attr, name in tracing._targets()
               if attr not in owner.__dict__]
    assert missing == []


def test_public_names_resolve():
    missing = [name for name in granulab.__all__
               if not hasattr(granulab, name)]
    assert missing == []


def unused_imports(source: str):
    """Names bound by imports that no Name node or ``__all__`` entry uses."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scanner_finds_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == [(1, "os")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def public_defs(tree):
    """Public module-level defs and classes, and the methods and properties
    of those classes."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names.extend(n.name for n in node.body
                         if isinstance(n, ast.FunctionDef))
    return [name for name in names if not name.startswith("_")]


def referenced_names(tree):
    """Names a module reads, imports, takes as an attribute or spells as a
    string (``getattr`` targets, ``__all__``)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def unreferenced_public_names(defined, callers, exported):
    """Public defs in the ``defined`` sources, outside ``exported``, that no
    ``callers`` source references (a definition is not a reference)."""
    used = set().union(*(referenced_names(ast.parse(s)) for s in callers))
    names = {n for s in defined for n in public_defs(ast.parse(s))}
    return sorted(names - used - set(exported))


def test_scanner_finds_test_only_name():
    lib = ("class A:\n    def used(self): pass\n    def spare(self): pass\n"
           "def helper(): pass\ndef _private(): pass\n")
    caller = "A().used()\nhelper()\n"
    assert unreferenced_public_names([lib], [lib, caller], []) == ["spare"]
    assert unreferenced_public_names([lib], [lib], ["A", "helper"]) == [
        "spare", "used"]


def test_no_test_only_names():
    package = [path.read_text() for path in PACKAGE]
    callers = package + [path.read_text()
                         for path in sorted((ROOT / "perfbench").glob("*.py"))]
    assert unreferenced_public_names(package, callers,
                                     granulab.__all__) == []
