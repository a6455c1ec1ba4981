"""Repository hygiene: exports resolve, benchmark trace targets exist, and no
module imports a name it never uses."""
import ast
import importlib.util
from pathlib import Path

import pytest

import granulab

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "granulab").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py"))


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
