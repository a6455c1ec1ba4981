"""Repository hygiene: exports resolve, benchmark trace targets exist, no
module imports a name it never uses, no public name or option is left
that only the tests use, and the README cites only tests that exist and
shows only commands that run."""
import ast
import importlib.util
import re
import shlex
from pathlib import Path

import pytest

import granulab
from granulab.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
PACKAGE = sorted((ROOT / "src" / "granulab").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def trace_targets():
    """(owner, attribute, span name) of every function perfbench traces."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing._targets()


def test_trace_targets_exist():
    # perfbench/tracing.py wraps owner.__dict__[attr]; a missing attribute
    # would only surface as a KeyError in `perfbench/run.py --trace 1`
    missing = [name for owner, attr, name in trace_targets()
               if attr not in owner.__dict__]
    assert missing == []


def test_public_names_resolve():
    missing = [name for name in granulab.__all__
               if not hasattr(granulab, name)]
    assert missing == []


def all_entries(tree):
    """The names a module lists in ``__all__``."""
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            names.update(ast.literal_eval(node.value))
    return names


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
    used |= all_entries(tree)
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
    """Names a module reads, imports, takes as an attribute or lists in
    ``__all__``; any other string (a dict key, say) is no reference."""
    names = all_entries(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
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
    listed = "__all__ = ['A', 'spare']\n"
    assert unreferenced_public_names([lib], [lib, listed], []) == [
        "helper", "used"]


def test_scanner_ignores_dict_keys():
    lib = "class A:\n    def spare(self): pass\n"
    caller = "worst = {'spare': 0.0}\nworst['spare'] += 1.0\n"
    assert unreferenced_public_names([lib], [lib, caller], ["A"]) == ["spare"]


# public names that no source in src/ or perfbench/ references (the
# re-exports in __init__.py and perfbench's trace targets, which name their
# functions as strings, are no reference), and why each stays
KEPT_EXPORTS = {
    "advance_inverse": "paper API: the inverse flow, with no non-test caller",
    "marginal_functional_F2": "paper API with no non-test caller",
    "empirical_marginals": "traced by perfbench until ROADMAP items 6 and "
                           "20 drop it",
}


def test_no_test_only_names():
    package = [path.read_text() for path in PACKAGE]
    callers = [path.read_text() for path in PACKAGE
               if path.name != "__init__.py"]
    callers += [path.read_text()
                for path in sorted((ROOT / "perfbench").glob("*.py"))]
    unused = unreferenced_public_names(package, callers, [])
    assert unused == sorted(KEPT_EXPORTS), "unreferenced: " + ", ".join(unused)


def defaulted_options(tree):
    """(callee, label, positional names, defaulted names) for each public
    module-level function and each public method of a public class; a
    class's ``__init__`` is called as ``Class(...)``."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found.append((node.name, node.name, node, False))
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    init = fn.name == "__init__"
                    found.append((node.name if init else fn.name,
                                  node.name if init
                                  else f"{node.name}.{fn.name}", fn, True))
    out = []
    for callee, label, fn, method in found:
        if callee.startswith("_"):
            continue
        args = fn.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        defaulted = positional[len(positional) - len(args.defaults):]
        defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
        if method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                              for d in fn.decorator_list):
            positional = positional[1:]  # self or cls
        out.append((callee, label, positional, defaulted))
    return out


def options_set(sources):
    """Per callee name, the largest count of positional slots a call in the
    ``sources`` fills, and every keyword (``**{...}`` literal keys too)
    some call passes."""
    calls = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            n_pos = 0
            for arg in node.args:
                if isinstance(arg, ast.Starred):
                    break
                n_pos += 1
            entry = calls.setdefault(name, [0, set()])
            entry[0] = max(entry[0], n_pos)
            for kw in node.keywords:
                if kw.arg is not None:
                    entry[1].add(kw.arg)
                elif isinstance(kw.value, ast.Dict):
                    entry[1].update(k.value for k in kw.value.keys
                                    if isinstance(k, ast.Constant))
    return calls


def unset_options(defined, callers):
    """``label(option=)`` for every defaulted parameter of a public def in
    the ``defined`` sources that no call in the ``callers`` sets."""
    calls = options_set(callers)
    unset = []
    for source in defined:
        for callee, label, positional, defaulted in defaulted_options(
                ast.parse(source)):
            n_pos, keys = calls.get(callee, (0, set()))
            unset += [f"{label}({name}=)" for name in defaulted
                      if name not in keys
                      and not (name in positional
                               and positional.index(name) < n_pos)]
    return sorted(unset)


def test_scanner_finds_test_only_option():
    lib = ("class A:\n    def __init__(self, x, y=1, z=2): pass\n"
           "    def m(self, a=1, *, b=2): pass\n"
           "class _B:\n    def __init__(self, w=0): pass\n"
           "def f(u, v=0, w=0): pass\ndef _g(k=0): pass\n")
    caller = "A(0, 5)\nA(0).m(b=1)\nf(1, **{'w': 2})\n"
    assert unset_options([lib], [lib, caller]) == ["A(z=)", "A.m(a=)", "f(v=)"]
    assert unset_options([lib], [lib]) == [
        "A(y=)", "A(z=)", "A.m(a=)", "A.m(b=)", "f(v=)", "f(w=)"]


# options that no call in src/ or perfbench/ sets, and why each stays
KEPT_UNSET_OPTIONS = {
    "Simulation(engine=)": "the 1D all-pairs oracle",
    "suggest_dt(safety=)": "the DSMC golden digests pin non-default values",
    "apply_cumulant(cluster_size=)": "paper API with no non-test caller",
    "apply_cumulant(box=)": "paper API with no non-test caller",
    "marginal_functional_F2(order=)": "paper API with no non-test caller",
    "marginal_functional_F2(mc_samples=)": "paper API with no non-test caller",
    "marginal_functional_F2(rng=)": "paper API with no non-test caller",
    "marginal_functional_F2(box=)": "paper API with no non-test caller",
}


def test_no_test_only_options():
    package = [path.read_text() for path in PACKAGE]
    callers = package + [path.read_text()
                         for path in sorted((ROOT / "perfbench").glob("*.py"))]
    unset = unset_options(package, callers)
    assert unset == sorted(KEPT_UNSET_OPTIONS), "unset: " + ", ".join(unset)


TEST_FILE = r"tests/[\w/]+\.py"


def missing_citations(text, root):
    """The ``tests/`` files and the test names (``test_...``, ``Test...``)
    that ``text`` cites and the test files under ``root`` do not hold."""
    defined = {node.name for path in (root / "tests").glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    names = re.findall(r"\b(?:test_\w+|Test[A-Z]\w*)",
                       re.sub(TEST_FILE, " ", text))
    files = re.findall(TEST_FILE, text)
    return sorted((set(names) - defined)
                  | {f for f in files if not (root / f).is_file()})


def test_scanner_finds_missing_citation():
    text = ("`tests/test_hygiene.py::test_scanner_finds_unused_import`, "
            "`TestNoSuchClass`, `test_no_such_name`, `tests/no_such.py`")
    assert missing_citations(text, ROOT) == [
        "TestNoSuchClass", "test_no_such_name", "tests/no_such.py"]


def test_readme_citations_exist():
    assert missing_citations(README.read_text(), ROOT) == []


def readme_examples(text):
    """The arguments of each ``granulab`` command in the ``sh`` blocks of
    ``text``, with continued lines joined."""
    return [shlex.split(line)[1:]
            for block in re.findall(r"```sh\n(.*?)```", text, re.S)
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("granulab ")]


def test_readme_examples_verify():
    examples = readme_examples(README.read_text())
    assert examples
    for argv in examples:
        assert main([*argv, "--verify"]) == 0, argv
