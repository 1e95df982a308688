"""Every name in the ``__all__`` of every uwbagsim module resolves, so a stale
export of a removed name fails here; no module imports a name it never uses,
so a deletion that strands an import fails here too; and every private
module-level helper is read somewhere in the package, so a deletion that
strands a helper fails here as well."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import uwbagsim

MODULES = ["uwbagsim"] + [f"uwbagsim.{m.name}" for m in pkgutil.iter_modules(uwbagsim.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    stale = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert not stale, f"unresolved __all__ entries of {name}: {stale}"


def _unused_imports(source, exported=()):
    """Names that ``source`` imports and never reads. A name in ``exported``
    or on a line marked ``noqa: F401`` counts as read; ``__future__``
    imports are directives, not names."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | set(exported)
    return [
        bound
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
        if (bound := (alias.asname or alias.name).split(".")[0]) not in used
        and "noqa: F401" not in lines[alias.lineno - 1]
    ]


def test_unused_import_check_flags_a_stranded_name():
    source = "import os\nimport sys  # noqa: F401\nimport json\nfrom typing import List\nx: List\n"
    assert _unused_imports(source, exported=["json"]) == ["os"]


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    module = importlib.import_module(name)
    unused = _unused_imports(inspect.getsource(module), getattr(module, "__all__", ()))
    assert not unused, f"{name} imports names it never uses: {unused}"


def _statement_names(source):
    """For each top-level statement of ``source``: the private names it
    defines (one leading underscore; dunders are not private helpers) and
    the names it reads, by name, by attribute or by import."""
    out = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            bound = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            bound = []
        defined = [n for n in bound if n.startswith("_") and not n.startswith("__")]
        read = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
        out.append((defined, read))
    return out


def _stranded_privates(source, other_sources):
    """Private module-level names of ``source`` that no statement outside
    their own definition reads, in ``source`` or in ``other_sources``."""
    statements = _statement_names(source)
    read_elsewhere = set()
    for other in other_sources:
        for _, read in _statement_names(other):
            read_elsewhere |= read
    return [
        name
        for k, (defined, _) in enumerate(statements)
        for name in defined
        if name not in read_elsewhere
        and not any(name in read for j, (_, read) in enumerate(statements) if j != k)
    ]


def _package_sources():
    return {name: inspect.getsource(importlib.import_module(name)) for name in MODULES}


def test_stranded_private_check_names_an_unread_helper():
    sources = _package_sources()
    analysis = sources.pop("uwbagsim.analysis")
    stranded = analysis + "\n\ndef _stranded():\n    ...\n"
    assert _stranded_privates(analysis, sources.values()) == []
    assert _stranded_privates(stranded, sources.values()) == ["_stranded"]


@pytest.mark.parametrize("name", MODULES)
def test_no_stranded_private_helpers(name):
    sources = _package_sources()
    source = sources.pop(name)
    stranded = _stranded_privates(source, sources.values())
    assert not stranded, f"{name} defines private names nothing reads: {stranded}"
