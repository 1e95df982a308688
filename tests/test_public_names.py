"""Every name in the ``__all__`` of every uwbagsim module resolves, so a stale
export of a removed name fails here; and no module imports a name it never
uses, so a deletion that strands an import fails here too."""

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
