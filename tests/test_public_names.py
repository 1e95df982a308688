"""Every name in the ``__all__`` of every uwbagsim module resolves, so a stale
export of a removed name fails here."""

import importlib
import pkgutil

import pytest

import uwbagsim

MODULES = ["uwbagsim"] + [f"uwbagsim.{m.name}" for m in pkgutil.iter_modules(uwbagsim.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    stale = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert not stale, f"unresolved __all__ entries of {name}: {stale}"
