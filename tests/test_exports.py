"""Every exported name resolves, so a deleted function leaves no stale
entry in the package's or a submodule's `__all__`."""

import importlib
import pkgutil

import pytest

import grouprisk

MODULES = ["grouprisk", *(f"grouprisk.{m.name}" for m in pkgutil.iter_modules(grouprisk.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
