"""Every exported name resolves, so a deleted function leaves no stale
entry in the package's or a submodule's `__all__`, and a name that
several modules hold is one object, so a moved class or function leaves
no stale copy behind."""

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


@pytest.mark.parametrize("name", MODULES)
def test_shared_names_are_one_object(name):
    # each name any module exports, held under that name here (exported
    # or imported), is the object of the first module that exports it
    owners = {}
    for other in MODULES:
        module = importlib.import_module(other)
        for export in module.__all__:
            owners.setdefault(export, (other, getattr(module, export)))
    module = importlib.import_module(name)
    stale = [
        f"{export} (not {owner}.{export})"
        for export, (owner, obj) in owners.items()
        if hasattr(module, export) and getattr(module, export) is not obj
    ]
    assert not stale, f"{name} holds its own copy of {stale}"
