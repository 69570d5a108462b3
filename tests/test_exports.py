"""Every name a module lists in ``__all__`` resolves, so ``import *`` works."""

import importlib
import pkgutil

import pytest

import paralift

MODULES = sorted(
    name for name in
    ["paralift"] + [f"paralift.{m.name}" for m in pkgutil.iter_modules(paralift.__path__)]
    if hasattr(importlib.import_module(name), "__all__"))


def test_modules_with_all_are_found():
    assert "paralift.phase" in MODULES and "paralift.verify" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ lists undefined names {missing}"
