"""Every name a bellsym module lists in ``__all__`` exists, so a deleted
public name cannot stay listed."""

import importlib
import pkgutil

import pytest

import bellsym

MODULES = [f"bellsym.{m.name}" for m in pkgutil.iter_modules(bellsym.__path__)
           if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
