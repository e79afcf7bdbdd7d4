"""Every name a module lists in ``__all__`` exists in that module."""

import importlib
import pkgutil

import pytest

import ovflow

MODULES = ["ovflow"] + [f"ovflow.{info.name}" for info in pkgutil.iter_modules(ovflow.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
