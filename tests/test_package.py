"""Every name a module lists in ``__all__`` resolves, so no export outlives
the code it named."""

import importlib

import pytest

import quadsmp

MODULES = ["quadsmp", *(f"quadsmp.{name}" for name in quadsmp.__all__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert [name for name in exported if not hasattr(module, name)] == []
