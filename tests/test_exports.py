"""Every name a module exports in `__all__` resolves, so a deleted function
or class cannot stay advertised."""

import importlib

import pytest

MODULES = ("jenseneffect", "basis", "model", "inference", "jensen", "simlab")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name if name == "jenseneffect" else f"jenseneffect.{name}")
    assert module.__all__
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
