"""The package surface: every name a module exports exists."""

import importlib
import pkgutil

import pytest

import paretoscan

MODULES = ["paretoscan"] + [
    f"paretoscan.{info.name}" for info in pkgutil.iter_modules(paretoscan.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(name)
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []
