"""Every name a module exports through `__all__` exists in that module."""

import importlib
import pkgutil

import pytest

import qcayley

MODULES = ["qcayley"] + [f"qcayley.{m.name}" for m in pkgutil.iter_modules(qcayley.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    # a stale name here breaks `from <module> import *`
    assert not missing, f"{name}.__all__ names {missing}, which the module lacks"
