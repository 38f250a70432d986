"""Every name a catlab module lists in ``__all__`` exists in that module."""

import importlib
import pkgutil

import pytest

import catlab

MODULES = ["catlab"] + [f"catlab.{info.name}" for info in pkgutil.iter_modules(catlab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
