"""The public surface: every name a module exports resolves.

The benchmark's tracer wraps each function named in a module's __all__ (or
main, for a module without one) and counts dynamics.step calls through it.
"""

import importlib
import inspect
import pkgutil

import pytest

import torns
from torns import dynamics

MODULES = [f"torns.{m.name}" for m in pkgutil.iter_modules(torns.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ["main"])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def test_step_is_an_exported_module_function():
    assert "step" in dynamics.__all__
    assert inspect.isfunction(dynamics.step) and dynamics.step.__module__ == "torns.dynamics"
