"""The public surface: every name a module exports resolves, under one name.

The benchmark's tracer wraps each function named in a module's __all__ (or
main, for a module without one) and counts dynamics.step calls through it.
The package root exports nothing but __version__: each object is imported
from the one module that lists it.
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


def test_package_root_holds_only_the_version_and_the_modules():
    for name in MODULES:
        importlib.import_module(name)
    public = {n for n in vars(torns) if not n.startswith("_")}
    assert public <= {name.rpartition(".")[2] for name in MODULES}
    assert torns.__version__ == "0.1.0"


def test_no_object_is_exported_by_two_modules():
    owners = {}
    for name in MODULES:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            owners.setdefault(id(getattr(module, attr)), []).append(f"{name}.{attr}")
    assert [names for names in owners.values() if len(names) > 1] == []
