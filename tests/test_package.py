"""The package surface: each library module's `__all__` is its one list of public names."""

import importlib
import inspect

import pytest

import gkserver


@pytest.mark.parametrize("name", ["harmonic", "chains", "subsets", "simulate", "potential"])
def test_package_names_are_the_modules_all(name):
    # `potential` is in potential.__all__, so gkserver.potential must be the function
    module = importlib.import_module(f"gkserver.{name}")
    assert [n for n in module.__all__ if getattr(gkserver, n, None) is not getattr(module, n)] == []
    defined = {n for n, obj in vars(module).items()
               if not n.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__}
    assert sorted(defined - set(module.__all__)) == []
