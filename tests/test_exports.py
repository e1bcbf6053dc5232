"""Each module's ``__all__`` names only what the module defines, so a name
left behind after a removal fails here rather than at a user's star import."""

import importlib
import pkgutil
import warnings

import pytest

import nucleartight

MODULES = sorted(m.name for m in pkgutil.iter_modules(nucleartight.__path__, "nucleartight."))


def test_every_module_is_listed():
    assert MODULES == [
        f"nucleartight.{m}"
        for m in ("cli", "config", "diagnostics", "hermite", "martingales", "paths", "rng", "spde")
    ]


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_and_star_imports(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
