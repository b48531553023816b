"""Every public name a module exports resolves, and none is listed twice."""
import importlib
import pkgutil

import pytest

import quadrics

MODULES = ["quadrics"] + [
    f"quadrics.{info.name}"
    for info in pkgutil.iter_modules(quadrics.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_without_duplicates(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported))
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []
