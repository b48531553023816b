"""Every public name a module exports resolves, and none is listed twice."""
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_package_import_does_not_load_numpy():
    # The scalar kernels are dependency-free; the batched kernels import
    # them, never the other way round.
    src = str(Path(quadrics.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, quadrics; assert 'numpy' not in sys.modules, 'numpy loaded'"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
