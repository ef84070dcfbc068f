"""Each name in a ktrg module's __all__ resolves on that module, once.

A deleted function that stays listed would break `from ktrg.X import *`
while every direct import still passes.
"""

import importlib
import pkgutil
from collections import Counter

import pytest

import ktrg

# __main__ runs the command line on import
MODULES = [m.name for m in pkgutil.iter_modules(ktrg.__path__, "ktrg.") if m.name != "ktrg.__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves_once(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    assert [n for n, k in Counter(exported).items() if k > 1] == []
    assert [n for n in exported if not hasattr(mod, n)] == []
    star = {}
    exec(f"from {name} import *", star)
    assert set(exported) <= set(star)
