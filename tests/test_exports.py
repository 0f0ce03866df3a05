"""The public surface: every name a module lists in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import okreg

_MODULES = ["okreg"] + [
    f"okreg.{info.name}" for info in pkgutil.iter_modules(okreg.__path__) if info.name != "__main__"
]


@pytest.mark.parametrize(
    "module", [m for m in _MODULES if hasattr(importlib.import_module(m), "__all__")]
)
def test_every_listed_export_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ lists names it does not define: {missing}"
