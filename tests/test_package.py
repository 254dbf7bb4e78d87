"""The public names of the package's modules.

Each module lists its public names in ``__all__``; a name left there
after its definition is gone breaks ``from fenep.<module> import *``.
"""

import importlib
import pkgutil

import fenep


def test_every_listed_name_resolves():
    modules = [info.name for info in pkgutil.iter_modules(fenep.__path__)]
    assert "scheme_p1diff" in modules
    missing = {}
    for name in modules:
        module = importlib.import_module(f"fenep.{name}")
        assert len(set(module.__all__)) == len(module.__all__), name
        gone = [attr for attr in module.__all__ if not hasattr(module, attr)]
        if gone:
            missing[name] = gone
    assert not missing
