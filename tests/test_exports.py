"""Every exported name resolves, so a removed function cannot leave a dangling export."""

import importlib
import pkgutil

import shiftrules


def test_every_export_resolves():
    namespace = {}
    exec("from shiftrules import *", namespace)
    assert set(shiftrules.__all__) <= set(namespace)
    for info in pkgutil.iter_modules(shiftrules.__path__):
        module = importlib.import_module(f"shiftrules.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (info.name, missing)
