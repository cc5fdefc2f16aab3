import importlib
import pkgutil

import epsitau


def test_every_exported_name_exists():
    for info in pkgutil.iter_modules(epsitau.__path__):
        module = importlib.import_module(f"epsitau.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"epsitau.{info.name}.__all__ names missing: {missing}"


def test_star_import_of_eliminate():
    namespace: dict = {}
    exec("from epsitau.eliminate import *", namespace)
    assert "run_elimination" in namespace
