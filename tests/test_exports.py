import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_cli_import_needs_no_numpy():
    src = str(Path(epsitau.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, epsitau.cli; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", probe], env=env, timeout=60).returncode == 0
