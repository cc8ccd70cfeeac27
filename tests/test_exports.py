"""Every exported name resolves, so a removed function cannot leave a dangling export,
and the package imports and runs on numpy alone."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import shiftrules

ROOT = Path(__file__).resolve().parents[1]


def test_every_export_resolves():
    namespace = {}
    exec("from shiftrules import *", namespace)
    assert set(shiftrules.__all__) <= set(namespace)
    for info in pkgutil.iter_modules(shiftrules.__path__):
        module = importlib.import_module(f"shiftrules.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (info.name, missing)


# a None entry in sys.modules makes every import of scipy or of a submodule
# raise ImportError; __main__ runs the command in sys.argv
_WITHOUT_SCIPY = """
import importlib, pkgutil, runpy, sys
sys.modules["scipy"] = None
import shiftrules
for info in pkgutil.iter_modules(shiftrules.__path__):
    if info.name != "__main__":
        importlib.import_module("shiftrules." + info.name)
sys.argv = ["shiftrules", "rule", "--freqs", "1,2,4", "--d", "1", "--optimize", "wgt"]
runpy.run_module("shiftrules", run_name="__main__")
"""


def test_package_runs_without_scipy(tmp_path):
    # pyproject.toml lists numpy as the only dependency; SciPy is a test oracle
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["scheme"] == "wgt" and doc["gap"] <= shiftrules.variance.DUAL_GAP
