"""Every exported name resolves, so a removed function cannot leave a dangling export,
and the package imports and runs on numpy alone, through numpy's public API."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

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


def _private_numpy_paths(source: str) -> list[str]:
    """Dotted numpy paths with a private segment (``numpy.*._*``) that ``source`` imports or reads.

    Attribute chains count when they start at ``np`` or ``numpy``, so
    ``np.linalg._umath_linalg.inv`` is caught as well as its import.
    """
    paths = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            paths += [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute):
            chain = [node.attr]
            while isinstance(node.value, ast.Attribute):
                node = node.value
                chain.append(node.attr)
            if isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                paths.append(".".join(["numpy", *reversed(chain)]))
    return [p for p in paths if p.split(".")[0] == "numpy"
            and any(seg.startswith("_") and not seg.startswith("__") for seg in p.split(".")[1:])]


@pytest.mark.parametrize("source", [
    "from numpy.linalg import _umath_linalg",
    "import numpy.linalg._umath_linalg as ul",
    "from numpy._core import multiarray",
    "import numpy as np\nnp.linalg._umath_linalg.inv(a)",
])
def test_private_numpy_check_catches(source):
    assert _private_numpy_paths(source)


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "shiftrules").glob("*.py")), ids=lambda p: p.name)
def test_source_uses_no_private_numpy_module(path):
    # private gufuncs skip the np.linalg wrappers, and they move between releases
    assert _private_numpy_paths(path.read_text()) == []
