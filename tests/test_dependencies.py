"""numpy is the package's only runtime dependency outside the standard library."""

import json
import os
import subprocess
import sys
from pathlib import Path

import advrelight

_PROBE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import advrelight
for module in pkgutil.iter_modules(advrelight.__path__):
    if module.name != "__main__":  # importing it runs the command line; it imports only cli
        importlib.import_module("advrelight." + module.name)
print(json.dumps(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def test_every_module_imports_only_the_standard_library_and_numpy():
    """In a fresh interpreter, importing every module loads no other top-level module."""
    src = str(Path(advrelight.__file__).resolve().parents[1])
    probe = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    loaded = set(json.loads(probe.stdout))
    assert loaded - sys.stdlib_module_names == {"advrelight", "numpy"}
