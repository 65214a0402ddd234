"""The benchmark must find every name it wraps or calls in the package.

``perfbench/spans.py`` wraps each ``TRACED_METHODS`` entry through the
class's ``__dict__``, so deleting or inheriting one of those methods makes
a traced benchmark run fail with ``KeyError``. ``perfbench/workloads.py``
names the functions that count units and end set-up, and builds its
inputs through ``build_split``, ``synthetic_corpus`` and ``init_params``;
``perfbench/run.py`` collects reports by wrapping ``harness.evaluate``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from advrelight import embedder, harness

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


TRACED_METHODS = load_perfbench("spans").TRACED_METHODS
WORKLOADS = load_perfbench("workloads").WORKLOADS


@pytest.mark.parametrize("span", sorted(TRACED_METHODS))
def test_traced_methods_are_defined_on_their_classes(span):
    for cls_name, method in TRACED_METHODS[span]:
        assert method in vars(getattr(embedder, cls_name)), f"{cls_name}.{method}"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_entry_points_resolve(name, tmp_path):
    workload = WORKLOADS[name](tmp_path, seed=0)
    for entry in (workload.unit_function, workload.setup_stop):
        if entry is not None:
            module, fn_name = entry
            assert callable(getattr(importlib.import_module(f"advrelight.{module}"), fn_name))
    assert callable(harness.evaluate)
    assert workload.fingerprint(0) != workload.fingerprint(1)
