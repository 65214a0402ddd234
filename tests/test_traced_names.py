"""The benchmark must find every name it wraps or calls in the package.

``perfbench/spans.py`` wraps each ``TRACED_METHODS`` entry through the
class's ``__dict__``, so deleting or inheriting one of those methods makes
a traced benchmark run fail with ``KeyError``. ``perfbench/workloads.py``
names the functions that count units and end set-up, and builds its
inputs through ``build_split``, ``synthetic_corpus`` and ``init_params``;
``perfbench/run.py`` collects reports by wrapping ``harness.evaluate``, and
drops a bypass prediction about a traced function the package lacks, so a
deleted or renamed function would turn its check into a no-op.
"""

import importlib.util
import os
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


SPANS = load_perfbench("spans")
TRACED_METHODS = SPANS.TRACED_METHODS
WORKLOADS = load_perfbench("workloads").WORKLOADS

#: Predicted nonzero but already gone from the package; the next benchmark change drops it.
STALE_PREDICTIONS = {"attack_aq.relight_jacobian"}

#: Traced but already gone from the package; the next benchmark change drops them.
STALE_TRACED_FUNCTIONS = {"relight.quotient_relight", "attack_aq.similarity_gradient",
                          "attack_aq.relight_jacobian"}


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


def test_predicted_nonzero_traced_functions_resolve(monkeypatch):
    """Every traced function a workload's bypass check predicts nonzero exists."""
    monkeypatch.setitem(sys.modules, "spans", SPANS)  # run.py imports it by that name
    monkeypatch.setattr(os, "environ", dict(os.environ))  # run.py sets BLAS thread counts
    bypass = load_perfbench("run").BYPASS
    checked = set()
    for workload, (_, nonzero) in bypass.items():
        for metric in nonzero:
            name = metric.rsplit(".", 1)[0]  # as run.py reads it
            layer, fn_name = name.split(".")
            if fn_name in SPANS.TRACED_FUNCTIONS.get(layer, ()) and name not in STALE_PREDICTIONS:
                checked.add(name)
                module = importlib.import_module(f"advrelight.{layer}")
                assert callable(getattr(module, fn_name, None)), f"{workload}: {metric}"
    assert "relight.estimate_light" in checked


def test_traced_functions_resolve():
    """A traced function the package lacks reads as 0 in every pass, so a rename would zero
    its per-layer metric without a word; only the known stale names may be missing."""
    missing = {f"{layer}.{fn_name}"
               for layer, names in SPANS.TRACED_FUNCTIONS.items() for fn_name in names
               if not callable(getattr(importlib.import_module(f"advrelight.{layer}"),
                                       fn_name, None))}
    assert missing == STALE_TRACED_FUNCTIONS
