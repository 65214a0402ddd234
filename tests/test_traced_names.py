"""The benchmark's tracer must find every embedder method it wraps.

``perfbench/spans.py`` wraps each ``TRACED_METHODS`` entry through the
class's ``__dict__``, so deleting or inheriting one of those methods makes
a traced benchmark run fail with ``KeyError``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from advrelight import embedder

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


TRACED_METHODS = load_spans().TRACED_METHODS


@pytest.mark.parametrize("span", sorted(TRACED_METHODS))
def test_traced_methods_are_defined_on_their_classes(span):
    for cls_name, method in TRACED_METHODS[span]:
        assert method in vars(getattr(embedder, cls_name)), f"{cls_name}.{method}"
