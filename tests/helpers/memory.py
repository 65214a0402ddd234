"""Traced allocation peaks, for tests that bound what a build holds at once."""

import tracemalloc


def traced_peak(fn, *args):
    """``(fn(*args), peak)``: the call's result and the most bytes it held at once, as
    tracemalloc sees them (numpy reports its array buffers to it). The result counts too."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
