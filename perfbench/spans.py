"""In-memory call tracing for the benchmark.

A :class:`Tracer` wraps every module-level binding of the package's layer
functions, and the embedder methods on their classes, and records one span
per call: name, start, end, parent span and the unit of work it ran for.
The package binds names with ``from .x import y``, so each function is
replaced wherever a module holds it, not only in its home module.

The wrapper's own bookkeeping (content hashing for the repeat counters)
happens outside the ``[start, end]`` interval it reports for the call but
inside ``[enter, leave]``; a parent's self time subtracts its children's
``[enter, leave]`` intervals, so tracer overhead is not charged to any layer.
"""

from __future__ import annotations

import hashlib
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType

import numpy as np

#: Layer module -> traced public functions.
TRACED_FUNCTIONS = {
    "shading": ("sh_basis", "shade", "lighting_map"),
    "relight": ("quotient_relight", "estimate_light"),
    "attack_aq": ("attack", "similarity_gradient", "relight_jacobian", "loss_gradient_fd"),
    "attack_ap": ("sample_gradient", "forward_net", "backward_net", "predict"),
    "harness": ("similarity_matrix", "roc_auc", "sensitivity_analysis", "load_groups"),
    "pngio": ("read_png",),
    "corpus": ("synthetic_corpus",),
    "phy_sim": ("recurrence_loop", "scene_photo", "map_feedback"),
    "svgplot": ("write_roc_svg", "write_hexhist_svg"),
}

#: Span name -> (class name in ``advrelight.embedder``, method).
TRACED_METHODS = {
    "embedder.embed": (("BuiltinEmbedder", "embed"),),
    "embedder.external": (("ExternalEmbedder", "embed"),),
    "embedder.input_gradient": (("BuiltinEmbedder", "input_gradient"),
                                ("ExternalEmbedder", "input_gradient")),
}


@dataclass(frozen=True)
class Span:
    name: str
    start: float  # the traced call itself
    end: float
    enter: float  # the whole wrapper, bookkeeping included
    leave: float
    parent: int  # index into the pass's span list, -1 at top level
    unit: int | None
    failed: bool
    rows: int = 0  # sh_basis rows, lighting_map pixels, read_png bytes, adjustments
    repeat: bool = False  # input content already seen in this pass


def digest(array) -> bytes:
    """Content key of an array: shape, dtype and bytes."""
    arr = np.ascontiguousarray(array)
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((arr.shape, arr.dtype.str)).encode())
    h.update(arr.data)
    return h.digest()


def _sh_basis_info(args, kwargs):
    normals = np.asarray(args[0] if args else kwargs["normals"])
    return int(np.prod(normals.shape[:-1])), digest(normals)


def _lighting_map_info(args, kwargs):
    resolution = int(args[1] if len(args) > 1 else kwargs["resolution"])
    return resolution * resolution, None


def _read_png_info(args, kwargs):
    path = Path(args[0] if args else kwargs["path"])
    return path.stat().st_size, None


def _embed_info(args, kwargs):
    image = args[1] if len(args) > 1 else kwargs["image"]
    return 0, digest(image.luminance)


#: Span name -> function of the call's arguments giving (rows, content key).
_INFO = {
    "shading.sh_basis": _sh_basis_info,
    "shading.lighting_map": _lighting_map_info,
    "pngio.read_png": _read_png_info,
    "embedder.embed": _embed_info,
    "embedder.external": _embed_info,
}


def _adjustments(result, error) -> int:
    if error is not None:
        trace = getattr(error, "trace", ())
        return max(len(trace) - 1, 0)
    return result.iterations


#: Span name -> function of (result, exception) giving ``rows`` after the call.
_AFTER = {"phy_sim.recurrence_loop": _adjustments}

#: Repeat counters share one seen-set per group: an image embedded by the
#: built-in or an external embedder is the same image.
_REPEAT_GROUP = {"shading.sh_basis": "normals", "embedder.embed": "image",
                 "embedder.external": "image"}


def replace_bindings(original, replacement, modules) -> list[tuple[object, str, object]]:
    """Point every attribute of ``modules`` bound to ``original`` at ``replacement``.

    Returns (owner, attribute, old value) triples for :func:`restore`.
    """
    undo = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, value))
    return undo


def restore(undo) -> None:
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)


def package_modules(package: str = "advrelight") -> list[ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if (name == package or name.startswith(package + ".")) and m is not None]


class Tracer:
    """Records spans for the traced layer calls while installed."""

    def __init__(self):
        self.passes: list[list[Span]] = []
        self.unit: int | None = None
        self._stack: list[int] = []
        self._seen: dict[str, set] = {}
        self._undo: list = []
        self.missing: list[str] = []

    def begin_pass(self) -> None:
        self.passes.append([])
        self._seen = {group: set() for group in set(_REPEAT_GROUP.values())}

    def wrap(self, name: str, fn):
        info = _INFO.get(name)
        after = _AFTER.get(name)
        group = _REPEAT_GROUP.get(name)
        tracer = self

        def traced(*args, **kwargs):
            enter = time.perf_counter()
            spans = tracer.passes[-1]
            rows, key = info(args, kwargs) if info is not None else (0, None)
            repeat = False
            if group is not None:
                seen = tracer._seen[group]
                repeat = key in seen
                seen.add(key)
            index = len(spans)
            spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(index)
            result = error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                if after is not None:
                    rows = after(result, error)
                spans[index] = Span(name, start, end, enter, time.perf_counter(),
                                    parent, tracer.unit, error is not None, rows, repeat)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every binding of the traced functions and methods.

        A traced function the package no longer defines is skipped and
        listed in ``missing``; its metrics read 0.
        """
        import advrelight.cli  # noqa: F401  (loads every layer module)
        from advrelight import embedder

        modules = package_modules()
        self.missing = []
        originals = []
        for layer, functions in TRACED_FUNCTIONS.items():
            home = sys.modules[f"advrelight.{layer}"]
            for fn_name in functions:
                original = getattr(home, fn_name, None)
                if original is None:
                    self.missing.append(f"{layer}.{fn_name}")
                    continue
                originals.append(original)
                self._undo += replace_bindings(
                    original, self.wrap(f"{layer}.{fn_name}", original), modules)
        for span_name, methods in TRACED_METHODS.items():
            for cls_name, method in methods:
                cls = getattr(embedder, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self.wrap(span_name, original))
                self._undo.append((cls, method, original))
        for module in modules:
            for attr, value in vars(module).items():
                if any(value is original for original in originals):
                    raise RuntimeError(f"{module.__name__}.{attr} escaped tracing")

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> list[float]:
    """Per-span duration minus the time its child spans cover, in seconds."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.enter, span.leave))
    return [span.end - span.start - covered(kids, span.start, span.end)
            for span, kids in zip(spans, children)]


def tail(samples, min_beyond: int = 10):
    """Value at the highest percentile with at least ``min_beyond`` samples above.

    Returns (value, percentile, sample count). The value is the
    ``(n - min_beyond)``-th smallest sample, so exactly ``min_beyond``
    samples lie beyond it; its percentile is ``100 * (n - min_beyond) / n``.
    """
    n = len(samples)
    if n <= min_beyond:
        raise ValueError(f"need more than {min_beyond} samples for a tail, got {n}")
    ordered = sorted(samples)
    return ordered[n - min_beyond - 1], 100.0 * (n - min_beyond) / n, n


def repeat_frac(spans, *names: str) -> tuple[float, int]:
    """Share of calls to ``names`` whose input content was already seen, with its base."""
    calls = [s for s in spans if s.name in names]
    if not calls:
        return 0.0, 0
    return sum(s.repeat for s in calls) / len(calls), len(calls)


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one pass (see ``PER_LAYER`` in ``run.py``)."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_ms: dict[str, float] = {}
    rows: dict[str, int] = {}
    for span, t in zip(spans, own):
        calls[span.name] = calls.get(span.name, 0) + 1
        self_ms[span.name] = self_ms.get(span.name, 0.0) + 1e3 * t
        rows[span.name] = rows.get(span.name, 0) + span.rows

    out: dict[str, float] = {}
    for layer, functions in TRACED_FUNCTIONS.items():
        for fn_name in functions:
            name = f"{layer}.{fn_name}"
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_ms"] = self_ms.get(name, 0.0)
    out["shading.sh_basis.rows"] = rows.get("shading.sh_basis", 0)
    out["shading.lighting_map.pixels"] = rows.get("shading.lighting_map", 0)
    out["pngio.read_png.bytes"] = rows.get("pngio.read_png", 0)
    out["phy_sim.adjustments"] = rows.get("phy_sim.recurrence_loop", 0)
    out["shading.sh_basis.repeat_frac"] = repeat_frac(spans, "shading.sh_basis")[0]

    embeds = ("embedder.embed", "embedder.external")
    out["embedder.embed.calls"] = sum(calls.get(n, 0) for n in embeds)
    out["embedder.embed.self_ms"] = sum(self_ms.get(n, 0.0) for n in embeds)
    out["embedder.embed.repeat_frac"] = repeat_frac(spans, *embeds)[0]
    out["embedder.input_gradient.calls"] = calls.get("embedder.input_gradient", 0)
    out["embedder.input_gradient.self_ms"] = self_ms.get("embedder.input_gradient", 0.0)

    rtts = [1e3 * (s.end - s.start) for s in spans if s.name == "embedder.external"]
    out["embedder.external.calls"] = len(rtts)
    out["embedder.external.rtt_p50_ms"] = statistics.median(rtts) if rtts else 0.0
    out["embedder.external.rtt_tail_ms"] = tail(rtts)[0] if len(rtts) > 10 else 0.0
    out["embedder.external.wait_ms"] = sum(rtts)
    out["embedder.external.failures"] = sum(
        s.failed for s in spans if s.name == "embedder.external")
    return out
