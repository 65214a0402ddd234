"""Face embedders: a built-in differentiable one and a subprocess adapter.

The built-in embedder resizes luminance to a 32x32 patch, subtracts the
mean, applies a fixed seeded orthonormal projection to 128 dimensions and
normalizes. It is deterministic, sensitive to lighting changes, and its
input gradient has a closed form, which makes it a practical desk-scale
stand-in for a deep face-recognition model.

External models plug in over a newline-delimited subprocess protocol:

    endpoint -> HELLO <name> <dimension>
    client   -> EMBED <width> <height>
    client   -> <base64 of row-major 8-bit luminance>
    endpoint -> VEC
    endpoint -> <dimension space-separated decimals>

The client may send several requests before it reads a reply, so an
endpoint must answer in request order and keep reading stdin while it
works.
"""

from __future__ import annotations

import base64
import os
import selectors
import shlex
import subprocess
import threading
import time
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, ProtocolError, ProtocolTimeoutError
from .relight import FaceImage

PATCH = 32
DEFAULT_DIM = 128

#: Accept external vectors whose norm is within this fraction of 1.
NORM_SLACK = 0.01

_DEGENERATE_NORM = 1e-12

#: Shortest wait for an endpoint's HELLO, whatever the per-reply timeout:
#: an endpoint may import its model before it can answer.
HANDSHAKE_TIMEOUT = 30.0

#: Most request bytes :meth:`ExternalEmbedder.embed_many` leaves unanswered
#: (at least one request), well below a 64 KiB pipe, so a hung endpoint
#: meets the reply timeout rather than blocking a write.
MAX_UNANSWERED_BYTES = 32 * 1024


@dataclass(frozen=True)
class EmbedderDescriptor:
    name: str
    dimension: int
    differentiable: bool

    def __post_init__(self):
        if self.dimension < 2:
            raise ValueError("embedding dimension must be >= 2")


def cosine_similarity(a, b) -> float:
    """Dot product of unit vectors, clamped to [-1, 1]."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"embedding dimensions differ: {a.shape} vs {b.shape}")
    return float(min(max(a @ b, -1.0), 1.0))


class BuiltinEmbedder:
    """Deterministic linear-then-normalize embedder over resized luminance."""

    def __init__(self, dimension: int = DEFAULT_DIM, seed: int = 0):
        if not 2 <= dimension <= PATCH * PATCH:
            raise ValueError(f"dimension must be in [2, {PATCH * PATCH}]")
        rng = np.random.default_rng(seed)
        gauss = rng.standard_normal((PATCH * PATCH, dimension))
        q, _ = np.linalg.qr(gauss)
        self._projection = q.T.copy()  # rows orthonormal, (dim, PATCH^2)
        self.descriptor = EmbedderDescriptor("builtin", dimension, differentiable=True)
        self._resize_plans: dict[tuple[int, int], tuple[tuple[np.ndarray, np.ndarray], ...]] = {}
        self._last = None  # (luminance, _project result) of the last projection

    def embed(self, image: FaceImage) -> np.ndarray:
        v, norm = self._project(image.luminance)
        if norm < _DEGENERATE_NORM:
            return self._fallback_axis()
        return v / norm

    def input_gradient(self, image: FaceImage, upstream) -> np.ndarray:
        """Exact gradient of <embed(image), upstream> w.r.t. each luminance pixel."""
        u = np.asarray(upstream, dtype=np.float64)
        if u.shape != (self.descriptor.dimension,):
            raise ValueError("upstream cotangent has the wrong dimension")
        lum = image.luminance
        v, norm = self._project(lum)
        if norm < _DEGENERATE_NORM:
            return np.zeros_like(lum)
        e = v / norm
        dv = (u - (u @ e) * e) / norm
        dz = self._projection.T @ dv
        dz -= dz.mean()  # transpose of the mean subtraction
        _, (idx, weights) = self._plan(lum.shape)
        grad = np.bincount(idx.ravel(), weights=(dz[:, None] * weights).ravel(),
                           minlength=lum.size)
        return grad.reshape(lum.shape)

    def _project(self, lum: np.ndarray) -> tuple[np.ndarray, float]:
        # One-entry memo (an attack embeds, then differentiates); FaceImage luminance is read-only.
        last = self._last
        if last is not None and last[0] is lum:
            return last[1]
        (idx, weights), _ = self._plan(lum.shape)
        # Reducing the outer axis adds the four contiguous tap rows in order.
        patch = (lum.reshape(-1)[idx] * weights).sum(axis=0)
        z = patch - patch.mean()
        v = self._projection @ z
        self._last = lum, (v, float(np.linalg.norm(v)))
        return self._last[1]

    def _fallback_axis(self) -> np.ndarray:
        e = np.zeros(self.descriptor.dimension)
        e[0] = 1.0
        return e

    def _plan(self, shape: tuple[int, int]):
        """Bilinear resize of ``shape`` to PATCH x PATCH, as (indices, weights) twice.

        Tap-major, (4, PATCH^2), for the gather; patch-major, (PATCH^2, 4), for
        the scatter in ``input_gradient``, whose sums depend on that order.
        """
        plan = self._resize_plans.get(shape)
        if plan is None:
            h, w = shape
            rows = np.clip((np.arange(PATCH) + 0.5) * h / PATCH - 0.5, 0, h - 1)
            cols = np.clip((np.arange(PATCH) + 0.5) * w / PATCH - 0.5, 0, w - 1)
            r0 = np.floor(rows).astype(int)
            c0 = np.floor(cols).astype(int)
            r1 = np.minimum(r0 + 1, h - 1)
            c1 = np.minimum(c0 + 1, w - 1)
            fr = (rows - r0)[:, None]
            fc = (cols - c0)[None, :]
            idx = np.stack([
                (r0[:, None] * w + c0[None, :]).ravel(),
                (r0[:, None] * w + c1[None, :]).ravel(),
                (r1[:, None] * w + c0[None, :]).ravel(),
                (r1[:, None] * w + c1[None, :]).ravel(),
            ])
            weights = np.stack([
                ((1 - fr) * (1 - fc)).ravel(),
                ((1 - fr) * fc).ravel(),
                (fr * (1 - fc)).ravel(),
                (fr * fc).ravel(),
            ])
            plan = (idx, weights), (idx.T.copy(), weights.T.copy())
            self._resize_plans[shape] = plan
        return plan


def luminance_bytes(image: FaceImage) -> bytes:
    """Row-major 8-bit quantization of the luminance channel."""
    return np.round(image.luminance * 255.0).astype(np.uint8).tobytes()


class ExternalEmbedder:
    """Adapter speaking the subprocess line protocol.

    ``command`` is the endpoint command line (string or argv list). One
    adapter serializes its batches; :meth:`embed` is a batch of one.
    """

    def __init__(self, command, timeout: float = 30.0):
        argv = shlex.split(command) if isinstance(command, str) else list(command)
        self._timeout = timeout
        self._lock = threading.Lock()
        self.closed = False
        self._proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        self._replies = selectors.DefaultSelector()
        self._replies.register(self._proc.stdout.fileno(), selectors.EVENT_READ)
        self._unread = b""  # bytes read past the last complete line
        try:
            hello = self._read_line(max(timeout, HANDSHAKE_TIMEOUT)).split()
            if len(hello) != 3 or hello[0] != "HELLO":
                raise ProtocolError(f"bad handshake: {' '.join(hello)!r}")
            try:
                dimension = int(hello[2])
            except ValueError:
                raise ProtocolError(f"bad handshake dimension: {hello[2]!r}") from None
            self.descriptor = EmbedderDescriptor(hello[1], dimension,
                                                 differentiable=False)
        except ProtocolError:
            self.close()
            raise

    def embed(self, image: FaceImage) -> np.ndarray:
        return self.embed_many([image])[0]

    def embed_many(self, images) -> list[np.ndarray]:
        """Embeddings of ``images`` in order, with requests pipelined to the endpoint.

        Up to :data:`MAX_UNANSWERED_BYTES` of requests are in flight at once.
        A timeout, a lost connection or a bad reply header closes the adapter;
        a bad vector raises once every reply of the batch has been read.
        """
        requests = [f"EMBED {image.width} {image.height}\n"
                    f"{base64.b64encode(luminance_bytes(image)).decode('ascii')}\n"
                    for image in images]
        with self._lock:
            if self.closed:
                raise ProtocolError("endpoint connection is closed")
            try:
                replies = self._exchange(requests)
            except ProtocolError:
                # A reply may still be in flight; it must never answer a later request.
                self.close()
                raise
        return [self._vector(tokens) for tokens in replies]

    def input_gradient(self, image: FaceImage, upstream):
        raise CapabilityError("external embedders do not provide input gradients")

    def close(self) -> None:
        self.closed = True
        self._replies.close()
        if self._proc.poll() is None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                self._proc.kill()
        self._proc.stdout.close()
        try:
            self._proc.stdin.close()
        except BrokenPipeError:  # request bytes a failed write left buffered
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _exchange(self, requests: list[str]) -> list[list[str]]:
        """Send ``requests`` and read their replies' value tokens in order.

        Each burst of requests is one write, so the endpoint wakes once for
        all of them; the next burst waits until the last one is answered.
        """
        replies: list[list[str]] = []
        while len(replies) < len(requests):
            burst, size = [], 0
            for request in requests[len(replies):]:
                if burst and size + len(request) > MAX_UNANSWERED_BYTES:
                    break
                burst.append(request)
                size += len(request)
            self._send("".join(burst))
            for _ in burst:
                header = self._read_line()
                if header.strip() != "VEC":
                    raise ProtocolError(f"expected VEC, got {header!r}")
                replies.append(self._read_line().split())
        return replies

    def _vector(self, tokens: list[str]) -> np.ndarray:
        if len(tokens) != self.descriptor.dimension:
            raise ProtocolError(
                f"endpoint advertised dimension {self.descriptor.dimension} "
                f"but sent {len(tokens)} values"
            )
        try:
            vec = np.array(tokens, dtype=np.float64)  # float()'s grammar and bits
        except ValueError as exc:
            raise ProtocolError(f"endpoint sent a non-numeric value: {exc}") from exc
        if not np.all(np.isfinite(vec)):
            raise ProtocolError("endpoint sent non-finite values")
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > NORM_SLACK:
            raise ProtocolError(f"embedding norm {norm:.4g} outside unit tolerance")
        return vec / norm

    def _send(self, text: str) -> None:
        try:
            self._proc.stdin.write(text.encode("ascii"))
            self._proc.stdin.flush()
        except (BrokenPipeError, ValueError) as exc:
            raise ProtocolError("endpoint process is gone") from exc

    def _read_line(self, timeout: float | None = None) -> str:
        timeout = self._timeout if timeout is None else timeout
        deadline = time.monotonic() + timeout
        fd = self._proc.stdout.fileno()
        while b"\n" not in self._unread:
            if not self._replies.select(max(deadline - time.monotonic(), 0.0)):
                raise ProtocolTimeoutError(f"no response within {timeout:g} s")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise ProtocolError("endpoint closed the connection")
            self._unread += chunk
        line, _, self._unread = self._unread.partition(b"\n")
        return line.decode("utf-8", "replace")
