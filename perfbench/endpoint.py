#!/usr/bin/env python3
"""Embedding endpoint that serves ``BuiltinEmbedder()`` over the line protocol.

    endpoint -> HELLO builtin <dimension>
    client   -> EMBED <width> <height>
    client   -> <base64 of row-major 8-bit luminance>
    endpoint -> VEC
    endpoint -> <dimension space-separated decimals>

The benchmark's black-box workload attacks through this endpoint, so its
AUC is that of a real embedder and its cost per request is a model's
rather than a hash's. The package is imported from the ``src`` directory
beside this one.

Usage: python3 perfbench/endpoint.py
"""

import base64
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from advrelight.embedder import BuiltinEmbedder  # noqa: E402
from advrelight.relight import FaceImage  # noqa: E402


def serve(stdin, stdout) -> None:
    embedder = BuiltinEmbedder()
    stdout.write(f"HELLO builtin {embedder.descriptor.dimension}\n")
    stdout.flush()
    while True:
        parts = stdin.readline().split()
        if len(parts) != 3 or parts[0] != "EMBED":
            return
        width, height = int(parts[1]), int(parts[2])
        data = base64.b64decode(stdin.readline().strip())
        lum = np.frombuffer(data, dtype=np.uint8).reshape(height, width) / 255.0
        vec = embedder.embed(FaceImage.from_luminance(lum))
        stdout.write("VEC\n" + " ".join(repr(float(v)) for v in vec) + "\n")
        stdout.flush()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
