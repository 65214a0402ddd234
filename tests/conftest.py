import sys

import numpy as np
import pytest

from advrelight.corpus import synthetic_corpus
from advrelight.embedder import BuiltinEmbedder, EmbedderDescriptor
from advrelight.relight import FaceImage
from advrelight.shading import as_light, shade, sphere_normals


@pytest.fixture(scope="session")
def builtin_embedder():
    return BuiltinEmbedder()


@pytest.fixture(scope="session")
def corpus():
    return synthetic_corpus()


@pytest.fixture(scope="session")
def sphere64():
    return sphere_normals(64)


def patch_every_binding(monkeypatch, original, replacement):
    """Point every ``advrelight`` module attribute bound to ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "advrelight":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


class BlackBox:
    """An embedder re-exposed as non-differentiable, with no ``input_gradient``."""

    def __init__(self, inner):
        self._inner = inner
        self.descriptor = EmbedderDescriptor("blackbox", inner.descriptor.dimension,
                                             differentiable=False)

    def embed(self, image):
        return self._inner.embed(image)


def make_safe_light(rng, band_scale=0.08):
    """Ambient-dominant light whose sphere shading stays inside (0, 1)."""
    coeffs = np.zeros(9)
    coeffs[0] = rng.uniform(0.45, 0.7) / 0.8862269254527579  # pi * c0
    coeffs[1:] = rng.uniform(-band_scale, band_scale, size=8)
    return as_light(coeffs)


def make_scene(rng, normals, band_scale=0.08):
    """(image, light) pair: textured render of ``normals`` under a safe light.

    The luminance stays strictly inside (0, 1) so relighting tests are not
    confounded by the output clamp.
    """
    light = make_safe_light(rng, band_scale)
    f = shade(normals, light)
    size = normals.mask.shape[0]
    coords = np.linspace(-1, 1, size)
    texture = 0.7 + 0.2 * np.sin(3.0 * coords[None, :] + rng.uniform(0, 6.28)) \
        * np.cos(2.0 * coords[:, None] + rng.uniform(0, 6.28))
    lum = np.clip(texture * f, 0.0, 1.0)
    lum[~normals.mask] = 0.3
    return FaceImage.from_luminance(lum), light
