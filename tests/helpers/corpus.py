"""The bundled corpus rendered one sample at a time, the oracle the batched generator is held to."""

import math

import numpy as np

from advrelight import corpus
from advrelight.phy_sim import PLSPose, pls_to_sh
from advrelight.relight import FaceImage
from advrelight.shading import as_light, shade

from helpers.lighting import ambient_light


def render_light(rng: np.random.Generator) -> np.ndarray:
    """Ambient-dominant light with a random directional component."""
    ambient = ambient_light(rng.uniform(0.48, 0.62))
    pose = PLSPose(
        azimuth=rng.uniform(0.0, 2.0 * math.pi),
        polar=rng.uniform(0.15, 1.05),
        distance=1.0,
        intensity=rng.uniform(0.10, 0.34),
    )
    return as_light(ambient + pls_to_sh(pose))


def per_sample_corpus(identities, per_identity, size, seed) -> list[list[tuple]]:
    """Per identity, its (image, normals) pairs, each image shaded by ``shade`` on its own."""
    groups = []
    for i in range(identities):
        id_rng = np.random.default_rng([seed, i])
        ax, ay = id_rng.uniform(0.72, 0.95, size=2)
        az = id_rng.uniform(0.55, 1.0)
        normals = corpus.ellipsoid_normals(size, ax, ay, az)
        texture = corpus._texture(size, id_rng)
        tint = id_rng.uniform(0.72, 1.0, size=3)
        tint /= tint.max()
        samples = []
        for j in range(per_identity):
            light = render_light(np.random.default_rng([seed, i, j]))
            lum = np.clip(texture * shade(normals, light), 0.0, 1.0)
            lum[~normals.mask] = corpus._BACKGROUND
            rgb = np.clip(lum[:, :, None] * tint, 0.0, 1.0)
            samples.append((FaceImage.from_rgb(rgb), normals))
        groups.append(samples)
    return groups
