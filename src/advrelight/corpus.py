"""Procedural desk-scale verification corpus.

Eight "identities" are distinct low-frequency albedo textures on
identity-specific ellipsoid geometry, each rendered sixteen times under a
varied ambient-plus-directional light. The generator is deterministic in
its seed so every evaluation run sees the same data without shipping image
files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phy_sim import PLSPose
from .relight import FaceImage
from .shading import BAND_GAINS, SH_C0, NormalMap, _pixel_grid, sh_basis, shade

DEFAULT_IDENTITIES = 8
DEFAULT_PER_IDENTITY = 16
DEFAULT_SIZE = 64

_BACKGROUND = 0.04


@dataclass(frozen=True)
class Sample:
    image: FaceImage
    normals: NormalMap


@dataclass(frozen=True)
class IdentityGroup:
    identity: str
    samples: tuple[Sample, ...]


def ellipsoid_normals(size: int, ax: float, ay: float, az: float) -> NormalMap:
    """Front half of the ellipsoid (x/ax)^2 + (y/ay)^2 + (z/az)^2 = 1."""
    x, y = _pixel_grid(size)
    r2 = (x / ax) ** 2 + (y / ay) ** 2
    mask = r2 <= 1.0
    z = az * np.sqrt(np.clip(1.0 - r2, 0.0, None))
    n = np.stack([x / ax**2, y / ay**2, z / az**2], axis=-1)
    norms = np.linalg.norm(n, axis=-1, keepdims=True)
    n = np.divide(n, norms, out=np.zeros_like(n), where=norms > 0)
    n[~mask] = (0.0, 0.0, 1.0)
    return NormalMap(n, mask)


def _texture(size: int, rng: np.random.Generator) -> np.ndarray:
    """Smooth identity-specific albedo: a sum of random plane waves."""
    coords = np.linspace(-1.0, 1.0, size)
    x = np.broadcast_to(coords, (size, size))
    y = np.broadcast_to(coords[:, None], (size, size))
    tex = np.full((size, size), 0.62)
    for _ in range(6):
        fx, fy = rng.uniform(0.5, 3.2, size=2)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        amp = rng.uniform(0.05, 0.13)
        tex += amp * np.cos(2.0 * math.pi * (fx * x + fy * y) + phase)
    return np.clip(tex, 0.22, 0.95)


def _render_lights(seed: int, identity: int, count: int) -> np.ndarray:
    """(count, 9) ambient-dominant lights with a random directional component; light ``j``
    draws level, azimuth, polar and intensity from ``default_rng([seed, identity, j])``."""
    lights, intensities, directions = np.zeros((count, 9)), [], []
    for j in range(count):
        rng = np.random.default_rng([seed, identity, j])
        lights[j, 0] = rng.uniform(0.48, 0.62) / (BAND_GAINS[0] * SH_C0)  # an ambient light
        pose = PLSPose(azimuth=rng.uniform(0.0, 2.0 * math.pi), polar=rng.uniform(0.15, 1.05),
                       distance=1.0, intensity=rng.uniform(0.10, 0.34))
        intensities.append(pose.intensity)
        directions.append(pose.direction())
    lights += np.array(intensities)[:, None] * sh_basis(np.reshape(directions, (count, 3)))
    return lights


def synthetic_corpus(identities: int = DEFAULT_IDENTITIES,
                     per_identity: int = DEFAULT_PER_IDENTITY,
                     size: int = DEFAULT_SIZE,
                     seed: int = 0) -> list[IdentityGroup]:
    """Generate the fixed verification corpus; deterministic in ``seed``. Each identity's
    images share its normal map and are shaded by :func:`shade`, one light at a time."""
    groups = []
    for i in range(identities):
        id_rng = np.random.default_rng([seed, i])
        ax, ay = id_rng.uniform(0.72, 0.95, size=2)
        az = id_rng.uniform(0.55, 1.0)
        normals = ellipsoid_normals(size, ax, ay, az)
        texture = _texture(size, id_rng)
        tint = id_rng.uniform(0.72, 1.0, size=3)
        tint /= tint.max()
        shading = np.array([shade(normals, light) for light in _render_lights(
            seed, i, per_identity)]).reshape(per_identity, size, size)
        lum = np.clip(np.multiply(texture, shading, out=shading), 0.0, 1.0, out=shading)
        np.copyto(lum, _BACKGROUND, where=~normals.mask)
        rgb = np.empty((*lum.shape, 3))
        for c in range(3):  # a multiply per channel, not a broadcast over the last axis
            np.multiply(lum, tint[c], out=rgb[..., c])
        # lum and tint lie in [0, 1], so rgb does too; from_rgb's clip leaves it as it is.
        samples = tuple(Sample(image=FaceImage.from_rgb(image), normals=normals) for image in rgb)
        groups.append(IdentityGroup(identity=f"id{i:02d}", samples=samples))
    return groups
