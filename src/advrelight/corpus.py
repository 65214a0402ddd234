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

from .phy_sim import PLSPose, pls_to_sh
from .relight import FaceImage
from .shading import NormalMap, SHLight, _pixel_grid, _shading, sh_basis

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


def _render_light(rng: np.random.Generator) -> SHLight:
    """Ambient-dominant light with a random directional component."""
    ambient = SHLight.ambient(rng.uniform(0.48, 0.62)).coeffs
    pose = PLSPose(
        azimuth=rng.uniform(0.0, 2.0 * math.pi),
        polar=rng.uniform(0.15, 1.05),
        distance=1.0,
        intensity=rng.uniform(0.10, 0.34),
    )
    return SHLight(ambient + pls_to_sh(pose).coeffs)


def synthetic_corpus(identities: int = DEFAULT_IDENTITIES,
                     per_identity: int = DEFAULT_PER_IDENTITY,
                     size: int = DEFAULT_SIZE,
                     seed: int = 0) -> list[IdentityGroup]:
    """Generate the fixed verification corpus; deterministic in ``seed``."""
    groups = []
    for i in range(identities):
        id_rng = np.random.default_rng([seed, i])
        ax, ay = id_rng.uniform(0.72, 0.95, size=2)
        az = id_rng.uniform(0.55, 1.0)
        normals = ellipsoid_normals(size, ax, ay, az)
        basis = sh_basis(normals.normals[normals.mask])
        texture = _texture(size, id_rng)
        tint = id_rng.uniform(0.72, 1.0, size=3)
        tint /= tint.max()
        samples = []
        for j in range(per_identity):
            img_rng = np.random.default_rng([seed, i, j])
            light = _render_light(img_rng)
            lum = np.clip(texture * _shading(basis, normals.mask, light), 0.0, 1.0)
            lum[~normals.mask] = _BACKGROUND
            rgb = np.clip(lum[:, :, None] * tint, 0.0, 1.0)
            samples.append(Sample(image=FaceImage.from_rgb(rgb), normals=normals))
        groups.append(IdentityGroup(identity=f"id{i:02d}", samples=tuple(samples)))
    return groups
