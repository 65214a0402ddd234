"""Second-order real spherical harmonics and Lambertian shading.

The light is a vector of nine radiance coefficients ordered band-major:
band 0, then band 1 (m = -1, 0, 1), then band 2 (m = -2..2). Shading of a
unit normal n under a light L is

    f(n, L) = sum_j  A_l(j) * L[j] * b_j(n)

where b is the real SH basis evaluated at n and A are the Lambertian
band gains (pi, 2pi/3, pi/4). f is linear in L; clamping to [0, 1] is a
presentation concern and only happens at image boundaries.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass

import numpy as np

from . import pngio
from .errors import NonUnitNormalError

SH_C0 = 0.282095
SH_C1 = 0.488603
SH_C2 = 1.092548
SH_C3 = 0.315392

#: Lambertian gain per coefficient: pi for band 0, 2pi/3 for band 1, pi/4 for band 2.
BAND_GAINS = np.array(
    [np.pi] + [2.0 * np.pi / 3.0] * 3 + [np.pi / 4.0] * 5, dtype=np.float64
)

#: Indices of the band-1 (odd-parity) basis entries.
BAND1 = (1, 2, 3)

_UNIT_TOL = 1e-6


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SHLight:
    """Nine spherical-harmonics radiance coefficients."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=np.float64).reshape(-1)
        if c.shape != (9,):
            raise ValueError(f"a light needs exactly 9 coefficients, got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("light coefficients must be finite")
        object.__setattr__(self, "coeffs", _freeze(c))

    @staticmethod
    def ambient(level: float = 1.0) -> "SHLight":
        """Constant light whose shading equals ``level`` everywhere."""
        c = np.zeros(9)
        c[0] = level / (BAND_GAINS[0] * SH_C0)
        return SHLight(c)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.coeffs, dtype=dtype)


@dataclass(frozen=True)
class NormalMap:
    """Per-pixel unit surface normals with a validity mask.

    Camera-space convention: x right, y up, z toward the camera. Pixels
    outside the mask are ignored by every operation.
    """

    normals: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        n = np.array(self.normals, dtype=np.float64)
        m = np.array(self.mask, dtype=bool)
        if n.ndim != 3 or n.shape[2] != 3:
            raise ValueError(f"normals must be HxWx3, got {n.shape}")
        if m.shape != n.shape[:2]:
            raise ValueError("mask shape must match normals")
        if m.any():
            norms = np.linalg.norm(n[m], axis=-1)
            dev = np.abs(norms - 1.0).max()
            if dev > _UNIT_TOL:
                raise NonUnitNormalError(
                    f"masked normals deviate from unit length by {dev:.3g}"
                )
        object.__setattr__(self, "normals", _freeze(n))
        object.__setattr__(self, "mask", _freeze(m))

    @property
    def height(self) -> int:
        return self.normals.shape[0]

    @property
    def width(self) -> int:
        return self.normals.shape[1]


@dataclass(frozen=True)
class LightingMap:
    """Shading of the front hemisphere of a unit sphere, orthographic.

    ``masked`` keeps the raw (unclamped) shading of the disk pixels in
    row-major order; ``values`` is the dense square form, zero off the disk,
    built on first use. The mask is the inscribed disk of :func:`sphere_normals`.
    """

    masked: np.ndarray
    resolution: int

    def __post_init__(self):
        v = np.array(self.masked, dtype=np.float64)
        if v.shape != self._flat.shape or not np.all(np.isfinite(v)):
            raise ValueError(f"a {self.resolution} px lighting map needs "
                             f"{self._flat.size} finite values")
        object.__setattr__(self, "masked", _freeze(v))

    @property
    def _flat(self) -> np.ndarray:
        return _sphere_design(self.resolution)[1]  # row-major index of each disk pixel

    @property
    def mask(self) -> np.ndarray:
        return sphere_normals(self.resolution).mask

    @functools.cached_property
    def values(self) -> np.ndarray:
        out = np.zeros((self.resolution, self.resolution), dtype=np.float64)
        out[self.mask] = self.masked
        return _freeze(out)

    @functools.cached_property
    def brightest(self) -> tuple[int, int]:
        """(row, col) of the brightest disk pixel; ties go to the first in row-major order."""
        return divmod(int(self._flat[np.argmax(self.masked)]), self.resolution)

    @functools.cached_property
    def peak(self) -> float:
        return float(self.masked.max())


def _light_coeffs(light) -> np.ndarray:
    if isinstance(light, SHLight):
        return light.coeffs
    c = np.asarray(light, dtype=np.float64).reshape(-1)
    if c.shape != (9,):
        raise ValueError(f"a light needs exactly 9 coefficients, got {c.shape}")
    return c


def sh_basis(normals) -> np.ndarray:
    """Evaluate the 9 real SH basis polynomials at unit vectors.

    Accepts a single 3-vector or an array of shape (..., 3); returns
    (..., 9). Raises :class:`NonUnitNormalError` for non-unit inputs.
    """
    n = np.asarray(normals, dtype=np.float64)
    if n.shape[-1] != 3:
        raise ValueError(f"expected (..., 3) normals, got {n.shape}")
    norms = np.linalg.norm(n, axis=-1)
    dev = np.abs(norms - 1.0)
    if dev.size and dev.max() > _UNIT_TOL:
        raise NonUnitNormalError(
            f"input deviates from unit length by {dev.max():.3g}"
        )
    x, y, z = n[..., 0], n[..., 1], n[..., 2]
    return np.stack(
        [
            np.full_like(x, SH_C0),
            SH_C1 * y,
            SH_C1 * z,
            SH_C1 * x,
            SH_C2 * x * y,
            SH_C2 * y * z,
            SH_C3 * (3.0 * z * z - 1.0),
            SH_C2 * x * z,
            0.5 * SH_C2 * (x * x - y * y),
        ],
        axis=-1,
    )


def shade(normal_map: NormalMap, light) -> np.ndarray:
    """Lambertian shading f(N, L): raw values, zero outside the mask."""
    mask = normal_map.mask
    return _shading(sh_basis(normal_map.normals[mask]), mask, light)


def _shading(basis: np.ndarray, mask: np.ndarray, light) -> np.ndarray:
    """:func:`shade` from the SH ``basis`` of the ``mask``'s pixels, in row-major order."""
    out = np.zeros(mask.shape, dtype=np.float64)
    out[mask] = basis @ (BAND_GAINS * _light_coeffs(light))
    return out


@functools.lru_cache(maxsize=8)
def sphere_normals(resolution: int) -> NormalMap:
    """Orthographic front hemisphere of a unit sphere.

    Pixel (row, col) maps to (x, y) in the unit square with y up; the mask
    is the inscribed disk and n = (x, y, sqrt(1 - x^2 - y^2)).
    """
    if resolution < 8:
        raise ValueError(f"resolution must be >= 8, got {resolution}")
    x, y = _pixel_grid(resolution)
    r2 = x * x + y * y
    mask = r2 <= 1.0
    z = np.sqrt(np.clip(1.0 - r2, 0.0, None))
    normals = np.stack([x, y, z], axis=-1)
    normals[~mask] = (0.0, 0.0, 1.0)
    return NormalMap(normals, mask)


def lighting_map(light, resolution: int) -> LightingMap:
    """Render the shading a light produces on the reference sphere."""
    design = _sphere_design(resolution)[0]
    return LightingMap(design @ _light_coeffs(light), resolution)


def _pixel_grid(resolution: int):
    """Pixel-center coordinates in [-1, 1]^2, y up."""
    step = 2.0 / resolution
    xs = -1.0 + step * (np.arange(resolution) + 0.5)
    x = np.broadcast_to(xs, (resolution, resolution)).copy()
    y = np.broadcast_to(-xs[:, None], (resolution, resolution)).copy()
    return x, y


@functools.lru_cache(maxsize=8)
def _sphere_design(resolution: int):
    normals = sphere_normals(resolution)
    design = sh_basis(normals.normals[normals.mask]) * BAND_GAINS
    return _freeze(design), _freeze(np.flatnonzero(normals.mask))


def pixel_to_direction(row: int, col: int, resolution: int) -> tuple[float, float]:
    """(azimuth, polar) of the sphere point under a lighting-map pixel."""
    step = 2.0 / resolution
    x = -1.0 + step * (col + 0.5)
    y = 1.0 - step * (row + 0.5)
    r = min(np.hypot(x, y), 1.0)
    polar = float(np.arcsin(r))
    azimuth = float(np.arctan2(y, x)) % (2.0 * np.pi)
    return azimuth, polar


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def write_csv(path, header, rows) -> None:
    """Write ``header`` then ``rows``; float cells get 6 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{v:.6g}" if isinstance(v, (float, np.floating)) else v
                          for v in row] for row in rows)


def save_light(path, light) -> None:
    """Write a light as one whitespace-separated array of 9 decimals."""
    coeffs = _light_coeffs(light)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(" ".join(f"{c:.17g}" for c in coeffs) + "\n")


def load_light(path) -> SHLight:
    with open(path, "r", encoding="ascii") as fh:
        tokens = fh.read().split()
    if len(tokens) != 9:
        raise ValueError(f"{path}: expected 9 numbers, found {len(tokens)}")
    return SHLight(np.array([float(t) for t in tokens]))


def save_normal_map(path, normal_map: NormalMap) -> None:
    """Store normals as 16-bit RGBA with the n = 2p - 1 mapping; alpha = mask."""
    p = np.clip((normal_map.normals + 1.0) / 2.0, 0.0, 1.0)
    rgba = np.zeros((*normal_map.mask.shape, 4), dtype=np.uint16)
    rgba[:, :, :3] = np.round(p * 65535.0).astype(np.uint16)
    rgba[:, :, 3] = np.where(normal_map.mask, 65535, 0)
    pngio.write_png(path, rgba)


def load_normal_map(path) -> NormalMap:
    rgba = pngio.read_png(path)
    if rgba.ndim != 3 or rgba.shape[2] != 4:
        raise ValueError(f"{path}: expected an RGBA normal map")
    n = 2.0 * (rgba[:, :, :3].astype(np.float64) / 65535.0) - 1.0
    mask = rgba[:, :, 3] > 32767
    # 16-bit quantization perturbs lengths by ~1e-5; restore unit norm.
    norms = np.linalg.norm(n, axis=-1, keepdims=True)
    n = np.divide(n, norms, out=np.zeros_like(n), where=norms > 1e-9)
    n[~mask] = (0.0, 0.0, 1.0)
    return NormalMap(n, mask)
