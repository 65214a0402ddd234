"""Dense forms of the lighting-map layout, the oracles tests compare the masked forms against,
and the constant light tests relight with."""

import numpy as np

from advrelight.shading import BAND_GAINS, SH_C0, _sh_terms, as_light, sphere_normals


def ambient_light(level: float = 1.0) -> np.ndarray:
    """The constant light whose shading equals ``level`` everywhere."""
    coeffs = np.zeros(9)
    coeffs[0] = level / (BAND_GAINS[0] * SH_C0)
    return as_light(coeffs)


def dense_values(lmap) -> np.ndarray:
    """``lmap``'s raw shading on its square grid: disk values in row-major order, 0 off the disk."""
    out = np.zeros((lmap.resolution, lmap.resolution), dtype=np.float64)
    out[sphere_normals(lmap.resolution).mask] = lmap.masked
    return out


def dense_design(resolution: int):
    """The (9, n) design and the disk's row-major indices, built from the dense sphere: the
    construction that the row-at-a-time build from disk coordinates replaced."""
    sphere = sphere_normals(resolution)
    design = np.stack(list(_sh_terms(*sphere.normals[sphere.mask].T))) * BAND_GAINS[:, None]
    return design, np.flatnonzero(sphere.mask)
