"""Dense forms of the lighting-map layout, the oracles tests compare the masked forms against,
and the constant light tests relight with."""

import functools

import numpy as np

from advrelight.shading import BAND_GAINS, SH_C0, _sh_terms, as_light, full_render, sphere_normals


def ambient_light(level: float = 1.0) -> np.ndarray:
    """The constant light whose shading equals ``level`` everywhere."""
    coeffs = np.zeros(9)
    coeffs[0] = level / (BAND_GAINS[0] * SH_C0)
    return as_light(coeffs)


def dense_values(light, resolution: int) -> np.ndarray:
    """The raw shading ``light`` gives the square ``resolution`` px grid: its full render, 0 off
    the disk."""
    out = np.zeros((resolution, resolution), dtype=np.float64)
    out[sphere_normals(resolution).mask] = masked_values(light, resolution)
    return out


def masked_values(light, resolution: int) -> np.ndarray:
    """``full_render``'s values in row-major order."""
    values, flat = full_render(light, resolution)
    return values[np.argsort(flat)]


def oracle_render(light, resolution: int) -> np.ndarray:
    """The full render of ``light``: the row-major design's product, in pieces of 40,000
    columns (a multiple of 4) so that BLAS runs each on one thread, as the whole would run on
    one; OpenBLAS splits a product of 51,200 columns or more between threads."""
    design = dense_design(resolution)[0]
    light = as_light(light)
    return np.concatenate([light @ design[:, a:a + 40_000] for a in range(0, design.shape[1], 40_000)])


@functools.lru_cache(maxsize=4)
def dense_design(resolution: int):
    """The (9, n) design and the disk's row-major indices, built from the dense sphere: the
    construction that the row-at-a-time build from disk coordinates replaced. Read-only."""
    sphere = sphere_normals(resolution)
    design = np.stack(list(_sh_terms(*sphere.normals[sphere.mask].T))) * BAND_GAINS[:, None]
    flat = np.flatnonzero(sphere.mask)
    design.flags.writeable = flat.flags.writeable = False
    return design, flat
