"""Dense square form of a lighting map, the oracle layout tests compare against."""

import numpy as np


def dense_values(lmap) -> np.ndarray:
    """``lmap``'s raw shading on its square grid: disk values in row-major order, 0 off the disk."""
    out = np.zeros((lmap.resolution, lmap.resolution), dtype=np.float64)
    out[lmap.mask] = lmap.masked
    return out
