"""The built-in embedder's bilinear resize as one gather and a row sum, as a test oracle."""

import numpy as np

from advrelight.embedder import PATCH


def bilinear_taps(shape):
    """(PATCH^2, 4) flat tap indices and weights resizing ``shape`` to PATCH x PATCH."""
    h, w = shape
    rows = np.clip((np.arange(PATCH) + 0.5) * h / PATCH - 0.5, 0, h - 1)
    cols = np.clip((np.arange(PATCH) + 0.5) * w / PATCH - 0.5, 0, w - 1)
    r0, c0 = np.floor(rows).astype(int), np.floor(cols).astype(int)
    r1, c1 = np.minimum(r0 + 1, h - 1), np.minimum(c0 + 1, w - 1)
    fr, fc = (rows - r0)[:, None], (cols - c0)[None, :]
    idx = np.stack([(r[:, None] * w + c[None, :]).ravel()
                    for r, c in ((r0, c0), (r0, c1), (r1, c0), (r1, c1))], axis=1)
    weights = np.stack([(a * b).ravel()
                        for a, b in ((1 - fr, 1 - fc), (1 - fr, fc), (fr, 1 - fc), (fr, fc))],
                       axis=1)
    return idx, weights


def embed(embedder, lum) -> np.ndarray:
    """``embedder.embed`` of luminance ``lum`` (non-degenerate), gathering with one row sum."""
    idx, weights = bilinear_taps(lum.shape)
    patch = (lum.reshape(-1)[idx] * weights).sum(axis=1)
    v = embedder._projection @ (patch - patch.mean())
    return v / np.linalg.norm(v)


def input_gradient(embedder, lum, upstream) -> np.ndarray:
    """``embedder.input_gradient``, scattering the patch gradient patch-major."""
    idx, weights = bilinear_taps(lum.shape)
    patch = (lum.reshape(-1)[idx] * weights).sum(axis=1)
    v = embedder._projection @ (patch - patch.mean())
    norm = np.linalg.norm(v)
    e = v / norm
    dz = embedder._projection.T @ ((upstream - (upstream @ e) * e) / norm)
    dz -= dz.mean()
    grad = np.bincount(idx.ravel(), weights=(dz[:, None] * weights).ravel(), minlength=lum.size)
    return grad.reshape(lum.shape)
