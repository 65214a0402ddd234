"""Second-order real spherical harmonics and Lambertian shading.

A light is a read-only float64 array of nine finite radiance coefficients,
made and checked by :func:`as_light`, ordered band-major: band 0, then
band 1 (m = -1, 0, 1), then band 2 (m = -2..2). Shading of a
unit normal n under a light L is

    f(n, L) = sum_j  A_l(j) * L[j] * b_j(n)

where b is the real SH basis evaluated at n and A are the Lambertian
band gains (pi, 2pi/3, pi/4). f is linear in L; clamping to [0, 1] is a
presentation concern and only happens at image boundaries.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import pngio
from .errors import NonUnitNormalError, blamed_on

SH_C0 = 0.282095
SH_C1 = 0.488603
SH_C2 = 1.092548
SH_C3 = 0.315392

#: Lambertian gain per coefficient: pi for band 0, 2pi/3 for band 1, pi/4 for band 2.
BAND_GAINS = np.array(
    [np.pi] + [2.0 * np.pi / 3.0] * 3 + [np.pi / 4.0] * 5, dtype=np.float64
)

_UNIT_TOL = 1e-6

#: Largest coefficient magnitude of a light. Over unit normals sum_j A_j |b_j(n)| <= 3.64, so
#: the shading, lighting map or relight (luminance <= 1 over a floor >= 1e-4) of any light of
#: coefficients up to 2 * MAX_LIGHT stays below 1e305: no bounded light can overflow.
MAX_LIGHT = 1e300


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def as_light(coeffs) -> np.ndarray:
    """A light: a read-only float64 copy of ``coeffs``, flattened; ValueError unless it holds
    exactly nine values, all finite and at most :data:`MAX_LIGHT` in magnitude."""
    c = np.array(coeffs, dtype=np.float64).reshape(-1)
    if c.shape != (9,):
        raise ValueError(f"a light needs exactly 9 coefficients, got {c.shape}")
    if not np.abs(c).max() <= MAX_LIGHT:  # a NaN maximum fails the comparison
        raise ValueError(f"light coefficients must be finite and at most {MAX_LIGHT:g} "
                         "in magnitude")
    return _freeze(c)


@dataclass(frozen=True)
class NormalMap:
    """Per-pixel unit surface normals with a validity mask.

    Camera-space convention: x right, y up, z toward the camera. Pixels
    outside the mask are ignored by every operation. :attr:`basis` is
    evaluated on first read and kept for as long as the map.
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
            if not dev <= _UNIT_TOL:  # a NaN normal fails too
                raise NonUnitNormalError(
                    f"masked normals deviate from unit length by {dev:.3g}"
                )
        object.__setattr__(self, "normals", _freeze(n))
        object.__setattr__(self, "mask", _freeze(m))

    @functools.cached_property
    def basis(self) -> np.ndarray:
        """The (n, 9) SH basis of the masked normals, in row-major order."""
        return _freeze(sh_basis(self.normals[self.mask]))


@dataclass(frozen=True)
class LightingMap:
    """The features of the shading a light gives the front hemisphere of a unit sphere,
    orthographic, ``resolution`` px square: ``peak``, the largest raw shading of a disk pixel
    (the mask of :func:`sphere_normals`); ``brightest``, the (row, col) of the first holding it;
    and ``area``, the disk pixels at or above ``tau`` times the peak. :func:`lighting_map` reads
    them from block bounds, bit for bit as :func:`full_render`.
    """

    resolution: int
    tau: float
    peak: float
    brightest: tuple[int, int]
    area: int


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
    if dev.size and not dev.max() <= _UNIT_TOL:  # a NaN normal fails too
        raise NonUnitNormalError(
            f"input deviates from unit length by {dev.max():.3g}"
        )
    out = np.empty(n.shape[:-1] + (9,))
    for j, term in enumerate(_sh_terms(n[..., 0], n[..., 1], n[..., 2])):
        out[..., j] = term
    return out


def _sh_terms(x, y, z):
    """The 9 basis polynomials at coordinates ``x``, ``y``, ``z``, one array at a time."""
    yield np.full_like(x, SH_C0)
    yield SH_C1 * y
    yield SH_C1 * z
    yield SH_C1 * x
    yield SH_C2 * x * y
    yield SH_C2 * y * z
    yield SH_C3 * (3.0 * z * z - 1.0)
    yield SH_C2 * x * z
    yield 0.5 * SH_C2 * (x * x - y * y)


def shade(normal_map: NormalMap, light) -> np.ndarray:
    """Lambertian shading f(N, L): raw values, zero outside the mask."""
    out = np.zeros(normal_map.mask.shape, dtype=np.float64)
    out[normal_map.mask] = normal_map.basis @ (BAND_GAINS * as_light(light))
    return out


@functools.lru_cache(maxsize=8)
def sphere_normals(resolution: int) -> NormalMap:
    """Orthographic front hemisphere of a unit sphere.

    Pixel (row, col) maps to (x, y) in the unit square with y up; the mask
    is the inscribed disk and n = (x, y, sqrt(1 - x^2 - y^2)).
    """
    x, y = _pixel_grid(resolution)
    r2 = x * x + y * y
    mask = r2 <= 1.0
    z = np.sqrt(np.clip(1.0 - r2, 0.0, None))
    normals = np.stack([x, y, z], axis=-1)
    normals[~mask] = (0.0, 0.0, 1.0)
    return NormalMap(normals, mask)


def lighting_map(light, resolution: int, tau: float = 0.9) -> LightingMap:
    """The map ``light`` renders on the reference sphere, its peak read from the blocks whose
    upper bound reaches the best lower bound and its area from those that straddle ``tau``
    times the peak. ValueError unless ``tau`` <= 1 (NaN fails): no pixel exceeds a positive peak."""
    tau = float(tau)
    if not tau <= 1.0:
        raise ValueError(f"tau must be a number no greater than 1, got {tau}")
    light = as_light(light)
    low, high, size = _block_bounds(light, resolution)
    runs = list(_runs(light, resolution, high >= low.max()))
    peak = float(max(values.max() for _, values in runs))
    first = min(flat[values == peak].min(initial=resolution * resolution) for flat, values in runs)
    t = tau * peak
    straddling = _runs(light, resolution, (low < t) & (high >= t))
    area = int(size[low >= t].sum() + sum(np.count_nonzero(v >= t) for _, v in straddling))
    return LightingMap(resolution, tau, peak, divmod(int(first), resolution), area)


def full_render(light, resolution: int):
    """``(values, flat)``: the raw shading ``light`` gives every disk pixel of a ``resolution``
    px lighting map, bit for bit as one GEMV over a row-major design, and the pixels' row-major
    indices, both in the design's block-major order."""
    flat = _sphere_design(resolution)[1]
    return np.concatenate([values for _, values in _runs(as_light(light), resolution, True)]), flat


def _pixel_grid(resolution: int):
    """Pixel-center coordinates in [-1, 1]^2, y up."""
    if resolution < 8:
        raise ValueError(f"resolution must be >= 8, got {resolution}")
    step = 2.0 / resolution
    xs = -1.0 + step * (np.arange(resolution) + 0.5)
    return np.meshgrid(xs, -xs)


#: Side of the square pixel blocks whose bounds decide most of a lighting map's features.
_BLOCK = 16
#: Most columns per product: OpenBLAS splits 51,200 or more between threads, not at a 4k column.
_SPAN = 1 << 15


@functools.lru_cache(maxsize=8)
def _sphere_design(resolution: int):
    """``(design, flat, starts, tables)``, the one design kept per resolution. ``design`` is the
    (9, n) band-gained basis of the disk pixels, C-contiguous rows filled in turn; its columns
    are the pixels of row-major indices ``flat``, block by block, block k being columns
    ``starts[k]:starts[k + 1]``. Blocks are row-major _BLOCK px squares of row-major pixels, but
    at an odd resolution (n % 4 == 1) the last pixel, the full GEMV's tail, stays last, alone.
    Over block k, term j lies within ``mid + gx * sx + gy * sy +- rad`` (``tables[:, j, k]``) for
    some sx, sy in [-1, 1]: a fitted plane plus the interval of what it leaves, widened by 1e-12
    of the term's magnitude, far beyond any rounding of a product."""
    x, y = _pixel_grid(resolution)
    flat = np.flatnonzero(x * x + y * y <= 1.0)
    key = flat // resolution // _BLOCK * resolution + flat % resolution // _BLOCK  # the square
    key[-1] += flat.size % 4 * resolution * resolution  # an odd resolution's tail sorts last
    flat = flat[np.argsort(key, kind="stable")]
    key.sort()
    starts = np.append(np.flatnonzero(np.diff(key, prepend=-1)), flat.size)
    del key  # freed before the design is filled, which keeps the build's peak
    x, y = x.reshape(-1)[flat], y.reshape(-1)[flat]
    design = np.empty((9, flat.size))
    for row, term, gain in zip(design, _sh_terms(x, y, np.sqrt(1.0 - (x * x + y * y))), BAND_GAINS):
        np.multiply(term, gain, out=row)
    first, size = starts[:-1], np.diff(starts)
    for d in (x, y):  # each coordinate becomes its offset from its block's mean, in [-1, 1]
        d -= np.repeat(np.add.reduceat(d, first) / size, size)
        np.divide(d, np.repeat(np.maximum.reduceat(np.abs(d), first), size), out=d, where=d != 0)
    dd = [np.add.reduceat(d * d, first) for d in (x, y)]
    tables = np.zeros((4, 9, size.size))
    for row, (mid, gx, gy, rad) in zip(design, tables.transpose(1, 0, 2)):
        for g, d, ss in zip((gx, gy), (x, y), dd):  # least-squares slopes
            np.divide(np.add.reduceat(row * d, first), ss, out=g, where=ss > 0.0)
        rest = row - np.repeat(gx, size) * x - np.repeat(gy, size) * y
        lo, hi = np.minimum.reduceat(rest, first), np.maximum.reduceat(rest, first)
        mid[:] = (lo + hi) / 2.0
        rad[:] = (hi - lo) / 2.0 + 1e-12 * (np.abs(row).max() + np.abs(gx) + np.abs(gy))
    return _freeze(design), _freeze(flat), _freeze(starts), _freeze(tables)


def _block_bounds(light, resolution: int):
    """Per block, bounds on every value of the full render in it, and its pixel count. The
    smallest normal float64 covers the underflow of tiny lights, which ``rad`` cannot."""
    starts, (mid, gx, gy, rad) = _sphere_design(resolution)[2:]
    centre = light @ mid
    reach = np.abs(light @ gx) + np.abs(light @ gy) + np.abs(light) @ rad + np.finfo(float).tiny
    return centre - reach, centre + reach, np.diff(starts)


def _runs(light, resolution: int, chosen):
    """``(flat, values)`` per run of ``chosen`` blocks (a mask, or True for all): the run's
    row-major indices and the full render's values, bit for bit. BLAS rounds each column of
    ``light @ design[:, a:e]`` as the full product does when e - a is a multiple of 4 short of
    the tail, or when a slice of 4k + 1 columns ends at the tail; so runs widen into their
    neighbours to such slices. Gathers, ``design[:, idx]``, are F-ordered and round otherwise."""
    design, flat, starts, _ = _sphere_design(resolution)
    padded = np.zeros(starts.size + 1, bool)  # each run then starts and ends at a change
    padded[1:-1] = chosen
    edges = starts[np.flatnonzero(padded[1:] != padded[:-1])].tolist()
    for a, e in zip(edges[::2], edges[1::2]):
        for b in range(a, e, _SPAN):
            c = min(b + _SPAN, e)
            b4, c4 = b - b % 4, min(c - c % -4, flat.size)
            b4 -= 4 * (c4 - b4 == 1)
            yield flat[b:c], (light @ design[:, b4:c4])[b - b4:c - b4]


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
    """Write ``header`` then ``rows`` as ``csv.writer`` does, float cells to 6 significant
    digits. Every row has the first row's cell types, and no cell needs quoting."""
    rows = list(rows)
    cells = ["%.6g" if isinstance(v, (float, np.floating)) else "%s" for v in (rows or [()])[0]]
    line = ",".join(cells) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n" + "".join(line % tuple(row) for row in rows))


def save_light(path, light) -> None:
    """Write a light as one whitespace-separated array of 9 decimals."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(" ".join(f"{c:.17g}" for c in as_light(light)) + "\n")


def load_light(path) -> np.ndarray:
    """Read a :func:`save_light` file; a malformed one raises ValueError naming ``path``."""
    with blamed_on(path):
        with open(path, "r", encoding="ascii") as fh:
            tokens = fh.read().split()
        return as_light([float(t) for t in tokens])


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
