"""Albedo-quotient relighting and physics-based light estimation.

Relighting multiplies the luminance channel by the ratio of new to old
shading, which cancels the unknown per-pixel reflectance: no albedo map is
ever required. The inverse problem (recover the light from an image plus
normals) is a 9-parameter linear least squares under a uniform-albedo
assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import pngio
from .errors import DegenerateLightError, EmptyMaskError, SingularFitError, blamed_on
from .shading import BAND_GAINS, MAX_LIGHT, NormalMap, _freeze, as_light

#: Rec. 601 luma weights.
LUMA_WEIGHTS = np.array([0.299, 0.587, 0.114], dtype=np.float64)

#: Floor applied to the denominator shading before division.
DENOM_FLOOR = 1e-4

_CHROMA_EPS = 1e-12


@dataclass(frozen=True)
class FaceImage:
    """A face crop held as its luminance channel plus its colors.

    ``luminance`` is what shading operations act on; ``chroma`` is the
    per-channel ratio rgb / luminance, so that a relit luminance can be
    reattached to the original colors. ``colors`` is an original's rgb array,
    whose chroma is derived on first read, or, for a relit image, the image it
    was relit from: its ``chroma`` is the source's ``chroma`` object, and its
    ``rgb`` is built only when read (on save). All arrays are read-only. Build
    originals with :meth:`from_rgb` or :meth:`from_luminance`.
    """

    luminance: np.ndarray
    colors: np.ndarray | FaceImage

    @classmethod
    def from_rgb(cls, rgb) -> "FaceImage":
        rgb = np.clip(np.asarray(rgb, dtype=np.float64), 0.0, 1.0)
        if rgb.ndim != 3 or rgb.shape[2] != 3:
            raise ValueError(f"rgb must be HxWx3, got {rgb.shape}")
        if not np.all(np.isfinite(rgb)):
            raise ValueError("rgb must be finite")
        return cls(_freeze(rgb @ LUMA_WEIGHTS), _freeze(rgb))

    @classmethod
    def from_luminance(cls, luminance) -> "FaceImage":
        """The grey image :meth:`from_rgb` builds from ``luminance`` in all three channels."""
        lum = np.clip(np.asarray(luminance, dtype=np.float64), 0.0, 1.0)
        if lum.ndim != 2:
            raise ValueError(f"luminance must be HxW, got {lum.shape}")
        if not np.all(np.isfinite(lum)):
            raise ValueError("luminance must be finite")
        rgb = np.repeat(lum[:, :, None], 3, axis=2)
        return cls(_freeze(rgb @ LUMA_WEIGHTS), _freeze(rgb))

    @cached_property
    def rgb(self) -> np.ndarray:
        if isinstance(self.colors, np.ndarray):
            return self.colors
        return _freeze(np.clip(self.chroma * self.luminance[:, :, None], 0.0, 1.0))

    @cached_property
    def chroma(self) -> np.ndarray:
        if isinstance(self.colors, FaceImage):
            return self.colors.chroma
        lum = self.luminance[:, :, None]
        return _freeze(np.where(lum > _CHROMA_EPS, self.rgb / np.maximum(lum, _CHROMA_EPS), 0.0))


@dataclass(frozen=True)
class RelightResult:
    """A relit image, the read-only coefficients of its light, and ``unclamped``: the masked
    pixels the [0, 1] clip left alone."""

    image: FaceImage
    new_coeffs: np.ndarray
    unclamped: np.ndarray

    @property
    def clamp_fraction(self) -> float:
        """Fraction of masked pixels whose raw relit luminance was clipped."""
        return (self.unclamped.size - np.count_nonzero(self.unclamped)) / self.unclamped.size


def _masked_luminance(image: FaceImage, normals: NormalMap) -> np.ndarray:
    if image.luminance.shape != normals.mask.shape:
        raise ValueError("image and normal map dimensions differ")
    return image.luminance[normals.mask]


class RelightPlan:
    """Quotient relighting of one (image, normals, old light) for any new light.

    Over the masked pixels the raw relit luminance is ``lum * (basis @ (gains * L')) / denom``,
    linear in the new light L', on the normal map's own basis. The floored old-light shading
    is evaluated once, here. Without ``old_light`` the plan fits it by :func:`estimate_light`.
    """

    def __init__(self, image: FaceImage, normals: NormalMap, old_light=None):
        self.lum = _masked_luminance(image, normals)
        self.image, self.mask, self.basis = image, normals.mask, normals.basis
        n_masked = self.lum.size
        if n_masked == 0:
            raise EmptyMaskError("relighting needs at least one masked pixel")
        self.old_light = (estimate_light(image, normals) if old_light is None
                          else as_light(old_light))
        f_old = self.basis @ (BAND_GAINS * self.old_light)  # finite: the light is bounded
        floored = int((f_old < DENOM_FLOOR).sum())
        if floored > 0.5 * n_masked:
            raise DegenerateLightError(f"denominator floored on {floored}/{n_masked} masked pixels")
        self.denom = np.maximum(f_old, DENOM_FLOOR)

    def relight(self, new_light) -> RelightResult:
        """Relight via the shading quotient f(N, L') / f(N, L).

        Masked luminance is multiplied by the quotient (denominator floored
        at ``DENOM_FLOOR``) and clamped to [0, 1]; unmasked pixels pass
        through.
        """
        coeffs = as_light(new_light)
        raw = self.lum * (self.basis @ (BAND_GAINS * coeffs)) / self.denom
        if not np.isfinite(raw).all():  # a bounded light cannot overflow; a hand-built image can
            raise ValueError("relit luminance must be finite")
        clipped = raw.clip(0.0, 1.0)
        lum = self.image.luminance.copy()
        lum[self.mask] = clipped
        return RelightResult(
            image=FaceImage(_freeze(lum), self.image),
            new_coeffs=coeffs,
            unclamped=_freeze(clipped == raw),
        )

    def light_vjp(self, grad_lum, result: RelightResult) -> np.ndarray:
        """<grad_lum, d relit luminance / d L'> at this plan's ``result``; clipped pixels add 0."""
        g = np.asarray(grad_lum, dtype=np.float64)[self.mask]
        return BAND_GAINS * (self.basis.T @ (g * (self.lum / self.denom) * result.unclamped))


def estimate_light(image: FaceImage, normals: NormalMap) -> np.ndarray:
    """Least-squares light from an image and its normals (uniform albedo).

    Solves luminance ~= sum_j A_j L_j b_j(n) over the masked pixels, on the map's basis, and
    returns the residual-norm minimizer. Raises ``ValueError`` when the shapes differ,
    :class:`SingularFitError` below rank 9 and :class:`EmptyMaskError` when no pixel is masked.
    """
    luminance = _masked_luminance(image, normals)
    if not luminance.size:
        raise EmptyMaskError("light estimation needs at least one masked pixel")
    solution, _, rank, _ = np.linalg.lstsq(normals.basis * BAND_GAINS, luminance, rcond=None)
    if rank < 9:
        raise SingularFitError(rank=int(rank))
    return as_light(solution)


def random_relight(plan: RelightPlan, epsilon: float, seed: int) -> RelightResult:
    """Baseline: relight by ``plan`` under L + u with u uniform in [-epsilon, epsilon]^9."""
    if not 0 <= epsilon <= MAX_LIGHT:  # NaN fails both comparisons
        raise ValueError(f"epsilon must be finite and non-negative, at most {MAX_LIGHT:g}")
    offset = np.random.default_rng(seed).uniform(-epsilon, epsilon, size=9)
    return plan.relight(plan.old_light + offset)


def save_face_image(path, image: FaceImage) -> None:
    pngio.write_png(path, np.round(image.rgb * 255.0).astype(np.uint8))


def check_pair_size(image: FaceImage, normals: NormalMap, image_path, normals_path) -> None:
    """ValueError naming both files unless ``image`` and ``normals`` have the same size."""
    if image.luminance.shape != normals.mask.shape:
        (h, w), (nh, nw) = image.luminance.shape, normals.mask.shape
        raise ValueError(f"image {image_path} is {w}x{h} px but normal map {normals_path} "
                         f"is {nw}x{nh} px")


def load_face_image(path) -> FaceImage:
    """Read a grey, RGB or RGBA PNG; any other raises ValueError naming ``path``."""
    arr = pngio.read_png(path)
    if arr.ndim == 2:
        arr = np.repeat(arr[:, :, None], 3, axis=2)
    if arr.shape[2] == 4:
        arr = arr[:, :, :3]
    scale = 65535.0 if arr.dtype == np.uint16 else 255.0
    with blamed_on(path):
        return FaceImage.from_rgb(arr.astype(np.float64) / scale)
