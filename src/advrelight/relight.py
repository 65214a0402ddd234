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
from .errors import DegenerateLightError, EmptyMaskError, SingularFitError
from .shading import BAND_GAINS, NormalMap, SHLight, _freeze, _light_coeffs, sh_basis

#: Rec. 601 luma weights.
LUMA_WEIGHTS = np.array([0.299, 0.587, 0.114], dtype=np.float64)

#: Floor applied to the denominator shading before division.
DENOM_FLOOR = 1e-4

_CHROMA_EPS = 1e-12


@dataclass(frozen=True, init=False)
class FaceImage:
    """A face crop held as its luminance channel plus its colors.

    ``luminance`` is what shading operations act on; ``chroma`` is the
    per-channel ratio rgb / luminance, so that a relit luminance can be
    reattached to the original colors. An image holds the one of ``rgb`` and
    ``chroma`` it was built from and derives the other on first read, so a
    relit image builds rgb only when saved. All three arrays are read-only.
    Build instances with :meth:`from_rgb` or :meth:`from_luminance`.
    """

    luminance: np.ndarray

    def __init__(self, luminance: np.ndarray, rgb: np.ndarray | None = None,
                 chroma: np.ndarray | None = None):
        """Take ``luminance`` and exactly one of ``rgb`` and ``chroma``, checked and frozen."""
        held = {"rgb": rgb} if chroma is None else {"chroma": chroma}
        vars(self).update(luminance=luminance, **held)

    @classmethod
    def from_rgb(cls, rgb) -> "FaceImage":
        rgb = np.clip(np.asarray(rgb, dtype=np.float64), 0.0, 1.0)
        if rgb.ndim != 3 or rgb.shape[2] != 3:
            raise ValueError(f"rgb must be HxWx3, got {rgb.shape}")
        if not np.all(np.isfinite(rgb)):
            raise ValueError("rgb must be finite")
        return cls(_freeze(rgb @ LUMA_WEIGHTS), rgb=_freeze(rgb))

    @classmethod
    def from_luminance(cls, luminance) -> "FaceImage":
        """The grey image :meth:`from_rgb` builds from ``luminance`` in all three channels."""
        lum = np.clip(np.asarray(luminance, dtype=np.float64), 0.0, 1.0)
        if lum.ndim != 2:
            raise ValueError(f"luminance must be HxW, got {lum.shape}")
        if not np.all(np.isfinite(lum)):
            raise ValueError("luminance must be finite")
        rgb = np.empty((*lum.shape, 3), dtype=np.float64)
        rgb[...] = lum[:, :, None]
        return cls(_freeze(rgb @ LUMA_WEIGHTS), rgb=_freeze(rgb))

    def with_luminance(self, luminance) -> "FaceImage":
        """Reattach chroma to a new (already clamped) luminance channel."""
        lum = np.array(luminance, dtype=np.float64)
        if lum.shape != self.luminance.shape:
            raise ValueError(f"luminance must be {self.luminance.shape}, got {lum.shape}")
        if not np.all((lum >= -1e-9) & (lum <= 1.0 + 1e-9)):
            raise ValueError("luminance must be finite and lie in [0, 1]")
        return FaceImage(_freeze(lum), chroma=self.chroma)

    @cached_property
    def rgb(self) -> np.ndarray:
        return _freeze(np.clip(self.chroma * self.luminance[:, :, None], 0.0, 1.0))

    @cached_property
    def chroma(self) -> np.ndarray:
        lum = self.luminance[:, :, None]
        return _freeze(np.where(lum > _CHROMA_EPS, self.rgb / np.maximum(lum, _CHROMA_EPS), 0.0))

    @property
    def height(self) -> int:
        return self.luminance.shape[0]

    @property
    def width(self) -> int:
        return self.luminance.shape[1]


@dataclass(frozen=True)
class RelightResult:
    """A relit image; ``unclamped`` marks the masked pixels the [0, 1] clip left alone."""

    image: FaceImage
    new_light: SHLight
    old_light: SHLight
    unclamped: np.ndarray

    @property
    def clamp_fraction(self) -> float:
        """Fraction of masked pixels whose raw relit luminance was clipped."""
        return (self.unclamped.size - np.count_nonzero(self.unclamped)) / self.unclamped.size


class NormalBasis:
    """The SH basis of a normal map's masked pixels, shared by every fit and plan given it."""

    def __init__(self, normals: NormalMap):
        self.normals, self.mask = normals, normals.mask
        self.basis = _freeze(sh_basis(normals.normals[self.mask]))

    @cached_property
    def _gained(self) -> np.ndarray:
        return _freeze(self.basis * BAND_GAINS)

    def fit(self, luminance) -> SHLight:
        """Least-squares light from the masked pixels' ``luminance`` (uniform albedo).

        Solves luminance ~= sum_j A_j L_j b_j(n) and returns the residual-norm
        minimizer. Raises :class:`SingularFitError` when the system has rank below 9,
        and :class:`EmptyMaskError` when no pixel is masked.
        """
        if not len(self.basis):
            raise EmptyMaskError("light estimation needs at least one masked pixel")
        solution, _, rank, _ = np.linalg.lstsq(self._gained, luminance, rcond=None)
        if rank < 9:
            raise SingularFitError(rank=int(rank))
        return SHLight(solution)

    @classmethod
    def of(cls, normals: NormalMap | NormalBasis, image: FaceImage) -> NormalBasis:
        """``normals`` as a basis (itself if one already) once ``image``'s shape is checked."""
        if image.luminance.shape != normals.mask.shape:
            raise ValueError("image and normal map dimensions differ")
        return normals if isinstance(normals, cls) else cls(normals)


class RelightPlan:
    """Quotient relighting of one (image, normals, old light) for any new light.

    Over the masked pixels the raw relit luminance is ``lum * (basis @ (gains * L')) / denom``,
    linear in the new light L'. The floored old-light shading, and the SH basis unless
    ``normals`` is a :class:`NormalBasis`, are evaluated once, here. Without ``old_light``
    the plan fits it from that basis, exactly as :func:`estimate_light` does.
    """

    def __init__(self, image: FaceImage, normals: NormalMap | NormalBasis, old_light=None):
        shared = NormalBasis.of(normals, image)
        self.image, self.mask, self.basis = image, shared.mask, shared.basis
        self.lum = image.luminance[self.mask]
        n_masked = self.lum.size
        if n_masked == 0:
            raise EmptyMaskError("relighting needs at least one masked pixel")
        self.old_light = (shared.fit(self.lum) if old_light is None
                          else SHLight(_light_coeffs(old_light)))
        f_old = self.basis @ (BAND_GAINS * self.old_light.coeffs)
        floored = int((f_old < DENOM_FLOOR).sum())
        if floored > 0.5 * n_masked:
            raise DegenerateLightError(f"denominator floored on {floored}/{n_masked} masked pixels")
        self.denom = np.maximum(f_old, DENOM_FLOOR)
        self.ratio = self.lum / self.denom

    def _raw(self, new_light) -> np.ndarray:
        """Unclamped relit luminance over the masked pixels."""
        return self.lum * (self.basis @ (BAND_GAINS * _light_coeffs(new_light))) / self.denom

    def relit_image(self, new_light, raw=None) -> FaceImage:
        """The image :meth:`relight` returns, from its unclamped masked ``raw`` when given."""
        lum = self.image.luminance.copy()
        lum[self.mask] = self._raw(new_light) if raw is None else raw
        lum.clip(0.0, 1.0, out=lum)
        if np.isnan(lum).any():  # the only values the clip leaves outside [0, 1]
            raise ValueError("relit luminance must not be NaN")
        return FaceImage(_freeze(lum), chroma=self.image.chroma)

    def relight(self, new_light) -> RelightResult:
        """Relight via the shading quotient f(N, L') / f(N, L).

        Masked luminance is multiplied by the quotient (denominator floored
        at ``DENOM_FLOOR``) and clamped to [0, 1]; unmasked pixels pass
        through.
        """
        raw = self._raw(new_light)
        return RelightResult(
            image=self.relit_image(new_light, raw),
            new_light=SHLight(_light_coeffs(new_light)),
            old_light=self.old_light,
            unclamped=_freeze((raw >= 0.0) & (raw <= 1.0)),
        )

    def light_vjp(self, grad_lum, result: RelightResult) -> np.ndarray:
        """<grad_lum, d relit luminance / d L'> at this plan's ``result``; clipped pixels add 0."""
        g = np.asarray(grad_lum, dtype=np.float64)[self.mask]
        return BAND_GAINS * (self.basis.T @ (g * self.ratio * result.unclamped))


def estimate_light(image: FaceImage, normals: NormalMap | NormalBasis) -> SHLight:
    """Least-squares light from an image and its normals: :meth:`NormalBasis.fit`."""
    shared = NormalBasis.of(normals, image)
    return shared.fit(image.luminance[shared.mask])


def random_relight(plan: RelightPlan, epsilon: float, seed: int) -> RelightResult:
    """Baseline: relight by ``plan`` under L + u with u uniform in [-epsilon, epsilon]^9."""
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    offset = np.random.default_rng(seed).uniform(-epsilon, epsilon, size=9)
    return plan.relight(plan.old_light.coeffs + offset)


def save_face_image(path, image: FaceImage) -> None:
    pngio.write_png(path, np.round(image.rgb * 255.0).astype(np.uint8))


def load_face_image(path) -> FaceImage:
    arr = pngio.read_png(path)
    if arr.ndim == 2:
        arr = np.repeat(arr[:, :, None], 3, axis=2)
    if arr.shape[2] == 4:
        arr = arr[:, :, :3]
    scale = 65535.0 if arr.dtype == np.uint16 else 255.0
    return FaceImage.from_rgb(arr.astype(np.float64) / scale)
