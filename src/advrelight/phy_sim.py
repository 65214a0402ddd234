"""Simulated physical reproduction of an adversarial light.

A point light source on a robotic arm is modeled by (azimuth, polar,
distance, intensity); its SH projection is the distant-source basis at the
source direction scaled by intensity / distance^2. Each loop iteration
photographs the scene (forward Lambertian render plus ambient), estimates
the scene's SH light from the photo, renders the lighting map of that
estimate on the reference sphere, and compares it against the target's
lighting map: the brightest position gives the angular error and the
isointensity area ratio gives the distance error. A proportional
controller walks the pose until both match.

Distance is observable because the scene's ambient term enters the
estimated light: a nearer (stronger) source concentrates the isointensity
region relative to the ambient floor. Targets should therefore be lights
expressed in the same scene pipeline, e.g. produced by
:func:`scene_light_estimate` or estimated from a photographed scene, which
is exactly what the digital attacks output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoLightError, NonConvergenceError
from .relight import FaceImage, estimate_light
from .shading import LightingMap, NormalMap, SHLight, _light_coeffs, lighting_map, pixel_to_direction, sh_basis, shade

TWO_PI = 2.0 * math.pi

DEFAULT_GAINS = (0.5, 0.5, 0.5)
DEFAULT_TOLERANCES = (0.035, 0.035, 0.02)  # azimuth rad, polar rad, |area ratio - 1|
DEFAULT_MAP_RESOLUTION = 512
_POLAR_MARGIN = 0.02


@dataclass(frozen=True)
class PLSPose:
    """Point-light-source pose in scene coordinates."""

    azimuth: float
    polar: float
    distance: float
    intensity: float

    def __post_init__(self):
        if not 0.0 <= self.azimuth < TWO_PI:
            raise ValueError("azimuth must lie in [0, 2*pi)")
        if not 0.0 <= self.polar <= math.pi / 2.0:
            raise ValueError("polar must lie in [0, pi/2]")
        if self.distance <= 0 or self.intensity <= 0:
            raise ValueError("distance and intensity must be positive")

    def direction(self) -> np.ndarray:
        sp = math.sin(self.polar)
        return np.array(
            [sp * math.cos(self.azimuth), sp * math.sin(self.azimuth), math.cos(self.polar)]
        )


@dataclass(frozen=True)
class SceneModel:
    """Normals, per-pixel albedo and a constant ambient term."""

    normals: NormalMap
    albedo: np.ndarray
    ambient: float = 0.0

    def __post_init__(self):
        albedo = np.array(self.albedo, dtype=np.float64)
        if albedo.shape == ():
            albedo = np.full(self.normals.mask.shape, float(albedo))
        if albedo.shape != self.normals.mask.shape:
            raise ValueError("albedo dimensions must match normals")
        if albedo.min() < 0.0 or albedo.max() > 1.0:
            raise ValueError("albedo must lie in [0, 1]")
        if self.ambient < 0.0:
            raise ValueError("ambient must be non-negative")
        albedo.flags.writeable = False
        object.__setattr__(self, "albedo", albedo)


@dataclass(frozen=True)
class NavFeedback:
    """Signed angular errors plus the isointensity area ratio."""

    d_azimuth: float
    d_polar: float
    area_ratio: float
    converged: bool


def pls_to_sh(pose: PLSPose) -> SHLight:
    """Project a point light to SH: (intensity / distance^2) * basis(direction)."""
    scale = pose.intensity / (pose.distance * pose.distance)
    return SHLight(scale * sh_basis(pose.direction()))


def scene_photo(scene: SceneModel, light) -> FaceImage:
    """Forward render: albedo * shading + ambient, clipped into [0, 1]."""
    lum = scene.albedo * shade(scene.normals, light) + scene.ambient
    lum[~scene.normals.mask] = 0.0
    return FaceImage.from_luminance(np.clip(lum, 0.0, 1.0))


def scene_light_estimate(scene: SceneModel, pose: PLSPose) -> SHLight:
    """The light the loop would estimate when photographing ``pose``.

    Use this to express pose-defined targets in the scene pipeline, which
    keeps the area feedback meaningful for distance recovery.
    """
    return estimate_light(scene_photo(scene, pls_to_sh(pose)), scene.normals)


def _wrap_angle(value: float) -> float:
    return (value + math.pi) % TWO_PI - math.pi


def map_feedback(current: LightingMap, target: LightingMap, tau: float = 0.9,
                 tolerances=DEFAULT_TOLERANCES) -> NavFeedback:
    """Navigation feedback from two lighting maps.

    The brightest masked pixel of each map yields (azimuth, polar); the
    returned errors are target minus current, azimuth wrapped to (-pi, pi].
    ``area_ratio`` compares the maps' isointensity regions at ``tau`` times
    their own maxima (current / target).
    """
    if current.resolution != target.resolution:
        raise ValueError("lighting maps must share a resolution")
    az_now, po_now = pixel_to_direction(*current.brightest, current.resolution)
    az_tgt, po_tgt = pixel_to_direction(*target.brightest, target.resolution)
    if min(current.peak, target.peak) <= 0.0:
        raise NoLightError("lighting map has no positive signal")
    area_now = int(np.count_nonzero(current.masked >= tau * current.peak))
    area_tgt = int(np.count_nonzero(target.masked >= tau * target.peak))
    d_azimuth = _wrap_angle(az_tgt - az_now)
    d_polar = po_tgt - po_now
    ratio = area_now / area_tgt
    tol_az, tol_po, tol_area = tolerances
    converged = (
        abs(d_azimuth) < tol_az and abs(d_polar) < tol_po and abs(ratio - 1.0) < tol_area
    )
    return NavFeedback(d_azimuth, d_polar, ratio, converged)


@dataclass(frozen=True)
class RecurrenceResult:
    final_pose: PLSPose
    trace: tuple  # (PLSPose, NavFeedback) per evaluated iteration
    iterations: int  # pose adjustments performed


def recurrence_loop(target, start: PLSPose, scene: SceneModel,
                    gains=DEFAULT_GAINS, max_iter: int = 100, *,
                    tau: float = 0.9,
                    tolerances=DEFAULT_TOLERANCES,
                    map_resolution: int = DEFAULT_MAP_RESOLUTION,
                    distance_bounds: tuple[float, float] = (0.05, 50.0)) -> RecurrenceResult:
    """Incrementally adjust the light pose until its map matches the target's.

    Per iteration: photograph the scene under the current pose, estimate
    the SH light from the photo, render its lighting map, extract feedback
    against the target map, then apply proportional control on azimuth,
    polar and log-distance. Raises :class:`NonConvergenceError` (carrying
    the trace) after ``max_iter`` adjustments without convergence.
    """
    target_map = lighting_map(_light_coeffs(target), map_resolution)
    if target_map.peak <= 0.0:
        raise NoLightError("target light renders an empty lighting map")
    gain_az, gain_po, gain_di = gains
    lo, hi = distance_bounds

    pose = start
    trace: list[tuple[PLSPose, NavFeedback]] = []
    for _ in range(max_iter + 1):
        estimated = estimate_light(scene_photo(scene, pls_to_sh(pose)), scene.normals)
        feedback = map_feedback(
            lighting_map(estimated, map_resolution), target_map, tau, tolerances
        )
        trace.append((pose, feedback))
        if feedback.converged:
            return RecurrenceResult(pose, tuple(trace), iterations=len(trace) - 1)
        if len(trace) > max_iter:
            break
        azimuth = (pose.azimuth + gain_az * feedback.d_azimuth) % TWO_PI
        polar = float(
            np.clip(pose.polar + gain_po * feedback.d_polar,
                    _POLAR_MARGIN, math.pi / 2.0 - _POLAR_MARGIN)
        )
        # area too large => source effectively too weak/far => move closer
        distance = float(
            np.clip(pose.distance * math.exp(-0.5 * gain_di * math.log(feedback.area_ratio)),
                    lo, hi)
        )
        pose = PLSPose(azimuth, polar, distance, pose.intensity)
    raise NonConvergenceError(tuple(trace))
