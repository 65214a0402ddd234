import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from advrelight import shading
from advrelight.errors import NoLightError, NonConvergenceError
from advrelight.phy_sim import (
    DEFAULT_TOLERANCES,
    NavFeedback,
    PLSPose,
    SceneModel,
    map_feedback,
    pls_to_sh,
    recurrence_loop,
    scene_light_estimate,
    scene_photo,
)
from advrelight.shading import SHLight, lighting_map, pixel_to_direction, sh_basis, sphere_normals


@pytest.fixture(scope="module")
def scene():
    return SceneModel(normals=sphere_normals(64), albedo=0.8, ambient=0.25)


def test_pose_validation():
    with pytest.raises(ValueError):
        PLSPose(-0.1, 0.3, 1.0, 1.0)
    with pytest.raises(ValueError):
        PLSPose(0.0, 2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        PLSPose(0.0, 0.3, 0.0, 1.0)


def test_pls_toward_z_sparsity():
    light = pls_to_sh(PLSPose(0.0, 0.0, 1.0, 1.0))
    nonzero = np.nonzero(np.abs(light.coeffs) > 1e-12)[0]
    assert set(nonzero.tolist()) == {0, 2, 6}


def test_pls_inverse_square():
    near = pls_to_sh(PLSPose(1.0, 0.7, 1.0, 1.0))
    far = pls_to_sh(PLSPose(1.0, 0.7, 2.0, 1.0))
    assert np.allclose(far.coeffs, near.coeffs / 4.0)


def test_pls_intensity_linearity():
    base = pls_to_sh(PLSPose(0.4, 0.9, 1.5, 1.0))
    scaled = pls_to_sh(PLSPose(0.4, 0.9, 1.5, 3.5))
    assert np.allclose(scaled.coeffs, 3.5 * base.coeffs)


def test_pls_azimuth_parity():
    """Rotating the source by pi flips exactly the entries odd under (x,y) -> (-x,-y)."""
    pose = PLSPose(0.7, 0.8, 1.0, 1.0)
    rotated = PLSPose((0.7 + math.pi) % (2 * math.pi), 0.8, 1.0, 1.0)
    a = pls_to_sh(pose).coeffs
    b = pls_to_sh(rotated).coeffs
    # oracle: evaluate the basis parity directly at the two directions
    expected = sh_basis(rotated.direction()) / np.where(
        np.abs(sh_basis(pose.direction())) > 1e-15, sh_basis(pose.direction()), 1.0
    )
    flipped = {1, 3, 5, 7}
    preserved = {0, 2, 4, 6, 8}
    for j in flipped:
        assert b[j] == pytest.approx(-a[j], abs=1e-12)
    for j in preserved:
        assert b[j] == pytest.approx(a[j], abs=1e-12)
    assert np.allclose(b, a * np.sign(expected) * np.abs(expected), atol=1e-12)


def test_feedback_identical_maps():
    lmap = lighting_map(pls_to_sh(PLSPose(1.0, 0.6, 2.0, 1.5)), 128)
    fb = map_feedback(lmap, lmap)
    assert fb.d_azimuth == 0.0
    assert fb.d_polar == 0.0
    assert fb.area_ratio == 1.0
    assert fb.converged


def test_feedback_azimuth_offset():
    base = PLSPose(1.0, 0.8, 2.0, 1.5)
    shifted = PLSPose(1.3, 0.8, 2.0, 1.5)
    current = lighting_map(pls_to_sh(shifted), 128)
    target = lighting_map(pls_to_sh(base), 128)
    fb = map_feedback(current, target)
    assert fb.d_azimuth == pytest.approx(-0.3, abs=0.05)
    assert fb.d_polar == pytest.approx(0.0, abs=0.05)


def test_feedback_angle_extraction_inverts_rendering():
    """Brightest-pixel extraction matches the source pose within 0.05 rad."""
    rng = np.random.default_rng(0)
    reference = lighting_map(pls_to_sh(PLSPose(0.0, 0.5, 2.0, 1.5)), 128)
    for _ in range(10):
        pose = PLSPose(float(rng.uniform(0, 2 * math.pi)),
                       float(rng.uniform(0.1, 1.4)), 2.0, 1.5)
        current = lighting_map(pls_to_sh(pose), 128)
        fb = map_feedback(current, reference)
        recovered_az = (0.0 - fb.d_azimuth) % (2 * math.pi)
        recovered_po = 0.5 - fb.d_polar
        az_err = abs((recovered_az - pose.azimuth + math.pi) % (2 * math.pi) - math.pi)
        az_err *= math.sin(pose.polar)  # azimuth is a small circle near the pole
        assert az_err < 0.05
        assert abs(recovered_po - pose.polar) < 0.05


def test_feedback_area_encodes_distance(scene):
    """Through the scene pipeline a nearer source concentrates the bright spot."""
    far_pose = PLSPose(1.0, 0.6, 2.5, 1.5)
    near_pose = PLSPose(1.0, 0.6, 1.5, 1.5)
    target = lighting_map(scene_light_estimate(scene, far_pose), 128)
    nearer = lighting_map(scene_light_estimate(scene, near_pose), 128)
    farther = lighting_map(scene_light_estimate(scene, PLSPose(1.0, 0.6, 3.5, 1.5)), 128)
    assert map_feedback(nearer, target).area_ratio < 1.0
    assert map_feedback(farther, target).area_ratio > 1.0


def test_feedback_no_light_error():
    dark = lighting_map(np.zeros(9), 64)
    lit = lighting_map(pls_to_sh(PLSPose(1.0, 0.6, 2.0, 1.5)), 64)
    with pytest.raises(NoLightError):
        map_feedback(dark, lit)


# Oracle: the dense lighting map and dense feature extraction that masked maps replaced.

def _dense_values(coeffs, resolution):
    values = np.zeros((resolution, resolution), dtype=np.float64)
    values[sphere_normals(resolution).mask] = shading._sphere_design(resolution)[0] @ coeffs
    return values


def _dense_brightest_direction(values, mask):
    row, col = divmod(int(np.argmax(np.where(mask, values, -np.inf))), mask.shape[0])
    return pixel_to_direction(row, col, mask.shape[0])


def _dense_iso_area(values, mask, tau):
    peak = values[mask].max()
    if peak <= 0.0:
        raise NoLightError("lighting map has no positive signal")
    return int((mask & (values >= tau * peak)).sum())


def _dense_feedback(current, target, mask, tau, tolerances=DEFAULT_TOLERANCES):
    az_now, po_now = _dense_brightest_direction(current, mask)
    az_tgt, po_tgt = _dense_brightest_direction(target, mask)
    ratio = _dense_iso_area(current, mask, tau) / _dense_iso_area(target, mask, tau)
    d_azimuth = (az_tgt - az_now + math.pi) % (2 * math.pi) - math.pi
    d_polar = po_tgt - po_now
    tol_az, tol_po, tol_area = tolerances
    converged = (abs(d_azimuth) < tol_az and abs(d_polar) < tol_po
                 and abs(ratio - 1.0) < tol_area)
    return NavFeedback(d_azimuth, d_polar, ratio, converged)


lights = st.one_of(
    st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9).map(np.array),
    st.floats(-1.0, 1.0).map(lambda level: SHLight.ambient(level).coeffs),  # constant map: ties
)


@settings(max_examples=150, deadline=None)
@given(current=lights, target=lights, resolution=st.integers(8, 72), tau=st.floats(-0.5, 1.0))
@example(current=SHLight.ambient(0.5).coeffs, target=pls_to_sh(PLSPose(1.0, 0.6, 2.0, 1.5)).coeffs,
         resolution=33, tau=0.9)
@example(current=-SHLight.ambient(0.5).coeffs, target=SHLight.ambient(0.5).coeffs,
         resolution=32, tau=0.9)
@example(current=SHLight.ambient(0.5).coeffs, target=pls_to_sh(PLSPose(2.0, 0.3, 1.0, 1.0)).coeffs,
         resolution=17, tau=1.0)
@example(current=pls_to_sh(PLSPose(1.0, 0.6, 2.0, 1.5)).coeffs, target=np.zeros(9),
         resolution=64, tau=0.0)
def test_masked_maps_match_dense_oracle(current, target, resolution, tau):
    """Masked maps give the dense values and the dense feedback, bit for bit."""
    now, tgt = lighting_map(current, resolution), lighting_map(target, resolution)
    mask = sphere_normals(resolution).mask
    dense_now, dense_tgt = _dense_values(current, resolution), _dense_values(target, resolution)
    assert np.array_equal(now.values, dense_now) and np.array_equal(tgt.values, dense_tgt)
    assert np.array_equal(now.mask, mask) and now.resolution == resolution
    try:
        expected = _dense_feedback(dense_now, dense_tgt, mask, tau)
    except NoLightError:
        with pytest.raises(NoLightError):
            map_feedback(now, tgt, tau)
        return
    assert map_feedback(now, tgt, tau) == expected


def test_lighting_map_rejects_wrong_size_and_non_finite_values():
    size = int(sphere_normals(16).mask.sum())
    shading.LightingMap(np.zeros(size), 16)
    for bad in (np.zeros(size - 1), np.full(size, np.nan)):
        with pytest.raises(ValueError, match="finite values"):
            shading.LightingMap(bad, 16)


def test_feedback_resolution_mismatch():
    a = lighting_map(pls_to_sh(PLSPose(1.0, 0.6, 2.0, 1.5)), 64)
    b = lighting_map(pls_to_sh(PLSPose(1.0, 0.6, 2.0, 1.5)), 128)
    with pytest.raises(ValueError):
        map_feedback(a, b)


def test_scene_photo_range(scene):
    photo = scene_photo(scene, pls_to_sh(PLSPose(1.0, 0.6, 2.0, 1.5)))
    assert photo.luminance.min() >= 0.0 and photo.luminance.max() <= 1.0
    assert np.all(photo.luminance[~scene.normals.mask] == 0.0)


def test_self_recurrence(scene):
    pose = PLSPose(1.0, 0.6, 2.0, 1.5)
    target = scene_light_estimate(scene, pose)
    result = recurrence_loop(target, pose, scene)
    assert result.iterations == 0
    assert result.final_pose == pose


def test_self_recurrence_pure_light():
    """With no ambient and unit albedo the estimate equals the pose light exactly."""
    clean = SceneModel(normals=sphere_normals(64), albedo=1.0, ambient=0.0)
    pose = PLSPose(2.0, 0.8, 2.0, 1.5)
    result = recurrence_loop(pls_to_sh(pose), pose, clean)
    assert result.iterations == 0


def test_recurrence_reference_run(scene):
    """The documented example: far start, default gains, tight convergence."""
    target_pose = PLSPose(1.0, 0.6, 2.0, 1.5)
    target = scene_light_estimate(scene, target_pose)
    start = PLSPose(0.2, 0.3, 3.0, 1.5)
    result = recurrence_loop(target, start, scene)
    assert result.iterations <= 100
    final = result.final_pose
    angle = math.degrees(math.acos(np.clip(
        final.direction() @ target_pose.direction(), -1.0, 1.0)))
    assert angle < 2.0
    assert abs(final.distance - target_pose.distance) / target_pose.distance < 0.05


def test_recurrence_late_phase_contraction(scene):
    """Angular error is non-increasing in >= 8 of the last 10 steps."""
    target_pose = PLSPose(4.0, 1.0, 1.8, 1.5)
    target = scene_light_estimate(scene, target_pose)
    result = recurrence_loop(target, PLSPose(2.2, 0.4, 2.6, 1.5), scene)
    errors = [
        math.acos(np.clip(pose.direction() @ target_pose.direction(), -1.0, 1.0))
        for pose, _ in result.trace
    ]
    window = errors[-11:]
    non_increasing = sum(window[i + 1] <= window[i] + 1e-12
                         for i in range(len(window) - 1))
    assert non_increasing >= max(len(window) - 3, 1)


def test_recurrence_unreachable_target(scene):
    """A target dimmer than any pose within the distance bounds allows."""
    faint = PLSPose(1.0, 0.6, 30.0, 1.5)
    target = scene_light_estimate(scene, faint)
    with pytest.raises(NonConvergenceError) as err:
        recurrence_loop(target, PLSPose(1.0, 0.6, 2.0, 1.5), scene,
                        max_iter=40, distance_bounds=(0.2, 5.0))
    assert len(err.value.trace) == 41


def test_recurrence_rejects_dark_target(scene):
    with pytest.raises(NoLightError):
        recurrence_loop(SHLight(np.zeros(9)), PLSPose(1.0, 0.6, 2.0, 1.5), scene)
