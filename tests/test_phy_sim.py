import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from advrelight import shading
from advrelight.corpus import ellipsoid_normals
from advrelight.errors import EmptyMaskError, NoLightError, NonConvergenceError
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
from advrelight.relight import FaceImage, estimate_light
from advrelight.shading import (
    NormalMap,
    as_light,
    lighting_map,
    pixel_to_direction,
    sh_basis,
    shade,
    sphere_normals,
)

from conftest import patch_every_binding
from helpers.lighting import ambient_light, dense_values


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


@pytest.mark.parametrize("albedo, ambient, message", [
    (float("nan"), 0.25, "albedo must lie in"),
    (np.where(np.eye(8, dtype=bool), np.nan, 0.5), 0.25, "albedo must lie in"),
    (0.8, float("inf"), "ambient must be finite"),
    (0.8, float("nan"), "ambient must be finite"),
], ids=["albedo_nan", "albedo_map_nan", "ambient_inf", "ambient_nan"])
def test_scene_rejects_non_finite_albedo_or_ambient(albedo, ambient, message):
    with pytest.raises(ValueError, match=message):
        SceneModel(normals=sphere_normals(8), albedo=albedo, ambient=ambient)


def test_pls_toward_z_sparsity():
    light = pls_to_sh(PLSPose(0.0, 0.0, 1.0, 1.0))
    nonzero = np.nonzero(np.abs(light) > 1e-12)[0]
    assert set(nonzero.tolist()) == {0, 2, 6}


def test_pls_inverse_square():
    near = pls_to_sh(PLSPose(1.0, 0.7, 1.0, 1.0))
    far = pls_to_sh(PLSPose(1.0, 0.7, 2.0, 1.0))
    assert np.allclose(far, near / 4.0)


def test_pls_intensity_linearity():
    base = pls_to_sh(PLSPose(0.4, 0.9, 1.5, 1.0))
    scaled = pls_to_sh(PLSPose(0.4, 0.9, 1.5, 3.5))
    assert np.allclose(scaled, 3.5 * base)


def test_pls_azimuth_parity():
    """Rotating the source by pi flips exactly the entries odd under (x,y) -> (-x,-y)."""
    pose = PLSPose(0.7, 0.8, 1.0, 1.0)
    rotated = PLSPose((0.7 + math.pi) % (2 * math.pi), 0.8, 1.0, 1.0)
    a = pls_to_sh(pose)
    b = pls_to_sh(rotated)
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
    values[sphere_normals(resolution).mask] = coeffs @ shading._sphere_design(resolution)[0]
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
    st.floats(-1.0, 1.0).map(ambient_light),  # constant map: ties
)


@settings(max_examples=150, deadline=None)
@given(current=lights, target=lights, resolution=st.integers(8, 72), tau=st.floats(-0.5, 1.0))
@example(current=ambient_light(0.5), target=pls_to_sh(PLSPose(1.0, 0.6, 2.0, 1.5)),
         resolution=33, tau=0.9)
@example(current=-ambient_light(0.5), target=ambient_light(0.5),
         resolution=32, tau=0.9)
@example(current=ambient_light(0.5), target=pls_to_sh(PLSPose(2.0, 0.3, 1.0, 1.0)),
         resolution=17, tau=1.0)
@example(current=pls_to_sh(PLSPose(1.0, 0.6, 2.0, 1.5)), target=np.zeros(9),
         resolution=64, tau=0.0)
def test_masked_maps_match_dense_oracle(current, target, resolution, tau):
    """Masked maps give the dense values and the dense feedback, bit for bit."""
    now, tgt = lighting_map(current, resolution), lighting_map(target, resolution)
    mask = sphere_normals(resolution).mask
    dense_now, dense_tgt = _dense_values(current, resolution), _dense_values(target, resolution)
    assert np.array_equal(dense_values(now), dense_now) and np.array_equal(dense_values(tgt), dense_tgt)
    assert now.resolution == resolution
    try:
        expected = _dense_feedback(dense_now, dense_tgt, mask, tau)
    except NoLightError:
        with pytest.raises(NoLightError):
            map_feedback(now, tgt, tau)
        return
    assert map_feedback(now, tgt, tau) == expected


# Oracle: the row-major (n, 9) product of the disk normals' basis, built without the design.

def _row_major_oracle(coeffs, resolution):
    """(values, error bound): the oracle's values and 1e-15 of the largest sum of |terms|."""
    normals = sphere_normals(resolution)
    terms = sh_basis(normals.normals[normals.mask]) * shading.BAND_GAINS
    return terms @ coeffs, 1e-15 * (np.abs(terms) @ np.abs(coeffs)).max()


def _masked_index(lmap):
    row, col = lmap.brightest
    return int(np.searchsorted(np.flatnonzero(sphere_normals(lmap.resolution).mask), row * lmap.resolution + col))


@settings(max_examples=150, deadline=None)
@given(light=lights, resolution=st.integers(8, 72))
@example(light=np.array([1.0, 0.0, 0.0, 0.0, 0.34765625, 0.0, 0.0, 0.0, 0.0]), resolution=38)
def test_lighting_map_matches_row_major_oracle(light, resolution):
    """Values agree within the bound; features differ only where pixels lie within it."""
    lmap = lighting_map(light, resolution)
    oracle, tol = _row_major_oracle(light, resolution)
    assert np.abs(lmap.masked - oracle).max() <= tol
    assert lmap.peak == lmap.masked.max() and abs(lmap.peak - oracle.max()) <= tol
    assert _masked_index(lmap) == np.argmax(lmap.masked)  # the first maximum, as at 38 px
    assert oracle[_masked_index(lmap)] >= oracle.max() - 2.0 * tol
    threshold = 0.9 * oracle.max()
    assert (np.count_nonzero(oracle >= threshold + 2.0 * tol) <= lmap.iso_area(0.9)
            <= np.count_nonzero(oracle >= threshold - 2.0 * tol))


def _single(index, value):
    coeffs = np.zeros(9)
    coeffs[index] = value
    return coeffs


@pytest.mark.parametrize("resolution", [8, 33, 64, 512])
@pytest.mark.parametrize("light, exact", [
    pytest.param(ambient_light(0.5), True, id="ambient"),
    pytest.param(-ambient_light(0.5), True, id="negative_ambient"),
    pytest.param(pls_to_sh(PLSPose(0.0, 0.0, 1.0, 1.0)), False, id="zenith_source"),
    *(pytest.param(_single(j, v), True, id=f"single_{j}_{v:g}") for j in range(9) for v in (1.0, -0.5)),
])
def test_lighting_map_ties_match_row_major_oracle(light, exact, resolution):
    """Where maps tie exactly, the brightest pixel and the area equal the oracle's.

    One-coefficient and ambient lights give the oracle's values bit for bit.
    """
    lmap = lighting_map(light, resolution)
    oracle, tol = _row_major_oracle(light, resolution)
    if exact:
        assert np.array_equal(lmap.masked, oracle)
    assert np.abs(lmap.masked - oracle).max() <= tol
    assert _masked_index(lmap) == np.argmax(oracle)
    assert lmap.peak == lmap.masked.max() and abs(lmap.peak - oracle.max()) <= tol
    assert lmap.iso_area(0.9) == np.count_nonzero(oracle >= 0.9 * oracle.max())


def test_lighting_map_rejects_wrong_size_and_non_finite_values():
    size = int(sphere_normals(16).mask.sum())
    values = np.zeros(size)
    lmap = shading.LightingMap.of(values, 16)
    assert values.flags.writeable and not np.shares_memory(lmap.masked, values)
    for bad in (np.zeros(size - 1), np.full(size, np.nan)):
        with pytest.raises(ValueError, match="finite values"):
            shading.LightingMap.of(bad, 16)
    shaded = lighting_map(pls_to_sh(PLSPose(1.0, 0.6, 2.0, 1.5)), 16).masked
    for value in (np.nan, np.inf, -np.inf):  # one pixel each: first, inner, last
        for where in (0, size // 2, size - 1):
            bad = shaded.copy()
            bad[where] = value
            with pytest.raises(ValueError, match="finite values"):
                shading.LightingMap.of(bad, 16)


def test_lighting_map_is_its_declared_fields():
    """Every value a map holds is a declared field, whichever route built it."""
    names = ["masked", "resolution", "peak", "brightest", "iso_areas"]
    mask = sphere_normals(16).mask
    for lmap in (lighting_map(pls_to_sh(PLSPose(1.0, 0.6, 2.0, 1.5)), 16),
                 shading.LightingMap.of(np.arange(float(mask.sum())), 16)):
        assert [f.name for f in dataclasses.fields(lmap)] == names
        lmap.iso_area(0.9)
        assert sorted(vars(lmap)) == sorted(names) and list(lmap.iso_areas) == [0.9]
        assert not lmap.masked.flags.writeable
        dense = np.where(mask, dense_values(lmap), -np.inf)
        assert lmap.peak == dense.max() and lmap.brightest == divmod(int(np.argmax(dense)), 16)
        assert dataclasses.replace(lmap).iso_areas == {}


def test_feedback_resolution_mismatch():
    a = lighting_map(pls_to_sh(PLSPose(1.0, 0.6, 2.0, 1.5)), 64)
    b = lighting_map(pls_to_sh(PLSPose(1.0, 0.6, 2.0, 1.5)), 128)
    with pytest.raises(ValueError):
        map_feedback(a, b)


def test_scene_photo_range(scene):
    photo = scene_photo(scene, pls_to_sh(PLSPose(1.0, 0.6, 2.0, 1.5)))
    assert photo.luminance.min() >= 0.0 and photo.luminance.max() <= 1.0
    assert np.all(photo.luminance[~scene.normals.mask] == 0.0)


@pytest.mark.parametrize("normals", [sphere_normals(64), ellipsoid_normals(48, 0.8, 0.9, 0.7)],
                         ids=["sphere", "ellipsoid"])
def test_scene_basis_matches_shade_and_estimate_light(normals):
    """Photos and pose targets from the map's basis equal ``shade`` and ``estimate_light``."""
    rng = np.random.default_rng(8)
    scene = SceneModel(normals=normals, albedo=rng.uniform(0.3, 1.0, normals.mask.shape),
                       ambient=0.2)
    for _ in range(4):
        pose = PLSPose(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.1, 1.4),
                       rng.uniform(1.0, 3.0), 1.5)
        light = pls_to_sh(pose)
        photo = scene_photo(scene, light)
        lum = scene.albedo * shade(normals, light) + scene.ambient
        lum[~normals.mask] = 0.0
        assert np.array_equal(photo.luminance,
                              FaceImage.from_luminance(np.clip(lum, 0.0, 1.0)).luminance)
        fresh = NormalMap(normals.normals, normals.mask)  # evaluates a basis of its own
        assert np.array_equal(scene_light_estimate(scene, pose),
                              estimate_light(photo, fresh))


def test_scene_basis_is_evaluated_once_per_scene(monkeypatch):
    """Scenarios on ``sphere_normals(64)`` evaluate its basis once between them; every
    photo adds only ``pls_to_sh``'s one-row direction basis."""
    rows = []

    def counting(normals):
        rows.append(np.shape(normals)[:-1])
        return sh_basis(normals)

    patch_every_binding(monkeypatch, sh_basis, counting)
    sphere_normals.cache_clear()  # a map whose basis no earlier test has read
    photos = 0
    for ambient, azimuth in ((0.25, 1.0), (0.1, 2.0), (0.4, 4.0)):
        scene = SceneModel(normals=sphere_normals(64), albedo=0.8, ambient=ambient)
        target = scene_light_estimate(scene, PLSPose(azimuth, 0.6, 2.0, 1.5))
        try:
            trace = recurrence_loop(target, PLSPose(3.0, 0.3, 2.0, 1.5), scene, max_iter=3).trace
        except NonConvergenceError as exc:
            trace = exc.trace
        photos += 1 + len(trace)
    assert rows.count((int(sphere_normals(64).mask.sum()),)) == 1
    assert rows.count(()) == photos  # pls_to_sh's direction, once per photo
    assert len(rows) == photos + 1


def test_empty_scene_raises_empty_mask():
    normals = sphere_normals(16)
    empty = SceneModel(normals=NormalMap(normals.normals, np.zeros_like(normals.mask)),
                       albedo=0.8)
    with pytest.raises(EmptyMaskError):
        recurrence_loop(pls_to_sh(PLSPose(1.0, 0.6, 2.0, 1.5)), PLSPose(1.0, 0.6, 2.0, 1.5),
                        empty, map_resolution=16)


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
        recurrence_loop(as_light(np.zeros(9)), PLSPose(1.0, 0.6, 2.0, 1.5), scene)
