import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from advrelight import shading
from advrelight.errors import NonUnitNormalError
from advrelight.shading import (
    BAND1,
    SHLight,
    lighting_map,
    load_light,
    load_normal_map,
    pixel_to_direction,
    save_light,
    save_normal_map,
    sh_basis,
    shade,
    sphere_normals,
)

unit_vectors = st.tuples(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
).filter(lambda v: 0.1 < np.linalg.norm(v)).map(
    lambda v: tuple(np.asarray(v) / np.linalg.norm(v))
)


def test_basis_at_plus_z():
    expected = [0.282095, 0, 0.488603, 0, 0, 0, 0.630784, 0, 0]
    assert np.allclose(sh_basis([0.0, 0.0, 1.0]), expected, atol=1e-9)


def test_basis_at_plus_x():
    expected = [0.282095, 0, 0, 0.488603, 0, 0, -0.315392, 0, 0.546274]
    assert np.allclose(sh_basis([1.0, 0.0, 0.0]), expected, atol=1e-9)


@given(unit_vectors)
@settings(max_examples=50, deadline=None)
def test_band_parity(n):
    """Negating the normal flips band 1 exactly and preserves everything else."""
    plus = sh_basis(n)
    minus = sh_basis(tuple(-c for c in n))
    flip = np.ones(9)
    flip[list(BAND1)] = -1.0
    assert np.array_equal(minus, plus * flip)


def test_basis_rejects_non_unit():
    with pytest.raises(NonUnitNormalError):
        sh_basis([1.0, 1.0, 0.0])


def test_shade_ambient_constant(sphere64):
    light = np.zeros(9)
    light[0] = 1.0
    values = shade(sphere64, light)
    assert np.allclose(values[sphere64.mask], np.pi * 0.282095, atol=1e-6)
    assert np.all(values[~sphere64.mask] == 0.0)


def test_shade_zero_light(sphere64):
    assert np.all(shade(sphere64, np.zeros(9)) == 0.0)


def test_shade_linearity(sphere64):
    rng = np.random.default_rng(0)
    l1, l2 = rng.normal(size=9), rng.normal(size=9)
    a, b = rng.normal(size=2)
    combined = shade(sphere64, a * l1 + b * l2)
    separate = a * shade(sphere64, l1) + b * shade(sphere64, l2)
    assert np.abs(combined - separate).max() < 1e-6


def test_sphere_normals_center_and_norms():
    nm = sphere_normals(64)
    assert np.allclose(nm.normals[32, 32], [0, 0, 1], atol=0.05)
    norms = np.linalg.norm(nm.normals[nm.mask], axis=-1)
    assert np.abs(norms - 1.0).max() < 1e-6


def test_sphere_mask_area():
    nm = sphere_normals(256)
    assert abs(nm.mask.mean() - np.pi / 4.0) < 0.01


def test_sphere_normals_rejects_tiny():
    with pytest.raises(ValueError):
        sphere_normals(4)


def test_lighting_map_ambient_constant():
    lmap = lighting_map(SHLight.ambient(0.5), 32)
    disk = lmap.values[lmap.mask]
    assert np.allclose(disk, 0.5, atol=1e-9)
    assert np.all(lmap.values[~lmap.mask] == 0.0)


def test_lighting_map_brightest_at_source():
    from advrelight.phy_sim import PLSPose, pls_to_sh

    lmap = lighting_map(pls_to_sh(PLSPose(0.0, 0.0, 1.0, 1.0)), 65)
    row, col = divmod(int(np.argmax(np.where(lmap.mask, lmap.values, -np.inf))), 65)
    assert abs(row - 32) <= 1 and abs(col - 32) <= 1


def test_lighting_map_directional_consistency():
    """Argmax of the rendered map stays within 2 px of the source direction."""
    from advrelight.phy_sim import PLSPose, pls_to_sh

    rng = np.random.default_rng(5)
    res = 128
    for _ in range(12):
        pose = PLSPose(float(rng.uniform(0, 2 * np.pi)), float(rng.uniform(0, 1.4)),
                       10.0, 100.0)
        lmap = lighting_map(pls_to_sh(pose), res)
        row, col = divmod(int(np.argmax(np.where(lmap.mask, lmap.values, -np.inf))), res)
        d = pose.direction()
        expected_col = (d[0] + 1.0) / 2.0 * res - 0.5
        expected_row = (1.0 - d[1]) / 2.0 * res - 0.5
        assert np.hypot(row - expected_row, col - expected_col) < 2.0


def test_pixel_to_direction_roundtrip():
    res = 128
    az, po = pixel_to_direction(20, 90, res)
    x = np.sin(po) * np.cos(az)
    y = np.sin(po) * np.sin(az)
    col = (x + 1.0) / 2.0 * res - 0.5
    row = (1.0 - y) / 2.0 * res - 0.5
    assert abs(col - 90) < 0.51 and abs(row - 20) < 0.51


def test_light_file_roundtrip(tmp_path):
    light = SHLight(np.linspace(-0.7, 0.9, 9))
    path = tmp_path / "light.txt"
    save_light(path, light)
    assert np.array_equal(load_light(path).coeffs, light.coeffs)


def test_light_file_rejects_wrong_count(tmp_path):
    path = tmp_path / "light.txt"
    path.write_text("1 2 3\n")
    with pytest.raises(ValueError):
        load_light(path)


def test_normal_map_roundtrip(tmp_path):
    nm = sphere_normals(48)
    path = tmp_path / "normals.png"
    save_normal_map(path, nm)
    back = load_normal_map(path)
    assert np.array_equal(back.mask, nm.mask)
    err = np.abs(back.normals[nm.mask] - nm.normals[nm.mask]).max()
    assert err < 1e-4
    norms = np.linalg.norm(back.normals[back.mask], axis=-1)
    assert np.abs(norms - 1.0).max() < 1e-6


def test_shlight_validation():
    with pytest.raises(ValueError):
        SHLight(np.zeros(8))
    with pytest.raises(ValueError):
        SHLight([np.nan] * 9)


def test_normal_map_rejects_non_unit():
    bad = np.zeros((8, 8, 3))
    bad[..., 2] = 0.9
    with pytest.raises(NonUnitNormalError):
        shading.NormalMap(bad, np.ones((8, 8), dtype=bool))


def test_lighting_map_linearity():
    rng = np.random.default_rng(12)
    l1, l2 = rng.normal(size=9), rng.normal(size=9)
    a, b = rng.normal(size=2)
    combined = lighting_map(a * l1 + b * l2, 48)
    separate = a * lighting_map(l1, 48).values + b * lighting_map(l2, 48).values
    assert np.abs(combined.values - separate).max() < 1e-6
