import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from advrelight import shading
from advrelight.errors import NonUnitNormalError
from advrelight.relight import DENOM_FLOOR
from advrelight.shading import (
    as_light,
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

from helpers.lighting import (ambient_light, dense_design, dense_values, masked_values,
                             oracle_render)
from helpers.memory import traced_peak

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
    flip[[1, 2, 3]] = -1.0  # the band-1 entries
    assert np.array_equal(minus, plus * flip)


def test_basis_rejects_non_unit():
    with pytest.raises(NonUnitNormalError):
        sh_basis([1.0, 1.0, 0.0])


def test_basis_rejects_a_nan_normal():
    with pytest.raises(NonUnitNormalError, match="by nan"):
        sh_basis([[0.0, 0.0, 1.0], [np.nan, 0.0, 1.0]])


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


@settings(max_examples=80, deadline=None)
@given(resolution=st.integers(8, 72))
@example(resolution=512)
def test_sphere_design_matches_dense_oracle(resolution):
    """The design and disk indices built from disk coordinates are the dense sphere's, bit
    for bit, once their block-major order is undone. Each block lies in one _BLOCK px square,
    and at an odd resolution (n % 4 == 1) the last row-major pixel, the GEMV tail, stays last."""
    design, flat, starts, _ = shading._sphere_design(resolution)
    want_design, want_flat = dense_design(resolution)
    order = np.argsort(flat)
    assert (design.shape, flat.dtype) == (want_design.shape, want_flat.dtype)
    assert design[:, order].tobytes() == want_design.tobytes()
    assert flat[order].tobytes() == want_flat.tobytes()
    assert flat.size % 4 == 0 or (flat.size % 4 == 1 and flat[-1] == want_flat[-1])
    row, col = np.divmod(flat, resolution)
    square = row // shading._BLOCK * resolution + col // shading._BLOCK
    assert all(np.ptp(square[a:e]) == 0 for a, e in zip(starts[:-1], starts[1:]))


def test_sphere_design_builds_without_the_dense_sphere(monkeypatch):
    """A fresh 512 px build, block bound tables included, peaks below 1.8x its outputs' bytes
    and never builds the dense sphere, and neither does rendering a lighting map. A map's
    features and the full render keep no design beside the cached one."""
    def sphere_normals(resolution):
        raise AssertionError("built the dense sphere")

    monkeypatch.setattr(shading, "sphere_normals", sphere_normals)
    outputs, peak = traced_peak(shading._sphere_design.__wrapped__, 512)
    held = sum(a.nbytes for a in (*outputs[:3], *outputs[3]))
    assert peak <= 1.8 * held
    lighting_map(ambient_light(0.5), 41).iso_area(0.9)
    assert shading.full_render(ambient_light(0.5), 41)[0].size == shading._sphere_design(41)[1].size

    shading._sphere_design.cache_clear()
    tracemalloc.start()
    try:
        lighting_map(np.linspace(-1.0, 1.0, 9), 300).iso_area(0.9)
        render = shading.full_render(np.linspace(-1.0, 1.0, 9), 300)[0].nbytes
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    outputs = shading._sphere_design(300)
    design = sum(a.nbytes for a in (*outputs[:3], *outputs[3]))
    assert design <= kept <= design + 0.1 * render


@settings(max_examples=60, deadline=None)
@given(resolution=st.integers(8, 72), light=st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9),
       seed=st.integers(0, 2**32 - 1))
@example(resolution=200, light=[0.5, -0.25, 0.75, 0.1, -0.3, 0.2, 0.6, -0.7, 0.05], seed=0)
def test_blas_rounds_each_column_of_a_slice_as_the_whole_product(resolution, light, seed):
    """The rule the lighting map's block-major reads rest on: ``L @ design[:, a:e]`` equals
    ``(L @ design)[a:e]`` bit for bit when e - a is a multiple of 4, at any a, short of the
    tail column an odd resolution (n % 4 == 1) ends on; a slice that ends at n with 4k + 1
    columns keeps the tail's bits. Products here stay below the 51,200 columns at which
    OpenBLAS splits a GEMV between threads. A BLAS kernel that rounds otherwise fails here by
    name, where it would otherwise move pinned traces."""
    design = shading._sphere_design(resolution)[0]
    n = design.shape[1]
    body = n - n % 4
    light = np.array(light)
    full = light @ design
    rng = np.random.default_rng(seed)
    for _ in range(40):
        a = int(rng.integers(0, body - 3))
        e = a + 4 * int(rng.integers(1, (body - a) // 4 + 1))
        assert (light @ design[:, a:e]).tobytes() == full[a:e].tobytes(), (a, e)
        if n % 4 == 1:
            a = n - 1 - 4 * int(rng.integers(1, (n - 1) // 4 + 1))
            assert (light @ design[:, a:]).tobytes() == full[a:].tobytes(), a


def _single(index, value):
    coeffs = np.zeros(9)
    coeffs[index] = value
    return coeffs


MIRROR_TIE = np.array([1.0, 0.0, 0.0, 0.0, 0.34765625, 0.0, 0.0, 0.0, 0.0])  # ties at 38 px

feature_lights = st.one_of(
    st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9).map(np.array),
    st.floats(-1.0, 1.0).map(ambient_light),
    st.tuples(st.integers(0, 8), st.floats(-1.0, 1.0)).map(lambda jv: _single(*jv)),
    st.tuples(st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9),
              st.sampled_from([1e-320, 1e-300, 1e300])).map(lambda ls: np.array(ls[0]) * ls[1]),
)


@settings(max_examples=150, deadline=None)
@given(light=feature_lights, resolution=st.one_of(st.integers(8, 72), st.just(512)),
       taus=st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=3))
@example(light=MIRROR_TIE, resolution=38, taus=[0.9, 1.0])
@example(light=ambient_light(0.5), resolution=512, taus=[1.0, 0.9])
@example(light=-ambient_light(0.5), resolution=33, taus=[0.9])
@example(light=-ambient_light(0.5), resolution=512, taus=[0.5])
@example(light=_single(4, 1.0), resolution=512, taus=[0.9])
@example(light=_single(6, -0.5), resolution=71, taus=[1.0, 1e-9])
@example(light=_single(2, 1.0), resolution=9, taus=[0.9])
def test_lighting_map_features_equal_the_full_render(light, resolution, taus):
    """``peak``, ``brightest`` and ``iso_area(tau)``, read from block bounds, are the full
    render's (its first maximum in row-major order), and ``full_render`` is the full render, bit
    for bit. A peak of zero may differ in sign only, which no feature reads."""
    lmap = lighting_map(light, resolution)
    full = oracle_render(light, resolution)
    first = int(np.argmax(full))
    assert lmap.peak == full[first]
    assert masked_values(light, resolution).tobytes() == full.tobytes()
    assert lmap.brightest == divmod(int(dense_design(resolution)[1][first]), resolution)
    for tau in taus:
        assert lmap.iso_area(tau) == np.count_nonzero(full >= tau * full[first])


def test_lighting_map_ambient_constant():
    lmap = lighting_map(ambient_light(0.5), 32)
    values, mask = dense_values(lmap), sphere_normals(32).mask
    assert np.allclose(values[mask], 0.5, atol=1e-9)
    assert np.all(values[~mask] == 0.0)


def test_lighting_map_brightest_at_source():
    from advrelight.phy_sim import PLSPose, pls_to_sh

    lmap = lighting_map(pls_to_sh(PLSPose(0.0, 0.0, 1.0, 1.0)), 65)
    disk = sphere_normals(65).mask
    row, col = divmod(int(np.argmax(np.where(disk, dense_values(lmap), -np.inf))), 65)
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
        disk = sphere_normals(res).mask
        row, col = divmod(int(np.argmax(np.where(disk, dense_values(lmap), -np.inf))), res)
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
    light = as_light(np.linspace(-0.7, 0.9, 9))
    path = tmp_path / "light.txt"
    save_light(path, light)
    assert np.array_equal(load_light(path), light)


def test_light_file_rejects_wrong_count(tmp_path):
    path = tmp_path / "light.txt"
    path.write_text("1 2 3\n")
    with pytest.raises(ValueError):
        load_light(path)


@pytest.mark.parametrize("content, message", [
    ("1 2 3\n", "a light needs exactly 9 coefficients, got (3,)"),
    ("nan 0 0 0 0 0 0 0 0\n", "light coefficients must be finite"),
    ("x 0 0 0 0 0 0 0 0\n", "could not convert string to float: 'x'"),
    ("\u00e9 0 0 0 0 0 0 0 0\n", "'ascii' codec can't decode byte 0xc3"),
], ids=["wrong_count", "nan", "not_a_number", "not_ascii"])
def test_light_file_errors_name_the_file(tmp_path, content, message):
    path = tmp_path / "light.txt"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_light(path)
    assert str(info.value).startswith(f"{path}: {message}")


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


@pytest.mark.parametrize("coeffs, message", [
    pytest.param(np.zeros(8), r"a light needs exactly 9 coefficients, got \(8,\)",
                 id="eight_values"),
    pytest.param([np.nan] * 9, "light coefficients must be finite", id="nan"),
    pytest.param(np.zeros(10), r"a light needs exactly 9 coefficients, got \(10,\)",
                 id="ten_values"),
    pytest.param([0.0] * 8 + [np.inf], "light coefficients must be finite", id="inf"),
    pytest.param([-np.inf] + [0.0] * 8, "light coefficients must be finite", id="minus_inf"),
    pytest.param(np.linspace(-0.7, 0.9, 9).reshape(3, 3), None, id="three_by_three"),
    pytest.param(list(range(9)), None, id="list_of_nine"),
    pytest.param([0.0] * 8 + [1.01e300], r"must be finite and at most 1e\+300 in magnitude",
                 id="over_the_bound"),
    pytest.param([-shading.MAX_LIGHT] + [shading.MAX_LIGHT] * 8, None, id="at_the_bound"),
])
def test_as_light_copies_nine_finite_values_read_only(coeffs, message):
    if message is not None:
        with pytest.raises(ValueError, match=message):
            as_light(coeffs)
        return
    light = as_light(coeffs)
    assert light.shape == (9,) and light.dtype == np.float64 and not light.flags.writeable
    assert np.array_equal(light, np.ravel(coeffs))
    assert not np.shares_memory(light, coeffs)


@settings(max_examples=50, deadline=None)
@given(normal=unit_vectors)
@example(normal=(0.0, 0.0, 1.0))
def test_a_bounded_light_cannot_overflow_a_shading_or_a_relight(normal):
    """Over unit normals sum_j A_j |b_j(n)| <= 3.64, so a light of coefficients up to
    2 * MAX_LIGHT shades below 7.3e300, and a relight (luminance <= 1 over a denominator
    floored at 1e-4) stays below 1e305."""
    gains = np.abs(sh_basis(np.array(normal))) @ shading.BAND_GAINS
    sphere = np.abs(sphere_normals(128).basis) @ shading.BAND_GAINS
    assert max(gains, sphere.max()) <= 3.64
    assert 3.64 * 2 * shading.MAX_LIGHT / DENOM_FLOOR < 1e305


def test_normal_map_rejects_non_unit():
    bad = np.zeros((8, 8, 3))
    bad[..., 2] = 0.9
    with pytest.raises(NonUnitNormalError):
        shading.NormalMap(bad, np.ones((8, 8), dtype=bool))


def test_normal_map_rejects_a_nan_masked_normal_and_keeps_an_unmasked_one():
    normals = sphere_normals(8)
    n = normals.normals.copy()
    outside = tuple(np.argwhere(~normals.mask)[0])
    n[outside] = np.nan
    assert np.isnan(shading.NormalMap(n, normals.mask).normals[outside]).all()
    n[tuple(np.argwhere(normals.mask)[0])] = (np.nan, 0.0, 1.0)
    with pytest.raises(NonUnitNormalError, match="by nan"):
        shading.NormalMap(n, normals.mask)


def test_lighting_map_linearity():
    rng = np.random.default_rng(12)
    l1, l2 = rng.normal(size=9), rng.normal(size=9)
    a, b = rng.normal(size=2)
    combined = lighting_map(a * l1 + b * l2, 48)
    separate = a * dense_values(lighting_map(l1, 48)) + b * dense_values(lighting_map(l2, 48))
    assert np.abs(dense_values(combined) - separate).max() < 1e-6
