import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from advrelight import pngio
from advrelight.errors import DegenerateLightError, EmptyMaskError, SingularFitError
from advrelight.relight import (
    LUMA_WEIGHTS,
    FaceImage,
    NormalBasis,
    RelightPlan,
    estimate_light,
    load_face_image,
    random_relight,
    save_face_image,
)
from advrelight.shading import BAND_GAINS, NormalMap, SHLight, shade, sphere_normals

from conftest import make_safe_light, make_scene


def test_face_image_reconstruction():
    rng = np.random.default_rng(0)
    rgb = rng.uniform(0.05, 0.95, size=(16, 16, 3))
    image = FaceImage.from_rgb(rgb)
    rebuilt = image.chroma * image.luminance[:, :, None]
    assert np.abs(rebuilt - image.rgb).max() < 1e-6


def test_face_image_zero_pixels():
    rgb = np.zeros((4, 4, 3))
    image = FaceImage.from_rgb(rgb)
    assert np.all(image.luminance == 0.0)
    assert np.all(image.chroma == 0.0)


def eager_from_rgb(rgb):
    """Eager oracle for ``FaceImage.from_rgb(rgb)``: (rgb, luminance, chroma)."""
    rgb = np.clip(np.asarray(rgb, dtype=np.float64), 0.0, 1.0)
    lum = rgb @ LUMA_WEIGHTS
    safe = np.maximum(lum, 1e-12)[:, :, None]
    return rgb, lum, np.where(lum[:, :, None] > 1e-12, rgb / safe, 0.0)


def eager_with_luminance(chroma, lum):
    """Eager oracle for ``image.with_luminance(lum)``: (rgb, luminance, chroma)."""
    return np.clip(chroma * lum[:, :, None], 0.0, 1.0), lum, chroma


def assert_arrays(image, expected):
    for name, want in zip(("rgb", "luminance", "chroma"), expected):
        assert np.array_equal(getattr(image, name), want), name


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_lazy_arrays_match_eager_formulas(seed):
    rng = np.random.default_rng(seed)
    rgb = rng.uniform(-0.2, 1.2, size=(6, 7, 3))
    rgb[rng.random((6, 7)) < 0.25] = 0.0  # zero luminance: chroma 0
    rgb[1] = rng.uniform(0.0, 2e-12, size=(7, 3))  # luminance on both sides of the chroma floor
    relit = [rng.uniform(0.0, 1.0, size=(6, 7)) for _ in range(2)]
    relit[0][:, 0] = 1.0  # colored pixels at full luminance clip a channel
    gray = rng.uniform(-0.2, 1.2, size=(6, 7))

    image = FaceImage.from_rgb(rgb)
    expected = eager_from_rgb(rgb)
    assert_arrays(image, expected)
    chroma = expected[2]
    assert (chroma * relit[0][:, :, None] > 1.0).any() and (expected[1] == 0.0).any()
    for lum in relit:
        image = image.with_luminance(lum)
        assert_arrays(image, eager_with_luminance(chroma, lum))

    image = FaceImage.from_luminance(gray)
    repeated = np.repeat(np.clip(gray, 0.0, 1.0)[..., None], 3, 2)
    assert np.array_equal(image.luminance, repeated @ LUMA_WEIGHTS)
    expected = eager_from_rgb(repeated)
    assert_arrays(image, expected)
    assert_arrays(image.with_luminance(relit[1]), eager_with_luminance(expected[2], relit[1]))


def test_face_image_arrays_are_read_only_and_relights_share_chroma(tmp_path, sphere64):
    rng = np.random.default_rng(10)
    image, light = make_scene(rng, sphere64)
    colored = FaceImage.from_rgb(image.rgb * rng.uniform(0.5, 1.0, size=(64, 64, 3)))
    relit = RelightPlan(colored, sphere64, light).relight(make_safe_light(rng)).image
    assert relit.chroma is colored.chroma
    for face in (FaceImage.from_rgb(image.rgb), image, colored, relit):
        for _ in range(2):  # the first write reads a lazy array for the first time
            for name in ("rgb", "chroma", "luminance"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(face, name)[0, 0] = 0.5
        with pytest.raises(AttributeError):
            face.rgb = np.zeros((64, 64, 3))

    save_face_image(tmp_path / "relit.png", relit)
    eager = np.clip(colored.chroma * relit.luminance[:, :, None], 0.0, 1.0)
    pngio.write_png(tmp_path / "eager.png", np.round(eager * 255.0).astype(np.uint8))
    assert (tmp_path / "relit.png").read_bytes() == (tmp_path / "eager.png").read_bytes()


@pytest.mark.parametrize("luminance", [
    np.full((8, 7), 0.5), np.full((8, 8), np.nan), np.full((8, 8), np.inf),
    np.full((8, 8), 1.01), np.full((8, 8), -0.01),
], ids=["shape", "nan", "inf", "above_one", "below_zero"])
def test_with_luminance_rejects_bad_luminance(luminance):
    image = FaceImage.from_rgb(np.full((8, 8, 3), 0.5))
    with pytest.raises(ValueError):
        image.with_luminance(luminance)


_NAN_DIAGONAL = np.where(np.eye(8, dtype=bool), np.nan, 0.5)


@pytest.mark.parametrize("build, array", [
    (FaceImage.from_rgb, np.full((8, 8), 0.5)),
    (FaceImage.from_rgb, np.full((8, 8, 4), 0.5)),
    (FaceImage.from_rgb, np.full((8, 3), 0.5)),
    (FaceImage.from_rgb, np.repeat(_NAN_DIAGONAL[:, :, None], 3, axis=2)),
    (FaceImage.from_luminance, _NAN_DIAGONAL),
    (FaceImage.from_luminance, np.full(8, 0.5)),
    (FaceImage.from_luminance, np.full((8, 8, 1), 0.5)),
], ids=["gray", "rgba", "rows", "nan", "nan_luminance", "luminance_row", "luminance_3d"])
def test_builders_reject_bad_input(build, array):
    with pytest.raises(ValueError):
        build(array)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=st.tuples(st.integers(1, 40), st.integers(1, 40)),
       grid=st.booleans())
def test_from_luminance_equals_grey_from_rgb(seed, shape, grid):
    """Luminance and rgb bytes equal ``from_rgb`` of the clipped input in all three channels."""
    rng = np.random.default_rng(seed)
    x = (rng.integers(0, 256, shape) / 255.0 if grid
         else rng.uniform(-0.5, 1.5, shape) * rng.choice([1.0, 1e-3, 1e3], shape))
    image = FaceImage.from_luminance(x)
    expected = FaceImage.from_rgb(np.repeat(np.clip(x, 0.0, 1.0)[:, :, None], 3, axis=2))
    assert image.luminance.tobytes() == expected.luminance.tobytes()
    assert image.rgb.tobytes() == expected.rgb.tobytes()
    assert not image.luminance.flags.writeable and not image.rgb.flags.writeable


def test_normal_basis_fit_is_lstsq_on_the_gained_basis(sphere64):
    image, _ = make_scene(np.random.default_rng(11), sphere64)
    shared = NormalBasis(sphere64)
    lum = image.luminance[sphere64.mask]
    expected = np.linalg.lstsq(shared.basis * BAND_GAINS, lum, rcond=None)[0]
    for _ in range(2):  # the first fit and a fit on the kept gained basis
        assert shared.fit(lum).coeffs.tobytes() == expected.tobytes()
    assert estimate_light(image, shared).coeffs.tobytes() == expected.tobytes()


def test_normal_basis_fit_raises_below_rank_9_and_on_an_empty_mask():
    sphere = sphere_normals(16)
    few = np.zeros_like(sphere.mask)
    few[8, 4:12] = True  # one row of the sphere: its normals span fewer than 9 terms
    with pytest.raises(SingularFitError) as err:
        NormalBasis(NormalMap(sphere.normals, few)).fit(np.full(8, 0.5))
    assert 0 < err.value.rank < 9
    with pytest.raises(EmptyMaskError):
        NormalBasis(NormalMap(sphere.normals, np.zeros_like(sphere.mask))).fit(np.zeros(0))


def test_quotient_identity(sphere64):
    image, light = make_scene(np.random.default_rng(1), sphere64)
    result = RelightPlan(image, sphere64, light).relight(light)
    assert np.abs(result.image.luminance - image.luminance).max() < 1e-6
    assert result.clamp_fraction == 0.0


def test_quotient_ambient_doubling(sphere64):
    ambient = SHLight.ambient(0.4)
    doubled = SHLight.ambient(0.8)
    lum = np.full((64, 64), 0.3)
    image = FaceImage.from_luminance(lum)
    result = RelightPlan(image, sphere64, ambient).relight(doubled)
    masked = sphere64.mask
    assert np.allclose(result.image.luminance[masked], 0.6, atol=1e-9)
    assert np.array_equal(result.image.luminance[~masked], lum[~masked])


def test_quotient_matches_forward_render(sphere64):
    """Relighting a rendered sphere reproduces the direct forward render."""
    rng = np.random.default_rng(2)
    albedo = 0.7
    old = make_safe_light(rng)
    new = make_safe_light(rng)
    rendered_old = np.clip(albedo * shade(sphere64, old), 0, 1)
    rendered_new = np.clip(albedo * shade(sphere64, new), 0, 1)
    image = FaceImage.from_luminance(rendered_old)
    result = RelightPlan(image, sphere64, old).relight(new)
    unclamped = (rendered_new > 0) & (rendered_new < 1) & sphere64.mask
    err = np.abs(result.image.luminance - rendered_new)[unclamped].max()
    assert err < 1e-4


def test_quotient_composition(sphere64):
    rng = np.random.default_rng(3)
    image, l0 = make_scene(rng, sphere64)
    l1 = make_safe_light(rng)
    l2 = make_safe_light(rng)
    plan = RelightPlan(image, sphere64, l0)
    step1 = plan.relight(l1)
    step2 = RelightPlan(step1.image, sphere64, l1).relight(l2)
    direct = plan.relight(l2)
    clean = (step1.clamp_fraction == 0.0 and step2.clamp_fraction == 0.0
             and direct.clamp_fraction == 0.0)
    assert clean
    err = np.abs(step2.image.luminance - direct.image.luminance).max()
    assert err < 1e-5


def test_reflectance_cancellation(sphere64):
    """The quotient factor is albedo-free: doubling albedo doubles the output."""
    rng = np.random.default_rng(4)
    old = make_safe_light(rng)
    new = make_safe_light(rng)
    base = 0.35 * shade(sphere64, old)
    img_r = FaceImage.from_luminance(np.clip(base, 0, 1))
    img_2r = FaceImage.from_luminance(np.clip(2 * base, 0, 1))
    out_r = RelightPlan(img_r, sphere64, old).relight(new)
    out_2r = RelightPlan(img_2r, sphere64, old).relight(new)
    assert out_r.clamp_fraction == 0.0 and out_2r.clamp_fraction == 0.0
    mask = sphere64.mask & (out_r.image.luminance > 0)
    ratio = out_2r.image.luminance[mask] / out_r.image.luminance[mask]
    assert np.array_equal(ratio, np.full(ratio.shape, 2.0))


def test_quotient_empty_mask():
    nm = NormalMap(np.broadcast_to([0.0, 0.0, 1.0], (8, 8, 3)).copy(),
                   np.zeros((8, 8), dtype=bool))
    image = FaceImage.from_luminance(np.full((8, 8), 0.5))
    with pytest.raises(EmptyMaskError):
        RelightPlan(image, nm, SHLight.ambient(0.5))


def test_quotient_degenerate_light(sphere64):
    image = FaceImage.from_luminance(np.full((64, 64), 0.5))
    with pytest.raises(DegenerateLightError):
        RelightPlan(image, sphere64, np.zeros(9))


def test_estimate_roundtrip(sphere64):
    rng = np.random.default_rng(5)
    for _ in range(20):
        light = make_safe_light(rng)
        rendered = shade(sphere64, light)
        assert rendered.min() >= 0.0 and rendered.max() <= 1.0
        image = FaceImage.from_luminance(rendered)
        estimated = estimate_light(image, sphere64)
        assert np.abs(estimated.coeffs - light.coeffs).max() < 1e-3


def test_estimate_constant_image(sphere64):
    c = 0.42
    image = FaceImage.from_luminance(np.full((64, 64), c))
    estimated = estimate_light(image, sphere64)
    assert abs(estimated.coeffs[0] - c / (np.pi * 0.282095)) < 1e-9
    assert np.square(estimated.coeffs[1:]).sum() < 1e-6


def test_estimate_empty_mask():
    nm = NormalMap(np.broadcast_to([0.0, 0.0, 1.0], (8, 8, 3)).copy(),
                   np.zeros((8, 8), dtype=bool))
    with pytest.raises(EmptyMaskError):
        estimate_light(FaceImage.from_luminance(np.full((8, 8), 0.5)), nm)


def test_estimate_rank_deficient():
    # A flat normal field spans only a 3-dimensional basis subspace.
    nm = NormalMap(np.broadcast_to([0.0, 0.0, 1.0], (8, 8, 3)).copy(),
                   np.ones((8, 8), dtype=bool))
    with pytest.raises(SingularFitError) as err:
        estimate_light(FaceImage.from_luminance(np.full((8, 8), 0.5)), nm)
    assert 0 < err.value.rank < 9


def test_random_relight_zero_epsilon(sphere64):
    image, light = make_scene(np.random.default_rng(6), sphere64)
    result = random_relight(RelightPlan(image, sphere64, light), 0.0, seed=1)
    assert np.abs(result.image.luminance - image.luminance).max() < 1e-6
    assert np.array_equal(result.new_light.coeffs, light.coeffs)


def test_random_relight_determinism(sphere64):
    image, light = make_scene(np.random.default_rng(7), sphere64)
    plan = RelightPlan(image, sphere64, light)
    first = random_relight(plan, 0.4, seed=11)
    second = random_relight(plan, 0.4, seed=11)
    other = random_relight(plan, 0.4, seed=12)
    assert np.array_equal(first.image.luminance, second.image.luminance)
    assert not np.array_equal(first.new_light.coeffs, other.new_light.coeffs)


def test_random_relight_ball(sphere64):
    image, light = make_scene(np.random.default_rng(8), sphere64)
    plan = RelightPlan(image, sphere64, light)
    for seed in range(20):
        result = random_relight(plan, 0.8, seed=seed)
        assert np.abs(result.new_light.coeffs - light.coeffs).max() <= 0.8


def test_face_image_file_roundtrip(tmp_path, sphere64):
    image, _ = make_scene(np.random.default_rng(9), sphere64)
    path = tmp_path / "face.png"
    save_face_image(path, image)
    back = load_face_image(path)
    assert back.rgb.shape == image.rgb.shape
    assert np.abs(back.rgb - image.rgb).max() <= 0.5 / 255.0 + 1e-9
