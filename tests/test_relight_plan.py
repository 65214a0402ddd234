"""RelightPlan against the per-call quotient formula and the recomputing oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from advrelight import relight
from advrelight.attack_aq import light_gradient, loss_gradient_fd
from advrelight.embedder import BuiltinEmbedder
from advrelight.relight import DENOM_FLOOR, FaceImage, NormalBasis, RelightPlan
from advrelight.shading import BAND_GAINS, SH_C0, SH_C1, sh_basis, shade, sphere_normals

from conftest import BlackBox, make_scene, patch_every_binding
from helpers import relighting

SPHERE = sphere_normals(32)
EMBEDDER = BuiltinEmbedder()


def tilted_scene(seed, tilt, gain):
    """Random sphere image, old light and new light.

    The old light is ambient 0.5 plus ``tilt`` times x, so its shading
    drops below ``DENOM_FLOOR`` on the x < -0.5 / tilt side once tilt
    exceeds 0.5. The new light is ``gain`` times the old one plus noise, so
    gains above ~1 push bright pixels over the [0, 1] output clip.
    """
    rng = np.random.default_rng(seed)
    lum = np.where(SPHERE.mask, rng.uniform(0.05, 0.95, SPHERE.mask.shape), 0.3)
    old = np.zeros(9)
    old[0] = 0.5 / (BAND_GAINS[0] * SH_C0)
    old[3] = tilt / (BAND_GAINS[3] * SH_C1)
    old[1:] += rng.uniform(-0.02, 0.02, 8)
    new = gain * old + rng.uniform(-0.2, 0.2, 9)
    grad_lum = rng.standard_normal(SPHERE.mask.shape)
    return FaceImage.from_luminance(lum), old, new, grad_lum


def quotient_formula(image, normals, old, new):
    """The per-call quotient relight: shade both lights, floor, divide, clip."""
    mask = normals.mask
    denom = np.maximum(shade(normals, old), DENOM_FLOOR)
    f_new = shade(normals, new)
    raw = image.luminance.copy()
    raw[mask] = image.luminance[mask] * f_new[mask] / denom[mask]
    clipped = np.clip(raw, 0.0, 1.0)
    return clipped, float(((raw != clipped) & mask).sum() / mask.sum())


def test_scene_reaches_floor_and_clamp():
    image, old, new, _ = tilted_scene(0, tilt=2.0, gain=4.0)
    assert (shade(SPHERE, old)[SPHERE.mask] < DENOM_FLOOR).any()
    assert RelightPlan(image, SPHERE, old).relight(new).clamp_fraction > 0.0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), tilt=st.floats(0.0, 2.0), gain=st.floats(0.2, 4.0))
@example(seed=0, tilt=2.0, gain=4.0)
@example(seed=1, tilt=0.0, gain=1.0)
def test_plan_matches_formula_and_jacobian(seed, tilt, gain):
    image, old, new, grad_lum = tilted_scene(seed, tilt, gain)
    plan = RelightPlan(image, SPHERE, old)
    result = plan.relight(new)
    expected, clamp_fraction = quotient_formula(image, SPHERE, old, new)
    assert np.array_equal(result.image.luminance, expected)
    assert result.clamp_fraction == clamp_fraction

    vjp = plan.light_vjp(grad_lum, result)
    dense = np.tensordot(grad_lum, relighting.jacobian(plan, new), 2)
    np.testing.assert_allclose(vjp, dense, rtol=1e-12, atol=1e-12 * np.abs(dense).max())


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), tilt=st.floats(0.0, 2.0), gain=st.floats(0.2, 4.0))
@example(seed=0, tilt=2.0, gain=4.0)
def test_result_mask_and_vjp_equal_recomputing_oracles(seed, tilt, gain):
    """A relight's clip mask and clamp fraction, and the VJP reading them, recompute bit for bit."""
    image, old, new, grad_lum = tilted_scene(seed, tilt, gain)
    plan = RelightPlan(image, SPHERE, old)
    result = plan.relight(new)
    raw = plan._raw(new)
    assert np.array_equal(result.unclamped, (raw >= 0.0) & (raw <= 1.0))
    assert result.clamp_fraction == float(((raw < 0.0) | (raw > 1.0)).sum() / raw.size)
    assert np.array_equal(plan.light_vjp(grad_lum, result),
                          relighting.light_vjp(plan, grad_lum, new))


def test_relit_image_rejects_nan():
    image, old, new, _ = tilted_scene(0, tilt=0.3, gain=1.0)
    plan = RelightPlan(image, SPHERE, old)
    raw = plan._raw(new)
    for bad in (np.full_like(raw, np.nan), np.where(np.arange(raw.size) == raw.size // 2,
                                                    np.nan, raw)):
        with pytest.raises(ValueError):
            plan.relit_image(new, bad)
    with pytest.raises(ValueError):
        plan.relight(np.full(9, np.nan))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_fd_gradient_agrees_with_analytic_random(seed):
    """Same check as test_fd_gradient_agrees_with_analytic, over random scenes.

    The scenes keep every probe off the floor and the clip: central
    differences that straddle a clip kink do not estimate a derivative.
    """
    rng = np.random.default_rng(seed)
    image, old = make_scene(rng, SPHERE)
    current = old.coeffs + rng.uniform(-0.05, 0.05, 9)
    plan = RelightPlan(image, SPHERE, old)
    reference = EMBEDDER.embed(image)
    result = plan.relight(current)
    analytic = light_gradient(plan, result, EMBEDDER, reference)
    fd = light_gradient(plan, result, BlackBox(EMBEDDER), reference)
    assert np.linalg.norm(fd - analytic) / np.linalg.norm(analytic) < 1e-2


def test_plan_evaluates_basis_once(monkeypatch):
    """One basis per plan, light fit included; relights and gradients reuse it.

    Plans and fits on a :class:`NormalBasis` evaluate no basis of their own.
    """
    calls = []

    def counting_basis(normals):
        calls.append(1)
        return sh_basis(normals)

    patch_every_binding(monkeypatch, sh_basis, counting_basis)
    image, old, new, grad_lum = tilted_scene(2, tilt=0.3, gain=1.0)
    for old_light in (old, None):  # a given light, then one the plan fits
        calls.clear()
        plan = RelightPlan(image, SPHERE, old_light)
        for scale in (0.9, 1.0, 1.1):
            plan.light_vjp(grad_lum, plan.relight(scale * new))
        assert len(calls) == 1
    calls.clear()
    shared = NormalBasis(SPHERE)
    for old_light in (old, None):
        RelightPlan(image, shared, old_light).relight(new)
    relight.estimate_light(image, shared)
    assert len(calls) == 1


def test_fd_probe_images_equal_relight():
    """Every finite-difference probe embeds exactly ``relight(probe).image``."""
    image, old, new, _ = tilted_scene(0, tilt=2.0, gain=4.0)
    plan = RelightPlan(image, SPHERE, old)
    assert plan.relight(new).clamp_fraction > 0.0
    embedded = []

    class Recorder(BlackBox):
        def embed(self, image):
            embedded.append(image)
            return super().embed(image)

    h = 1e-2
    loss_gradient_fd(plan, new, Recorder(EMBEDDER), EMBEDDER.embed(image), h=h)
    assert len(embedded) == 18
    for k, probe_image in enumerate(embedded):
        j, step = divmod(k, 2)
        probe = new.copy()
        probe[j] = new[j] + (h, -h)[step]
        expected = plan.relight(probe).image
        assert np.array_equal(probe_image.luminance, expected.luminance)
        assert np.array_equal(probe_image.rgb, expected.rgb)


def test_fitted_light_equals_estimate_light(corpus):
    """On every bundled sample, a plan's own fit is bit-identical to ``estimate_light``."""
    samples = [sample for group in corpus for sample in group.samples]
    assert len(samples) == 128
    for sample in samples:
        plan = RelightPlan(sample.image, sample.normals)
        assert np.array_equal(plan.old_light.coeffs,
                              relight.estimate_light(sample.image, sample.normals).coeffs)


def test_shared_basis_plans_equal_standalone_plans(corpus):
    """On every bundled sample, a plan on its map's shared basis equals a standalone plan."""
    rng = np.random.default_rng(4)
    samples, clamped = 0, 0
    for group in corpus:
        shared = NormalBasis(group.samples[0].normals)
        for sample in group.samples:
            assert sample.normals is shared.normals
            alone = RelightPlan(sample.image, sample.normals)
            plan = RelightPlan(sample.image, shared)
            assert plan.basis is shared.basis
            assert np.array_equal(plan.old_light.coeffs, alone.old_light.coeffs)
            assert np.array_equal(relight.estimate_light(sample.image, shared).coeffs,
                                  alone.old_light.coeffs)
            light = alone.old_light.coeffs + rng.uniform(-0.4, 0.4, 9)
            expected, result = alone.relight(light), plan.relight(light)
            assert np.array_equal(result.image.luminance, expected.image.luminance)
            assert result.clamp_fraction == expected.clamp_fraction
            grad_lum = rng.standard_normal(sample.image.luminance.shape)
            assert np.array_equal(plan.light_vjp(grad_lum, result),
                                  alone.light_vjp(grad_lum, expected))
            samples += 1
            clamped += expected.clamp_fraction > 0.0
    assert samples == 128 and clamped > 0
