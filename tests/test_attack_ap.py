import numpy as np
import pytest

from advrelight.attack_ap import (
    AdvLNetParams,
    TrainConfig,
    backward_net,
    forward_net,
    init_params,
    load_params,
    predict,
    sample_gradient,
    save_params,
    train,
    write_loss_history_csv,
)
from advrelight.attack_aq import relight_loss
from advrelight.embedder import EmbedderDescriptor, cosine_similarity
from advrelight.errors import DivergenceError
from advrelight.relight import RelightPlan, estimate_light
from advrelight.shading import NormalMap, sh_basis, sphere_normals

from conftest import BlackBox, make_safe_light, make_scene, patch_every_binding


def small_scene(seed=0, size=24):
    normals = sphere_normals(size)
    image, _ = make_scene(np.random.default_rng(seed), normals)
    return image, normals


def test_zero_output_layer_is_identity(builtin_embedder):
    image, normals = small_scene(0)
    params = init_params("static", hidden=8, output_scale=0.0)
    relit, adversarial = predict(RelightPlan(image, normals), params, builtin_embedder)
    light = estimate_light(image, normals)
    assert np.array_equal(adversarial.coeffs, light.coeffs)
    assert np.abs(relit.luminance - image.luminance).max() < 1e-9


def test_variants_output_shape(builtin_embedder):
    image, normals = small_scene(1)
    for variant in ("static", "dynamic"):
        params = init_params(variant, hidden=8)
        _, adversarial = predict(RelightPlan(image, normals), params, builtin_embedder)
        assert adversarial.coeffs.shape == (9,)


def test_dynamic_contains_static():
    """Freezing the generator to the static weights reproduces the static net."""
    rng = np.random.default_rng(2)
    static = init_params("static", hidden=8, seed=3)
    frozen = AdvLNetParams(
        variant="dynamic", hidden=8, embed_dim=128,
        w1=static.w1.copy(), b1=static.b1.copy(), b2=static.b2.copy(),
        w3=static.w3.copy(), b3=static.b3.copy(),
        wg=np.zeros((64, 128)), bg=static.w2.reshape(-1).copy(),
    )
    for _ in range(5):
        light = rng.normal(0, 0.5, 9)
        embedding = rng.standard_normal(128)
        a, _ = forward_net(static, light, embedding)
        b, _ = forward_net(frozen, light, embedding)
        assert np.abs(a - b).max() < 1e-6


def test_params_shape_validation():
    with pytest.raises(ValueError):
        AdvLNetParams(variant="static", hidden=8, embed_dim=128,
                      w1=np.zeros((8, 9)), b1=np.zeros(8), b2=np.zeros(8),
                      w3=np.zeros((9, 8)), b3=np.zeros(9), w2=np.zeros((4, 4)))


def test_loss_identity(builtin_embedder):
    image, normals = small_scene(3)
    light = estimate_light(image, normals)
    _, _, value = relight_loss(RelightPlan(image, normals, light), light, builtin_embedder,
                               builtin_embedder.embed(image), l1_weight=1.0)
    assert value == pytest.approx(1.0)


def test_loss_matches_two_pass_oracle(builtin_embedder):
    image, normals = small_scene(4)
    plan = RelightPlan(image, normals, estimate_light(image, normals))
    result, embedding, value = relight_loss(plan, make_safe_light(np.random.default_rng(99)),
                                            builtin_embedder, builtin_embedder.embed(image),
                                            l1_weight=1.0)
    other = result.image
    assert np.array_equal(embedding, builtin_embedder.embed(other))
    sim = cosine_similarity(builtin_embedder.embed(other), builtin_embedder.embed(image))
    l1 = 0.0
    for i in range(image.luminance.shape[0]):
        for j in range(image.luminance.shape[1]):
            l1 += abs(other.luminance[i, j] - image.luminance[i, j])
    l1 /= image.luminance.size
    assert l1 > 0.0
    assert value == pytest.approx(sim + l1, abs=1e-12)
    assert -1.0 <= value <= 2.0


@pytest.mark.parametrize("variant", ["static", "dynamic"])
def test_backprop_matches_fd(builtin_embedder, variant):
    image, normals = small_scene(1)
    params = init_params(variant, hidden=8, seed=7)
    light = estimate_light(image, normals)
    plan = RelightPlan(image, normals, light)
    embedding = builtin_embedder.embed(image)
    h = 1e-6

    # the loss is only differentiable away from the clamp and the L1 kink;
    # check the scene leaves all probes a comfortable margin
    delta, cache = forward_net(params, light.coeffs, embedding)
    probe = plan.relight(light.coeffs + delta)
    assert probe.clamp_fraction == 0.0
    diff = probe.image.luminance - image.luminance
    assert np.abs(diff[normals.mask]).min() > 50 * h
    assert min(np.abs(cache[2]).min(), np.abs(cache[5]).min()) > 50 * h

    _, grads = sample_gradient(params, plan, builtin_embedder, embedding)

    def loss_at(p):
        d, _ = forward_net(p, light.coeffs, embedding)
        relit = plan.relight(light.coeffs + d).image
        sim = cosine_similarity(builtin_embedder.embed(relit), embedding)
        return sim + np.abs(relit.luminance - image.luminance).mean()

    fd_all, an_all = [], []
    for name in params.trainable():
        flat = getattr(params, name).reshape(-1)
        for k in range(flat.size):
            original = flat[k]
            flat[k] = original + h
            plus = loss_at(params)
            flat[k] = original - h
            minus = loss_at(params)
            flat[k] = original
            fd_all.append((plus - minus) / (2 * h))
            an_all.append(grads[name].reshape(-1)[k])
    fd_all = np.array(fd_all)
    an_all = np.array(an_all)
    rel = np.linalg.norm(fd_all - an_all) / np.linalg.norm(fd_all)
    assert rel < 1e-4


def test_sgd_fixed_point_with_zero_upstream(sphere64):
    """Constant embedder and no L1 weight leave every parameter untouched."""

    class ConstantEmbedder:
        descriptor = EmbedderDescriptor("const", 8, True)

        def embed(self, image):
            e = np.zeros(8)
            e[0] = 1.0
            return e

        def input_gradient(self, image, upstream):
            return np.zeros_like(image.luminance)

    image, _ = make_scene(np.random.default_rng(6), sphere64)
    params = init_params("static", hidden=8, seed=1)
    before = {n: getattr(params, n).copy() for n in params.trainable()}
    trained, history = train([(image, sphere64)], ConstantEmbedder(),
                             TrainConfig(epochs=1, batch_size=1, l1_weight=0.0),
                             params=params)
    for name, value in before.items():
        assert np.array_equal(getattr(trained, name), value)
    assert history == [pytest.approx(1.0)]


def test_training_determinism(builtin_embedder, corpus):
    samples = [(s.image, s.normals) for s in corpus[0].samples[:8]]
    cfg = TrainConfig(epochs=2, seed=13)
    _, hist_a = train(samples, builtin_embedder, cfg, variant="static")
    _, hist_b = train(samples, builtin_embedder, cfg, variant="static")
    assert hist_a == hist_b


def test_training_evaluates_one_basis_per_shared_map(monkeypatch, builtin_embedder, corpus):
    """Samples on one map share its basis; samples with their own maps keep one per fit and step.

    Both corpora hold the same images and normal values, so training is the same bit for bit.
    """
    shared = [(s.image, s.normals) for g in corpus[:2] for s in g.samples[:3]]
    own = [(image, NormalMap(normals.normals, normals.mask)) for image, normals in shared]
    cfg = TrainConfig(epochs=2, batch_size=4, seed=5)
    calls = []

    def counting_basis(normals):
        calls.append(1)
        return sh_basis(normals)

    def run(samples):
        calls.clear()
        params, history = train(samples, builtin_embedder, cfg, hidden=8)
        return len(calls), params, history

    patch_every_binding(monkeypatch, sh_basis, counting_basis)
    shared_calls, shared_params, shared_history = run(shared)
    own_calls, own_params, own_history = run(own)
    assert shared_calls == 2
    assert own_calls == len(own) * (1 + cfg.epochs)
    assert shared_history == own_history
    for name in shared_params.trainable():
        assert np.array_equal(getattr(shared_params, name), getattr(own_params, name))


def test_training_reduces_similarity(builtin_embedder, corpus):
    train_samples = [(s.image, s.normals) for g in corpus[:4] for s in g.samples[:4]]
    held_out = [(s.image, s.normals) for g in corpus[4:6] for s in g.samples[:4]]
    params, history = train(train_samples, builtin_embedder,
                            TrainConfig(epochs=4, seed=0), variant="static")
    baseline = init_params("static", output_scale=0.0)

    def mean_similarity(p):
        sims = []
        for image, normals in held_out:
            relit, _ = predict(RelightPlan(image, normals), p, builtin_embedder)
            sims.append(cosine_similarity(builtin_embedder.embed(relit),
                                          builtin_embedder.embed(image)))
        return np.mean(sims)

    assert mean_similarity(params) < mean_similarity(baseline)
    assert history[-1] < history[0]


def test_divergence_error(builtin_embedder, sphere64):
    image, _ = make_scene(np.random.default_rng(8), sphere64)
    params = init_params("static", hidden=8, seed=2)
    params.b3 = params.b3 + np.nan
    with pytest.raises(DivergenceError) as err:
        train([(image, sphere64)], builtin_embedder, TrainConfig(epochs=1),
              params=params)
    assert err.value.epoch == 0


def test_params_file_roundtrip(tmp_path):
    for variant in ("static", "dynamic"):
        params = init_params(variant, hidden=8, seed=5)
        path = tmp_path / f"{variant}.npz"
        save_params(path, params)
        back = load_params(path)
        assert back.variant == variant
        for name in params.trainable():
            assert np.array_equal(getattr(back, name), getattr(params, name))


def test_loss_history_csv(tmp_path):
    path = tmp_path / "loss.csv"
    write_loss_history_csv(path, [1.0, 0.5])
    lines = path.read_text().strip().splitlines()
    assert lines == ["epoch,mean_loss", "0,1", "1,0.5"]


def test_fd_light_gradient_matches_analytic(builtin_embedder):
    image, normals = small_scene(1)
    params = init_params("static", hidden=8, seed=7)
    plan = RelightPlan(image, normals)
    embedding = builtin_embedder.embed(image)
    _, analytic = sample_gradient(params, plan, builtin_embedder, embedding)
    _, fd = sample_gradient(params, plan, BlackBox(builtin_embedder), embedding)
    for name in analytic:
        a, f = analytic[name].ravel(), fd[name].ravel()
        denom = max(np.linalg.norm(a), 1e-12)
        assert np.linalg.norm(a - f) / denom < 1e-2


def test_training_with_black_box_embedder(builtin_embedder, corpus):
    samples = [(s.image, s.normals) for s in corpus[0].samples[:4]]
    blackbox = BlackBox(builtin_embedder)
    params, history = train(samples, blackbox, TrainConfig(epochs=2, seed=3),
                            variant="static", hidden=8)
    assert len(history) == 2
    assert all(np.isfinite(v) for v in history)
