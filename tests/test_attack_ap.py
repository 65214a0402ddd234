import numpy as np
import pytest

from advrelight.attack_ap import (
    AdvLNetParams,
    TrainConfig,
    add_generator_gradient,
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
from advrelight.corpus import synthetic_corpus
from advrelight.embedder import EmbedderDescriptor, cosine_similarity
from advrelight.errors import DivergenceError
from advrelight.relight import RelightPlan, estimate_light
from advrelight.shading import NormalMap, sh_basis, sphere_normals

from conftest import BlackBox, make_scene, patch_every_binding
from helpers import l1_loss
from helpers import params as explicit
from helpers.training import dense_gradients, dense_train


def small_scene(seed=0, size=24):
    normals = sphere_normals(size)
    image, _ = make_scene(np.random.default_rng(seed), normals)
    return image, normals


def test_zero_output_layer_is_identity(builtin_embedder):
    image, normals = small_scene(0)
    params = init_params("static", hidden=8)
    params.w3[...] = 0.0
    relit, adversarial = predict(RelightPlan(image, normals), params, builtin_embedder)
    light = estimate_light(image, normals)
    assert np.array_equal(adversarial, light)
    assert np.abs(relit.luminance - image.luminance).max() < 1e-9


def test_variants_output_shape(builtin_embedder):
    image, normals = small_scene(1)
    for variant in ("static", "dynamic"):
        params = init_params(variant, hidden=8)
        _, adversarial = predict(RelightPlan(image, normals), params, builtin_embedder)
        assert adversarial.shape == (9,)


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
    params = init_params("static", hidden=8)
    params.w3[...] = 0.0
    value, _ = sample_gradient(params, RelightPlan(image, normals, light), builtin_embedder,
                               builtin_embedder.embed(image), l1_weight=1.0)
    assert value == pytest.approx(1.0)


def test_loss_matches_two_pass_oracle(builtin_embedder):
    image, normals = small_scene(4)
    plan = RelightPlan(image, normals, estimate_light(image, normals))
    params = init_params("static", hidden=8, seed=5)
    reference = builtin_embedder.embed(image)
    delta, _ = forward_net(params, plan.old_light, reference)
    result, embedding, _ = relight_loss(plan, plan.old_light + delta, builtin_embedder,
                                        reference)
    value, _ = sample_gradient(params, plan, builtin_embedder, reference, l1_weight=1.0)
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
    delta, cache = forward_net(params, light, embedding)
    probe = plan.relight(light + delta)
    assert probe.clamp_fraction == 0.0
    diff = probe.image.luminance - image.luminance
    assert np.abs(diff[normals.mask]).min() > 50 * h
    assert min(np.abs(cache[2]).min(), np.abs(cache[5]).min()) > 50 * h

    _, grads = sample_gradient(params, plan, builtin_embedder, embedding)
    grads = dense_gradients(params, grads, embedding)

    def loss_at(p):
        d, _ = forward_net(p, light, embedding)
        relit = plan.relight(light + d).image
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


def test_training_evaluates_one_basis_per_shared_map(monkeypatch, builtin_embedder):
    """A corpus and the training after it evaluate each normal map's basis once between them.

    Samples on their own copies of the maps train the same bit for bit, one basis per copy.
    """
    cfg = TrainConfig(epochs=2, batch_size=4, seed=5)
    calls = []

    def counting_basis(normals):
        calls.append(1)
        return sh_basis(normals)

    patch_every_binding(monkeypatch, sh_basis, counting_basis)
    groups = synthetic_corpus(identities=2, per_identity=3)
    assert len(calls) == 2 * len(groups)  # each identity's light directions, then its map
    shared = [(s.image, s.normals) for g in groups for s in g.samples]
    own = [(image, NormalMap(normals.normals, normals.mask)) for image, normals in shared]
    calls.clear()
    shared_params, shared_history = train(shared, builtin_embedder, cfg, hidden=8)
    assert calls == []
    own_params, own_history = train(own, builtin_embedder, cfg, hidden=8)
    assert len(calls) == len(own)
    assert shared_history == own_history
    for name in shared_params.trainable():
        assert np.array_equal(getattr(shared_params, name), getattr(own_params, name))


def test_training_reduces_similarity(builtin_embedder, corpus):
    train_samples = [(s.image, s.normals) for g in corpus[:4] for s in g.samples[:4]]
    held_out = [(s.image, s.normals) for g in corpus[4:6] for s in g.samples[:4]]
    params, history = train(train_samples, builtin_embedder,
                            TrainConfig(epochs=4, seed=0), variant="static")
    baseline = init_params("static")
    baseline.w3[...] = 0.0

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


def assert_same_params(params, oracle):
    assert (params.variant, params.hidden, params.embed_dim) == (
        oracle.variant, oracle.hidden, oracle.embed_dim)
    assert params.trainable() == explicit.trainable(oracle.variant)
    for name in ("w1", "b1", "w2", "wg", "bg", "b2", "w3", "b3"):
        got, want = getattr(params, name), getattr(oracle, name)
        assert (got is None and want is None) or np.array_equal(got, want), name


@pytest.mark.parametrize("variant", ["static", "dynamic"])
def test_init_params_equals_the_explicit_oracle(variant):
    for hidden in (1, 3, 8, 32):
        for embed_dim in (2, 64, 128):
            for seed in (0, 7):
                assert_same_params(init_params(variant, hidden, embed_dim, seed),
                                   explicit.init_params(variant, hidden, embed_dim, seed))


@pytest.mark.parametrize("variant", ["static", "dynamic"])
def test_params_files_equal_the_explicit_oracles(tmp_path, variant):
    """A file in the explicit format loads as the explicit reader loads it, and ``save_params``
    writes the explicit writer's arrays under the same names, in the same order."""
    for hidden, embed_dim, seed in ((1, 2, 0), (8, 64, 3), (32, 128, 5)):
        oracle = explicit.init_params(variant, hidden, embed_dim, seed)
        old, new = tmp_path / "explicit.npz", tmp_path / "table.npz"
        explicit.save_params(old, oracle)
        save_params(new, oracle)
        assert_same_params(load_params(old), explicit.load_params(old))
        assert_same_params(load_params(new), oracle)
        with np.load(old) as want, np.load(new) as got:
            assert got.files == want.files
            for key in want.files:
                assert np.array_equal(got[key], want[key]) and got[key].dtype == want[key].dtype


def test_loss_history_csv(tmp_path):
    path = tmp_path / "loss.csv"
    write_loss_history_csv(path, [1.0, 0.5])
    lines = path.read_text().strip().splitlines()
    assert lines == ["epoch,mean_loss", "0,1", "1,0.5"]


@pytest.mark.parametrize("l1_weight", [1.0, 0.0])
@pytest.mark.parametrize("variant", ["static", "dynamic"])
def test_sample_gradient_equals_the_folded_loss_oracle(builtin_embedder, corpus, variant,
                                                       l1_weight):
    """AP's own L1 term gives the loss and gradients of the similarity-plus-L1 score."""
    sample = corpus[0].samples[0]
    plan = RelightPlan(sample.image, sample.normals)
    params = init_params(variant, hidden=8, seed=7)
    embedding = builtin_embedder.embed(sample.image)
    value, grads = sample_gradient(params, plan, builtin_embedder, embedding, l1_weight)
    want, want_grads = l1_loss.sample_gradient(params, plan, builtin_embedder, embedding,
                                               l1_weight)
    assert value == want
    assert grads.keys() == want_grads.keys()
    for name, grad in want_grads.items():
        assert np.array_equal(grads[name], grad), name


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


@pytest.fixture(scope="module")
def ten_samples():
    """Ten samples on two maps: neither batch size 3 nor 8 divides them."""
    return [(s.image, s.normals)
            for g in synthetic_corpus(identities=2, per_identity=5) for s in g.samples]


@pytest.mark.parametrize("batch_size", [3, 8])
@pytest.mark.parametrize("hidden", [8, 32])
@pytest.mark.parametrize("variant", ["static", "dynamic"])
def test_training_equals_the_dense_oracle_bit_for_bit(builtin_embedder, ten_samples, variant,
                                                      hidden, batch_size):
    cfg = TrainConfig(epochs=2, batch_size=batch_size, seed=4)
    params, history = train(ten_samples, builtin_embedder, cfg, variant=variant, hidden=hidden)
    oracle, oracle_history = dense_train(ten_samples, builtin_embedder, cfg, variant=variant,
                                         hidden=hidden)
    assert history == oracle_history
    for name in params.trainable():
        assert np.array_equal(getattr(params, name), getattr(oracle, name)), name


def test_training_never_writes_the_callers_arrays(builtin_embedder, ten_samples):
    cfg = TrainConfig(epochs=2, batch_size=3, seed=1)
    params = init_params("dynamic", hidden=8, seed=2)
    held = {name: getattr(params, name) for name in params.trainable()}
    before = {name: array.copy() for name, array in held.items()}
    trained, history = train(ten_samples, builtin_embedder, cfg, params=params)
    oracle, oracle_history = dense_train(ten_samples, builtin_embedder, cfg,
                                         params=init_params("dynamic", hidden=8, seed=2))
    assert history == oracle_history
    for name, array in held.items():
        assert np.array_equal(array, before[name]), name
        assert np.array_equal(getattr(trained, name), getattr(oracle, name)), name
        assert not np.array_equal(getattr(trained, name), before[name]), name


def test_generator_gradient_row_sparse_add_equals_the_dense_add():
    """Rows of +0.0, -0.0 and NaN, on a sum that starts at +0.0 and on rows already summed."""
    rng = np.random.default_rng(11)
    bg = rng.normal(size=12)
    bg[[1, 4]], bg[[2, 7]], bg[5] = 0.0, -0.0, np.nan
    embedding = rng.normal(size=6)
    embedding[3] = 0.0
    later = bg.copy()
    later[[0, 3]] = 0.0  # rows that hold a sum by now add nothing
    sparse, dense = np.zeros((12, 6)), np.zeros((12, 6))
    for grad in (bg, -bg, later):
        add_generator_gradient(sparse, grad, embedding)
        dense += np.outer(grad, embedding)
        assert sparse.tobytes() == dense.tobytes()
    skipped = np.outer(bg, embedding)[[1, 2, 4, 7]]
    assert np.signbit(skipped).any() and not np.signbit(skipped).all()
    assert np.isnan(sparse[5]).all()


@pytest.mark.parametrize("variant, hidden, embed_dim, message", [
    ("static", 0, 128, "hidden width must be at least 1, got 0"),
    ("dynamic", -1, 128, "hidden width must be at least 1, got -1"),
    ("dynamic", 257, 128, "exceeds 8388608 floats"),
    ("dynamic", 32, 8193, "exceeds 8388608 floats"),
])
def test_init_params_refuses_before_allocating(monkeypatch, variant, hidden, embed_dim, message):
    def default_rng(seed):
        raise AssertionError("allocated before the bound check")

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    with pytest.raises(ValueError, match=message):
        init_params(variant, hidden=hidden, embed_dim=embed_dim)


def test_parameters_refuse_any_array_over_the_bound_before_reading_it():
    """The bound holds for every array of either variant, checked before any is looked at."""
    hidden = 2897  # a static middle layer of hidden^2 = 8392609 floats
    with pytest.raises(ValueError, match=r"parameter w2 of shape \(2897, 2897\) exceeds 8388608"):
        AdvLNetParams("static", hidden, 128, w1=None, b1=None, b2=None, w3=None, b3=None)
    with pytest.raises(ValueError, match="exceeds 8388608 floats"):
        init_params("static", hidden=hidden)


@pytest.mark.parametrize("field", ["learning_rate", "momentum"])
@pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
def test_train_config_refuses_non_finite_and_non_positive_values(field, value):
    with pytest.raises(ValueError, match="finite and positive"):
        TrainConfig(**{field: value})


def test_training_a_dynamic_predictor_of_another_embedding_dimension_raises(builtin_embedder,
                                                                             ten_samples):
    params = init_params("dynamic", hidden=8, embed_dim=64)
    with pytest.raises(ValueError, match="expects 64-d embeddings, the embedder gives 128-d"):
        train(ten_samples, builtin_embedder, TrainConfig(epochs=1), params=params)
    with pytest.raises(ValueError, match="expects 64-d embeddings, the embedder gives 128-d"):
        predict(RelightPlan(*ten_samples[0]), params, builtin_embedder)
