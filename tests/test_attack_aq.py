import sys
from pathlib import Path

import numpy as np
import pytest

from advrelight.attack_aq import (
    AttackConfig,
    attack,
    light_gradient,
    loss_gradient_fd,
    relight_loss,
    write_trace_csv,
)
from advrelight.embedder import ExternalEmbedder, cosine_similarity
from advrelight.relight import RelightPlan, estimate_light, random_relight
from advrelight.shading import MAX_LIGHT, as_light

from conftest import BlackBox, make_safe_light, make_scene
from helpers import l1_loss
from helpers.relighting import jacobian


def test_config_step_relation():
    cfg = AttackConfig(epsilon=0.8, iterations=10)
    assert cfg.step == pytest.approx(0.08)
    assert abs(cfg.step * cfg.iterations - cfg.epsilon) < 1e-12


def test_config_validation():
    with pytest.raises(ValueError):
        AttackConfig(epsilon=-0.1)
    with pytest.raises(ValueError):
        AttackConfig(epsilon=0.1, iterations=0)


@pytest.mark.parametrize("epsilon", [np.inf, -np.inf, np.nan, -0.1])
def test_config_refuses_a_non_finite_or_negative_epsilon(epsilon):
    with pytest.raises(ValueError, match="finite and non-negative"):
        AttackConfig(epsilon=epsilon)


def test_config_refuses_an_epsilon_over_the_light_bound():
    AttackConfig(epsilon=MAX_LIGHT)
    with pytest.raises(ValueError, match=r"finite and non-negative, at most 1e\+300"):
        AttackConfig(epsilon=1.01 * MAX_LIGHT)


def test_attack_keeps_every_iterate_within_the_light_bound(sphere64, builtin_embedder):
    """From a light at the bound with the largest epsilon, no iterate leaves the bound, so
    no relight refuses it; the ball is clipped there."""
    image, _ = make_scene(np.random.default_rng(21), sphere64)
    old = np.full(9, MAX_LIGHT)
    old[1::2] *= -1.0
    plan = RelightPlan(image, sphere64, old)
    trace = attack(plan, builtin_embedder, AttackConfig(epsilon=MAX_LIGHT, iterations=3))
    assert np.abs(trace.lights).max() <= MAX_LIGHT
    assert np.isfinite(trace.similarities).all()


def test_jacobian_matches_fd(sphere64):
    rng = np.random.default_rng(0)
    for _ in range(5):
        image, old = make_scene(rng, sphere64)
        new = make_safe_light(rng)
        plan = RelightPlan(image, sphere64, old)
        jac = jacobian(plan, new)
        h = 1e-4
        assert plan.relight(new).clamp_fraction == 0.0
        for j in rng.choice(9, size=4, replace=False):
            plus = new.copy()
            plus[j] += h
            minus = new.copy()
            minus[j] -= h
            fd = (plan.relight(plus).image.luminance
                  - plan.relight(minus).image.luminance) / (2 * h)
            mask = sphere64.mask
            scale = np.maximum(np.abs(fd[mask]), 1e-6)
            rel = np.abs(jac[:, :, j][mask] - fd[mask]) / scale
            assert rel.max() < 1e-3


def test_jacobian_independent_of_new_light(sphere64):
    rng = np.random.default_rng(1)
    image, old = make_scene(rng, sphere64)
    plan = RelightPlan(image, sphere64, old)
    a = jacobian(plan, make_safe_light(rng))
    b = jacobian(plan, make_safe_light(rng))
    assert np.array_equal(a, b)


def test_jacobian_zero_rows(sphere64):
    rng = np.random.default_rng(2)
    image, old = make_scene(rng, sphere64)
    plan = RelightPlan(image, sphere64, old)
    jac = jacobian(plan, old)
    assert np.all(jac[~sphere64.mask] == 0.0)
    # force heavy clamping with a hugely amplified light
    blown = 10.0 * old
    jac = jacobian(plan, blown)
    assert plan.relight(blown).clamp_fraction > 0.0
    lum = image.luminance * 10.0  # exact pre-clamp value for a scaled light
    clamped = sphere64.mask & (lum > 1.0)
    assert np.all(jac[clamped] == 0.0)


def test_fd_gradient_agrees_with_analytic(builtin_embedder, sphere64):
    rng = np.random.default_rng(3)
    image, old = make_scene(rng, sphere64)
    current = old + rng.uniform(-0.05, 0.05, 9)
    plan = RelightPlan(image, sphere64, old)
    reference = builtin_embedder.embed(image)
    result = plan.relight(current)
    analytic = light_gradient(plan, result, builtin_embedder, reference)
    fd = light_gradient(plan, result, BlackBox(builtin_embedder), reference)
    rel = np.linalg.norm(fd - analytic) / np.linalg.norm(analytic)
    assert rel < 1e-2


def test_fd_gradient_constant_landscape(sphere64):
    class ConstantEmbedder:
        def __init__(self):
            from advrelight.embedder import EmbedderDescriptor
            self.descriptor = EmbedderDescriptor("const", 4, False)

        def embed(self, image):
            return np.array([1.0, 0.0, 0.0, 0.0])

    image, old = make_scene(np.random.default_rng(4), sphere64)
    embedder = ConstantEmbedder()
    grad = loss_gradient_fd(RelightPlan(image, sphere64, old), old, embedder,
                            embedder.embed(image), h=1e-3)
    assert np.all(grad == 0.0)


def test_fd_gradient_pipelined_matches_sequential_probes(sphere64):
    """One ``embed_many`` batch gives the gradient of 18 one-at-a-time relight losses."""
    rng = np.random.default_rng(6)
    image, old = make_scene(rng, sphere64)
    current = old + rng.uniform(-0.05, 0.05, 9)
    plan = RelightPlan(image, sphere64, old)
    endpoint = [sys.executable, str(Path(__file__).parent / "helpers" / "echo_embedder.py")]
    h = 1e-2
    with ExternalEmbedder(endpoint) as embedder:
        reference = embedder.embed(image)
        grad = loss_gradient_fd(plan, current, embedder, reference, h=h)
        expected = np.zeros(9)
        for j in range(9):
            plus, minus = current.copy(), current.copy()
            plus[j] += h
            minus[j] -= h
            expected[j] = (relight_loss(plan, plus, embedder, reference)[2]
                           - relight_loss(plan, minus, embedder, reference)[2]) / (2 * h)
        folded = l1_loss.loss_gradient_fd(plan, current, embedder, reference, h=h)
    assert np.array_equal(grad, expected)
    assert np.array_equal(grad, folded)
    assert np.any(grad != 0.0)


def test_black_box_light_gradient_adds_the_cotangent_pullback(builtin_embedder, sphere64):
    """A black box's gradient is the similarity's finite difference plus the cotangent's VJP."""
    rng = np.random.default_rng(8)
    image, old = make_scene(rng, sphere64)
    plan = RelightPlan(image, sphere64, old)
    result = plan.relight(old + rng.uniform(-0.05, 0.05, 9))
    blackbox = BlackBox(builtin_embedder)
    reference = builtin_embedder.embed(image)
    cotangent = rng.standard_normal(image.luminance.shape)
    fd = loss_gradient_fd(plan, result.new_coeffs, blackbox, reference)
    assert np.array_equal(light_gradient(plan, result, blackbox, reference), fd)
    assert np.array_equal(light_gradient(plan, result, blackbox, reference, cotangent),
                          fd + plan.light_vjp(cotangent, result))


def test_fd_gradient_richardson(builtin_embedder, sphere64):
    """Halving h shrinks the truncation error roughly fourfold (O(h^2))."""
    rng = np.random.default_rng(5)
    image, old = make_scene(rng, sphere64)
    current = old + rng.uniform(-0.05, 0.05, 9)
    plan = RelightPlan(image, sphere64, old)
    reference = builtin_embedder.embed(image)
    exact = light_gradient(plan, plan.relight(current), builtin_embedder, reference)
    err_h = np.linalg.norm(
        loss_gradient_fd(plan, current, builtin_embedder, reference, h=4e-2) - exact
    )
    err_half = np.linalg.norm(
        loss_gradient_fd(plan, current, builtin_embedder, reference, h=2e-2) - exact
    )
    assert err_half < err_h
    assert 2.0 < err_h / err_half < 8.0


def test_attack_zero_epsilon(builtin_embedder, sphere64):
    image, light = make_scene(np.random.default_rng(6), sphere64)
    trace = attack(RelightPlan(image, sphere64, light), builtin_embedder,
                   AttackConfig(epsilon=0.0, iterations=3))
    assert np.array_equal(trace.adversarial_light, light)
    assert np.abs(trace.relit.luminance - image.luminance).max() < 1e-6
    assert trace.final_similarity == pytest.approx(trace.initial_similarity, abs=1e-9)


def test_attack_ball_and_determinism(builtin_embedder, sphere64):
    image, light = make_scene(np.random.default_rng(7), sphere64)
    cfg = AttackConfig(epsilon=0.4, iterations=10)
    first = attack(RelightPlan(image, sphere64, light), builtin_embedder, cfg)
    second = attack(RelightPlan(image, sphere64, light), builtin_embedder, cfg)
    assert np.array_equal(first.lights, second.lights)
    assert np.array_equal(first.similarities, second.similarities)
    assert np.abs(first.lights - light).max() <= 0.4 + 1e-9
    assert first.lights.shape == (11, 9)
    assert first.final_similarity < first.initial_similarity


def test_attack_estimates_missing_light(builtin_embedder, sphere64):
    """A plan built without a light starts the attack from the estimated light."""
    image, _ = make_scene(np.random.default_rng(8), sphere64)
    trace = attack(RelightPlan(image, sphere64), builtin_embedder,
                   AttackConfig(epsilon=0.2, iterations=5))
    assert np.array_equal(trace.lights[0], estimate_light(image, sphere64))
    assert trace.final_similarity < trace.initial_similarity


def test_attack_fd_mode(builtin_embedder, sphere64):
    image, light = make_scene(np.random.default_rng(9), sphere64)
    plan = RelightPlan(image, sphere64, light)
    analytic = attack(plan, builtin_embedder, AttackConfig(epsilon=0.2, iterations=5))
    fd = attack(plan, BlackBox(builtin_embedder), AttackConfig(epsilon=0.2, iterations=5))
    # both modes are effective and ball-constrained; their trajectories may
    # differ because the similarity gradient vanishes at the starting point
    # (the original image is the similarity maximizer), making the first
    # sign-step numerically arbitrary in either mode
    assert fd.final_similarity < fd.initial_similarity
    assert analytic.final_similarity < analytic.initial_similarity
    assert np.abs(fd.lights - light).max() <= 0.2 + 1e-9


@pytest.mark.parametrize("epsilon", [0.2, 0.4, 0.8])
def test_attack_beats_random_baseline(builtin_embedder, corpus, epsilon):
    """Guided descent dominates the random baseline on >= 90% of the corpus."""
    from advrelight.harness import build_split

    split = build_split(corpus, k=8, seed=0)
    wins = total = 0
    mean_attack = []
    mean_random = []
    for idx, tagged in enumerate(split.target):
        sample = tagged.sample
        plan = RelightPlan(sample.image, sample.normals)
        trace = attack(plan, builtin_embedder, AttackConfig(epsilon=epsilon, iterations=10))
        rnd = random_relight(plan, epsilon, seed=idx)
        rnd_sim = cosine_similarity(
            builtin_embedder.embed(rnd.image),
            builtin_embedder.embed(sample.image),
        )
        wins += trace.final_similarity <= rnd_sim
        total += 1
        mean_attack.append(trace.final_similarity)
        mean_random.append(rnd_sim)
    assert np.mean(mean_attack) < np.mean(mean_random)
    assert wins / total >= 0.9


def test_trace_csv(tmp_path, builtin_embedder, sphere64):
    image, light = make_scene(np.random.default_rng(10), sphere64)
    trace = attack(RelightPlan(image, sphere64, light), builtin_embedder,
                   AttackConfig(epsilon=0.2, iterations=4))
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",")[0] == "iteration"
    assert len(lines) == 1 + 5  # header + T + 1 records


def test_trace_rejects_ball_violation(sphere64):
    from advrelight.attack_aq import AttackTrace

    image, light = make_scene(np.random.default_rng(11), sphere64)
    with pytest.raises(ValueError):
        AttackTrace(
            lights=np.stack([light, light + 1.0]),
            similarities=np.zeros(2),
            clamp_fractions=np.zeros(2),
            adversarial_light=as_light(light),
            relit=image,
            embedding=np.ones(128) / np.sqrt(128),
            origin_light=light,
            epsilon=0.1,
        )
