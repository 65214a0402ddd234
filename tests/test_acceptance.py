"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s`. Every tolerance is fixed
here; the corpus, seeds and embedder are the repository's reference
configuration, so all numbers are reproducible bit-for-bit.
"""

import math
import time

import numpy as np
import pytest

from advrelight import harness
from advrelight.attack_ap import TrainConfig, forward_net, init_params, sample_gradient, train
from advrelight.attack_aq import AttackConfig, attack
from advrelight.cli import cli
from advrelight.corpus import synthetic_corpus
from advrelight.embedder import BuiltinEmbedder, cosine_similarity
from advrelight.harness import AttackedSample, build_split, roc_auc, sensitivity_analysis
from advrelight.phy_sim import PLSPose, SceneModel, pls_to_sh, recurrence_loop, scene_light_estimate
from advrelight.relight import DENOM_FLOOR, FaceImage, RelightPlan, estimate_light
from advrelight.shading import SHLight, lighting_map, shade, sphere_normals

from helpers.lighting import dense_values
from helpers.relighting import jacobian

EPSILONS_CHAIN = (0.2, 0.4, 0.8)
EPSILONS_SWEEP = (0.1, 0.2, 0.4, 0.8)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nCRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def embedder():
    return BuiltinEmbedder()


@pytest.fixture(scope="module")
def corpus():
    return synthetic_corpus()


@pytest.fixture(scope="module")
def aq_sweep(corpus, embedder):
    """AQ-ARA runs shared by criteria 5 and 6: traces plus AUC per epsilon."""
    start = time.monotonic()
    split = build_split(corpus, k=8, seed=0)
    results = {}
    for epsilon in EPSILONS_SWEEP:
        cfg = AttackConfig(epsilon=epsilon, iterations=10)
        traces = []
        attacked = []
        for tagged in split.target:
            trace = attack(RelightPlan(tagged.sample.image, tagged.sample.normals),
                           embedder, cfg)
            traces.append(trace)
            attacked.append(AttackedSample(
                tagged.identity, tagged.index, trace.relit,
                trace.origin_light, trace.adversarial_light,
                float(np.abs(trace.relit.luminance
                             - tagged.sample.image.luminance).mean()),
            ))
        matrix = harness.similarity_matrix(split.reference, attacked, embedder)
        truth = harness.ground_truth(split.reference, attacked)
        results[epsilon] = (roc_auc(matrix, truth).auc, traces)
    return results, time.monotonic() - start


def scene_lights(rng, n, directional=0.25):
    """Random lights whose sphere shading may dip below the denominator floor."""
    lights = []
    for _ in range(n):
        coeffs = np.zeros(9)
        coeffs[0] = rng.uniform(0.4, 0.7) / 0.8862269254527579
        coeffs[1:] = rng.uniform(-directional, directional, 8)
        lights.append(SHLight(coeffs))
    return lights


def test_criterion_1_quotient_identity():
    start = time.monotonic()
    normals = sphere_normals(64)
    rng = np.random.default_rng(10)
    worst = 0.0
    for light in scene_lights(rng, 100):
        f = shade(normals, light)
        lum = np.clip(rng.uniform(0.3, 0.9) * np.clip(f, 0, 1), 0.0, 1.0)
        image = FaceImage.from_luminance(lum)
        result = RelightPlan(image, normals, light).relight(light)
        ok_pixels = normals.mask & (f >= DENOM_FLOOR)
        worst = max(worst, np.abs(result.image.luminance
                                  - image.luminance)[ok_pixels].max())
    elapsed = time.monotonic() - start
    report(1, worst < 1e-6 and elapsed < 5.0,
           f"identity error {worst:.2e} over 100 scenes in {elapsed:.2f}s")


def test_criterion_2_linearity_and_jacobian():
    start = time.monotonic()
    normals = sphere_normals(48)
    rng = np.random.default_rng(20)
    worst_lin = 0.0
    worst_jac = 0.0
    for _ in range(50):
        l1 = rng.normal(0, 0.4, 9)
        l2 = rng.normal(0, 0.4, 9)
        a, b = rng.normal(0, 1.0, 2)
        lin_err = np.abs(shade(normals, a * l1 + b * l2)
                         - a * shade(normals, l1) - b * shade(normals, l2)).max()
        worst_lin = max(worst_lin, lin_err)

        old = scene_lights(rng, 1, directional=0.08)[0]
        new = scene_lights(rng, 1, directional=0.08)[0]
        lum = np.clip(0.6 * np.clip(shade(normals, old), 0, 1), 0.02, 0.98)
        image = FaceImage.from_luminance(lum)
        plan = RelightPlan(image, normals, old)
        assert plan.relight(new.coeffs).clamp_fraction == 0.0
        jac = jacobian(plan, new.coeffs)
        h = 1e-4
        j = int(rng.integers(0, 9))
        plus, minus = new.coeffs.copy(), new.coeffs.copy()
        plus[j] += h
        minus[j] -= h
        fd = (plan.relight(plus).image.luminance
              - plan.relight(minus).image.luminance) / (2 * h)
        mask = normals.mask
        rel = (np.abs(jac[:, :, j] - fd)[mask]
               / np.maximum(np.abs(fd[mask]), 1e-6)).max()
        worst_jac = max(worst_jac, rel)
    elapsed = time.monotonic() - start
    report(2, worst_lin < 1e-6 and worst_jac < 1e-3 and elapsed < 10.0,
           f"linearity {worst_lin:.2e}, jacobian rel err {worst_jac:.2e} "
           f"in {elapsed:.2f}s")


def test_criterion_3_light_estimation_roundtrip():
    start = time.monotonic()
    normals = sphere_normals(64)
    rng = np.random.default_rng(30)
    worst = 0.0
    for _ in range(100):
        coeffs = np.zeros(9)
        coeffs[0] = rng.uniform(0.45, 0.7) / 0.8862269254527579
        coeffs[1:] = rng.uniform(-0.08, 0.08, 8)
        rendered = shade(normals, coeffs)
        assert rendered.min() >= 0.0 and rendered.max() <= 1.0
        estimated = estimate_light(FaceImage.from_luminance(rendered), normals)
        worst = max(worst, np.abs(estimated.coeffs - coeffs).max())
    elapsed = time.monotonic() - start
    report(3, worst < 1e-3 and elapsed < 10.0,
           f"max coefficient error {worst:.2e} over 100 lights in {elapsed:.2f}s")


def test_criterion_4_auc_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(40)
    exact = 0
    for trial in range(200):
        scores = rng.uniform(-1, 1, size=(24, 24))
        if trial % 4 == 0:
            scores = np.round(scores, 1)  # ties
        labels = rng.random((24, 24)) < 0.3
        if labels.all() or not labels.any():
            labels[0, 0] = not labels[0, 0]
        pos = scores[labels]
        neg = scores[~labels]
        oracle = ((pos[:, None] > neg[None, :]).sum()
                  + 0.5 * (pos[:, None] == neg[None, :]).sum()) / (pos.size * neg.size)
        exact += roc_auc(scores, labels).auc == oracle
    elapsed = time.monotonic() - start
    report(4, exact == 200 and elapsed < 5.0,
           f"{exact}/200 matrices match the pair-count oracle exactly "
           f"in {elapsed:.2f}s")


def test_criterion_5_attack_trend(corpus, embedder, aq_sweep):
    sweep_results, sweep_elapsed = aq_sweep
    start = time.monotonic() - sweep_elapsed  # attacks ran in the shared fixture
    auc_none = harness.evaluate(corpus, "none", embedder, seed=0).auc
    auc_random = {
        eps: harness.evaluate(corpus, "random", embedder, epsilon=eps, seed=0).auc
        for eps in EPSILONS_CHAIN
    }
    auc_aq = {eps: sweep_results[eps][0] for eps in EPSILONS_SWEEP}
    chain_ok = all(auc_none > auc_random[eps] > auc_aq[eps]
                   for eps in EPSILONS_CHAIN)
    sweep = [auc_aq[eps] for eps in EPSILONS_SWEEP]
    monotone_ok = all(sweep[i + 1] <= sweep[i] for i in range(len(sweep) - 1))
    elapsed = time.monotonic() - start
    detail = (f"AUC none={auc_none:.4f}; "
              + "; ".join(f"eps={eps}: random={auc_random[eps]:.4f} "
                          f"aq={auc_aq[eps]:.4f}" for eps in EPSILONS_CHAIN)
              + f"; aq sweep {['%.4f' % v for v in sweep]} in {elapsed:.1f}s")
    report(5, chain_ok and monotone_ok and elapsed < 300.0, detail)


def test_criterion_6_ball_constraint(aq_sweep):
    sweep_results, _ = aq_sweep
    total = violations = 0
    for epsilon, (_, traces) in sweep_results.items():
        for trace in traces:
            drift = np.abs(trace.lights - trace.origin_light.coeffs).max(axis=1)
            total += drift.size
            violations += int((drift > epsilon + 1e-9).sum())
    report(6, violations == 0,
           f"{total - violations}/{total} iterates inside the epsilon ball")


def test_criterion_7_predictor_training(corpus, embedder):
    start = time.monotonic()
    # backprop vs finite differences at hidden width 8, both variants
    normals = sphere_normals(24)
    sample = corpus[0].samples[0]
    image = FaceImage.from_luminance(
        np.clip(0.3 + 0.4 * sample.image.luminance[:24, :24], 0.05, 0.95))
    light = estimate_light(image, normals)
    embedding = embedder.embed(image)
    plan = RelightPlan(image, normals, light)
    worst_rel = 0.0
    for variant in ("static", "dynamic"):
        params = init_params(variant, hidden=8, seed=7)
        _, grads = sample_gradient(params, plan, embedder, embedding)
        h = 1e-6
        fd_all, an_all = [], []
        for name in params.trainable():
            flat = getattr(params, name).reshape(-1)
            for k in range(flat.size):
                original = flat[k]
                flat[k] = original + h
                d, _ = forward_net(params, light.coeffs, embedding)
                relit = plan.relight(light.coeffs + d).image
                plus = (cosine_similarity(embedder.embed(relit), embedding)
                        + np.abs(relit.luminance - image.luminance).mean())
                flat[k] = original - h
                d, _ = forward_net(params, light.coeffs, embedding)
                relit = plan.relight(light.coeffs + d).image
                minus = (cosine_similarity(embedder.embed(relit), embedding)
                         + np.abs(relit.luminance - image.luminance).mean())
                flat[k] = original
                fd_all.append((plus - minus) / (2 * h))
                an_all.append(grads[name].reshape(-1)[k])
        fd_all, an_all = np.array(fd_all), np.array(an_all)
        worst_rel = max(worst_rel,
                        np.linalg.norm(fd_all - an_all) / np.linalg.norm(fd_all))

    # training with the reference hyperparameters
    split = build_split(corpus, k=8, seed=0)
    train_set = [(t.sample.image, t.sample.normals) for t in split.reference]
    params, history = train(train_set, embedder,
                            TrainConfig(learning_rate=1e-3, momentum=0.9,
                                        batch_size=8, epochs=10, seed=0),
                            variant="static")
    loss_ok = history[-1] <= 0.8 * history[0]
    auc_none = harness.evaluate(corpus, "none", embedder, seed=0).auc
    auc_ap = harness.evaluate(corpus, "ap", embedder, seed=0, params=params).auc
    elapsed = time.monotonic() - start
    report(7, worst_rel < 1e-4 and loss_ok and auc_ap < auc_none
           and elapsed < 600.0,
           f"backprop rel err {worst_rel:.2e}; loss {history[0]:.3f} -> "
           f"{history[-1]:.3f}; AUC ap={auc_ap:.4f} < none={auc_none:.4f} "
           f"in {elapsed:.1f}s")


def test_criterion_8_recurrence():
    start = time.monotonic()
    scene = SceneModel(normals=sphere_normals(64), albedo=0.8, ambient=0.25)
    start_pose = PLSPose(0.5, 0.7, 2.0, 1.5)
    rng = np.random.default_rng(42)
    worst_angle = worst_dist = 0.0
    converged = 0
    for _ in range(20):
        target_pose = PLSPose(
            azimuth=float(rng.uniform(0, 2 * math.pi)),
            polar=float(rng.uniform(0.1, 1.4)),
            distance=float(rng.uniform(1.4, 2.8)),
            intensity=1.5,
        )
        target = scene_light_estimate(scene, target_pose)
        result = recurrence_loop(target, start_pose, scene)
        angle = math.degrees(math.acos(np.clip(
            result.final_pose.direction() @ target_pose.direction(), -1.0, 1.0)))
        dist = abs(result.final_pose.distance
                   - target_pose.distance) / target_pose.distance
        worst_angle = max(worst_angle, angle)
        worst_dist = max(worst_dist, dist)
        converged += result.iterations <= 100
    self_pose = PLSPose(1.0, 0.6, 2.0, 1.5)
    self_run = recurrence_loop(scene_light_estimate(scene, self_pose),
                               self_pose, scene)
    elapsed = time.monotonic() - start
    report(8, converged == 20 and worst_angle < 2.0 and worst_dist < 0.05
           and self_run.iterations == 0 and elapsed < 60.0,
           f"20/20 converged; worst angle {worst_angle:.2f} deg, worst distance "
           f"{worst_dist * 100:.2f}%; self-recurrence {self_run.iterations} "
           f"adjustments in {elapsed:.1f}s")


def test_criterion_9_sensitivity_histogram():
    rng = np.random.default_rng(90)
    resolution, cell = 128, 8.0
    pairs = []
    for _ in range(50):
        base = SHLight.ambient(float(rng.uniform(0.45, 0.6)))
        pose = PLSPose((math.pi / 4 + rng.normal(0, 0.05)) % (2 * math.pi),
                       0.8 + float(rng.normal(0, 0.05)), 1.0, 0.4)
        pairs.append((base, SHLight(base.coeffs + pls_to_sh(pose).coeffs)))
    pairs.append((SHLight.ambient(0.5), SHLight.ambient(0.5)))
    hist = sensitivity_analysis(pairs, resolution=resolution, cell_size=cell)
    mass_ok = hist.counts.sum() == hist.total == 50 and hist.skipped == 1

    base = SHLight.ambient(0.5)
    oracle_pose = PLSPose(math.pi / 4, 0.8, 1.0, 0.4)
    diff = np.abs(
        dense_values(lighting_map(SHLight(base.coeffs + pls_to_sh(oracle_pose).coeffs),
                                  resolution))
        - dense_values(lighting_map(base, resolution)))
    row, col = divmod(int(np.argmax(diff)), resolution)
    modal = hist.centers[int(np.argmax(hist.counts))]
    offset = math.hypot(modal[0] - col, modal[1] - row)
    report(9, mass_ok and offset <= 2 * cell,
           f"mass {hist.counts.sum()}/{hist.total} (skipped {hist.skipped}); "
           f"modal cell {offset:.1f}px from oracle (limit {2 * cell:.0f}px)")


def test_criterion_10_determinism(tmp_path):
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli(["eval", "--method", "random", "--epsilon", "0.4",
                    "--seed", "11", "--out-dir", str(out)])
        assert code == 0
        outputs.append({f: (out / f).read_bytes()
                        for f in ("roc.csv", "summary.csv", "lights.csv")})
    identical = all(outputs[0][f] == outputs[1][f] for f in outputs[0])
    report(10, identical, "repeated eval runs produced byte-identical CSVs")
