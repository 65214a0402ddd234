import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from advrelight import harness, pngio
from advrelight.attack_ap import init_params
from advrelight.corpus import ellipsoid_normals, synthetic_corpus
from advrelight.embedder import BuiltinEmbedder, ExternalEmbedder
from advrelight.errors import DegenerateLabelsError, ManifestError
from advrelight.harness import (
    _hex_cell,
    _hex_center,
    build_split,
    ground_truth,
    roc_auc,
    run_attack_suite,
    sensitivity_analysis,
    similarity_matrix,
)
from advrelight.phy_sim import PLSPose, pls_to_sh
from advrelight.relight import FaceImage, save_face_image
from advrelight.shading import (NormalMap, as_light, lighting_map, save_normal_map, sh_basis,
                               sphere_normals)

from conftest import BlackBox, patch_every_binding
from helpers.lighting import ambient_light, dense_values

ECHO_ENDPOINT = [sys.executable, str(Path(__file__).parent / "helpers" / "echo_embedder.py")]


def auc_pair_oracle(scores: np.ndarray, labels: np.ndarray) -> float:
    """Brute force: count correctly ordered (positive, negative) pairs."""
    pos = scores[labels]
    neg = scores[~labels]
    credit = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                credit += 1.0
            elif p == n:
                credit += 0.5
    return credit / (pos.size * neg.size)


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------

def test_split_sizes(corpus):
    split = build_split(corpus, k=8, seed=0)
    assert len(split.reference) == 64
    assert len(split.target) == 64


def test_split_deterministic_and_disjoint(corpus):
    a = build_split(corpus, k=8, seed=3)
    b = build_split(corpus, k=8, seed=3)
    assert [(t.identity, t.index) for t in a.reference] == \
        [(t.identity, t.index) for t in b.reference]
    for group in corpus:
        ref = {t.index for t in a.reference if t.identity == group.identity}
        tgt = {t.index for t in a.target if t.identity == group.identity}
        assert ref.isdisjoint(tgt)
        assert ref | tgt == set(range(16))


def test_split_rejects_wrong_count(corpus):
    with pytest.raises(ManifestError):
        build_split(corpus, k=5, seed=0)


def test_manifest_validation(tmp_path, monkeypatch):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({
        "k": 2,
        "identities": [
            {"identity": "a", "images": ["1.png"] * 4, "normals": ["n.png"] * 4},
            {"identity": "b", "images": ["1.png"] * 3, "normals": ["n.png"] * 3},
        ],
    }))

    def read_png(path):
        raise AssertionError("read a PNG before the manifest was checked")

    monkeypatch.setattr(pngio, "read_png", read_png)
    with pytest.raises(ManifestError, match="identity b supplies 3 images, expected 4"):
        harness.load_groups(path)


def test_manifest_roundtrip(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({
        "k": 2,
        "identities": [
            {"identity": "a", "images": ["1.png"] * 4, "normals": ["n.png"] * 4},
        ],
    }))
    save_face_image(tmp_path / "1.png", FaceImage.from_luminance(np.full((16, 16), 0.5)))
    save_normal_map(tmp_path / "n.png", sphere_normals(16))
    groups, k = harness.load_groups(path)
    assert k == 2
    assert groups[0].identity == "a"
    assert len(groups) == 1 and len(groups[0].samples) == 4


def test_load_groups_interns_normal_maps_of_equal_content(tmp_path):
    """Equal normal maps under different names load as one object, so they share one basis;
    different contents, and equal bytes in different shapes, stay apart."""
    flat = {shape: NormalMap(np.broadcast_to([0.0, 0.0, 1.0], (*shape, 3)).copy(),
                             np.ones(shape, dtype=bool)) for shape in ((2, 8), (8, 2))}
    maps = {"a.png": sphere_normals(16), "a_copy.png": sphere_normals(16),
            "b.png": ellipsoid_normals(16, 0.8, 0.9, 0.7),
            "wide.png": flat[2, 8], "tall.png": flat[8, 2]}
    for name, normals in maps.items():
        save_normal_map(tmp_path / name, normals)
    for name, shape in (("face.png", (16, 16)), ("wide_face.png", (2, 8)),
                        ("tall_face.png", (8, 2))):  # each image fits its normal map
        save_face_image(tmp_path / name, FaceImage.from_luminance(np.full(shape, 0.5)))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"k": 2, "identities": [
        {"identity": "x", "images": ["face.png", "face.png", "wide_face.png", "face.png"],
         "normals": ["a.png", "b.png", "wide.png", "a_copy.png"]},
        {"identity": "y", "images": ["face.png", "tall_face.png", "face.png", "face.png"],
         "normals": ["a_copy.png", "tall.png", "b.png", "a.png"]},
    ]}))
    groups, _ = harness.load_groups(manifest)
    x, y = ([s.normals for s in g.samples] for g in groups)
    assert x[0] is x[3] is y[0] is y[3]
    assert x[1] is y[2] and x[1] is not x[0]
    assert x[2].normals.tobytes() == y[1].normals.tobytes()
    assert x[2].mask.tobytes() == y[1].mask.tobytes()
    assert (x[2].mask.shape, y[1].mask.shape) == ((2, 8), (8, 2))
    assert len({id(normals) for normals in x + y}) == 4


# ---------------------------------------------------------------------------
# Attack suite and similarity matrix
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_groups():
    return synthetic_corpus(identities=3, per_identity=4, size=48, seed=1)


def test_suite_none_is_identity(small_groups, builtin_embedder):
    split = build_split(small_groups, k=2, seed=0)
    suite = run_attack_suite(split.target, "none", builtin_embedder)
    for tagged, attacked in zip(split.target, suite.attacked):
        assert np.array_equal(attacked.image.luminance, tagged.sample.image.luminance)
        assert attacked.mean_abs_change == 0.0
        assert np.array_equal(attacked.original_light, attacked.adversarial_light)
    assert suite.failures == ()


def test_suite_random_and_aq(small_groups, builtin_embedder):
    split = build_split(small_groups, k=2, seed=0)
    rnd = run_attack_suite(split.target, "random", builtin_embedder, epsilon=0.4, seed=1)
    aq = run_attack_suite(split.target, "aq", builtin_embedder, epsilon=0.4,
                          iterations=5, seed=1)
    for sample in rnd.attacked + aq.attacked:
        assert sample.error is None
        drift = np.abs(sample.adversarial_light - sample.original_light)
        assert drift.max() <= 0.4 + 1e-9
        assert sample.mean_abs_change > 0.0


@pytest.mark.parametrize("method", ["none", "random", "aq", "ap"])
def test_suite_evaluates_one_basis_per_target(monkeypatch, builtin_embedder, method):
    """A corpus and the suite after it evaluate each normal map's basis once between them."""
    calls = []

    def counting_basis(normals):
        calls.append(1)
        return sh_basis(normals)

    patch_every_binding(monkeypatch, sh_basis, counting_basis)
    groups = synthetic_corpus(identities=3, per_identity=4, size=48, seed=1)
    assert len(calls) == 2 * len(groups)  # each identity's light directions, then its map
    split = build_split(groups, k=2, seed=0)
    params = init_params("static", hidden=8, embed_dim=builtin_embedder.descriptor.dimension)
    suite = run_attack_suite(split.target, method, builtin_embedder, epsilon=0.2,
                             iterations=2, params=params)
    assert suite.failures == ()
    assert len({id(t.sample.normals) for t in split.target}) == len(groups)
    assert len(calls) == 2 * len(groups)


def test_suite_unknown_method(small_groups, builtin_embedder):
    split = build_split(small_groups, k=2, seed=0)
    with pytest.raises(ValueError):
        run_attack_suite(split.target, "fgsm", builtin_embedder)


def test_similarity_matrix_self(small_groups, builtin_embedder):
    split = build_split(small_groups, k=2, seed=0)
    suite = run_attack_suite(split.target, "none", builtin_embedder)
    matrix = similarity_matrix(split.target, suite.attacked, builtin_embedder)
    assert matrix.shape == (6, 6)
    assert np.allclose(np.diag(matrix), 1.0, atol=1e-9)
    assert matrix.min() >= -1.0 and matrix.max() <= 1.0


def test_ground_truth_row_sums(small_groups):
    split = build_split(small_groups, k=2, seed=0)
    suite_ids = split.target  # identity layout matches the attacked set
    truth = ground_truth(split.reference, suite_ids)
    assert truth.shape == (6, 6)
    assert np.all(truth.sum(axis=1) == 2)


# ---------------------------------------------------------------------------
# ROC / AUC
# ---------------------------------------------------------------------------

def test_auc_perfect_separation():
    scores = np.array([[0.9, 0.1], [0.2, 0.8]])
    labels = np.array([[True, False], [False, True]])
    result = roc_auc(scores, labels)
    assert result.auc == 1.0


def test_auc_all_equal_scores():
    scores = np.full((3, 3), 0.5)
    labels = np.eye(3, dtype=bool)
    assert roc_auc(scores, labels).auc == 0.5


def test_auc_degenerate_labels():
    with pytest.raises(DegenerateLabelsError):
        roc_auc(np.ones((2, 2)), np.ones((2, 2), dtype=bool))


def test_auc_matches_oracle_random():
    rng = np.random.default_rng(0)
    for trial in range(50):
        scores = rng.uniform(-1, 1, size=(24, 24))
        if trial % 3 == 0:  # quantized scores force ties
            scores = np.round(scores, 1)
        labels = rng.random((24, 24)) < 0.3
        if labels.all() or not labels.any():
            continue
        assert roc_auc(scores, labels).auc == auc_pair_oracle(scores.ravel(),
                                                              labels.ravel())


@given(st.integers(0, 2**32 - 1), st.sampled_from([0, 1, 4]))
@example(0, 0)  # rounding to 0 decimals mixes -0.0 and 0.0, which must tie
@settings(max_examples=25, deadline=None)
def test_auc_matches_oracle_property(seed, quantize_decimals):
    rng = np.random.default_rng(seed)
    scores = np.round(rng.uniform(-1, 1, size=40), quantize_decimals)
    labels = rng.random(40) < 0.4
    if labels.all() or not labels.any():
        return
    assert roc_auc(scores, labels).auc == auc_pair_oracle(scores, labels)


def test_roc_points_cover_thresholds():
    rng = np.random.default_rng(1)
    scores = rng.uniform(-1, 1, size=(8, 8))
    labels = rng.random((8, 8)) < 0.5
    result = roc_auc(scores, labels)
    assert result.points.shape[0] == np.unique(scores).size
    assert result.points[-1, 0] == 1.0 and result.points[-1, 1] == 1.0
    assert np.all(np.diff(result.points[:, 0]) >= 0)
    assert np.all(np.diff(result.points[:, 1]) >= 0)


# ---------------------------------------------------------------------------
# Sensitivity histogram
# ---------------------------------------------------------------------------

def test_sensitivity_single_pair():
    base = ambient_light(0.5)
    shifted = as_light(base + pls_to_sh(PLSPose(0.7, 0.8, 1.0, 0.3)))
    hist = sensitivity_analysis([(base, shifted)], resolution=64, cell_size=6.0)
    assert hist.total == 1
    assert hist.counts.tolist() == [1]
    assert hist.skipped == 0


def test_sensitivity_mass_conservation():
    rng = np.random.default_rng(2)
    pairs = []
    for _ in range(30):
        base = ambient_light(rng.uniform(0.4, 0.6))
        pose = PLSPose(float(rng.uniform(0, 2 * math.pi)),
                       float(rng.uniform(0.1, 1.2)), 1.0,
                       float(rng.uniform(0.1, 0.5)))
        pairs.append((base, as_light(base + pls_to_sh(pose))))
    pairs.append((ambient_light(0.5), ambient_light(0.5)))  # zero diff, skipped
    hist = sensitivity_analysis(pairs, resolution=64, cell_size=5.0)
    assert hist.total == 30
    assert hist.counts.sum() == 30
    assert hist.skipped == 1


def test_sensitivity_clustered_modal_cell():
    """Sources clustered at one azimuth put the modal cell at the oracle argmax."""
    rng = np.random.default_rng(3)
    resolution, cell = 128, 8.0
    cluster = dict(azimuth=math.pi / 4, polar=0.8)
    pairs = []
    for _ in range(40):
        base = ambient_light(0.5)
        pose = PLSPose((cluster["azimuth"] + rng.normal(0, 0.05)) % (2 * math.pi),
                       cluster["polar"] + rng.normal(0, 0.05), 1.0, 0.4)
        pairs.append((base, as_light(base + pls_to_sh(pose))))
    hist = sensitivity_analysis(pairs, resolution=resolution, cell_size=cell)
    modal = hist.centers[int(np.argmax(hist.counts))]

    center_pose = PLSPose(cluster["azimuth"], cluster["polar"], 1.0, 0.4)
    base = ambient_light(0.5)
    diff = np.abs(dense_values(lighting_map(as_light(base + pls_to_sh(center_pose)),
                                            resolution))
                  - dense_values(lighting_map(base, resolution)))
    row, col = divmod(int(np.argmax(diff)), resolution)
    assert np.hypot(modal[0] - col, modal[1] - row) <= 2 * cell


@given(st.floats(0, 127), st.floats(0, 127))
@settings(max_examples=200, deadline=None)
def test_hex_cells_partition_points(x, y):
    """Every point lands in exactly one cell, and that cell is the nearest center."""
    q, r = _hex_cell(x, y, 8.0)
    cx, cy = _hex_center(q, r, 8.0)
    own = math.hypot(x - cx, y - cy)
    for dq, dr in [(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)]:
        nx, ny = _hex_center(q + dq, r + dr, 8.0)
        assert own <= math.hypot(x - nx, y - ny) + 1e-9


# ---------------------------------------------------------------------------
# End-to-end evaluate
# ---------------------------------------------------------------------------

def test_evaluate_transfer_embedder(small_groups, builtin_embedder):
    white = harness.evaluate(small_groups, "aq", builtin_embedder,
                             epsilon=0.4, k=2, seed=0, iterations=5)
    with ExternalEmbedder(ECHO_ENDPOINT) as other:
        transfer = harness.evaluate(small_groups, "aq", builtin_embedder,
                                    epsilon=0.4, k=2, seed=0, iterations=5,
                                    eval_embedder=other)
    assert white.auc != transfer.auc  # scored by different models
    assert 0.0 <= transfer.auc <= 1.0


def test_evaluate_csv_roundtrip(tmp_path, small_groups, builtin_embedder):
    report = harness.evaluate(small_groups, "random", builtin_embedder,
                              epsilon=0.2, k=2, seed=0)
    harness.write_lights_csv(tmp_path / "lights.csv", report)
    pairs = harness.read_lights_csv(tmp_path / "lights.csv")
    assert len(pairs) == len(report.light_pairs)
    first_old, first_new = pairs[0]
    assert np.allclose(first_old, report.light_pairs[0][0], atol=1e-5)
    assert np.allclose(first_new, report.light_pairs[0][1], atol=1e-5)


class CountingEmbedder(BuiltinEmbedder):
    """The built-in embedder, recording every image it embeds."""

    def __init__(self):
        super().__init__()
        self.embedded = []

    def embed(self, image):
        self.embedded.append(image)
        return super().embed(image)


def test_evaluate_scores_aq_with_the_attack_embeddings(small_groups):
    """Scored by its own embedder, AQ's final embeddings are reused, with the same ROC bits.

    A second scorer embeds every reference and attacked image itself.
    """
    iterations, n = 3, 6
    attacker = CountingEmbedder()
    report = harness.evaluate(small_groups, "aq", attacker, epsilon=0.4, k=2, iterations=iterations)
    # Per target: the original and one image per iterate; then the references.
    assert len(attacker.embedded) == n * (iterations + 2) + n
    for sample in report.suite.attacked:
        assert np.array_equal(sample.embedding, BuiltinEmbedder().embed(sample.image))
    scorer = CountingEmbedder()
    scored = harness.evaluate(small_groups, "aq", BuiltinEmbedder(), epsilon=0.4, k=2,
                              iterations=iterations, eval_embedder=scorer)
    assert len(scorer.embedded) == 2 * n
    assert np.array_equal(scored.roc.points, report.roc.points)
    split = build_split(small_groups, k=2, seed=0)
    fresh = similarity_matrix(split.reference, report.suite.attacked, BuiltinEmbedder())
    assert np.array_equal(fresh, similarity_matrix(split.reference, report.suite.attacked,
                                                   BuiltinEmbedder(), reuse=True))


def test_similarity_matrix_collects_failures(small_groups, builtin_embedder):
    from advrelight.errors import EvaluationError, ProtocolError

    class FlakyEmbedder:
        descriptor = builtin_embedder.descriptor

        def __init__(self):
            self.calls = 0

        def embed(self, image):
            self.calls += 1
            if self.calls in (2, 9):
                raise ProtocolError("endpoint hiccup")
            return builtin_embedder.embed(image)

    split = build_split(small_groups, k=2, seed=0)
    suite = run_attack_suite(split.target, "none", builtin_embedder)
    with pytest.raises(EvaluationError) as err:
        similarity_matrix(split.reference, suite.attacked, FlakyEmbedder())
    assert len(err.value.failures) == 2
    sides = {side for side, _, _ in err.value.failures}
    assert sides == {"reference", "attacked"}


def test_suite_black_box_uses_fd(small_groups, builtin_embedder):
    """Non-differentiable embedders drive the attack through finite differences."""
    split = build_split(small_groups, k=2, seed=0)
    suite = run_attack_suite(split.target[:3], "aq", BlackBox(builtin_embedder), epsilon=0.2,
                             iterations=2, seed=0)
    assert suite.failures == ()
    for sample in suite.attacked:
        drift = np.abs(sample.adversarial_light - sample.original_light)
        assert drift.max() <= 0.2 + 1e-9
