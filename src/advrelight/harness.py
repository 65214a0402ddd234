"""Evaluation harness: splits, attack suites, ROC/AUC and light sensitivity.

The verification protocol: split every identity's images into a reference
half and a target half, attack the targets, embed both sides, and score
every (reference, attacked) pair with cosine similarity. A robust verifier
keeps the resulting nk x nk matrix block-diagonal; the ROC/AUC of the
scores against same-identity ground truth quantifies how far an attack
degrades it. Lower AUC means a stronger attack.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import attack_ap, attack_aq
from .corpus import IdentityGroup, Sample
from .errors import (AdvRelightError, DegenerateLabelsError, EvaluationError, ManifestError,
                     blamed_on)
from .relight import RelightPlan, check_pair_size, estimate_light, load_face_image, random_relight
from .shading import LightingMap, NormalMap, as_light, lighting_map, load_normal_map, write_csv

ATTACK_METHODS = ("none", "random", "aq", "ap")


# ---------------------------------------------------------------------------
# Manifests and splits
# ---------------------------------------------------------------------------

def load_groups(path, for_eval: bool = False) -> tuple[list[IdentityGroup], int]:
    """The groups and ``k`` of a JSON manifest of distinct identities, each naming 2k images
    and normal maps relative to it, and at least 2 identities ``for_eval`` (its ROC needs a
    pair of different ones). It is checked whole before any PNG is read (ManifestError naming
    ``path``); normal maps of equal content load as one object, sharing one basis."""
    def names(entry, key) -> list[str]:
        value = entry[key]
        if not (isinstance(value, list) and all(isinstance(n, str) for n in value)):
            raise TypeError(f"{key} must be a list of file names")
        if len(value) != 2 * k:
            raise ValueError(f"identity {entry['identity']} supplies {len(value)} {key}, "
                             f"expected {2 * k}")
        return value

    malformed = f"malformed manifest {path}"
    with blamed_on(malformed, KeyError, TypeError, ValueError, error=ManifestError):
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise TypeError("top level must be an object")
        k = data.get("k", 8)
        if type(k) is not int:
            raise TypeError(f"k must be an integer, got {k!r}")
        if k < 1:
            raise ValueError("k must be >= 1")
        if not (isinstance(data["identities"], list) and data["identities"]):
            raise TypeError("identities must be a non-empty list")
        entries = {}
        for entry in data["identities"]:
            identity = entry["identity"]
            if not (isinstance(identity, str) and identity):
                raise TypeError(f"identity must be a non-empty string, got {identity!r}")
            if identity in entries:
                raise ValueError(f"identity {identity!r} appears more than once")
            entries[identity] = names(entry, "images"), names(entry, "normals")
        if for_eval and len(entries) < 2:
            raise ValueError(f"eval needs at least 2 identities, got {len(entries)}")

    base = Path(path).parent
    maps: dict[tuple, NormalMap] = {}

    def normal_map(name) -> NormalMap:
        loaded = load_normal_map(base / name)
        key = (loaded.normals.shape, loaded.normals.tobytes(), loaded.mask.tobytes())
        return maps.setdefault(key, loaded)

    def sample(img, nrm) -> Sample:
        image, normals = load_face_image(base / img), normal_map(nrm)
        with blamed_on(malformed, error=ManifestError):
            check_pair_size(image, normals, base / img, base / nrm)
        return Sample(image, normals)

    groups = [IdentityGroup(identity, tuple(sample(img, nrm) for img, nrm in zip(images, normals)))
              for identity, (images, normals) in entries.items()]
    return groups, k


@dataclass(frozen=True)
class TaggedSample:
    identity: str
    index: int
    sample: Sample


@dataclass(frozen=True)
class Split:
    reference: tuple[TaggedSample, ...]
    target: tuple[TaggedSample, ...]


def build_split(groups, k: int = 8, seed: int = 0) -> Split:
    """Deterministic per-identity k + k partition into reference and target."""
    reference, target = [], []
    for gi, group in enumerate(groups):
        if len(group.samples) != 2 * k:
            raise ManifestError(
                f"identity {group.identity} has {len(group.samples)} samples, "
                f"expected {2 * k}"
            )
        order = np.random.default_rng([seed, gi]).permutation(2 * k)
        for pos in order[:k]:
            reference.append(TaggedSample(group.identity, int(pos), group.samples[pos]))
        for pos in order[k:]:
            target.append(TaggedSample(group.identity, int(pos), group.samples[pos]))
    return Split(tuple(reference), tuple(target))


# ---------------------------------------------------------------------------
# Attack suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttackedSample:
    identity: str
    image: object  # FaceImage
    original_light: np.ndarray | None
    adversarial_light: np.ndarray | None
    mean_abs_change: float
    error: str | None = None
    embedding: np.ndarray | None = None  # the attack embedder's, if the attack made one


@dataclass(frozen=True)
class SuiteResult:
    attacked: tuple[AttackedSample, ...]
    failures: tuple[tuple[int, str], ...] = field(default_factory=tuple)


def run_attack_suite(targets, method: str, embedder, *, epsilon: float = 0.0,
                     iterations: int = 10, seed: int = 0,
                     params: attack_ap.AdvLNetParams | None = None) -> SuiteResult:
    """Attack every target image; per-image failures are collected, not fatal."""
    if method not in ATTACK_METHODS:
        raise ValueError(f"method must be one of {ATTACK_METHODS}")
    if method == "ap" and params is None:
        raise ValueError("method 'ap' needs trained predictor parameters")
    attacked: list[AttackedSample] = []
    failures: list[tuple[int, str]] = []
    for idx, tagged in enumerate(targets):
        image, normals = tagged.sample.image, tagged.sample.normals
        try:
            # Method none relights nothing, so it skips the plan and its floor check.
            plan = None if method == "none" else RelightPlan(image, normals)
            light = estimate_light(image, normals) if plan is None else plan.old_light
            embedding = None
            if method == "none":
                new_image, adv = image, light
            elif method == "random":
                result = random_relight(plan, epsilon, seed=_per_image_seed(seed, idx))
                new_image, adv = result.image, result.new_coeffs
            elif method == "aq":
                cfg = attack_aq.AttackConfig(epsilon=epsilon, iterations=iterations)
                trace = attack_aq.attack(plan, embedder, cfg)
                new_image, adv, embedding = trace.relit, trace.adversarial_light, trace.embedding
            else:  # ap
                new_image, adv = attack_ap.predict(plan, params, embedder)
            change = float(np.abs(new_image.luminance - image.luminance).mean())
            attacked.append(AttackedSample(tagged.identity, new_image, light, adv, change,
                                           embedding=embedding))
        except AdvRelightError as exc:
            failures.append((idx, str(exc)))
            attacked.append(AttackedSample(tagged.identity, image, None, None, 0.0,
                                           error=str(exc)))
    return SuiteResult(tuple(attacked), tuple(failures))


def _per_image_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Similarity matrix, ROC and AUC
# ---------------------------------------------------------------------------

def similarity_matrix(reference, attacked, embedder, reuse: bool = False) -> np.ndarray:
    """S[i, j] = cosine similarity of reference i against attacked j.

    With ``reuse``, an attacked sample that carries its embedding (which
    must be ``embedder``'s) is not embedded again. Embedding failures are
    collected per sample and raised together as one
    :class:`EvaluationError` so a flaky external endpoint reports every
    affected row/column at once.
    """
    if len(reference) == 0 or len(attacked) == 0:
        raise ValueError("reference and attacked sets must be nonempty")
    failures: list[tuple[str, int, str]] = []

    def embed_all(side, pairs):
        vectors = []
        for idx, (image, known) in enumerate(pairs):
            try:
                vectors.append(embedder.embed(image) if known is None else known)
            except AdvRelightError as exc:
                failures.append((side, idx, str(exc)))
        return vectors

    ref_vecs = embed_all("reference", ((t.sample.image, None) for t in reference))
    att_vecs = embed_all("attacked", ((a.image, a.embedding if reuse else None) for a in attacked))
    if failures:
        raise EvaluationError(failures)
    return np.clip(np.stack(ref_vecs) @ np.stack(att_vecs).T, -1.0, 1.0)


def ground_truth(reference, attacked) -> np.ndarray:
    ref_ids = [t.identity for t in reference]
    att_ids = [a.identity for a in attacked]
    return np.array([[r == a for a in att_ids] for r in ref_ids], dtype=bool)


@dataclass(frozen=True)
class ROCResult:
    points: np.ndarray  # (n, 3): fpr, tpr, threshold
    auc: float


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> ROCResult:
    """ROC points at every distinct threshold plus the exact rank-based AUC.

    The AUC is the Mann-Whitney statistic: the fraction of
    (positive, negative) score pairs ranked correctly, ties counting half.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=bool).ravel()
    if scores.shape != labels.shape:
        raise ValueError("score and label shapes differ")
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelsError("ground truth must contain both classes")

    # Tied scores share the mean of their 1-based ranks, which is the last
    # rank of the tie group minus (count - 1) / 2.
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]
    pos_rank_sum = float(ranks[labels].sum())
    auc = (pos_rank_sum - 0.5 * n_pos * (n_pos + 1)) / (n_pos * n_neg)

    thresholds = np.unique(scores)[::-1]
    pos_sorted = np.sort(scores[labels])
    neg_sorted = np.sort(scores[~labels])
    tp = n_pos - np.searchsorted(pos_sorted, thresholds, side="left")
    fp = n_neg - np.searchsorted(neg_sorted, thresholds, side="left")
    points = np.column_stack([fp / n_neg, tp / n_pos, thresholds])
    return ROCResult(points=points, auc=float(auc))


# ---------------------------------------------------------------------------
# Sensitivity histogram on a hexagonal grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SensitivityHistogram:
    centers: np.ndarray  # (n, 2) cell centers, map-pixel units (x, y)
    counts: np.ndarray  # (n,)
    cell_size: float
    resolution: int
    total: int
    skipped: int


def sensitivity_analysis(pairs, resolution: int = 128, cell_size: float = 8.0) -> SensitivityHistogram:
    """Histogram of maximal lighting-map-change positions on a hex grid.

    For each (original, adversarial) light pair, both lighting maps are
    rendered, the pixel where |map' - map| peaks (ties: lowest row-major
    index) becomes that pair's sensitive point, and points are counted on
    a hexagonal grid of the given cell size. Pairs with an identically
    zero difference map are skipped and tallied.
    """
    if len(pairs) == 0:
        raise ValueError("sensitivity analysis needs at least one light pair")
    if cell_size <= 0:
        raise ValueError("cell size must be positive")
    cells: dict[tuple[int, int], int] = {}
    skipped = 0
    for old, new in pairs:
        # Off the disk both maps are 0, so the first disk maximum is the map's first maximum.
        diff = LightingMap.of(np.abs(lighting_map(new, resolution).masked
                                     - lighting_map(old, resolution).masked), resolution)
        if diff.peak == 0.0:
            skipped += 1
            continue
        row, col = diff.brightest
        cell = _hex_cell(float(col), float(row), cell_size)
        cells[cell] = cells.get(cell, 0) + 1
    ordered = sorted(cells.items())
    centers = np.array([_hex_center(q, r, cell_size) for (q, r), _ in ordered]
                       ).reshape(-1, 2)
    counts = np.array([c for _, c in ordered], dtype=int)
    return SensitivityHistogram(centers, counts, cell_size, resolution,
                                total=int(counts.sum()), skipped=skipped)


_SQRT3 = math.sqrt(3.0)


def _hex_cell(x: float, y: float, size: float) -> tuple[int, int]:
    """Axial coordinates of the pointy-top hexagon containing (x, y)."""
    q = (_SQRT3 / 3.0 * x - y / 3.0) / size
    r = (2.0 / 3.0 * y) / size
    return _hex_round(q, r)


def _hex_round(q: float, r: float) -> tuple[int, int]:
    s = -q - r
    rq, rr, rs = round(q), round(r), round(s)
    dq, dr, ds = abs(rq - q), abs(rr - r), abs(rs - s)
    if dq > dr and dq > ds:
        rq = -rr - rs
    elif dr > ds:
        rr = -rq - rs
    return int(rq), int(rr)


def _hex_center(q: int, r: int, size: float) -> tuple[float, float]:
    return (size * _SQRT3 * (q + r / 2.0), size * 1.5 * r)


# ---------------------------------------------------------------------------
# End-to-end evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalReport:
    method: str
    epsilon: float
    auc: float
    roc: ROCResult
    mean_abs_change: float
    suite: SuiteResult
    light_pairs: tuple[tuple[np.ndarray, np.ndarray], ...]


def evaluate(groups, method: str, embedder, *, epsilon: float = 0.0, k: int = 8,
             seed: int = 0, iterations: int = 10, eval_embedder=None,
             params: attack_ap.AdvLNetParams | None = None) -> EvalReport:
    """split -> attack -> similarity matrix -> ROC/AUC, one method at a time.

    ``eval_embedder`` may differ from the attack embedder to measure
    transferability; it defaults to the attack embedder.
    """
    split = build_split(groups, k=k, seed=seed)
    suite = run_attack_suite(split.target, method, embedder, epsilon=epsilon,
                             iterations=iterations, seed=seed, params=params)
    scorer = eval_embedder if eval_embedder is not None else embedder
    matrix = similarity_matrix(split.reference, suite.attacked, scorer,
                               reuse=eval_embedder is None)
    truth = ground_truth(split.reference, suite.attacked)
    roc = roc_auc(matrix, truth)
    changes = [a.mean_abs_change for a in suite.attacked if a.error is None]
    pairs = tuple(
        (a.original_light, a.adversarial_light)
        for a in suite.attacked if a.error is None
    )
    return EvalReport(
        method=method,
        epsilon=epsilon,
        auc=roc.auc,
        roc=roc,
        mean_abs_change=float(np.mean(changes)) if changes else 0.0,
        suite=suite,
        light_pairs=pairs,
    )


# ---------------------------------------------------------------------------
# CSV output (6 significant digits everywhere)
# ---------------------------------------------------------------------------

def write_roc_csv(path, roc: ROCResult) -> None:
    # Python floats %-format in half the time numpy scalars take.
    write_csv(path, ["fpr", "tpr", "threshold"], roc.points.tolist())


def write_summary_csv(path, reports) -> None:
    write_csv(path, ["method", "epsilon", "auc", "mean_abs_change"],
              ([r.method, float(r.epsilon), r.auc, r.mean_abs_change] for r in reports))


def write_lights_csv(path, report: EvalReport) -> None:
    write_csv(path, ["index"] + [f"L{j}" for j in range(9)] + [f"Lhat{j}" for j in range(9)],
              ([idx, *old, *new]
               for idx, (old, new) in enumerate(report.light_pairs)))


def read_lights_csv(path) -> list[tuple[np.ndarray, np.ndarray]]:
    """(old, new) light pairs; a malformed row's ValueError names ``path`` and row (header 1)."""
    with blamed_on(path, csv.Error, UnicodeDecodeError):  # bytes that are not text, or a huge field
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    header = rows[0] if rows else []
    if len(header) != 19:
        raise ValueError(f"{path}: expected 19 columns, got {len(header)}")
    pairs = []
    for n, row in enumerate(rows[1:], start=2):
        with blamed_on(f"{path}: row {n}"):
            values = [float(v) for v in row[1:]]
            pairs.append((as_light(values[:9]), as_light(values[9:])))
    return pairs


def write_hexhist_csv(path, hist: SensitivityHistogram) -> None:
    write_csv(path, ["center_x", "center_y", "count"],
              ([x, y, int(count)] for (x, y), count in zip(hist.centers, hist.counts)))
