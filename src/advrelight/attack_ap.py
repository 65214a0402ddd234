"""One-step adversarial light prediction.

A small fully-connected network maps the current light (plus, in the
dynamic variant, the face embedding) to a residual added to the light; the
relit image follows from a single quotient-relighting pass, no iteration.
Training minimizes

    sim(embed(relit), embed(original)) + mean |relit_lum - original_lum|

by stochastic gradient descent with momentum. Backpropagation is spelled
out by hand: the network is three dense layers with two ReLUs, below the
light gradient of :func:`attack_aq.relight_loss` that the AQ attack uses.

The dynamic variant replaces the middle layer's weight matrix with one
generated from the face embedding by an extra dense layer, letting the
predicted light adapt to the face. Freezing that generator's output to the
static middle weights reproduces the static computation exactly.
"""

from __future__ import annotations

import zipfile
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .attack_aq import light_gradient, relight_loss
from .relight import NormalBasis, RelightPlan, estimate_light
from .shading import SHLight, write_csv
from .errors import DivergenceError

VARIANTS = ("static", "dynamic")

PARAMS_FORMAT_VERSION = 1


@dataclass
class AdvLNetParams:
    """Weights of the light-residual network.

    Static path: 9 -> hidden -> hidden -> 9 with ReLUs in between. The
    dynamic variant drops ``w2`` and instead generates the middle weight
    matrix from the face embedding: vec(W2) = wg @ e + bg.
    """

    variant: str
    hidden: int
    embed_dim: int
    w1: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray
    w2: np.ndarray | None = None
    wg: np.ndarray | None = None
    bg: np.ndarray | None = None

    def __post_init__(self):
        h, d = self.hidden, self.embed_dim
        expected = {"w1": (h, 9), "b1": (h,), "b2": (h,), "w3": (9, h), "b3": (9,)}
        if self.variant == "static":
            expected["w2"] = (h, h)
        elif self.variant == "dynamic":
            expected["wg"] = (h * h, d)
            expected["bg"] = (h * h,)
        else:
            raise ValueError(f"variant must be one of {VARIANTS}")
        for name, shape in expected.items():
            arr = getattr(self, name)
            if arr is None or arr.shape != shape:
                raise ValueError(f"parameter {name} must have shape {shape}")

    def trainable(self) -> list[str]:
        names = ["w1", "b1", "b2", "w3", "b3"]
        names.insert(2, "w2" if self.variant == "static" else "wg")
        if self.variant == "dynamic":
            names.insert(3, "bg")
        return names


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    momentum: float = 0.9
    batch_size: int = 8
    epochs: int = 10
    seed: int = 0
    l1_weight: float = 1.0

    def __post_init__(self):
        if min(self.learning_rate, self.momentum, self.batch_size, self.epochs) <= 0:
            raise ValueError("learning rate, momentum, batch size and epochs must be positive")


def init_params(variant: str, hidden: int = 32, embed_dim: int = 128, seed: int = 0,
                output_scale: float = 0.3) -> AdvLNetParams:
    """Seeded initialization.

    The output layer starts small but nonzero: the similarity term of the
    training loss has an exact critical point at the identity relight
    (cosine similarity is maximal there), so a zero residual would be an
    SGD fixed point. Pass ``output_scale=0`` for the exact-identity
    parameterization.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    rng = np.random.default_rng(seed)
    params = AdvLNetParams(
        variant=variant,
        hidden=hidden,
        embed_dim=embed_dim,
        w1=rng.normal(0.0, 1.0, size=(hidden, 9)),
        b1=rng.normal(0.0, 0.5, size=hidden),
        b2=rng.normal(0.0, 0.5, size=hidden),
        w3=rng.normal(0.0, output_scale / np.sqrt(hidden), size=(9, hidden)),
        b3=np.zeros(9),
        w2=rng.normal(0.0, 1.0 / np.sqrt(hidden), size=(hidden, hidden))
        if variant == "static" else None,
        wg=rng.normal(0.0, 1.0 / np.sqrt(embed_dim), size=(hidden * hidden, embed_dim))
        if variant == "dynamic" else None,
        bg=rng.normal(0.0, 1.0 / np.sqrt(hidden), size=hidden * hidden)
        if variant == "dynamic" else None,
    )
    return params


def forward_net(params: AdvLNetParams, light: np.ndarray, embedding: np.ndarray):
    """Residual forward pass; returns (delta, cache for backprop)."""
    a1 = params.w1 @ light + params.b1
    h1 = np.maximum(a1, 0.0)
    if params.variant == "static":
        w2 = params.w2
    else:
        w2 = (params.wg @ embedding + params.bg).reshape(params.hidden, params.hidden)
    a2 = w2 @ h1 + params.b2
    h2 = np.maximum(a2, 0.0)
    delta = params.w3 @ h2 + params.b3
    cache = (light, embedding, a1, h1, w2, a2, h2)
    return delta, cache


def backward_net(params: AdvLNetParams, cache, d_delta: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of <delta, d_delta> w.r.t. every trainable parameter."""
    light, embedding, a1, h1, w2, a2, h2 = cache
    grads: dict[str, np.ndarray] = {}
    grads["w3"] = np.outer(d_delta, h2)
    grads["b3"] = d_delta.copy()
    dh2 = params.w3.T @ d_delta
    da2 = dh2 * (a2 > 0.0)
    dw2 = np.outer(da2, h1)
    grads["b2"] = da2
    dh1 = w2.T @ da2
    da1 = dh1 * (a1 > 0.0)
    grads["w1"] = np.outer(da1, light)
    grads["b1"] = da1
    if params.variant == "static":
        grads["w2"] = dw2
    else:
        grads["wg"] = np.outer(dw2.reshape(-1), embedding)
        grads["bg"] = dw2.reshape(-1)
    return grads


def predict(plan: RelightPlan, params: AdvLNetParams, embedder):
    """One-step attack: predict a residual to the plan's old light, relight.

    Returns (relit image, adversarial light).
    """
    light = plan.old_light.coeffs
    delta, _ = forward_net(params, light, embedder.embed(plan.image))
    adversarial = SHLight(light + delta)
    return plan.relight(adversarial).image, adversarial


def sample_gradient(params: AdvLNetParams, plan: RelightPlan, embedder,
                    embedding: np.ndarray, l1_weight: float = 1.0):
    """Loss and parameter gradients for one sample, relit by its ``plan``."""
    light = plan.old_light.coeffs
    delta, cache = forward_net(params, light, embedding)
    if not np.all(np.isfinite(delta)):
        raise FloatingPointError("network produced a non-finite light residual")
    result, _, value = relight_loss(plan, light + delta, embedder, embedding, l1_weight)
    d_delta = light_gradient(plan, result, embedder, embedding, l1_weight)
    return value, backward_net(params, cache, d_delta)


def train(corpus, embedder, config: TrainConfig, variant: str = "static",
          hidden: int = 32, params: AdvLNetParams | None = None):
    """SGD with momentum over the corpus; returns (params, epoch loss history).

    ``corpus`` is a sequence of (FaceImage, NormalMap) pairs. The original
    light and embedding of every sample are fixed inputs, computed once; each
    sample's plan is rebuilt for its step, sharing a basis with every sample on its map.
    """
    if len(corpus) == 0:
        raise ValueError("training corpus is empty")
    if params is None:
        params = init_params(variant, hidden=hidden,
                             embed_dim=embedder.descriptor.dimension, seed=config.seed)
    uses = Counter(id(normals) for _, normals in corpus)
    maps = {id(normals): normals for _, normals in corpus if uses[id(normals)] > 1}
    shared = {key: NormalBasis(normals) for key, normals in maps.items()}
    prepared = []
    for image, normals in corpus:
        normals = shared.get(id(normals), normals)
        prepared.append((image, normals, estimate_light(image, normals), embedder.embed(image)))
    rng = np.random.default_rng(config.seed)
    velocity = {name: np.zeros_like(getattr(params, name)) for name in params.trainable()}
    history: list[float] = []

    for epoch in range(config.epochs):
        order = rng.permutation(len(prepared))
        epoch_losses: list[float] = []
        for batch_index, start in enumerate(range(0, len(order), config.batch_size)):
            batch = order[start:start + config.batch_size]
            accum = {name: np.zeros_like(getattr(params, name)) for name in velocity}
            for i in batch:
                image, normals, light, embedding = prepared[i]
                try:
                    value, grads = sample_gradient(params, RelightPlan(image, normals, light),
                                                   embedder, embedding, config.l1_weight)
                except FloatingPointError as exc:
                    raise DivergenceError(epoch=epoch, batch=batch_index) from exc
                if not np.isfinite(value):
                    raise DivergenceError(epoch=epoch, batch=batch_index)
                epoch_losses.append(value)
                for name, grad in grads.items():
                    accum[name] += grad
            for name in accum:
                velocity[name] = config.momentum * velocity[name] + accum[name] / len(batch)
                updated = getattr(params, name) - config.learning_rate * velocity[name]
                setattr(params, name, updated)
        history.append(float(np.mean(epoch_losses)))
    return params, history


def save_params(path, params: AdvLNetParams) -> None:
    arrays = {name: getattr(params, name) for name in params.trainable()}
    np.savez(
        path,
        format_version=np.array(PARAMS_FORMAT_VERSION),
        variant=np.array(params.variant),
        hidden=np.array(params.hidden),
        embed_dim=np.array(params.embed_dim),
        **arrays,
    )


def load_params(path) -> AdvLNetParams:
    """Read a :func:`save_params` file; a malformed one raises ValueError naming ``path``."""
    try:
        # np.load leaves its own handle open when a zip header is malformed.
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            version = int(data["format_version"])
            if version != PARAMS_FORMAT_VERSION:
                raise ValueError(f"unsupported parameter file version {version}")
            variant = str(data["variant"])
            fields = dict(
                variant=variant,
                hidden=int(data["hidden"]),
                embed_dim=int(data["embed_dim"]),
                w1=data["w1"],
                b1=data["b1"],
                b2=data["b2"],
                w3=data["w3"],
                b3=data["b3"],
            )
            if variant == "static":
                fields["w2"] = data["w2"]
            else:
                fields["wg"] = data["wg"]
                fields["bg"] = data["bg"]
        return AdvLNetParams(**fields)
    except (EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{path}: malformed parameter file: {exc}") from exc


def write_loss_history_csv(path, history) -> None:
    write_csv(path, ["epoch", "mean_loss"], enumerate(history))
