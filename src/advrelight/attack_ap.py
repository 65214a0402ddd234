"""One-step adversarial light prediction.

A small fully-connected network maps the current light (plus, in the
dynamic variant, the face embedding) to a residual added to the light; the
relit image follows from a single quotient-relighting pass, no iteration.
Training minimizes

    sim(embed(relit), embed(original)) + mean |relit_lum - original_lum|

by stochastic gradient descent with momentum. Backpropagation is spelled
out by hand: the network is three dense layers with two ReLUs, below the
light gradient of :func:`attack_aq.light_gradient`. The L1 term's gradient
goes through the plan's light VJP for every embedder.

The dynamic variant replaces the middle layer's weight matrix with one
generated from the face embedding by an extra dense layer, letting the
predicted light adapt to the face. Freezing that generator's output to the
static middle weights reproduces the static computation exactly.
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass

import numpy as np

from .attack_aq import light_gradient, relight_loss
from .relight import RelightPlan, estimate_light
from .shading import write_csv
from .errors import DivergenceError, blamed_on

VARIANTS = ("static", "dynamic")

PARAMS_FORMAT_VERSION = 1

#: Largest parameter array a predictor may hold, in floats. The dynamic generator
#: (hidden^2 x embedding dimension) is the largest; training holds it, its velocity and
#: its batch sum, each 64 MB at the cap, which hidden width 256 on 128-d embeddings reaches.
MAX_GENERATOR_FLOATS = 2 ** 23


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
        for name, shape in _shapes(self.variant, self.hidden, self.embed_dim).items():
            arr = getattr(self, name)
            if arr is None or arr.shape != shape or not np.isfinite(arr).all():
                raise ValueError(f"parameter {name} must have shape {shape} and finite values")

    def trainable(self) -> list[str]:
        return list(_shapes(self.variant, self.hidden, self.embed_dim))


def _shapes(variant: str, hidden: int, embed_dim: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every trainable parameter of ``variant``, in ``trainable()`` order;
    ValueError unless ``hidden`` >= 1 and every array is within MAX_GENERATOR_FLOATS."""
    h = hidden
    if variant == "static":
        middle = {"w2": (h, h)}
    elif variant == "dynamic":
        middle = {"wg": (h * h, embed_dim), "bg": (h * h,)}
    else:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if hidden < 1:
        raise ValueError(f"hidden width must be at least 1, got {hidden}")
    shapes = {"w1": (h, 9), "b1": (h,), **middle, "b2": (h,), "w3": (9, h), "b3": (9,)}
    for name, shape in shapes.items():
        if math.prod(shape) > MAX_GENERATOR_FLOATS:
            raise ValueError(f"parameter {name} of shape {shape} exceeds "
                             f"{MAX_GENERATOR_FLOATS} floats")
    return shapes


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    momentum: float = 0.9
    batch_size: int = 8
    epochs: int = 10
    seed: int = 0
    l1_weight: float = 1.0

    def __post_init__(self):
        values = (self.learning_rate, self.momentum, self.batch_size, self.epochs)
        if not all(0 < v < np.inf for v in values):  # NaN fails both comparisons
            raise ValueError("learning rate, momentum, batch size and epochs must be finite "
                             "and positive")


def init_params(variant: str, hidden: int = 32, embed_dim: int = 128,
                seed: int = 0) -> AdvLNetParams:
    """Seeded initialization.

    The output layer starts small but nonzero (gain 0.3): the similarity
    term of the training loss has an exact critical point at the identity
    relight (cosine similarity is maximal there), so a zero residual would
    be an SGD fixed point. Zeroing ``w3`` gives the exact identity.
    """
    shapes = _shapes(variant, hidden, embed_dim)
    # Name -> (gain, fan-in) in drawing order, each drawn from N(0, gain^2 / fan-in); b3 is 0.
    scales = {"w1": (1.0, 1), "b1": (0.5, 1), "b2": (0.5, 1), "w3": (0.3, hidden),
              "w2": (1.0, hidden), "wg": (1.0, embed_dim), "bg": (1.0, hidden)}
    rng = np.random.default_rng(seed)
    arrays = {name: rng.normal(0.0, gain / np.sqrt(fan_in), size=shapes[name])
              for name, (gain, fan_in) in scales.items() if name in shapes}
    return AdvLNetParams(variant, hidden, embed_dim, b3=np.zeros(9), **arrays)


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
    """Gradients of <delta, d_delta> w.r.t. every trainable parameter.

    The dynamic generator's gradient is left factored: it is
    ``np.outer(grads["bg"], embedding)``, and ``grads`` holds no ``"wg"``.
    """
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
        grads["bg"] = dw2.reshape(-1)
    return grads


def _check_embedding_dim(params: AdvLNetParams, dim: int) -> None:
    """A dynamic predictor's generator reads embeddings of exactly ``params.embed_dim``."""
    if params.variant == "dynamic" and dim != params.embed_dim:
        raise ValueError(f"dynamic predictor expects {params.embed_dim}-d embeddings, "
                         f"the embedder gives {dim}-d")


def predict(plan: RelightPlan, params: AdvLNetParams, embedder):
    """One-step attack: predict a residual to the plan's old light, relight.

    Returns (relit image, adversarial light).
    """
    light = plan.old_light
    embedding = embedder.embed(plan.image)
    _check_embedding_dim(params, embedding.size)
    with np.errstate(over="ignore", invalid="ignore"):  # as_light refuses what overflows
        delta, _ = forward_net(params, light, embedding)
    result = plan.relight(light + delta)
    return result.image, result.new_coeffs


def sample_gradient(params: AdvLNetParams, plan: RelightPlan, embedder,
                    embedding: np.ndarray, l1_weight: float = 1.0):
    """Loss and parameter gradients for one sample, relit by its ``plan``; the loss is the
    similarity plus ``l1_weight`` times the mean absolute luminance change."""
    light = plan.old_light
    with np.errstate(over="ignore", invalid="ignore"):  # the check below refuses what overflows
        delta, cache = forward_net(params, light, embedding)
    if not np.all(np.isfinite(delta)):
        raise FloatingPointError("network produced a non-finite light residual")
    result, _, value = relight_loss(plan, light + delta, embedder, embedding)
    cotangent = None
    if l1_weight:
        diff = result.image.luminance - plan.image.luminance
        value += l1_weight * float(np.abs(diff).mean())
        cotangent = (l1_weight / diff.size) * np.sign(diff)
    d_delta = light_gradient(plan, result, embedder, embedding, cotangent)
    return value, backward_net(params, cache, d_delta)


def add_generator_gradient(accum: np.ndarray, bg_grad: np.ndarray, embedding: np.ndarray) -> None:
    """``accum += np.outer(bg_grad, embedding)``, added over the nonzero rows of ``bg_grad`` only.

    Bit for bit the dense add while ``embedding`` is finite and ``accum`` holds no -0.0, as a
    sum that starts at +0.0 never does: a skipped row adds products of +-0.0, and x + +-0.0
    is x for every other x. NaN entries are nonzero, so their rows are added.
    """
    rows = np.flatnonzero(bg_grad)
    accum[rows] += np.outer(bg_grad[rows], embedding)


def train(corpus, embedder, config: TrainConfig, variant: str = "static",
          hidden: int = 32, params: AdvLNetParams | None = None):
    """SGD with momentum over the corpus; returns (params, epoch loss history).

    ``corpus`` is a sequence of (FaceImage, NormalMap) pairs. The original
    light and embedding of every sample are fixed inputs, computed once; each
    sample's plan is rebuilt for its step on the basis its normal map holds, so
    samples that share a map share one basis. A given ``params`` object is
    trained on copies of its arrays, updated in place; the arrays it held are
    never written.
    """
    if len(corpus) == 0:
        raise ValueError("training corpus is empty")
    if params is None:
        params = init_params(variant, hidden=hidden,
                             embed_dim=embedder.descriptor.dimension, seed=config.seed)
    _check_embedding_dim(params, embedder.descriptor.dimension)
    for name in params.trainable():
        setattr(params, name, getattr(params, name).copy())
    prepared = [(image, normals, estimate_light(image, normals), embedder.embed(image))
                for image, normals in corpus]
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
                if params.variant == "dynamic":
                    add_generator_gradient(accum["wg"], grads["bg"], embedding)
            for name, v in velocity.items():
                v *= config.momentum
                v += accum[name] / len(batch)
                p = getattr(params, name)
                p -= config.learning_rate * v
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
    """Read a :func:`save_params` file; a malformed one raises ValueError naming ``path``.

    A member that ``zipfile`` cannot read (an unknown compression method, strong encryption,
    an offset before the file's start) is malformed too; a file that cannot be opened keeps
    its own OSError."""
    # np.load leaves its own handle open when a zip header is malformed.
    malformed = blamed_on(f"{path}: malformed parameter file", EOFError, KeyError,
                          NotImplementedError, OSError, TypeError, ValueError, zipfile.BadZipFile)
    with open(path, "rb") as fh, malformed:
        with np.load(fh, allow_pickle=False) as data:
            version = int(data[_member(data, "format_version")])
            if version != PARAMS_FORMAT_VERSION:
                raise ValueError(f"unsupported parameter file version {version}")
            variant, hidden, embed_dim = (str(data[_member(data, "variant")]),
                                          int(data[_member(data, "hidden")]),
                                          int(data[_member(data, "embed_dim")]))
            shapes = _shapes(variant, hidden, embed_dim)
            for name, shape in shapes.items():  # before any array is read
                _check_stored_shape(data, name, shape)
            arrays = {name: data[name] for name in shapes}
        return AdvLNetParams(variant, hidden, embed_dim, **arrays)


def _member(data, name: str) -> str:
    """The archive member that holds ``data``'s array ``name``; KeyError(name) if it has none
    (numpy's own KeyError reads ``'<name> is not a file in the archive'``)."""
    if name not in data.files:
        raise KeyError(name)
    return f"{name}.npy"


def _check_stored_shape(data, name: str, shape: tuple[int, ...]) -> None:
    """KeyError or ValueError unless ``data``'s member ``name`` has a float64 ``shape`` header."""
    with data.zip.open(_member(data, name)) as member:
        fmt = np.lib.format
        v1 = fmt.read_magic(member) == (1, 0)
        stored, _, dtype = (fmt.read_array_header_1_0 if v1 else fmt.read_array_header_2_0)(member)
    if stored != shape or dtype != np.float64:
        raise ValueError(f"parameter {name} is stored as {dtype} {stored}, expected float64 {shape}")


def write_loss_history_csv(path, history) -> None:
    write_csv(path, ["epoch", "mean_loss"], enumerate(history))
