"""Iterative adversarial relighting over the 9 light coefficients.

The attack minimizes the cosine similarity between the embeddings of the
relit and the original image by sign-gradient descent on the new light,
projected after every step onto the L-infinity ball of radius epsilon
around the original light. The step size is epsilon / iterations.

:func:`relight_loss` and :func:`light_gradient` are the relighting loss
and its light gradient for both attacks (AP training adds the L1 term).
The embedder's descriptor picks the gradient: a differentiable embedder's
input gradient is pulled back through the relighting plan's light VJP;
any other embedder gets a 9-dimensional central finite difference on the
loss, at 18 embeddings per step. Both attacks take the target's
:class:`RelightPlan`, which serves every relight and gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .embedder import cosine_similarity
from .relight import FaceImage, RelightPlan, RelightResult
from .shading import SHLight, _light_coeffs, write_csv

_BALL_SLACK = 1e-9


@dataclass(frozen=True)
class AttackConfig:
    """Sign-gradient attack parameters; the step is always epsilon / iterations."""

    epsilon: float
    iterations: int = 10
    step: float = field(init=False)

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        object.__setattr__(self, "step", self.epsilon / self.iterations)


@dataclass(frozen=True)
class AttackTrace:
    """Per-iteration record of an attack run, initial state included."""

    lights: np.ndarray  # (iterations + 1, 9)
    similarities: np.ndarray  # (iterations + 1,)
    clamp_fractions: np.ndarray  # (iterations + 1,)
    adversarial_light: SHLight
    relit: FaceImage
    embedding: np.ndarray  # the attack embedder's embedding of ``relit``
    origin_light: SHLight
    epsilon: float

    def __post_init__(self):
        if self.lights.shape[0] != self.similarities.shape[0]:
            raise ValueError("trace arrays have inconsistent lengths")
        drift = np.abs(self.lights - self.origin_light.coeffs).max()
        if drift > self.epsilon + _BALL_SLACK:
            raise ValueError(
                f"iterate left the epsilon ball: drift {drift:.3g} > {self.epsilon:.3g}"
            )

    @property
    def initial_similarity(self) -> float:
        return float(self.similarities[0])

    @property
    def final_similarity(self) -> float:
        return float(self.similarities[-1])


def relight_loss(plan: RelightPlan, light, embedder, reference,
                 l1_weight: float = 0.0) -> tuple[RelightResult, np.ndarray, float]:
    """Relight by ``plan`` under ``light`` and score the result: (result, embedding, loss).

    The loss is sim(embed(relit), reference), plus ``l1_weight`` times the
    mean absolute luminance change when that weight is nonzero.
    """
    result = plan.relight(light)
    embedding = embedder.embed(result.image)
    return result, embedding, _score(plan, result.image, embedding, reference, l1_weight)


def _score(plan: RelightPlan, image: FaceImage, embedding, reference, l1_weight: float) -> float:
    value = cosine_similarity(embedding, reference)
    if l1_weight:
        value += l1_weight * float(np.abs(image.luminance - plan.image.luminance).mean())
    return value


def loss_gradient_fd(plan: RelightPlan, current_light, embedder, reference,
                     h: float = 1e-3, l1_weight: float = 0.0) -> np.ndarray:
    """Central-difference gradient of :func:`relight_loss` over the 9 coefficients.

    Every probe goes through the full relighting path (denominator floor and
    output clamp included), so this matches what any embedder actually sees.
    Costs 18 embeddings, made by one ``embed_many`` call when the embedder
    has one.
    """
    if h <= 0:
        raise ValueError("fd step must be positive")
    current = _light_coeffs(current_light)
    steps = np.kron(np.eye(9), [[h], [-h]])  # rows +h e_j, -h e_j for j = 0..8
    images = [plan.relit_image(current + step) for step in steps]
    embed_many = getattr(embedder, "embed_many", None)
    embeddings = embed_many(images) if embed_many else [embedder.embed(i) for i in images]
    losses = [_score(plan, image, embedding, reference, l1_weight)
              for image, embedding in zip(images, embeddings)]
    plus, minus = np.array(losses).reshape(9, 2).T
    return (plus - minus) / (2.0 * h)


def light_gradient(plan: RelightPlan, result: RelightResult, embedder, reference,
                   l1_weight: float = 0.0) -> np.ndarray:
    """d relight_loss / d L' at ``result``, a relight by ``plan``.

    Chains a differentiable embedder's input gradient (plus the L1 term's
    subgradient) through the plan's light VJP; for any other embedder it is
    :func:`loss_gradient_fd`.
    """
    if not embedder.descriptor.differentiable:
        return loss_gradient_fd(plan, result.new_light, embedder, reference, l1_weight=l1_weight)
    grad_lum = embedder.input_gradient(result.image, reference)
    if l1_weight:
        diff = result.image.luminance - plan.image.luminance
        grad_lum = grad_lum + (l1_weight / diff.size) * np.sign(diff)
    return plan.light_vjp(grad_lum, result)


def attack(plan: RelightPlan, embedder, config: AttackConfig) -> AttackTrace:
    """Run the sign-gradient attack from the plan's old light; return the full trace."""
    origin = plan.old_light.coeffs
    reference = embedder.embed(plan.image)
    lo = origin - config.epsilon
    hi = origin + config.epsilon

    current = origin.copy()
    result, embedding, sim = relight_loss(plan, current, embedder, reference)
    lights = [current.copy()]
    sims = [sim]
    clamps = [result.clamp_fraction]

    for _ in range(config.iterations):
        grad = light_gradient(plan, result, embedder, reference)
        current = np.clip(current - config.step * np.sign(grad), lo, hi)
        result, embedding, sim = relight_loss(plan, current, embedder, reference)
        lights.append(current.copy())
        sims.append(sim)
        clamps.append(result.clamp_fraction)

    return AttackTrace(
        lights=np.array(lights),
        similarities=np.array(sims),
        clamp_fractions=np.array(clamps),
        adversarial_light=SHLight(current),
        relit=result.image,
        embedding=embedding,
        origin_light=plan.old_light,
        epsilon=config.epsilon,
    )


def write_trace_csv(path, trace: AttackTrace) -> None:
    """Serialize a trace as (iteration, 9 coefficients, similarity, clamp_fraction)."""
    write_csv(path, ["iteration"] + [f"L{j}" for j in range(9)] + ["similarity", "clamp_fraction"],
              ([i, *light, sim, clamp] for i, (light, sim, clamp) in
               enumerate(zip(trace.lights, trace.similarities, trace.clamp_fractions))))
