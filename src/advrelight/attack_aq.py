"""Iterative adversarial relighting over the 9 light coefficients.

The attack minimizes the cosine similarity between the embeddings of the
relit and the original image by sign-gradient descent on the new light,
projected after every step onto the L-infinity ball of radius epsilon
around the original light. The step size is epsilon / iterations.

:func:`relight_loss` is the similarity alone and :func:`light_gradient` its
light gradient, for both attacks (AP training passes its L1 term's gradient).
The embedder's descriptor picks the gradient: a differentiable embedder's
input gradient is pulled back through the relighting plan's light VJP;
any other embedder gets a 9-dimensional central finite difference on the
similarity, at 18 embeddings per step. Both attacks take the target's
:class:`RelightPlan`, which serves every relight and gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .embedder import cosine_similarity
from .relight import FaceImage, RelightPlan, RelightResult
from .shading import MAX_LIGHT, as_light, write_csv

_BALL_SLACK = 1e-9


@dataclass(frozen=True)
class AttackConfig:
    """Sign-gradient attack parameters; the step is always epsilon / iterations."""

    epsilon: float
    iterations: int = 10
    step: float = field(init=False)

    def __post_init__(self):
        if not 0 <= self.epsilon <= MAX_LIGHT:  # NaN fails both comparisons
            raise ValueError(f"epsilon must be finite and non-negative, at most {MAX_LIGHT:g}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        object.__setattr__(self, "step", self.epsilon / self.iterations)


@dataclass(frozen=True)
class AttackTrace:
    """Per-iteration record of an attack run, initial state included."""

    lights: np.ndarray  # (iterations + 1, 9)
    similarities: np.ndarray  # (iterations + 1,)
    clamp_fractions: np.ndarray  # (iterations + 1,)
    adversarial_light: np.ndarray
    relit: FaceImage
    embedding: np.ndarray  # the attack embedder's embedding of ``relit``
    origin_light: np.ndarray
    epsilon: float

    def __post_init__(self):
        if self.lights.shape[0] != self.similarities.shape[0]:
            raise ValueError("trace arrays have inconsistent lengths")
        drift = np.abs(self.lights - self.origin_light).max()
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


def relight_loss(plan: RelightPlan, light, embedder,
                 reference) -> tuple[RelightResult, np.ndarray, float]:
    """Relight by ``plan`` under ``light``: (result, embedding, sim(embedding, reference))."""
    result = plan.relight(light)
    embedding = embedder.embed(result.image)
    return result, embedding, cosine_similarity(embedding, reference)


def loss_gradient_fd(plan: RelightPlan, current_light, embedder, reference,
                     h: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of :func:`relight_loss`'s similarity over the 9 coefficients.

    Every probe goes through the full relighting path (denominator floor and
    output clamp included), so this matches what any embedder actually sees.
    Costs 18 embeddings, made by one ``embed_many`` call when the embedder
    has one.
    """
    if h <= 0:
        raise ValueError("fd step must be positive")
    current = as_light(current_light)
    steps = np.kron(np.eye(9), [[h], [-h]])  # rows +h e_j, -h e_j for j = 0..8
    images = [plan.relight(current + step).image for step in steps]
    embed_many = getattr(embedder, "embed_many", None)
    embeddings = embed_many(images) if embed_many else [embedder.embed(i) for i in images]
    sims = [cosine_similarity(embedding, reference) for embedding in embeddings]
    plus, minus = np.array(sims).reshape(9, 2).T
    return (plus - minus) / (2.0 * h)


def light_gradient(plan: RelightPlan, result: RelightResult, embedder, reference,
                   lum_cotangent=None) -> np.ndarray:
    """d sim / d L' at ``result``, a relight by ``plan``, plus the pullback of ``lum_cotangent``.

    ``lum_cotangent`` is an optional gradient on the relit luminance. A differentiable
    embedder's input gradient, the cotangent added, goes through the plan's light VJP; for
    any other embedder it is :func:`loss_gradient_fd` plus the cotangent's light VJP.
    """
    if not embedder.descriptor.differentiable:
        grad = loss_gradient_fd(plan, result.new_coeffs, embedder, reference)
        return grad if lum_cotangent is None else grad + plan.light_vjp(lum_cotangent, result)
    grad_lum = embedder.input_gradient(result.image, reference)
    if lum_cotangent is not None:
        grad_lum = grad_lum + lum_cotangent
    return plan.light_vjp(grad_lum, result)


def attack(plan: RelightPlan, embedder, config: AttackConfig) -> AttackTrace:
    """Run the sign-gradient attack from the plan's old light; return the full trace."""
    origin = plan.old_light
    reference = embedder.embed(plan.image)
    lo = np.maximum(origin - config.epsilon, -MAX_LIGHT)  # the ball, within the light bound
    hi = np.minimum(origin + config.epsilon, MAX_LIGHT)

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
        adversarial_light=result.new_coeffs,
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
