"""Iterative adversarial relighting over the 9 light coefficients.

The attack minimizes the cosine similarity between the embeddings of the
relit and the original image by sign-gradient descent on the new light,
projected after every step onto the L-infinity ball of radius epsilon
around the original light. The step size is epsilon / iterations.

Gradients come in two flavors: an analytic chain (the embedder's input
gradient pulled back through the relighting plan's light VJP, available
for differentiable embedders) and a 9-dimensional central finite
difference on the loss, which works for any embedder at 18 embeddings per
step. One :class:`RelightPlan` serves every relight and gradient of an
attack.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .embedder import cosine_similarity
from .relight import FaceImage, RelightPlan, RelightResult, estimate_light
from .shading import NormalMap, SHLight, _light_coeffs

GRADIENT_MODES = ("analytic", "fd")

_BALL_SLACK = 1e-9


@dataclass(frozen=True)
class AttackConfig:
    """Sign-gradient attack parameters; the step is always epsilon / iterations."""

    epsilon: float
    iterations: int = 10
    gradient_mode: str = "analytic"
    fd_step: float = 1e-3
    step: float = field(init=False)

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.gradient_mode not in GRADIENT_MODES:
            raise ValueError(f"gradient_mode must be one of {GRADIENT_MODES}")
        if self.fd_step <= 0:
            raise ValueError("fd_step must be positive")
        object.__setattr__(self, "step", self.epsilon / self.iterations)


@dataclass(frozen=True)
class AttackTrace:
    """Per-iteration record of an attack run, initial state included."""

    lights: np.ndarray  # (iterations + 1, 9)
    similarities: np.ndarray  # (iterations + 1,)
    clamp_fractions: np.ndarray  # (iterations + 1,)
    adversarial_light: SHLight
    relit: FaceImage
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


def loss_gradient_fd(plan: RelightPlan, current_light, embedder, reference,
                     h: float = 1e-3, l1_weight: float = 0.0) -> np.ndarray:
    """Central-difference gradient of the relighting loss over the 9 coefficients.

    The loss is sim(embed(relit), reference), plus ``l1_weight`` times the
    mean absolute luminance change when that weight is nonzero. Every probe
    goes through the full relighting path (denominator floor and output
    clamp included), so this matches what any embedder actually sees.
    Costs 18 embeddings.
    """
    if h <= 0:
        raise ValueError("fd step must be positive")
    current = _light_coeffs(current_light)

    def loss_at(light: np.ndarray) -> float:
        relit = plan.relight(light).image
        value = cosine_similarity(embedder.embed(relit), reference)
        if l1_weight:
            value += l1_weight * float(np.abs(relit.luminance - plan.image.luminance).mean())
        return value

    grad = np.zeros(9)
    for j in range(9):
        probe = current.copy()
        probe[j] = current[j] + h
        plus = loss_at(probe)
        probe[j] = current[j] - h
        minus = loss_at(probe)
        grad[j] = (plus - minus) / (2.0 * h)
    return grad


def similarity_gradient(plan: RelightPlan, result: RelightResult, embedder,
                        reference) -> np.ndarray:
    """Analytic d sim / d L' at ``result``, a relight by ``plan``.

    Chains the embedder's input gradient through the plan's light VJP.
    """
    grad_lum = embedder.input_gradient(result.image, reference)
    return plan.light_vjp(grad_lum, result.new_light)


def attack(image: FaceImage, normals: NormalMap, light, embedder,
           config: AttackConfig) -> AttackTrace:
    """Run the sign-gradient attack and return the full trace.

    ``light`` may be None, in which case the original light is estimated
    from the image and normals first.
    """
    origin = _light_coeffs(light) if light is not None else estimate_light(image, normals).coeffs
    plan = RelightPlan(image, normals, origin)
    reference = embedder.embed(image)
    lo = origin - config.epsilon
    hi = origin + config.epsilon

    def evaluate(coeffs: np.ndarray):
        result = plan.relight(coeffs)
        sim = cosine_similarity(embedder.embed(result.image), reference)
        return result, sim

    current = origin.copy()
    result, sim = evaluate(current)
    lights = [current.copy()]
    sims = [sim]
    clamps = [result.clamp_fraction]

    for _ in range(config.iterations):
        if config.gradient_mode == "analytic":
            grad = similarity_gradient(plan, result, embedder, reference)
        else:
            grad = loss_gradient_fd(plan, current, embedder, reference, config.fd_step)
        current = np.clip(current - config.step * np.sign(grad), lo, hi)
        result, sim = evaluate(current)
        lights.append(current.copy())
        sims.append(sim)
        clamps.append(result.clamp_fraction)

    return AttackTrace(
        lights=np.array(lights),
        similarities=np.array(sims),
        clamp_fractions=np.array(clamps),
        adversarial_light=SHLight(current),
        relit=result.image,
        origin_light=SHLight(origin),
        epsilon=config.epsilon,
    )


def write_trace_csv(path, trace: AttackTrace) -> None:
    """Serialize a trace as (iteration, 9 coefficients, similarity, clamp_fraction)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["iteration"] + [f"L{j}" for j in range(9)] + ["similarity", "clamp_fraction"]
        )
        for i in range(trace.lights.shape[0]):
            writer.writerow(
                [i]
                + [f"{c:.6g}" for c in trace.lights[i]]
                + [f"{trace.similarities[i]:.6g}", f"{trace.clamp_fractions[i]:.6g}"]
            )
