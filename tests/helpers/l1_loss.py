"""The relighting loss with AP's L1 term folded in, and its light gradient, as test oracles.

Here one score, similarity plus ``l1_weight`` times the mean absolute luminance change, is
what the loss returns and what the finite difference probes; the analytic gradient adds the
L1 subgradient to the embedder's input gradient before the one light VJP.
"""

import numpy as np

from advrelight.attack_ap import backward_net, forward_net
from advrelight.embedder import cosine_similarity
from advrelight.shading import as_light


def score(plan, image, embedding, reference, l1_weight) -> float:
    value = cosine_similarity(embedding, reference)
    if l1_weight:
        value += l1_weight * float(np.abs(image.luminance - plan.image.luminance).mean())
    return value


def relight_loss(plan, light, embedder, reference, l1_weight=0.0):
    """(result, embedding, score) of the relight of ``plan`` under ``light``."""
    result = plan.relight(light)
    embedding = embedder.embed(result.image)
    return result, embedding, score(plan, result.image, embedding, reference, l1_weight)


def loss_gradient_fd(plan, current_light, embedder, reference, h=1e-3, l1_weight=0.0):
    """Central differences of :func:`score` over the 9 coefficients, 18 probes."""
    current = as_light(current_light)
    steps = np.kron(np.eye(9), [[h], [-h]])
    images = [plan.relight(current + step).image for step in steps]
    embed_many = getattr(embedder, "embed_many", None)
    embeddings = embed_many(images) if embed_many else [embedder.embed(i) for i in images]
    losses = [score(plan, image, embedding, reference, l1_weight)
              for image, embedding in zip(images, embeddings)]
    plus, minus = np.array(losses).reshape(9, 2).T
    return (plus - minus) / (2.0 * h)


def light_gradient(plan, result, embedder, reference, l1_weight=0.0):
    """d score / d L' at ``result``: :func:`loss_gradient_fd` for a black box."""
    if not embedder.descriptor.differentiable:
        return loss_gradient_fd(plan, result.new_coeffs, embedder, reference, l1_weight=l1_weight)
    grad_lum = embedder.input_gradient(result.image, reference)
    if l1_weight:
        diff = result.image.luminance - plan.image.luminance
        grad_lum = grad_lum + (l1_weight / diff.size) * np.sign(diff)
    return plan.light_vjp(grad_lum, result)


def sample_gradient(params, plan, embedder, embedding, l1_weight=1.0):
    """``attack_ap.sample_gradient`` on the folded score and its gradient."""
    light = plan.old_light
    delta, cache = forward_net(params, light, embedding)
    result, _, value = relight_loss(plan, light + delta, embedder, embedding, l1_weight)
    d_delta = light_gradient(plan, result, embedder, embedding, l1_weight)
    return value, backward_net(params, cache, d_delta)
