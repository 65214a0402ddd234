"""AP training with dense per-sample temporaries, the oracle the training fast path is held to.

Here the generator's gradient is the dense ``np.outer`` of its factors, momentum and the
parameter step build new arrays, and every relit image reads its source's colors at once.
"""

import numpy as np

from advrelight.attack_ap import init_params, sample_gradient
from advrelight.relight import RelightPlan, estimate_light


def dense_gradients(params, grads, embedding) -> dict:
    """``grads`` with the dynamic generator's factored gradient filled in as ``"wg"``."""
    if params.variant == "dynamic":
        grads = {**grads, "wg": np.outer(grads["bg"], embedding)}
    return grads


class EagerPlan(RelightPlan):
    """A plan whose relit images hold their source's chroma from the start."""

    def relight(self, new_light):
        result = super().relight(new_light)
        vars(result.image)["chroma"] = self.image.chroma
        return result


def dense_train(corpus, embedder, config, variant="static", hidden=32, params=None):
    """``attack_ap.train`` with dense temporaries; rebinds the arrays of a given ``params``."""
    if params is None:
        params = init_params(variant, hidden=hidden,
                             embed_dim=embedder.descriptor.dimension, seed=config.seed)
    prepared = [(image, normals, estimate_light(image, normals), embedder.embed(image))
                for image, normals in corpus]
    rng = np.random.default_rng(config.seed)
    velocity = {name: np.zeros_like(getattr(params, name)) for name in params.trainable()}
    history = []
    for _ in range(config.epochs):
        order = rng.permutation(len(prepared))
        epoch_losses = []
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            accum = {name: np.zeros_like(getattr(params, name)) for name in velocity}
            for i in batch:
                image, normals, light, embedding = prepared[i]
                value, grads = sample_gradient(params, EagerPlan(image, normals, light),
                                               embedder, embedding, config.l1_weight)
                epoch_losses.append(value)
                for name, grad in dense_gradients(params, grads, embedding).items():
                    accum[name] += grad
            for name in accum:
                velocity[name] = config.momentum * velocity[name] + accum[name] / len(batch)
                setattr(params, name, getattr(params, name) - config.learning_rate * velocity[name])
        history.append(float(np.mean(epoch_losses)))
    return params, history
