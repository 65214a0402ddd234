"""The predictor's parameter set spelled out per variant, the oracle for ``attack_ap``'s table.

These are the explicit initializer, trainable list, writer and reader that ``attack_ap`` had
before its parameter names and shapes moved into one table.
"""

import numpy as np

from advrelight.attack_ap import PARAMS_FORMAT_VERSION, AdvLNetParams


def trainable(variant):
    names = ["w1", "b1", "b2", "w3", "b3"]
    names.insert(2, "w2" if variant == "static" else "wg")
    if variant == "dynamic":
        names.insert(3, "bg")
    return names


def init_params(variant, hidden=32, embed_dim=128, seed=0):
    rng = np.random.default_rng(seed)
    return AdvLNetParams(
        variant=variant,
        hidden=hidden,
        embed_dim=embed_dim,
        w1=rng.normal(0.0, 1.0, size=(hidden, 9)),
        b1=rng.normal(0.0, 0.5, size=hidden),
        b2=rng.normal(0.0, 0.5, size=hidden),
        w3=rng.normal(0.0, 0.3 / np.sqrt(hidden), size=(9, hidden)),
        b3=np.zeros(9),
        w2=rng.normal(0.0, 1.0 / np.sqrt(hidden), size=(hidden, hidden))
        if variant == "static" else None,
        wg=rng.normal(0.0, 1.0 / np.sqrt(embed_dim), size=(hidden * hidden, embed_dim))
        if variant == "dynamic" else None,
        bg=rng.normal(0.0, 1.0 / np.sqrt(hidden), size=hidden * hidden)
        if variant == "dynamic" else None,
    )


def save_params(path, params):
    np.savez(path, format_version=np.array(PARAMS_FORMAT_VERSION),
             variant=np.array(params.variant), hidden=np.array(params.hidden),
             embed_dim=np.array(params.embed_dim),
             **{name: getattr(params, name) for name in trainable(params.variant)})


def load_params(path):
    with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
        variant = str(data["variant"])
        fields = dict(variant=variant, hidden=int(data["hidden"]),
                      embed_dim=int(data["embed_dim"]), w1=data["w1"], b1=data["b1"],
                      b2=data["b2"], w3=data["w3"], b3=data["b3"])
        if variant == "static":
            fields["w2"] = data["w2"]
        else:
            fields["wg"] = data["wg"]
            fields["bg"] = data["bg"]
    return AdvLNetParams(**fields)
