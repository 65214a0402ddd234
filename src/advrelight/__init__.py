"""Adversarial relighting under a second-order SH Lambertian model.

Core pieces: spherical-harmonics shading (`shading`), albedo-quotient
relighting and light estimation (`relight`), pluggable face embedders
(`embedder`), the iterative and one-step lighting attacks (`attack_aq`,
`attack_ap`), a simulated physical light-recurrence loop (`phy_sim`), and
the ROC/AUC evaluation harness plus CLI (`harness`, `cli`). Import names
from their modules, e.g. ``from advrelight.attack_aq import attack``.
"""

__version__ = "0.1.0"
