"""Adversarial relighting under a second-order SH Lambertian model.

Core pieces: spherical-harmonics shading (`shading`), albedo-quotient
relighting and light estimation (`relight`), pluggable face embedders
(`embedder`), the iterative and one-step lighting attacks (`attack_aq`,
`attack_ap`), a simulated physical light-recurrence loop (`phy_sim`), and
the ROC/AUC evaluation harness plus CLI (`harness`, `cli`).
"""

from .shading import (
    SHLight,
    NormalMap,
    LightingMap,
    sh_basis,
    shade,
    shade_clamped,
    sphere_normals,
    lighting_map,
    load_light,
    save_light,
    load_normal_map,
    save_normal_map,
)
from .relight import (
    FaceImage,
    RelightResult,
    RelightPlan,
    quotient_relight,
    estimate_light,
    random_relight,
    load_face_image,
    save_face_image,
)
from .embedder import (
    BuiltinEmbedder,
    ExternalEmbedder,
    EmbedderPool,
    EmbedderDescriptor,
    cosine_similarity,
)
from .attack_aq import AttackConfig, AttackTrace, attack, loss_gradient_fd
from .attack_ap import AdvLNetParams, TrainConfig, init_params, predict, train
from .phy_sim import PLSPose, SceneModel, NavFeedback, pls_to_sh, map_feedback, recurrence_loop
from .corpus import synthetic_corpus
from .harness import (
    DatasetManifest,
    build_split,
    run_attack_suite,
    similarity_matrix,
    ground_truth,
    roc_auc,
    sensitivity_analysis,
    evaluate,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "SHLight", "NormalMap", "LightingMap", "FaceImage", "RelightResult", "RelightPlan",
    "sh_basis", "shade", "shade_clamped", "sphere_normals", "lighting_map",
    "quotient_relight", "estimate_light", "random_relight",
    "BuiltinEmbedder", "ExternalEmbedder", "EmbedderPool", "EmbedderDescriptor",
    "cosine_similarity",
    "AttackConfig", "AttackTrace", "attack", "loss_gradient_fd",
    "AdvLNetParams", "TrainConfig", "init_params", "predict", "train",
    "PLSPose", "SceneModel", "NavFeedback", "pls_to_sh", "map_feedback",
    "recurrence_loop",
    "synthetic_corpus",
    "DatasetManifest", "build_split", "run_attack_suite", "similarity_matrix",
    "ground_truth", "roc_auc", "sensitivity_analysis", "evaluate",
    "load_light", "save_light", "load_normal_map", "save_normal_map",
    "load_face_image", "save_face_image",
    "errors",
]
