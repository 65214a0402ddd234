"""Command-line surface.

Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import attack_ap, attack_aq, harness, phy_sim, svgplot
from .corpus import synthetic_corpus
from .embedder import BuiltinEmbedder, ExternalEmbedder, cosine_similarity
from .errors import AdvRelightError, EmptyMaskError, ScenarioError, blamed_on
from .relight import (RelightPlan, check_pair_size, estimate_light, load_face_image,
                      save_face_image)
from .shading import (MAX_LIGHT, as_light, load_light, load_normal_map, save_light, sphere_normals,
                      write_csv)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def open_embedder(selector: str | None):
    """The selected embedder (none for ``None``) as a context that closes an endpoint."""
    if selector is None:
        return contextlib.nullcontext()
    if selector == "builtin":
        return contextlib.nullcontext(BuiltinEmbedder())
    return ExternalEmbedder(selector.removeprefix("external:"))


def _bounded(convert, valid, what: str):
    """An argparse type: ``convert(text)``, refused as a usage error unless ``valid``."""
    def parse(text: str):
        value = convert(text)
        if not valid(value):
            raise argparse.ArgumentTypeError(f"{what}, got {text}")
        return value
    parse.__name__ = convert.__name__  # names the type in argparse's "invalid int value"
    return parse


#: Largest ``--iters``: every iteration relights, embeds and differentiates each target.
MAX_ITERS = 1000

_EPSILON = _bounded(float, lambda v: 0.0 <= v <= MAX_LIGHT,
                    f"epsilon must be finite and non-negative, at most {MAX_LIGHT:g}")
_ITERS = _bounded(int, lambda v: 1 <= v <= MAX_ITERS, f"iterations must lie in [1, {MAX_ITERS}]")
_SELECTOR = _bounded(str, lambda v: v == "builtin" or v.startswith("external:"),
                     "embedder must be builtin or external:<command>")


@functools.lru_cache(maxsize=1)
def build_parser() -> _Parser:
    """The command-line parser, built once per process (argparse parses statelessly)."""
    parser = _Parser(prog="advrelight", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--embedder", default="builtin", type=_SELECTOR,
                       help="builtin or external:<command>")

    p = sub.add_parser("relight", help="relight an image under a new light")
    p.add_argument("--image", required=True)
    p.add_argument("--normals", required=True)
    p.add_argument("--light", help="original light file; estimated when omitted")
    p.add_argument("--new-light", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("estimate-light", help="least-squares light from image+normals")
    p.add_argument("--image", required=True)
    p.add_argument("--normals", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("attack-aq", help="iterative adversarial relighting")
    common(p)
    p.add_argument("--image", required=True)
    p.add_argument("--normals", required=True)
    p.add_argument("--light")
    p.add_argument("--epsilon", default=0.4, type=_EPSILON)
    p.add_argument("--iters", default=10, type=_ITERS)
    p.add_argument("--out-image")
    p.add_argument("--out-light")
    p.add_argument("--trace")

    p = sub.add_parser("ap-train", help="train the one-step light predictor")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--manifest", help="dataset manifest; synthetic corpus when omitted")
    p.add_argument("--variant", choices=attack_ap.VARIANTS, default="static")
    p.add_argument("--hidden", default=32, type=_bounded(
        int, lambda v: 1 <= v <= MAX_HIDDEN, f"hidden width must lie in [1, {MAX_HIDDEN}]"))
    p.add_argument("--lr", default=1e-3, type=_bounded(
        float, lambda v: 0.0 < v < np.inf, "learning rate must be finite and positive"))
    p.add_argument("--momentum", default=0.9, type=_bounded(
        float, lambda v: 0.0 < v < np.inf, "momentum must be finite and positive"))
    p.add_argument("--batch-size", default=8, type=_bounded(
        int, lambda v: v >= 1, "batch size must be at least 1"))
    p.add_argument("--epochs", default=10, type=_bounded(
        int, lambda v: v >= 1, "epochs must be at least 1"))
    p.add_argument("--out", required=True)
    p.add_argument("--loss-csv")

    p = sub.add_parser("ap-run", help="one-step attack with trained parameters")
    common(p)
    p.add_argument("--image", required=True)
    p.add_argument("--normals", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--out-image")
    p.add_argument("--out-light")

    p = sub.add_parser("phy-sim", help="simulated light-recurrence loop")
    p.add_argument("--scenario", required=True)
    p.add_argument("--trace")

    p = sub.add_parser("eval", help="split, attack, score and report AUC")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--manifest", help="dataset manifest; synthetic corpus when omitted")
    p.add_argument("--method", choices=harness.ATTACK_METHODS, default="none")
    p.add_argument("--epsilon", default=0.0, type=_EPSILON)
    p.add_argument("--iters", default=10, type=_ITERS)
    p.add_argument("--params", help="predictor parameters (method ap)")
    p.add_argument("--eval-embedder", type=_SELECTOR,
                   help="score with a different embedder (transfer)")
    p.add_argument("--out-dir", default=".")

    p = sub.add_parser("analyze-light", help="hexagonal sensitive-point histogram")
    p.add_argument("--lights", required=True, help="lights.csv from an eval run")
    p.add_argument("--resolution", default=128, type=_bounded(
        int, lambda v: 8 <= v <= MAX_SCENARIO_RESOLUTION,
        f"resolution must lie in [8, {MAX_SCENARIO_RESOLUTION}]"))
    p.add_argument("--hex-size", default=8.0, type=_bounded(
        float, lambda v: 0.0 < v < np.inf, "hex size must be finite and positive"))
    p.add_argument("--out-dir", default=".")
    return parser


def _load_groups(args, for_eval=False):
    if getattr(args, "manifest", None):
        return harness.load_groups(args.manifest, for_eval)
    # The bundled corpus is fixed; --seed only drives splits and attacks.
    return synthetic_corpus(), 8


def _load_image_and_normals(args):
    """``args.image`` and ``args.normals``; ValueError naming both files unless they are the
    same size and the normal map masks at least one pixel."""
    image, normals = load_face_image(args.image), load_normal_map(args.normals)
    check_pair_size(image, normals, args.image, args.normals)
    if not normals.mask.any():
        raise EmptyMaskError(f"normal map {args.normals} masks no pixel of image {args.image}")
    return image, normals


def _load_plan(args, old_light=None) -> RelightPlan:
    """The plan of ``args.image`` and ``args.normals`` under ``old_light`` (read from
    ``args.light``), or under their fitted light when it is None."""
    image, normals = _load_image_and_normals(args)
    fitted = f"image {args.image} and normal map {args.normals}"  # the fitted light's source
    with blamed_on(fitted if old_light is None else args.light):
        return RelightPlan(image, normals, old_light)


def _cmd_relight(args) -> int:
    old_light = load_light(args.light) if args.light else None
    new_light = load_light(args.new_light)
    result = _load_plan(args, old_light).relight(new_light)  # a loaded light cannot overflow
    save_face_image(args.out, result.image)
    print(f"relit {args.image} -> {args.out} "
          f"(clamp fraction {result.clamp_fraction:.6g})")
    return 0


def _cmd_estimate_light(args) -> int:
    image, normals = _load_image_and_normals(args)
    with blamed_on(f"image {args.image} and normal map {args.normals}"):
        light = estimate_light(image, normals)
    save_light(args.out, light)
    print(" ".join(f"{c:.6g}" for c in light))
    return 0


def _cmd_attack_aq(args) -> int:
    plan = _load_plan(args, load_light(args.light) if args.light else None)
    with open_embedder(args.embedder) as embedder:
        cfg = attack_aq.AttackConfig(epsilon=args.epsilon, iterations=args.iters)
        trace = attack_aq.attack(plan, embedder, cfg)
    if args.out_image:
        save_face_image(args.out_image, trace.relit)
    if args.out_light:
        save_light(args.out_light, trace.adversarial_light)
    if args.trace:
        attack_aq.write_trace_csv(args.trace, trace)
    print(f"similarity {trace.initial_similarity:.6g} -> {trace.final_similarity:.6g} "
          f"(delta {trace.final_similarity - trace.initial_similarity:.6g})")
    return 0


def _cmd_ap_train(args) -> int:
    groups, _ = _load_groups(args)
    samples = [(s.image, s.normals) for g in groups for s in g.samples]
    cfg = attack_ap.TrainConfig(learning_rate=args.lr, momentum=args.momentum,
                                batch_size=args.batch_size, epochs=args.epochs,
                                seed=args.seed)
    with open_embedder(args.embedder) as embedder:
        params, history = attack_ap.train(samples, embedder, cfg,
                                          variant=args.variant, hidden=args.hidden)
    attack_ap.save_params(args.out, params)
    if args.loss_csv:
        attack_ap.write_loss_history_csv(args.loss_csv, history)
    print(f"trained {args.variant} predictor: epoch losses "
          + " ".join(f"{v:.6g}" for v in history))
    return 0


def _cmd_ap_run(args) -> int:
    params = attack_ap.load_params(args.params)
    plan = _load_plan(args)
    with open_embedder(args.embedder) as embedder:
        with blamed_on(args.params):  # a checked plan leaves the predictor the only fault
            relit, light = attack_ap.predict(plan, params, embedder)
        similarity = cosine_similarity(embedder.embed(relit), embedder.embed(plan.image))
    if args.out_image:
        save_face_image(args.out_image, relit)
    if args.out_light:
        save_light(args.out_light, light)
    print(f"similarity {similarity:.6g}")
    return 0


#: Largest ``ap-train --hidden``. A dynamic predictor's generator grows with its square
#: times the embedding dimension, which ``attack_ap.MAX_GENERATOR_FLOATS`` caps.
MAX_HIDDEN = 256

#: Largest sphere or lighting-map resolution a scenario or ``analyze-light`` may ask for,
#: in px. A map resolution keeps a design of 72 bytes per disk pixel for the life of the
#: process (59 MB at 1024 px, 14.8 MB at 512 px); its build peaks at about 1.6x that.
MAX_SCENARIO_RESOLUTION = 1024

#: Largest scenario ``max_iterations``, ten times the default: every adjustment renders a map.
MAX_SCENARIO_ITERATIONS = 1000


def _load_scenario(path):
    def integer(cfg, key, default, name, lo, hi) -> int:
        """``cfg[key]`` (or ``default``), a JSON integer in [lo, hi]."""
        value = cfg.get(key, default)
        if type(value) is not int or not lo <= value <= hi:
            raise ValueError(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")
        return value

    def floats(key, default, count, lo=-np.inf, hi=np.inf) -> tuple[float, ...]:
        """``data[key]``, or ``default`` when absent, as ``count`` floats in the open (lo, hi),
        so each is finite."""
        values = data.get(key, default)
        if not (isinstance(values, (list, tuple)) and len(values) == count
                and all(type(v) in (int, float) and lo < v < hi for v in values)):
            bounds = "" if (lo, hi) == (-np.inf, np.inf) else f" in ({lo:g}, {hi:g})"
            raise TypeError(f"{key} must be a list of {count} finite numbers{bounds}")
        return tuple(map(float, values))

    with blamed_on(f"malformed scenario {path}", KeyError, OverflowError, TypeError, ValueError,
                   error=ScenarioError):
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        scene_cfg = data["scene"]
        if not isinstance(scene_cfg, dict):
            raise TypeError("scene must be an object")
        # Options, start pose, albedo, ambient and target are checked before any normals are built.
        start = phy_sim.PLSPose(**data["start_pose"])
        tau = float(data.get("tau", 0.9))
        if not tau <= 1.0:  # above 1 (or NaN) no pixel reaches tau times the peak
            raise ValueError(f"tau must be a number no greater than 1, got {tau}")
        lo, hi = floats("distance_bounds", (0.05, 50.0), 2)
        if not 0.0 < lo <= hi:
            raise ValueError(f"distance_bounds must satisfy 0 < lo <= hi, got [{lo}, {hi}]")
        options = dict(
            gains=floats("gains", phy_sim.DEFAULT_GAINS, 3, *phy_sim.GAIN_RANGE),
            max_iter=integer(data, "max_iterations", 100, "max_iterations", 0,
                             MAX_SCENARIO_ITERATIONS),
            tau=tau,
            # The loop converges on a strict <, which no tolerance of 0 or less can meet.
            tolerances=floats("tolerances", phy_sim.DEFAULT_TOLERANCES, 3, 0.0),
            map_resolution=integer(data, "map_resolution", phy_sim.DEFAULT_MAP_RESOLUTION,
                                   "map_resolution", 8, MAX_SCENARIO_RESOLUTION),
            distance_bounds=(lo, hi),
        )
        ambient = float(scene_cfg.get("ambient", 0.25))
        albedo = phy_sim.check_scene_values(scene_cfg.get("albedo", 0.8), ambient)
        target_cfg = data["target"]
        if "light_file" in target_cfg:
            target = load_light(Path(path).parent / target_cfg["light_file"])
        elif "coeffs" in target_cfg:
            target = as_light(target_cfg["coeffs"])
        else:
            target = phy_sim.PLSPose(**target_cfg["pose"])
        if "normals" in scene_cfg:
            normals = load_normal_map(Path(path).parent / scene_cfg["normals"])
        else:
            normals = sphere_normals(integer(scene_cfg, "sphere_resolution", 64,
                                             "scene.sphere_resolution", 8,
                                             MAX_SCENARIO_RESOLUTION))
        scene = phy_sim.SceneModel(normals=normals, albedo=albedo, ambient=ambient)
        if isinstance(target, phy_sim.PLSPose):  # only a pose target is fitted on the scene
            target = phy_sim.scene_light_estimate(scene, target)
        return target, start, scene, options


def _write_phy_trace(path, trace) -> None:
    write_csv(path, ["iteration", "azimuth", "polar", "distance", "intensity",
                     "d_azimuth", "d_polar", "area_ratio"],
              ([i, *map(float, (pose.azimuth, pose.polar, pose.distance, pose.intensity,
                                fb.d_azimuth, fb.d_polar, fb.area_ratio))]
               for i, (pose, fb) in enumerate(trace)))


def _cmd_phy_sim(args) -> int:
    target, start, scene, options = _load_scenario(args.scenario)
    try:
        # The loop reads only the scenario, so its faults are the file's.
        with blamed_on(f"malformed scenario {args.scenario}", error=ScenarioError):
            result = phy_sim.recurrence_loop(target, start, scene, **options)
    except phy_sim.NonConvergenceError as exc:
        if args.trace:
            _write_phy_trace(args.trace, exc.trace)
        raise
    if args.trace:
        _write_phy_trace(args.trace, result.trace)
    pose = result.final_pose
    print(f"converged after {result.iterations} adjustments: "
          f"azimuth {pose.azimuth:.6g} polar {pose.polar:.6g} "
          f"distance {pose.distance:.6g}")
    return 0


def _cmd_eval(args) -> int:
    if args.method in ("none", "ap") and args.epsilon:
        raise UsageError(f"advrelight eval: argument --epsilon: method {args.method} applies "
                         f"no epsilon ball, got {args.epsilon:g}")
    if (args.method == "ap") != (args.params is not None):
        raise UsageError("advrelight eval: argument --params: " + (
            "method ap needs predictor parameters" if args.method == "ap"
            else f"method {args.method} uses no predictor parameters"))
    params = attack_ap.load_params(args.params) if args.params is not None else None
    groups, k = _load_groups(args, for_eval=True)
    # The images are checked and each target's faults collected: a plain ValueError is the
    # predictor's, and a package error (a split's or a score's) keeps its own type and text.
    with (open_embedder(args.embedder) as embedder,
          open_embedder(args.eval_embedder) as eval_embedder,
          blamed_on(args.params, keep=AdvRelightError) if params is not None
          else contextlib.nullcontext()):
        report = harness.evaluate(groups, args.method, embedder, epsilon=args.epsilon,
                                  k=k, seed=args.seed, iterations=args.iters,
                                  eval_embedder=eval_embedder, params=params)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    harness.write_roc_csv(out / "roc.csv", report.roc)
    harness.write_summary_csv(out / "summary.csv", [report])
    harness.write_lights_csv(out / "lights.csv", report)
    label = f"{args.method}" + (f" eps={args.epsilon:g}" if args.method != "none" else "")
    svgplot.write_roc_svg(out / "roc.svg", [(f"{label} AUC={report.auc:.4f}",
                                             report.roc.points[:, :2])])
    for idx, message in report.suite.failures:
        print(f"warning: target {idx} failed: {message}", file=sys.stderr)
    print(f"method={args.method} epsilon={args.epsilon:.6g} AUC={report.auc:.6g} "
          f"mean_abs_change={report.mean_abs_change:.6g}")
    return 0


def _cmd_analyze_light(args) -> int:
    pairs = harness.read_lights_csv(args.lights)
    with blamed_on(args.lights):  # the lights are the file's; the flags are checked
        hist = harness.sensitivity_analysis(pairs, resolution=args.resolution,
                                            cell_size=args.hex_size)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    harness.write_hexhist_csv(out / "hexhist.csv", hist)
    svgplot.write_hexhist_svg(out / "hexhist.svg", hist)
    print(f"binned {hist.total} sensitive points into {len(hist.counts)} cells "
          f"({hist.skipped} pairs skipped)")
    return 0


_COMMANDS = {
    "relight": _cmd_relight,
    "estimate-light": _cmd_estimate_light,
    "attack-aq": _cmd_attack_aq,
    "ap-train": _cmd_ap_train,
    "ap-run": _cmd_ap_run,
    "phy-sim": _cmd_phy_sim,
    "eval": _cmd_eval,
    "analyze-light": _cmd_analyze_light,
}


def cli(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (AdvRelightError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
