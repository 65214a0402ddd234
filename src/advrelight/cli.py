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
from .errors import AdvRelightError, ScenarioError
from .relight import RelightPlan, estimate_light, load_face_image, save_face_image
from .shading import SHLight, load_light, load_normal_map, save_light, sphere_normals, write_csv


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def make_embedder(selector: str):
    if selector == "builtin":
        return BuiltinEmbedder()
    if selector.startswith("external:"):
        return ExternalEmbedder(selector[len("external:"):])
    raise UsageError(f"unknown embedder {selector!r}; use builtin or external:<command>")


@contextlib.contextmanager
def _managed(embedder):
    """Close endpoint subprocesses when a command finishes."""
    try:
        yield embedder
    finally:
        close = getattr(embedder, "close", None)
        if close is not None:
            close()


@functools.lru_cache(maxsize=1)
def build_parser() -> _Parser:
    """The command-line parser, built once per process (argparse parses statelessly)."""
    parser = _Parser(prog="advrelight", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--embedder", default="builtin",
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
    p.add_argument("--epsilon", type=float, default=0.4)
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--out-image")
    p.add_argument("--out-light")
    p.add_argument("--trace")

    p = sub.add_parser("ap-train", help="train the one-step light predictor")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--manifest", help="dataset manifest; synthetic corpus when omitted")
    p.add_argument("--variant", choices=attack_ap.VARIANTS, default="static")
    p.add_argument("--hidden", type=int, default=32)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--epochs", type=int, default=10)
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
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--params", help="predictor parameters (method ap)")
    p.add_argument("--eval-embedder", help="score with a different embedder (transfer)")
    p.add_argument("--out-dir", default=".")

    p = sub.add_parser("analyze-light", help="hexagonal sensitive-point histogram")
    p.add_argument("--lights", required=True, help="lights.csv from an eval run")
    p.add_argument("--resolution", type=int, default=128)
    p.add_argument("--hex-size", type=float, default=8.0)
    p.add_argument("--out-dir", default=".")
    return parser


def _load_groups(args):
    if getattr(args, "manifest", None):
        manifest = harness.load_manifest(args.manifest)
        return harness.load_groups(manifest, Path(args.manifest).parent), manifest.k
    # The bundled corpus is fixed; --seed only drives splits and attacks.
    return synthetic_corpus(), 8


def _cmd_relight(args) -> int:
    image = load_face_image(args.image)
    normals = load_normal_map(args.normals)
    plan = RelightPlan(image, normals, load_light(args.light) if args.light else None)
    result = plan.relight(load_light(args.new_light))
    save_face_image(args.out, result.image)
    print(f"relit {args.image} -> {args.out} "
          f"(clamp fraction {result.clamp_fraction:.6g})")
    return 0


def _cmd_estimate_light(args) -> int:
    light = estimate_light(load_face_image(args.image), load_normal_map(args.normals))
    save_light(args.out, light)
    print(" ".join(f"{c:.6g}" for c in light.coeffs))
    return 0


def _cmd_attack_aq(args) -> int:
    image = load_face_image(args.image)
    normals = load_normal_map(args.normals)
    plan = RelightPlan(image, normals, load_light(args.light) if args.light else None)
    with _managed(make_embedder(args.embedder)) as embedder:
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
    with _managed(make_embedder(args.embedder)) as embedder:
        params, history = attack_ap.train(samples, embedder, cfg,
                                          variant=args.variant, hidden=args.hidden)
    attack_ap.save_params(args.out, params)
    if args.loss_csv:
        attack_ap.write_loss_history_csv(args.loss_csv, history)
    print(f"trained {args.variant} predictor: epoch losses "
          + " ".join(f"{v:.6g}" for v in history))
    return 0


def _cmd_ap_run(args) -> int:
    image = load_face_image(args.image)
    plan = RelightPlan(image, load_normal_map(args.normals))
    params = attack_ap.load_params(args.params)
    with _managed(make_embedder(args.embedder)) as embedder:
        relit, light = attack_ap.predict(plan, params, embedder)
        similarity = cosine_similarity(embedder.embed(relit), embedder.embed(image))
    if args.out_image:
        save_face_image(args.out_image, relit)
    if args.out_light:
        save_light(args.out_light, light)
    print(f"similarity {similarity:.6g}")
    return 0


def _load_scenario(path):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        scene_cfg = data["scene"]
        if not isinstance(scene_cfg, dict):
            raise TypeError("scene must be an object")
        if "normals" in scene_cfg:
            normals = load_normal_map(Path(path).parent / scene_cfg["normals"])
        else:
            normals = sphere_normals(int(scene_cfg.get("sphere_resolution", 64)))
        scene = phy_sim.SceneModel(normals=normals,
                                   albedo=scene_cfg.get("albedo", 0.8),
                                   ambient=float(scene_cfg.get("ambient", 0.25)))
        start = phy_sim.PLSPose(**data["start_pose"])
        target_cfg = data["target"]
        if "light_file" in target_cfg:
            target = load_light(Path(path).parent / target_cfg["light_file"])
        elif "coeffs" in target_cfg:
            target = SHLight(np.asarray(target_cfg["coeffs"], dtype=float))
        else:
            target = phy_sim.scene_light_estimate(scene, phy_sim.PLSPose(**target_cfg["pose"]))
        options = dict(
            gains=tuple(data.get("gains", phy_sim.DEFAULT_GAINS)),
            max_iter=int(data.get("max_iterations", 100)),
            tau=float(data.get("tau", 0.9)),
            tolerances=tuple(data.get("tolerances", phy_sim.DEFAULT_TOLERANCES)),
            map_resolution=int(data.get("map_resolution", phy_sim.DEFAULT_MAP_RESOLUTION)),
            distance_bounds=tuple(data.get("distance_bounds", (0.05, 50.0))),
        )
        return target, start, scene, options
    except (KeyError, TypeError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ScenarioError(f"malformed scenario {path}: {detail}") from exc


def _write_phy_trace(path, trace) -> None:
    write_csv(path, ["iteration", "azimuth", "polar", "distance", "intensity",
                     "d_azimuth", "d_polar", "area_ratio"],
              ([i, *map(float, (pose.azimuth, pose.polar, pose.distance, pose.intensity,
                                fb.d_azimuth, fb.d_polar, fb.area_ratio))]
               for i, (pose, fb) in enumerate(trace)))


def _cmd_phy_sim(args) -> int:
    target, start, scene, options = _load_scenario(args.scenario)
    try:
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
    groups, k = _load_groups(args)
    params = attack_ap.load_params(args.params) if args.params else None
    with contextlib.ExitStack() as stack:
        embedder = stack.enter_context(_managed(make_embedder(args.embedder)))
        eval_embedder = None
        if args.eval_embedder:
            eval_embedder = stack.enter_context(_managed(make_embedder(args.eval_embedder)))
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
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (AdvRelightError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli(sys.argv[1:]))
