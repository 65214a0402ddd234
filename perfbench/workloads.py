"""The benchmark's four workloads: inputs, CLI commands and output checks.

Each workload is a closed loop with one caller: the benchmark issues one
CLI command after the previous one returns. A *pass* is the fixed list of
commands a workload runs for its seed; the benchmark repeats passes.

A workload's seed is the only thing that varies its inputs. The checks
pin each seed's outputs where ``expected.json`` has an entry and verify
properties of the outputs that hold for every seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shlex
import sys
from pathlib import Path

import numpy as np

from advrelight import corpus, harness, relight, shading
from advrelight.attack_ap import init_params
from advrelight.phy_sim import DEFAULT_TOLERANCES

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

EPSILON = 0.4
ITERS = 10
AP_EPOCHS = 2
PHY_SCENARIOS = 64
BUNDLED_TARGETS = 64  # 8 identities x k = 8 targets


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


class Workload:
    """Base class: subclasses fill in inputs, commands, units and checks."""

    name = ""
    why = ""
    #: (module, function) whose calls are the units, or None when every
    #: command of the pass is one unit.
    unit_function: tuple[str, str] | None = None
    #: (module, function) whose first call ends set-up (see setup_probe.py).
    setup_stop: tuple[str, str] = ("", "")
    #: Untimed passes at the start of a run, which absorb the process's
    #: one-off warm-up (BLAS threads, first allocations, lazy caches).
    warmup_passes = 1
    #: Files of a pass whose bytes are pinned, relative to its output directory.
    pinned_files: tuple[str, ...] = ()

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.out = work / "out"

    def prepare(self) -> None:
        """Write the benchmark's own input files (not part of set-up time)."""

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def units_per_pass(self) -> int:
        raise NotImplementedError

    def fingerprint(self, seed: int) -> bytes:
        """Bytes that identify the inputs ``seed`` produces."""
        raise NotImplementedError

    def digests(self) -> dict[str, str]:
        return {name: sha256(self.out / name) for name in self.pinned_files}

    def quality(self, reports) -> dict[str, float]:
        """Deterministic quality figures of a pass (AUC, mean change)."""
        report = reports[-1]
        return {"auc": report.auc, "mean_abs_change": report.mean_abs_change}

    def check(self, reports) -> list[str]:
        """Seed-independent checks of one pass's outputs; returns problems."""
        return []


# ---------------------------------------------------------------------------
# eval workloads
# ---------------------------------------------------------------------------

def _check_eval_outputs(out: Path, report, method: str, targets: int) -> list[str]:
    problems = []
    summary = read_rows(out / "summary.csv")
    if summary != [[method, f"{report.epsilon:.6g}", f"{report.auc:.6g}",
                    f"{report.mean_abs_change:.6g}"]]:
        problems.append(f"summary.csv disagrees with the report: {summary}")
    if report.suite.failures:
        problems.append(f"{len(report.suite.failures)} targets failed")
    # The trapezoid area under roc.csv must reproduce the rank-based AUC.
    roc = np.array([[float(v) for v in row] for row in read_rows(out / "roc.csv")])
    fpr = np.concatenate([[0.0], roc[:, 0]])
    tpr = np.concatenate([[0.0], roc[:, 1]])
    if np.any(np.diff(fpr) < 0) or np.any(np.diff(tpr) < 0) or roc[-1, 0] != 1 or roc[-1, 1] != 1:
        problems.append("roc.csv is not a monotone curve ending at (1, 1)")
    area = float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0))
    if abs(area - report.auc) > 1e-4:
        problems.append(f"area under roc.csv {area:.6g} != AUC {report.auc:.6g}")
    lights = read_rows(out / "lights.csv")
    if len(lights) != targets:
        problems.append(f"lights.csv has {len(lights)} rows, expected {targets}")
    return problems


class EvalAQ(Workload):
    """``eval --method aq`` then ``analyze-light`` on the lights it wrote."""

    unit_function = ("attack_aq", "attack")
    setup_stop = unit_function
    pinned_files = ("roc.csv", "summary.csv", "lights.csv", "hexhist.csv")

    def eval_args(self) -> list[str]:
        return []

    def commands(self) -> list[list[str]]:
        return [
            ["eval", "--method", "aq", "--epsilon", str(EPSILON), "--iters", str(ITERS),
             "--seed", str(self.seed), "--out-dir", str(self.out)] + self.eval_args(),
            ["analyze-light", "--lights", str(self.out / "lights.csv"),
             "--out-dir", str(self.out)],
        ]

    def baseline_command(self) -> list[str]:
        """The same evaluation without an attack, for the effectiveness check."""
        return (["eval", "--method", "none", "--seed", str(self.seed),
                 "--out-dir", str(self.work / "baseline")] + self.eval_args())

    def check(self, reports) -> list[str]:
        report = reports[-1]
        problems = _check_eval_outputs(self.out, report, "aq", self.units_per_pass())
        lights = np.array([[float(v) for v in row[1:]]
                           for row in read_rows(self.out / "lights.csv")])
        drift = np.abs(lights[:, 9:] - lights[:, :9]).max()
        if drift > EPSILON * (1 + 1e-5) + 1e-5:
            problems.append(f"adversarial light left the epsilon ball: {drift:.6g}")
        hexhist = read_rows(self.out / "hexhist.csv")
        binned = sum(int(row[2]) for row in hexhist)
        if not 0 < binned <= len(lights):
            problems.append(f"hexhist.csv bins {binned} points for {len(lights)} pairs")
        return problems


class AQAnalytic(EvalAQ):
    name = "aq_analytic"
    why = ("the paper's main attack with analytic gradients on the bundled corpus: "
           "64 targets share 8 normal maps; shading, relight, Jacobian and input gradient")

    def units_per_pass(self) -> int:
        return BUNDLED_TARGETS

    def fingerprint(self, seed: int) -> bytes:
        split = harness.build_split(corpus.synthetic_corpus(), k=8, seed=seed)
        return repr([(t.identity, t.index) for t in split.target]).encode()


class AQBlackbox(EvalAQ):
    name = "aq_blackbox"
    why = ("the same attack through an external endpoint with finite-difference "
           "gradients on a PNG manifest; line protocol and relighting, no Jacobian")
    identities = 16
    per_identity = 8
    k = 4
    warmup_passes = 0  # one pass outlasts the measured window

    def groups(self, seed: int):
        return corpus.synthetic_corpus(identities=self.identities,
                                       per_identity=self.per_identity, seed=seed)

    def prepare(self) -> None:
        data = self.work / "corpus"
        data.mkdir(parents=True, exist_ok=True)
        entries = []
        for group in self.groups(self.seed):
            images, normals = [], []
            for j, sample in enumerate(group.samples):
                images.append(f"{group.identity}_{j:02d}.png")
                normals.append(f"{group.identity}_{j:02d}_normals.png")
                relight.save_face_image(data / images[-1], sample.image)
                shading.save_normal_map(data / normals[-1], sample.normals)
            entries.append({"identity": group.identity, "images": images,
                            "normals": normals})
        with open(data / "manifest.json", "w", encoding="utf-8") as fh:
            json.dump({"k": self.k, "identities": entries}, fh)

    def eval_args(self) -> list[str]:
        endpoint = shlex.join([sys.executable, str(HERE / "endpoint.py")])
        return ["--manifest", str(self.work / "corpus" / "manifest.json"),
                "--embedder", f"external:{endpoint}"]

    def units_per_pass(self) -> int:
        return self.identities * self.k

    def fingerprint(self, seed: int) -> bytes:
        first = self.groups(seed)[0].samples[0]
        return first.image.luminance.tobytes() + first.normals.normals.tobytes()


class APTrain(Workload):
    name = "ap_train"
    why = ("trains the one-step predictor (weights update every batch) then runs "
           "eval ap with it; relight and Jacobian reads beside attack_ap writes")
    unit_function = ("attack_ap", "sample_gradient")
    setup_stop = unit_function
    pinned_files = ("loss.csv", "roc.csv", "summary.csv", "lights.csv")

    def commands(self) -> list[list[str]]:
        params = str(self.out / "params.npz")
        return [
            ["ap-train", "--variant", "dynamic", "--hidden", "32", "--batch-size", "8",
             "--epochs", str(AP_EPOCHS), "--seed", str(self.seed), "--out", params,
             "--loss-csv", str(self.out / "loss.csv")],
            ["eval", "--method", "ap", "--params", params, "--seed", str(self.seed),
             "--out-dir", str(self.out)],
        ]

    def baseline_command(self) -> list[str]:
        return ["eval", "--method", "none", "--seed", str(self.seed),
                "--out-dir", str(self.work / "baseline")]

    def units_per_pass(self) -> int:
        return 2 * BUNDLED_TARGETS * AP_EPOCHS  # every bundled sample, every epoch

    def fingerprint(self, seed: int) -> bytes:
        split = harness.build_split(corpus.synthetic_corpus(), k=8, seed=seed)
        return (repr([(t.identity, t.index) for t in split.target]).encode()
                + init_params("dynamic", seed=seed).w1.tobytes())

    def check(self, reports) -> list[str]:
        problems = _check_eval_outputs(self.out, reports[-1], "ap", BUNDLED_TARGETS)
        losses = [float(row[1]) for row in read_rows(self.out / "loss.csv")]
        if len(losses) != AP_EPOCHS or not all(math.isfinite(v) for v in losses):
            problems.append(f"loss.csv holds {losses}, expected {AP_EPOCHS} finite values")
        return problems


# ---------------------------------------------------------------------------
# phy-sim workload
# ---------------------------------------------------------------------------

def phy_scenarios(seed: int, count: int = PHY_SCENARIOS) -> list[dict]:
    """Seeded target poses, each with a start 1.5 rad of azimuth away.

    Targets lie where the loop can observe every pose coordinate: polar in
    [0.35, 1.1] rad keeps the azimuth defined, and distance in [1.5, 3]
    keeps the photographed sphere below the sensor clip (a nearer source
    saturates the photo, which hides distance). The start shares the
    target's polar angle and distance and is offset in azimuth by 1.5 rad
    in a random direction, so every scenario asks the controller for the
    same work (six adjustments) and a pass costs the same for every seed.
    """
    rng = np.random.default_rng([seed, 0x9E0])
    out = []
    for _ in range(count):
        azimuth = rng.uniform(0.0, 2.0 * math.pi)
        polar = rng.uniform(0.35, 1.1)
        distance = rng.uniform(1.5, 3.0)
        direction = rng.choice([-1.0, 1.0])
        target = {"azimuth": azimuth, "polar": polar, "distance": distance, "intensity": 1.0}
        start = dict(target, azimuth=(azimuth + 1.5 * direction) % (2.0 * math.pi))
        out.append({
            "scene": {"sphere_resolution": 64, "albedo": 0.8, "ambient": 0.25},
            "start_pose": start,
            "target": {"pose": target},
        })
    return out


class PhyLightmap(Workload):
    name = "phy_lightmap"
    why = ("seeded phy-sim scenarios on a 64 px sphere with 512 px lighting maps; "
           "no embedder or attack, so those changes predict no change here")
    setup_stop = ("phy_sim", "recurrence_loop")

    def scenarios(self) -> list[dict]:
        return phy_scenarios(self.seed)

    def scenario_path(self, i: int) -> Path:
        return self.work / "scenarios" / f"scenario_{i:03d}.json"

    def trace_path(self, i: int) -> Path:
        return self.out / f"trace_{i:03d}.csv"

    def prepare(self) -> None:
        self.scenario_path(0).parent.mkdir(parents=True, exist_ok=True)
        for i, scenario in enumerate(self.scenarios()):
            with open(self.scenario_path(i), "w", encoding="utf-8") as fh:
                json.dump(scenario, fh)

    def commands(self) -> list[list[str]]:
        return [["phy-sim", "--scenario", str(self.scenario_path(i)),
                 "--trace", str(self.trace_path(i))] for i in range(self.units_per_pass())]

    def units_per_pass(self) -> int:
        return len(self.scenarios())

    def fingerprint(self, seed: int) -> bytes:
        return json.dumps(phy_scenarios(seed, 4)).encode()

    def digests(self) -> dict[str, str]:
        h = hashlib.sha256()
        for i in range(self.units_per_pass()):
            h.update(self.trace_path(i).read_bytes())
        return {"trace_*.csv": h.hexdigest()}

    def quality(self, reports) -> dict[str, float]:
        adjustments = [len(read_rows(self.trace_path(i))) - 1
                       for i in range(self.units_per_pass())]
        return {"mean_adjustments": float(np.mean(adjustments))}

    def check(self, reports) -> list[str]:
        problems = []
        tol_az, tol_po, tol_area = DEFAULT_TOLERANCES
        for i, scenario in enumerate(self.scenarios()):
            rows = read_rows(self.trace_path(i))
            start = scenario["start_pose"]
            first = [float(v) for v in rows[0][1:5]]
            expected = [start[key] for key in ("azimuth", "polar", "distance", "intensity")]
            if not np.allclose(first, expected, rtol=1e-5, atol=1e-6):
                problems.append(f"trace {i} does not start at the scenario's pose")
            d_az, d_po, area = (float(v) for v in rows[-1][5:8])
            if not (abs(d_az) < tol_az and abs(d_po) < tol_po and abs(area - 1) < tol_area):
                problems.append(f"trace {i} ends unconverged: {rows[-1]}")
        return problems


WORKLOADS = {cls.name: cls for cls in (AQAnalytic, AQBlackbox, APTrain, PhyLightmap)}


def load_expected() -> dict:
    if not EXPECTED_PATH.exists():
        return {}
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)
