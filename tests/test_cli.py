import io
import json

import numpy as np
import pytest

from advrelight.cli import cli
from advrelight.corpus import synthetic_corpus
from advrelight.relight import load_face_image, save_face_image
from advrelight.shading import load_light, save_light, save_normal_map

from conftest import make_scene


@pytest.fixture(scope="module")
def assets(tmp_path_factory):
    """A face image, its normal map, and its light on disk."""
    root = tmp_path_factory.mktemp("assets")
    from advrelight.shading import sphere_normals
    from advrelight.relight import estimate_light

    normals = sphere_normals(48)
    image, light = make_scene(np.random.default_rng(0), normals)
    save_face_image(root / "face.png", image)
    save_normal_map(root / "normals.png", normals)
    save_light(root / "light.txt", estimate_light(image, normals))
    return root


def test_unknown_flag_exits_1(capsys):
    assert cli(["eval", "--definitely-not-a-flag"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_command_exits_1():
    assert cli(["frobnicate"]) == 1


def test_parser_reuse_parses_each_call_independently(monkeypatch, tmp_path, capsys):
    """The parser is built once per process; no call sees another call's arguments."""
    from advrelight import cli as cli_module

    seen = []
    for name in ("estimate-light", "phy-sim"):
        monkeypatch.setitem(cli_module._COMMANDS, name, lambda args: seen.append(args) or 0)
    assert cli(["estimate-light", "--image", "a.png", "--normals", "n.png",
                "--out", str(tmp_path / "l.txt")]) == 0
    assert cli(["phy-sim", "--scenario", "s.json"]) == 0
    assert cli_module.build_parser() is cli_module.build_parser()
    first, second = seen
    assert (first.command, first.image, first.out) == ("estimate-light", "a.png",
                                                       str(tmp_path / "l.txt"))
    assert (second.command, second.scenario, second.trace) == ("phy-sim", "s.json", None)
    assert not hasattr(second, "image") and not hasattr(first, "scenario")
    assert cli(["phy-sim"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_missing_file_exits_2(tmp_path, capsys):
    assert cli(["estimate-light", "--image", str(tmp_path / "nope.png"),
                "--normals", str(tmp_path / "nope2.png"),
                "--out", str(tmp_path / "out.txt")]) == 2
    assert "error:" in capsys.readouterr().err


def test_relight_identity(assets, tmp_path, capsys):
    out = tmp_path / "out.png"
    code = cli(["relight", "--image", str(assets / "face.png"),
                "--normals", str(assets / "normals.png"),
                "--light", str(assets / "light.txt"),
                "--new-light", str(assets / "light.txt"),
                "--out", str(out)])
    assert code == 0
    original = load_face_image(assets / "face.png")
    relit = load_face_image(out)
    assert np.abs(relit.luminance - original.luminance).max() < 2.0 / 255.0


def test_estimate_light(assets, tmp_path):
    out = tmp_path / "est.txt"
    assert cli(["estimate-light", "--image", str(assets / "face.png"),
                "--normals", str(assets / "normals.png"), "--out", str(out)]) == 0
    stored = load_light(assets / "light.txt")
    estimated = load_light(out)
    assert np.abs(estimated.coeffs - stored.coeffs).max() < 0.02


def test_attack_aq_epsilon_zero(assets, tmp_path, capsys):
    out_light = tmp_path / "adv.txt"
    code = cli(["attack-aq", "--image", str(assets / "face.png"),
                "--normals", str(assets / "normals.png"),
                "--epsilon", "0", "--iters", "3",
                "--out-light", str(out_light),
                "--trace", str(tmp_path / "trace.csv")])
    assert code == 0
    printed = capsys.readouterr().out
    assert "delta 0" in printed or "delta -0" in printed
    trace_lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
    assert len(trace_lines) == 1 + 4


def test_attack_aq_reduces_similarity(assets, tmp_path, capsys):
    code = cli(["attack-aq", "--image", str(assets / "face.png"),
                "--normals", str(assets / "normals.png"),
                "--epsilon", "0.4", "--out-image", str(tmp_path / "adv.png")])
    assert code == 0
    out = capsys.readouterr().out
    initial, _, final = out.split("similarity ")[1].split()[:3]
    assert float(final) < float(initial)


def test_eval_none_writes_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    assert cli(["eval", "--method", "none", "--out-dir", str(out)]) == 0
    for name in ("roc.csv", "summary.csv", "lights.csv", "roc.svg"):
        assert (out / name).exists()
    summary = (out / "summary.csv").read_text().strip().splitlines()
    assert summary[0] == "method,epsilon,auc,mean_abs_change"
    method, epsilon, auc, change = summary[1].split(",")
    assert method == "none" and float(change) == 0.0
    # clean separability of the bundled corpus, recorded from the reference run
    assert float(auc) == 1.0
    assert "AUC" in capsys.readouterr().out


def test_eval_manifest_roundtrip(tmp_path):
    """A manifest written from generated samples evaluates end to end."""
    groups = synthetic_corpus(identities=2, per_identity=4, size=48, seed=2)
    entries = []
    for group in groups:
        images, normals = [], []
        for i, sample in enumerate(group.samples):
            img = f"{group.identity}_{i}.png"
            nrm = f"{group.identity}_{i}_n.png"
            save_face_image(tmp_path / img, sample.image)
            save_normal_map(tmp_path / nrm, sample.normals)
            images.append(img)
            normals.append(nrm)
        entries.append({"identity": group.identity, "images": images,
                        "normals": normals})
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"k": 2, "identities": entries}))
    out = tmp_path / "run"
    assert cli(["eval", "--manifest", str(manifest), "--method", "random",
                "--epsilon", "0.2", "--out-dir", str(out)]) == 0
    assert (out / "roc.csv").exists()


def test_eval_determinism(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert cli(["eval", "--method", "random", "--epsilon", "0.2",
                    "--seed", "7", "--out-dir", str(out)]) == 0
    for name in ("roc.csv", "summary.csv", "lights.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_analyze_light(tmp_path):
    out = tmp_path / "run"
    assert cli(["eval", "--method", "random", "--epsilon", "0.4",
                "--out-dir", str(out)]) == 0
    assert cli(["analyze-light", "--lights", str(out / "lights.csv"),
                "--resolution", "64", "--hex-size", "6",
                "--out-dir", str(out)]) == 0
    assert (out / "hexhist.csv").exists()
    assert (out / "hexhist.svg").exists()
    rows = (out / "hexhist.csv").read_text().strip().splitlines()[1:]
    total = sum(int(r.split(",")[2]) for r in rows)
    assert total > 0


def _saved_bytes(save, **arrays):
    buffer = io.BytesIO()
    save(buffer, **arrays)
    return buffer.getvalue()


_EVAL_AP = ["eval", "--method", "ap", "--params"]
_PARAMS_WITHOUT_W1 = _saved_bytes(np.savez, format_version=np.array(1), variant=np.array("static"),
                                  hidden=np.array(8), embed_dim=np.array(128))


@pytest.mark.parametrize("command, content, message", [
    (["analyze-light", "--lights"], "", "expected 19 columns, got 0"),
    (["eval", "--manifest"], "[]", "malformed manifest"),
    (["ap-train", "--out", "params.npz", "--manifest"], "[]", "malformed manifest"),
    (_EVAL_AP, _PARAMS_WITHOUT_W1, "input: malformed parameter file: 'w1 is not a file"),
    (_EVAL_AP, b"PK\x03\x04 is not a zip archive", "input: malformed parameter file"),
    (_EVAL_AP, _saved_bytes(np.save, arr=np.zeros(9)), "input: malformed parameter file"),
    (_EVAL_AP, b"", "input: malformed parameter file"),
], ids=["empty_lights", "eval_manifest_list", "ap_train_manifest_list", "params_without_w1",
        "params_bad_zip", "params_plain_npy", "params_empty"])
def test_malformed_input_file_exits_2(tmp_path, capsys, command, content, message):
    path = tmp_path / "input"
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    assert cli(command + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_ap_train_and_run(assets, tmp_path, capsys):
    params = tmp_path / "params.npz"
    code = cli(["ap-train", "--epochs", "1", "--out", str(params),
                "--loss-csv", str(tmp_path / "loss.csv")])
    assert code == 0
    assert params.exists()
    assert (tmp_path / "loss.csv").read_text().startswith("epoch,mean_loss")
    code = cli(["ap-run", "--image", str(assets / "face.png"),
                "--normals", str(assets / "normals.png"),
                "--params", str(params),
                "--out-image", str(tmp_path / "ap.png")])
    assert code == 0
    assert "similarity" in capsys.readouterr().out


def test_phy_sim_scenario(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "scene": {"sphere_resolution": 64, "albedo": 0.8, "ambient": 0.25},
        "start_pose": {"azimuth": 0.2, "polar": 0.3, "distance": 3.0,
                       "intensity": 1.5},
        "target": {"pose": {"azimuth": 1.0, "polar": 0.6, "distance": 2.0,
                            "intensity": 1.5}},
        "max_iterations": 100,
    }))
    trace = tmp_path / "trace.csv"
    assert cli(["phy-sim", "--scenario", str(scenario), "--trace", str(trace)]) == 0
    assert "converged" in capsys.readouterr().out
    header = trace.read_text().splitlines()[0]
    assert header == "iteration,azimuth,polar,distance,intensity,d_azimuth,d_polar,area_ratio"


_SCENE = {"sphere_resolution": 16}


@pytest.mark.parametrize("start_pose, scene", [
    pytest.param(None, _SCENE, id="None"),
    pytest.param({"azimuth": 0.2, "polar": 0.3, "distance": 3.0, "brightness": 1.5},
                 _SCENE, id="start_pose1"),
    pytest.param({"azimuth": 0.2, "polar": 0.3, "distance": 3.0}, _SCENE, id="start_pose2"),
    pytest.param({"azimuth": 0.2, "polar": 0.3, "distance": 3.0, "intensity": 1.5},
                 [], id="scene_list"),
])
def test_phy_sim_malformed_start_pose_exits_2(tmp_path, capsys, start_pose, scene):
    data = {"scene": scene, "target": {"coeffs": [1.0] + [0.0] * 8}}
    if start_pose is not None:
        data["start_pose"] = start_pose
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(data))
    assert cli(["phy-sim", "--scenario", str(scenario)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed scenario")
    assert "Traceback" not in err


def test_eval_aq_determinism(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert cli(["eval", "--method", "aq", "--epsilon", "0.2", "--iters", "5",
                    "--seed", "3", "--out-dir", str(out)]) == 0
    for name in ("roc.csv", "summary.csv", "lights.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_eval_with_external_embedder(tmp_path):
    import sys as _sys
    from pathlib import Path as _Path

    endpoint = f"{_sys.executable} {_Path(__file__).parent / 'helpers' / 'echo_embedder.py'}"
    out = tmp_path / "run"
    code = cli(["eval", "--method", "random", "--epsilon", "0.2",
                "--embedder", f"external:{endpoint}", "--out-dir", str(out)])
    assert code == 0
    summary = (out / "summary.csv").read_text().strip().splitlines()[1]
    auc = float(summary.split(",")[2])
    assert 0.0 <= auc <= 1.0


def test_relight_corrupt_png_exits_2(assets, tmp_path, capsys):
    blob = bytearray((assets / "face.png").read_bytes())
    blob[29] ^= 0x01  # IHDR CRC
    corrupt = tmp_path / "corrupt.png"
    corrupt.write_bytes(bytes(blob))
    assert cli(["relight", "--image", str(corrupt),
                "--normals", str(assets / "normals.png"),
                "--new-light", str(assets / "light.txt"),
                "--out", str(tmp_path / "out.png")]) == 2
    assert "CRC mismatch" in capsys.readouterr().err
