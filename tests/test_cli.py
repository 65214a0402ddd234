import io
import json
import os
import struct
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

import advrelight
from advrelight import attack_ap, cli as cli_module, harness, phy_sim, shading
from advrelight.cli import (MAX_HIDDEN, MAX_ITERS, MAX_SCENARIO_ITERATIONS,
                            MAX_SCENARIO_RESOLUTION, cli)
from advrelight.corpus import synthetic_corpus
from advrelight.errors import DegenerateLabelsError, ManifestError
from advrelight.relight import load_face_image, save_face_image
from advrelight.shading import load_light, save_light, save_normal_map

from conftest import make_scene
from helpers.png import png_with_idat


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
    assert np.abs(estimated - stored).max() < 0.02


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


def _params_with_nan_w3() -> bytes:
    params = attack_ap.init_params("static", hidden=8)
    params.w3[0, 0] = np.nan
    return _saved_bytes(attack_ap.save_params, params=params)


def _params_filled(**values) -> bytes:
    """A static predictor file whose named arrays hold the given values, each finite."""
    params = attack_ap.init_params("static", hidden=8)
    for name, value in values.items():
        getattr(params, name)[...] = value
    return _saved_bytes(attack_ap.save_params, params=params)


#: ``ap-run`` and ``eval --method ap`` on the 16 px face of ``predictor_inputs``.
_AP_RUN_16 = ["ap-run", "--image", "{face}", "--normals", "{normals}", "--params"]
_EVAL_AP_16 = ["eval", "--manifest", "{manifest}", "--method", "ap", "--params"]

#: The refusal of a light that a predictor file predicts from finite weights.
_PREDICTED_LIGHT = "input: light coefficients must be finite and at most 1e+300 in magnitude"


def _header_only_params(variant: str, hidden: int, shapes) -> bytes:
    """A parameter file of valid scalars whose arrays are ``.npy`` headers declaring ``shapes``
    in float64, with no values behind them."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        for name, value in [("format_version", 1), ("variant", variant), ("hidden", hidden),
                            ("embed_dim", 128)]:
            archive.writestr(f"{name}.npy", _saved_bytes(np.save, arr=np.array(value)))
        for name, shape in shapes.items():
            header = io.BytesIO()
            np.lib.format.write_array_header_1_0(
                header, {"descr": "<f8", "fortran_order": False, "shape": shape})
            archive.writestr(f"{name}.npy", header.getvalue())
    return buffer.getvalue()


def _params_with_zip_field(offset: int, field: bytes, signature=b"PK\x01\x02") -> bytes:
    """A valid parameter file in which every zip record starting with ``signature`` (the
    central directory's, by default) holds ``field`` at ``offset``."""
    blob = bytearray(_saved_bytes(attack_ap.save_params, params=attack_ap.init_params("static", 8)))
    start = blob.find(signature)
    while start >= 0:
        blob[start + offset:start + offset + len(field)] = field
        start = blob.find(signature, start + 4)
    return bytes(blob)


_MISSING_PNGS = ["--image", "missing-face.png", "--normals", "missing-normals.png"]
_RELIGHT = ["relight", *_MISSING_PNGS, "--out", "relit.png"]
_ESTIMATE_LIGHT = ["estimate-light", "--normals", "missing-normals.png", "--out", "light.txt",
                   "--image"]


def _lights_csv(bad_row: str) -> str:
    """A lights file whose row 2 (the header is row 1) is well formed and row 3 is ``bad_row``."""
    header = ",".join(["index"] + [f"L{j}" for j in range(9)] + [f"Lhat{j}" for j in range(9)])
    return f"{header}\n0,{','.join(['0.5'] * 18)}\n{bad_row}\n"


def _manifest(k=1, images=("a.png", "b.png"), normals=("n.png", "n.png"), identities=("a",)):
    """A manifest of ``identities`` whose fields are as given; no file it names exists."""
    return json.dumps({"k": k, "identities": [
        {"identity": identity, "images": images, "normals": normals} for identity in identities]})


@pytest.mark.parametrize("command, content, message", [
    (["analyze-light", "--lights"], "", "expected 19 columns, got 0"),
    (["eval", "--manifest"], "[]", "malformed manifest"),
    (["ap-train", "--out", "params.npz", "--manifest"], "[]", "malformed manifest"),
    (_EVAL_AP, _PARAMS_WITHOUT_W1, "input: malformed parameter file: missing key 'w1'\n"),
    (_EVAL_AP, b"PK\x03\x04 is not a zip archive", "input: malformed parameter file"),
    (_EVAL_AP, _saved_bytes(np.save, arr=np.zeros(9)), "input: malformed parameter file"),
    (_EVAL_AP, b"", "input: malformed parameter file"),
    (["eval", "--manifest"], _manifest(images=[1, 2]), "images must be a list of file names"),
    (["eval", "--manifest"], _manifest(normals=[None, None]),
     "normals must be a list of file names"),
    (["eval", "--manifest"], _manifest(images="ab"), "images must be a list of file names"),
    (["eval", "--manifest"], _manifest(k=True), "k must be an integer, got True"),
    (["phy-sim", "--scenario"], '{"scene": {', "malformed scenario"),
    (["eval", "--manifest"], _manifest(identities=("a", "a", "b")),
     "identity 'a' appears more than once"),
    (["ap-train", "--out", "params.npz", "--manifest"], _manifest(identities=("a", "a")),
     "identity 'a' appears more than once"),
    (["eval", "--manifest"], _manifest(identities=(None, "None")),
     "identity must be a non-empty string, got None"),
    (["eval", "--manifest"], _manifest(identities=("",)),
     "identity must be a non-empty string, got ''"),
    (["eval", "--manifest"], _manifest(identities=(3, "3")),
     "identity must be a non-empty string, got 3"),
    (["eval", "--manifest"], '{"k": 1, "identities": [{"images": [], "normals": []}]}',
     "missing key 'identity'"),
    (["eval", "--manifest"], '{"k": 1,', "malformed manifest"),
    (_EVAL_AP, _params_with_nan_w3(),
     "input: malformed parameter file: parameter w3 must have shape (9, 8) and finite values"),
    (["analyze-light", "--lights"], _lights_csv("1," + ",".join(["0.5"] * 17)),
     "input: row 3: a light needs exactly 9 coefficients, got (8,)"),
    (["analyze-light", "--lights"], _lights_csv("1," + ",".join(["0.5"] * 19)),
     "input: row 3: a light needs exactly 9 coefficients, got (10,)"),
    (["analyze-light", "--lights"], _lights_csv("1," + ",".join(["0.5"] * 17 + ["nan"])),
     "input: row 3: light coefficients must be finite"),
    (["analyze-light", "--lights"], _lights_csv("1,x," + ",".join(["0.5"] * 17)),
     "input: row 3: could not convert string to float: 'x'"),
    (_EVAL_AP, _header_only_params("static", 8, {"w1": (10 ** 11,)}),
     "input: malformed parameter file: parameter w1 is stored as float64 (100000000000,), "
     "expected float64 (8, 9)"),
    (_EVAL_AP, _header_only_params("dynamic", 10 ** 5, {
        "w1": (10 ** 5, 9), "b1": (10 ** 5,), "wg": (10 ** 10, 128), "bg": (10 ** 10,),
        "b2": (10 ** 5,), "w3": (9, 10 ** 5), "b3": (9,)}),
     "input: malformed parameter file: parameter wg of shape (10000000000, 128) exceeds "
     "8388608 floats"),
    (_RELIGHT + ["--new-light"], "nan 0 0 0 0 0 0 0 0", "input: light coefficients must be finite"),
    (_RELIGHT + ["--new-light", "missing-light.txt", "--light"], "x 0 0 0 0 0 0 0 0",
     "input: could not convert string to float: 'x'"),
    (["ap-run", *_MISSING_PNGS, "--params"], b"", "input: malformed parameter file"),
    (_ESTIMATE_LIGHT, png_with_idat(1025, 1024, b""),
     "input: unsupported image size 1025x1024 (at most 1048576 pixels)"),
    (_ESTIMATE_LIGHT, png_with_idat(4096, 4096, b""),
     "input: unsupported image size 4096x4096 (at most 1048576 pixels)"),
    (_EVAL_AP, _params_with_zip_field(10, struct.pack("<H", 99)),  # compression method
     "input: malformed parameter file: That compression method is not supported"),
    (["ap-run", *_MISSING_PNGS, "--params"], _params_with_zip_field(8, struct.pack("<H", 0x41)),
     "input: malformed parameter file: strong encryption (flag bit 6)"),
    (_EVAL_AP, _params_with_zip_field(16, struct.pack("<I", 10**6), b"PK\x05\x06"),
     "input: malformed parameter file"),
    (["analyze-light", "--lights"], _lights_csv(",".join(["1"] + ["0.5"] * 18)).encode()
     .replace(b"\n1,0.5", b"\n1,0.\xff"),
     "input: 'utf-8' codec can't decode byte 0xff"),
    (["analyze-light", "--lights"], _lights_csv("1," + "5" * 200_000),
     "input: field larger than field limit"),
    (["analyze-light", "--lights"], _lights_csv("1," + ",".join(["1e308"] * 18)),
     "input: row 3: light coefficients must be finite and at most 1e+300 in magnitude"),
    (_AP_RUN_16, _params_filled(b3=1.5e300), _PREDICTED_LIGHT),
    (_EVAL_AP_16, _params_filled(b3=1.5e300), _PREDICTED_LIGHT),
    (_AP_RUN_16, _params_filled(w1=1e200, w3=1e200), _PREDICTED_LIGHT),
    (_EVAL_AP_16, _params_filled(w1=1e200, w3=1e200), _PREDICTED_LIGHT),
    (["eval", "--manifest"], _manifest(), "input: eval needs at least 2 identities, got 1"),
    (_EVAL_AP, _saved_bytes(np.savez, variant=np.array("static"), hidden=np.array(8),
                            embed_dim=np.array(128)),
     "input: malformed parameter file: missing key 'format_version'\n"),
    (_EVAL_AP, _saved_bytes(np.savez, format_version=np.array(1), variant=np.array("static"),
                            hidden=np.array(8)),
     "input: malformed parameter file: missing key 'embed_dim'\n"),
], ids=["empty_lights", "eval_manifest_list", "ap_train_manifest_list", "params_without_w1",
        "params_bad_zip", "params_plain_npy", "params_empty", "manifest_number_images",
        "manifest_null_normals", "manifest_string_images", "manifest_bool_k",
        "scenario_json_syntax", "manifest_repeated_identity", "ap_train_repeated_identity",
        "manifest_null_identity", "manifest_empty_identity", "manifest_number_identity",
        "manifest_missing_identity", "manifest_json_syntax", "params_nan_w3",
        "lights_17_values", "lights_19_values", "lights_nan", "lights_not_a_number",
        "params_header_lies", "params_generator_over_bound", "relight_new_light_nan",
        "relight_light_not_a_number", "ap_run_params_empty", "png_over_pixel_cap",
        "png_4096_square", "params_compression_method_99", "ap_run_params_strong_encryption",
        "params_directory_offset_past_the_end", "lights_undecodable_byte",
        "lights_field_over_csv_limit", "lights_map_overflows",
        "ap_run_params_predict_b3_over_bound", "eval_params_predict_b3_over_bound",
        "ap_run_params_predict_overflow", "eval_params_predict_overflow",
        "eval_manifest_one_identity", "params_without_format_version",
        "params_without_embed_dim"])
def test_malformed_input_file_exits_2(tmp_path, capsys, monkeypatch, predictor_inputs, command,
                                      content, message):
    """A malformed input file exits 2 naming the file, before the bundled corpus is built."""
    def synthetic_corpus(*args, **kwargs):
        raise AssertionError("built the corpus before reading the input")

    monkeypatch.setattr(cli_module, "synthetic_corpus", synthetic_corpus)
    path = tmp_path / "input"
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    assert cli([part.format(**predictor_inputs) for part in command] + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and str(path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("fault", [ManifestError("split fault"),
                                   DegenerateLabelsError("labels fault")],
                         ids=["manifest_error", "degenerate_labels"])
def test_eval_with_params_keeps_a_package_error_its_own(tmp_path, capsys, monkeypatch,
                                                         predictor_inputs, fault):
    """Under ``--params`` only a plain ValueError is the predictor's: a package error raised
    elsewhere in the evaluation is not blamed on the predictor file."""
    def build_split(*args, **kwargs):
        raise fault

    monkeypatch.setattr(harness, "build_split", build_split)
    params = tmp_path / "params.npz"
    attack_ap.save_params(params, attack_ap.init_params("static", hidden=4))
    assert cli(["eval", "--manifest", predictor_inputs["manifest"], "--method", "ap",
                "--params", str(params), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {fault}\n"


@pytest.fixture(scope="module")
def predictor_inputs(tmp_path_factory):
    """Paths of a 16 px face, its normal map, and a manifest of two identities, each listing
    them twice."""
    from advrelight.relight import FaceImage
    from advrelight.shading import shade, sphere_normals

    root = tmp_path_factory.mktemp("predictor_inputs")
    normals = sphere_normals(16)
    save_face_image(root / "face.png", FaceImage.from_luminance(
        0.8 * shade(normals, [0.9, 0.1, 0.3, 0.2, 0, 0, 0, 0, 0]) + 0.05))
    save_normal_map(root / "normals.png", normals)
    (root / "manifest.json").write_text(_manifest(
        images=("face.png", "face.png"), normals=("normals.png", "normals.png"),
        identities=("a", "b")))
    return {name: str(root / f"{name}.{ext}")
            for name, ext in [("face", "png"), ("normals", "png"), ("manifest", "json")]}


@pytest.fixture(scope="module")
def mismatched(tmp_path_factory):
    """A 16 px face, a 17 px normal map, a 16 px normal map that masks no pixel, a light file
    and a predictor file."""
    from advrelight.relight import FaceImage
    from advrelight.shading import NormalMap, shade, sphere_normals

    root = tmp_path_factory.mktemp("mismatched")
    normals = sphere_normals(16)
    save_face_image(root / "face.png", FaceImage.from_luminance(
        0.8 * shade(normals, [0.9, 0.1, 0.3, 0.2, 0, 0, 0, 0, 0]) + 0.05))
    save_normal_map(root / "normals17.png", sphere_normals(17))
    save_normal_map(root / "empty.png", NormalMap(normals.normals, np.zeros((16, 16), bool)))
    save_light(root / "light.txt", [0.9, 0.1, 0.3, 0.2, 0, 0, 0, 0, 0])
    attack_ap.save_params(root / "params.npz", attack_ap.init_params("static", hidden=4))
    return root


@pytest.mark.parametrize("normals, message", [
    pytest.param("normals17.png", "image {face} is 16x16 px but normal map {normals} is 17x17 px",
                 id="size_mismatch"),
    pytest.param("empty.png", "normal map {normals} masks no pixel of image {face}",
                 id="empty_mask"),
])
@pytest.mark.parametrize("command", [
    pytest.param(["estimate-light", "--out", "{out}"], id="estimate_light"),
    pytest.param(["relight", "--new-light", "{light}", "--out", "{out}"], id="relight"),
    pytest.param(["attack-aq", "--light", "{light}", "--iters", "1"], id="attack_aq"),
    pytest.param(["ap-run", "--params", "{params}"], id="ap_run"),
])
def test_single_image_commands_name_an_image_and_a_normal_map_that_do_not_fit(
        mismatched, tmp_path, capsys, command, normals, message):
    names = dict(face=mismatched / "face.png", normals=mismatched / normals,
                 light=mismatched / "light.txt", params=mismatched / "params.npz",
                 out=tmp_path / "out")
    argv = [arg.format(**names) for arg in command]
    assert cli(argv + ["--image", str(names["face"]), "--normals", str(names["normals"])]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message.format(**names)}\n"
    assert not names["out"].exists()


@pytest.mark.parametrize("command", [
    pytest.param(["estimate-light", "--out", "{out}"], id="estimate_light"),
    pytest.param(["relight", "--new-light", "{light}", "--out", "{out}"], id="relight"),
    pytest.param(["attack-aq", "--iters", "1", "--out-light", "{out}"], id="attack_aq"),
    pytest.param(["ap-run", "--params", "{params}", "--out-light", "{out}"], id="ap_run"),
])
def test_single_image_commands_name_an_image_and_a_normal_map_whose_light_fit_fails(
        mismatched, tmp_path, capsys, command):
    """A normal map that masks 3 pixels cannot fit 9 coefficients; the refusal names both
    files and keeps the fit's own detail."""
    from advrelight.shading import NormalMap, sphere_normals

    normals = sphere_normals(16)
    mask = np.zeros((16, 16), bool)
    mask[7:8, 6:9] = True
    names = dict(face=mismatched / "face.png", normals=tmp_path / "three.png",
                 light=mismatched / "light.txt", params=mismatched / "params.npz",
                 out=tmp_path / "out")
    save_normal_map(names["normals"], NormalMap(normals.normals, mask))
    argv = [arg.format(**names) for arg in command]
    assert cli(argv + ["--image", str(names["face"]), "--normals", str(names["normals"])]) == 2
    assert capsys.readouterr().err == (
        f"error: image {names['face']} and normal map {names['normals']}: "
        "rank-deficient lighting system (rank 3 < 9)\n")
    assert not names["out"].exists()


def test_ap_train_whose_step_overflows_exits_2_without_a_warning(predictor_inputs, tmp_path,
                                                                 capsys):
    """A learning rate of 1e300 overflows the second batch's forward pass. The finite check
    after it refuses the step; numpy's overflow warning, an error under this suite's
    filterwarnings, stays silent."""
    manifest = tmp_path / "one.json"
    manifest.write_text(_manifest(images=("face.png", "face.png"),
                                  normals=("normals.png", "normals.png")))
    (tmp_path / "face.png").write_bytes(Path(predictor_inputs["face"]).read_bytes())
    (tmp_path / "normals.png").write_bytes(Path(predictor_inputs["normals"]).read_bytes())
    out = tmp_path / "params.npz"
    assert cli(["ap-train", "--manifest", str(manifest), "--lr", "1e300", "--batch-size", "1",
                "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: non-finite loss in epoch 0, batch 1\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [
    pytest.param(["eval", "--method", "none"], id="eval"),
    pytest.param(["ap-train", "--out", "params.npz"], id="ap_train"),
])
def test_manifest_pairing_an_image_and_a_normal_map_of_different_sizes_exits_2(
        mismatched, tmp_path, capsys, monkeypatch, command):
    """The pair is refused where the manifest is loaded, wherever the split would put it."""
    manifest = mismatched / "manifest.json"
    manifest.write_text(json.dumps({"k": 1, "identities": [
        {"identity": "a", "images": ["face.png", "face.png"], "normals": ["empty.png"] * 2},
        {"identity": "b", "images": ["face.png", "face.png"],
         "normals": ["empty.png", "normals17.png"]}]}))
    monkeypatch.chdir(tmp_path)
    assert cli(command + ["--manifest", str(manifest)]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: malformed manifest {manifest}: image {mismatched / 'face.png'} is "
                   f"16x16 px but normal map {mismatched / 'normals17.png'} is 17x17 px\n")
    assert not (tmp_path / "params.npz").exists()


def test_eval_manifest_of_one_identity_exits_2_before_attacking(mismatched, capsys, monkeypatch):
    """One identity gives the ROC no negative pair; eval refuses it before any attack."""
    def evaluate(*args, **kwargs):
        raise AssertionError("evaluated a manifest of one identity")

    monkeypatch.setattr(cli_module.harness, "evaluate", evaluate)
    manifest = mismatched / "one.json"
    manifest.write_text(json.dumps({"k": 1, "identities": [
        {"identity": "a", "images": ["face.png"] * 2, "normals": ["empty.png"] * 2}]}))
    assert cli(["eval", "--manifest", str(manifest), "--out-dir", str(mismatched / "out")]) == 2
    assert capsys.readouterr().err == (f"error: malformed manifest {manifest}: eval needs at "
                                       f"least 2 identities, got 1\n")


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


def test_ap_training_and_eval_never_read_the_corpus_colors(tmp_path, monkeypatch):
    """Relit images share their sources' colors lazily, and nothing here reads them."""
    built = []

    def recording_corpus(*args, **kwargs):
        groups = synthetic_corpus(*args, **kwargs)
        built.extend(s.image for g in groups for s in g.samples)
        return groups

    monkeypatch.setattr(cli_module, "synthetic_corpus", recording_corpus)
    params = tmp_path / "params.npz"
    assert cli(["ap-train", "--variant", "dynamic", "--hidden", "8", "--epochs", "1",
                "--out", str(params)]) == 0
    assert cli(["eval", "--method", "ap", "--params", str(params),
                "--out-dir", str(tmp_path / "eval")]) == 0
    assert len(built) == 2 * 128
    assert not any("chroma" in vars(image) for image in built)


def test_eval_ap_with_a_predictor_of_another_embedding_dimension_exits_2(tmp_path, capsys):
    params = tmp_path / "params.npz"
    attack_ap.save_params(params, attack_ap.init_params("dynamic", hidden=8, embed_dim=64))
    assert cli(["eval", "--method", "ap", "--params", str(params),
                "--out-dir", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert "expects 64-d embeddings, the embedder gives 128-d" in err
    assert "Traceback" not in err and "gufunc" not in err


@pytest.mark.parametrize("flag, value", [
    ("--hidden", "0"), ("--hidden", "-1"), ("--hidden", str(MAX_HIDDEN + 1)), ("--hidden", "x"),
    ("--batch-size", "0"), ("--batch-size", "-8"), ("--epochs", "0"),
    ("--lr", "nan"), ("--lr", "inf"), ("--lr", "0"), ("--lr", "-1e-3"),
    ("--momentum", "nan"), ("--momentum", "inf"), ("--momentum", "0"),
])
def test_ap_train_out_of_bound_flag_exits_1_before_allocating(tmp_path, capsys, monkeypatch,
                                                              flag, value):
    """Bad flags are usage errors, found before the corpus is built or a predictor allocated."""
    def init_params(*args, **kwargs):
        raise AssertionError("allocated before the bound check")

    monkeypatch.setattr(attack_ap, "init_params", init_params)
    out = tmp_path / "params.npz"
    assert cli(["ap-train", flag, value, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err and "usage" in err
    assert not out.exists()


def test_phy_sim_scenario(tmp_path, capsys):
    """A scenario without gains, tolerances or bounds runs on the defaults.

    The same scenario with those defaults written out as lists gives the same trace.
    """
    data = {
        "scene": {"sphere_resolution": 64, "albedo": 0.8, "ambient": 0.25},
        "start_pose": {"azimuth": 0.2, "polar": 0.3, "distance": 3.0,
                       "intensity": 1.5},
        "target": {"pose": {"azimuth": 1.0, "polar": 0.6, "distance": 2.0,
                            "intensity": 1.5}},
        "max_iterations": 100,
    }
    explicit = {"gains": [0.5, 0.5, 0.5], "tolerances": [0.035, 0.035, 0.02],
                "distance_bounds": [0.05, 50]}
    traces = []
    for name, overrides in (("default", {}), ("explicit", explicit)):
        scenario, trace = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        scenario.write_text(json.dumps({**data, **overrides}))
        assert cli(["phy-sim", "--scenario", str(scenario), "--trace", str(trace)]) == 0
        assert "converged" in capsys.readouterr().out
        traces.append(trace.read_text())
    header = traces[0].splitlines()[0]
    assert header == "iteration,azimuth,polar,distance,intensity,d_azimuth,d_polar,area_ratio"
    assert traces[1] == traces[0]


_SCENE = {"sphere_resolution": 16}
_START = {"azimuth": 0.2, "polar": 0.3, "distance": 3.0, "intensity": 1.5}


@pytest.mark.parametrize("start_pose, scene, overrides", [
    pytest.param(None, _SCENE, {}, id="None"),
    pytest.param({"azimuth": 0.2, "polar": 0.3, "distance": 3.0, "brightness": 1.5},
                 _SCENE, {}, id="start_pose1"),
    pytest.param({"azimuth": 0.2, "polar": 0.3, "distance": 3.0}, _SCENE, {}, id="start_pose2"),
    pytest.param(_START, [], {}, id="scene_list"),
    pytest.param(_START, _SCENE, {"gains": ["a", "b", "c"]}, id="gains_strings"),
    pytest.param(_START, _SCENE, {"distance_bounds": ["a", "b"]}, id="bounds_strings"),
    pytest.param(_START, _SCENE, {"tolerances": ["x", 0.1, 0.1]}, id="tolerances_string"),
    pytest.param(_START, _SCENE, {"gains": [0.5, 0.5]}, id="gains_short"),
    pytest.param(_START, _SCENE, {"distance_bounds": 5}, id="bounds_number"),
    pytest.param(_START, _SCENE, {"tau": 1.5}, id="tau_above_1"),
    pytest.param(_START, _SCENE, {"tau": float("nan")}, id="tau_nan"),
    pytest.param(_START, {**_SCENE, "ambient": float("inf")}, {}, id="ambient_inf"),
    pytest.param(_START, {**_SCENE, "ambient": float("nan")}, {}, id="ambient_nan"),
    pytest.param(_START, {**_SCENE, "albedo": float("nan")}, {}, id="albedo_nan"),
    pytest.param(_START, _SCENE, {"max_iterations": -5}, id="max_iterations_negative"),
    pytest.param(_START, _SCENE, {"distance_bounds": [5, 1]}, id="bounds_reversed"),
    pytest.param(_START, _SCENE, {"distance_bounds": [0, 1]}, id="bounds_zero"),
    pytest.param(_START, _SCENE, {"max_iterations": MAX_SCENARIO_ITERATIONS + 1},
                 id="max_iterations_above_bound"),
    pytest.param(_START, _SCENE, {"max_iterations": 10.0}, id="max_iterations_float"),
    pytest.param(_START, _SCENE, {"max_iterations": True}, id="max_iterations_bool"),
    pytest.param(_START, _SCENE, {"map_resolution": 32.9}, id="map_resolution_float"),
    pytest.param(_START, _SCENE, {"map_resolution": True}, id="map_resolution_bool"),
    pytest.param(_START, {"sphere_resolution": 16.0}, {}, id="sphere_resolution_float"),
    pytest.param(_START, {"sphere_resolution": "16"}, {}, id="sphere_resolution_string"),
    pytest.param({**_START, "distance": float("nan")}, _SCENE, {}, id="start_distance_nan"),
    pytest.param({**_START, "distance": 0.05, "intensity": 1e308}, _SCENE, {},
                 id="start_intensity_overflows"),
    pytest.param(_START, _SCENE, {"gains": [float("nan"), 0.5, 0.5]}, id="gains_nan"),
    pytest.param(_START, _SCENE, {"tolerances": [0.1, float("nan"), 0.1]}, id="tolerances_nan"),
    pytest.param(_START, _SCENE, {"gains": [0, 0, 0]}, id="gains_zero"),
    pytest.param(_START, _SCENE, {"gains": [0.5, 1e308, 0.5]}, id="gains_huge"),
    pytest.param(_START, _SCENE, {"gains": [-1, 0.5, 0.5]}, id="gains_negative"),
    pytest.param(_START, _SCENE, {"gains": [0.5, 0.5, 2]}, id="gains_two"),
    pytest.param(_START, _SCENE, {"tolerances": [-1, 0.035, 0.02]}, id="tolerances_negative"),
    pytest.param(_START, _SCENE, {"tolerances": [0.035, 0.035, 0]}, id="tolerances_zero"),
])
def test_phy_sim_malformed_start_pose_exits_2(tmp_path, capsys, start_pose, scene, overrides):
    """Malformed start poses, scenes and scenario lists exit 2; a bad list names its key."""
    data = {"scene": scene, "target": {"coeffs": [1.0] + [0.0] * 8}, **overrides}
    if start_pose is not None:
        data["start_pose"] = start_pose
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(data))
    assert cli(["phy-sim", "--scenario", str(scenario)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed scenario")
    assert all(key in err for key in overrides)
    assert "Traceback" not in err


def test_phy_sim_checks_scenario_scalars_before_building_the_scene(tmp_path, capsys,
                                                                   monkeypatch):
    """A bad scalar or target is refused before a 1024 px sphere is built or a pose target is
    fitted.

    The cases share one test, so the original map_resolution case keeps its id."""
    calls = {"sphere_normals": 0, "scene_light_estimate": 0}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count(cli_module, "sphere_normals")
    count(phy_sim, "scene_light_estimate")
    scenario = tmp_path / "scenario.json"
    (tmp_path / "nan.txt").write_text("nan 0 0 0 0 0 0 0 0")
    bad_pose = {"azimuth": 1.0, "polar": 3.0, "distance": 2.0, "intensity": 1.5}
    for scene, overrides, message in [
            ({}, {"map_resolution": 32.9}, "map_resolution"),
            ({"ambient": float("nan")}, {}, "ambient must be finite"),
            ({"albedo": float("nan")}, {}, "albedo must lie in [0, 1]"),
            ({}, {"target": {"light_file": "nan.txt"}}, "light coefficients must be finite"),
            ({}, {"target": {"coeffs": [0.5] * 8}}, "a light needs exactly 9 coefficients"),
            ({}, {"target": {"pose": bad_pose}}, "polar must lie in [0, pi/2]"),
            ({}, {"gains": [0, 0, 0]}, "gains must be a list of 3 finite numbers in (0, 2)"),
            ({}, {"tolerances": [-1, 0.035, 0.02]},
             "tolerances must be a list of 3 finite numbers in (0, inf)")]:
        scenario.write_text(json.dumps({
            "scene": {"sphere_resolution": 1024, **scene}, "start_pose": _START,
            "target": {"pose": {"azimuth": 1.0, "polar": 0.6, "distance": 2.0, "intensity": 1.5}},
            **overrides}))
        assert cli(["phy-sim", "--scenario", str(scenario)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed scenario") and message in err
        assert calls == {"sphere_normals": 0, "scene_light_estimate": 0}, message


@pytest.mark.parametrize("scene, overrides, key", [
    pytest.param({"sphere_resolution": MAX_SCENARIO_RESOLUTION + 1}, {},
                 "scene.sphere_resolution", id="sphere_resolution"),
    pytest.param(_SCENE, {"map_resolution": MAX_SCENARIO_RESOLUTION + 1},
                 "map_resolution", id="map_resolution"),
])
def test_phy_sim_resolution_above_bound_exits_2_before_allocating(tmp_path, capsys, monkeypatch,
                                                                  scene, overrides, key):
    """A resolution just above the bound is refused before any sphere of that size is built."""
    def guarded(real):
        def sphere_normals(resolution):
            assert resolution <= MAX_SCENARIO_RESOLUTION, "allocated before the bound check"
            return real(resolution)
        return sphere_normals

    monkeypatch.setattr(cli_module, "sphere_normals", guarded(cli_module.sphere_normals))
    monkeypatch.setattr(shading, "sphere_normals", guarded(shading.sphere_normals))
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"scene": scene, "start_pose": _START,
                                    "target": {"coeffs": [1.0] + [0.0] * 8}, **overrides}))
    assert cli(["phy-sim", "--scenario", str(scenario)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed scenario") and key in err


@pytest.mark.parametrize("flag, value", [
    ("--resolution", "7"), ("--resolution", str(MAX_SCENARIO_RESOLUTION + 1)),
    ("--resolution", "100000"), ("--resolution", "x"),
    ("--hex-size", "inf"), ("--hex-size", "nan"), ("--hex-size", "0"), ("--hex-size", "-1"),
])
def test_analyze_light_out_of_bound_flag_exits_1_before_allocating(tmp_path, capsys, monkeypatch,
                                                                  flag, value):
    """Bad flags are usage errors, found before the lights file is read or a map is built."""
    def sphere_normals(resolution):
        raise AssertionError("allocated before the bound check")

    monkeypatch.setattr(shading, "sphere_normals", sphere_normals)
    out = tmp_path / "out"
    assert cli(["analyze-light", "--lights", str(tmp_path / "missing.csv"), flag, value,
                "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err and "usage" in err
    assert not out.exists()


_MISSING = ["--image", "missing.png", "--normals", "missing.png"]


@pytest.mark.parametrize("args, flag", [
    (["eval", "--method", "random", "--epsilon", "inf"], "--epsilon"),
    (["eval", "--method", "random", "--epsilon", "nan"], "--epsilon"),
    (["eval", "--method", "aq", "--epsilon", "nan"], "--epsilon"),
    (["eval", "--method", "aq", "--epsilon", "-1"], "--epsilon"),
    (["eval", "--method", "aq", "--iters", "0"], "--iters"),
    (["eval", "--method", "aq", "--iters", str(MAX_ITERS + 1)], "--iters"),
    (["eval", "--method", "ap", "--params", "missing.npz", "--epsilon", "0.4"], "--epsilon"),
    (["attack-aq", *_MISSING, "--epsilon", "inf"], "--epsilon"),
    (["attack-aq", *_MISSING, "--epsilon", "nan"], "--epsilon"),
    (["attack-aq", *_MISSING, "--epsilon", "-1"], "--epsilon"),
    (["attack-aq", *_MISSING, "--iters", "0"], "--iters"),
    (["attack-aq", *_MISSING, "--iters", str(MAX_ITERS + 1)], "--iters"),
    (["eval", "--method", "none", "--epsilon", "0.4"], "--epsilon"),
    (["eval", "--embedder", "bogus"], "--embedder"),
    (["eval", "--eval-embedder", "bogus"], "--eval-embedder"),
    (["eval", "--method", "ap", "--params", "missing.npz", "--embedder", "bogus"], "--embedder"),
    (["ap-train", "--out", "params.npz", "--embedder", "bogus"], "--embedder"),
    (["attack-aq", *_MISSING, "--embedder", "bogus"], "--embedder"),
    (["eval", "--method", "random", "--epsilon", "1.7e308"], "--epsilon"),
    (["eval", "--method", "aq", "--epsilon", "1e308", "--iters", "1"], "--epsilon"),
    (["attack-aq", *_MISSING, "--epsilon", "1.01e300"], "--epsilon"),
    (["eval", "--method", "ap"], "--params"),
    (["eval", "--method", "aq", "--params", "missing.npz"], "--params"),
    (["eval", "--params", "missing.npz"], "--params"),
])
def test_attack_out_of_bound_flag_exits_1_before_reading_anything(capsys, monkeypatch, args, flag):
    """Bad attack budgets and embedder selectors are usage errors, found before a corpus,
    image or predictor is read."""
    def synthetic_corpus():
        raise AssertionError("built the corpus before the bound check")

    monkeypatch.setattr(cli_module, "synthetic_corpus", synthetic_corpus)
    assert cli(args) == 1
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err and "Traceback" not in err


def test_unknown_embedder_exits_1(assets, capsys):
    """An unknown ``--embedder`` is a usage error, not a traceback."""
    assert cli(["attack-aq", "--image", str(assets / "face.png"),
                "--normals", str(assets / "normals.png"), "--embedder", "bogus"]) == 1
    err = capsys.readouterr().err
    assert "embedder must be builtin or external:<command>, got bogus" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("module, args, code", [
    pytest.param("advrelight", ["--help"], 0, id="args0-0"),
    pytest.param("advrelight", ["eval", "--method", "fgsm"], 1, id="args1-1"),
    pytest.param("advrelight.cli", ["--help"], 0, id="cli-args0-0"),
    pytest.param("advrelight.cli", ["eval", "--method", "fgsm"], 1, id="cli-args1-1"),
])
def test_python_m_runs_the_cli(module, args, code):
    src = str(Path(advrelight.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-m", module, *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == code
    assert ("usage: advrelight" in proc.stdout) if code == 0 else ("invalid choice" in proc.stderr)


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


def test_eval_closes_the_first_endpoint_when_the_second_handshake_fails(monkeypatch, capsys):
    opened = []

    class Recorded(cli_module.ExternalEmbedder):
        def __init__(self, command):
            opened.append(self)
            super().__init__(command)

    monkeypatch.setattr(cli_module, "ExternalEmbedder", Recorded)
    endpoint = f"{sys.executable} {Path(__file__).parent / 'helpers' / 'echo_embedder.py'}"
    assert cli(["eval", "--embedder", f"external:{endpoint}",
                "--eval-embedder", f"external:{endpoint} --bad-hello"]) == 2
    err = capsys.readouterr().err
    assert "bad handshake" in err and f"endpoint '{endpoint} --bad-hello': " in err
    assert len(opened) == 2 and all(embedder.closed for embedder in opened)


_OUT_OF_BOUND_LIGHT = "light coefficients must be finite and at most 1e+300 in magnitude"


@pytest.mark.parametrize("flag, message", [
    pytest.param("--new-light", _OUT_OF_BOUND_LIGHT, id="new_light"),
    pytest.param("--light", _OUT_OF_BOUND_LIGHT, id="light"),
])
def test_relight_names_a_finite_light_file_whose_shading_overflows(assets, tmp_path, capsys,
                                                                   flag, message):
    """A light of 1e308 is finite, but the shading it would make overflows: it is refused as
    its file loads, and the error names the file without a floating-point warning."""
    huge = tmp_path / "huge.txt"
    huge.write_text("1e308 0 0 0 0 0 0 0 0\n")
    lights = {"--light": assets / "light.txt", "--new-light": assets / "light.txt", flag: huge}
    assert cli(["relight", "--image", str(assets / "face.png"),
                "--normals", str(assets / "normals.png"), "--out", str(tmp_path / "out.png"),
                *(arg for pair in lights.items() for arg in map(str, pair))]) == 2
    assert capsys.readouterr().err == f"error: {huge}: {message}\n"
    assert not (tmp_path / "out.png").exists()


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
