"""A generative gate for malformed inputs: seeded mutants of valid input files, run through
``cli``.

Each example mutates one valid file and runs the command that reads it: a ``phy-sim`` scenario
JSON; the face or normal-map PNG that ``estimate-light`` reads; a light file that ``relight``
reads; the ``lights.csv`` that ``analyze-light`` reads; a dataset manifest that ``eval``
reads; the predictor ``.npz`` that ``ap-run`` reads; or the reply stream an external endpoint
sends to ``attack-aq``. The mutations are truncation, byte flips, values swapped for
non-finite, huge, wrongly typed or wrongly sized ones, PNG headers that lie about their size,
rows with any filter type byte, decompression bombs, zip record fields set to any value,
predictor weights set to huge or subnormal values, and replies with a wrong handshake, header
or vector. The command must exit 0 (the mutant is still valid) or 2; an exit 2 starts with
``error:`` and names the mutated file (a manifest may instead name a file it lists, the
phy-sim loop may report that it ran and did not converge, and an endpoint is named by its
command), no traceback is printed, and every example finishes within a fixed wall time. A PNG,
light-file, ``lights.csv`` or predictor-file example also stays under a fixed traced allocation
peak for its kind; for a PNG, the reader's pixel cap bounds it.
A light file, ``lights.csv``, malformed predictor file or manifest that exits 2 does so before
any PNG is read, any light is fitted or the bundled corpus is built, and a PNG does so before
any PNG after it is read or any light is fitted (unless the error names a file read after it,
as a pair check or a manifest's listed file does). A predictor weight swap that exits 2 does
so after reading only the face and normal map and fitting one light. Examples are derandomized
and their count is fixed, so the gate is deterministic.
"""

import collections
import functools
import io
import json
import math
import re
import struct
import sys
import time
import zipfile
import zlib
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from advrelight import attack_ap, corpus, pngio, relight
from advrelight.cli import cli
from advrelight.relight import FaceImage, save_face_image
from advrelight.shading import (NormalMap, save_light, save_normal_map, shade, sphere_normals,
                                write_csv)

from conftest import patch_every_binding
from helpers.memory import traced_peak
from helpers.png import png_with_idat

#: Wall time one example may take. The slowest example took 0.03 s on a 2-CPU Xeon VM.
WALL_SECONDS = 1.0

#: Traced allocation peak of one PNG example; the largest was 0.4 MB. The pixel cap refuses
#: a bomb before it is inflated: a 1025 x 1024 face alone would decode to 25 MB of float64.
PNG_PEAK_BYTES = 4 * 2**20

#: Traced allocation peak of one light-file example (a ``relight``); the largest was 0.41 MB.
LIGHT_PEAK_BYTES = 4 * 2**20

#: Traced allocation peak of one ``lights.csv`` example (an ``analyze-light`` at 16 px); the
#: largest was 0.74 MB, a mutant whose one field passes ``csv``'s 131,072-character limit.
LIGHTS_CSV_PEAK_BYTES = 4 * 2**20

#: Traced allocation peak of one predictor-file example (an ``ap-run``); the largest was 3.4 MB,
#: and 4.1 MB as the process's first, nearly all of it the built-in embedder's QR (3.3 MB).
#: numpy allocates a member's array at its header's shape before it reads the data, so a
#: shape claim read before ``load_params`` checks it exceeds this (see the shape-claim test).
PREDICTOR_PEAK_BYTES = 16 * 2**20

GATE = settings(derandomize=True, database=None, deadline=None, max_examples=300)

#: Half the examples, for each of the four input kinds added after the first two, so that the
#: six kinds together stay within a few seconds of tier-1 time.
SMALL_GATE = settings(GATE, max_examples=150)

#: Examples of predictor weight swaps: each reads two PNGs and fits a light before it predicts.
WEIGHT_GATE = settings(GATE, max_examples=50)

#: Examples of endpoint replies: each starts an endpoint process, and takes about 20 ms.
REPLY_GATE = settings(GATE, max_examples=100)

_LIGHT = [0.9, 0.1, 0.3, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0]

_SCENARIO = {
    "scene": {"sphere_resolution": 16, "albedo": 0.8, "ambient": 0.25},
    "start_pose": {"azimuth": 0.2, "polar": 0.3, "distance": 3.0, "intensity": 1.5},
    "target": {"pose": {"azimuth": 1.0, "polar": 0.6, "distance": 2.0, "intensity": 1.5}},
    "gains": [0.5, 0.5, 0.5],
    "tolerances": [0.035, 0.035, 0.02],
    "distance_bounds": [0.05, 50],
    "tau": 0.9,
    "map_resolution": 16,
    "max_iterations": 20,
}

#: The loop's own outcome on a scenario it ran: a well-formed scenario may not converge, so
#: this exit 2 is a result, not an input error, and names no file.
_NOT_CONVERGED = "error: recurrence loop did not converge"

#: What a JSON value may be swapped for: non-finite and huge numbers and every wrong type.
_SWAPS = [math.nan, math.inf, -math.inf, 1e308, -1, True, "x", [], {}, None]

#: What a manifest value may also be swapped for: valid PNGs of another size, and a normal
#: map that masks no pixel.
_OTHER_PNGS = ["face17.png", "normals17.png", "normals-empty.png"]

#: What a token of a light file or ``lights.csv`` may be swapped for.
_TOKEN_SWAPS = ["nan", "inf", "-inf", "1e308", "-1e308", "4.9e-324", "x", "", "0 0", "0,0",
                '"', "1" * 200_000]

#: What one weight of a predictor may be set to: values whose prediction overflows or leaves
#: ``shading.MAX_LIGHT``, and a subnormal.
_WEIGHT_SWAPS = [1e200, 1.5e300, -1e300, 5e-324]

#: Dimension of the replayed endpoint's vectors, and the replies ``attack-aq --iters 1`` asks
#: of it: the reference and the start, 18 finite-difference probes, and the final relight.
DIMENSION, REPLIES = 16, 21

#: What an endpoint's handshake may be swapped for: wrong tokens, and dimensions of 0, 1, a
#: wrong size, a huge value and no number.
_HELLO_SWAPS = [b"HELLO replay 0", b"HELLO replay 1", b"HELLO replay 15", b"HELLO replay 17",
                b"HELLO replay " + b"9" * 40, b"HELLO replay -16", b"HELLO replay x",
                b"HELLO replay", b"HELLO replay 16 16", b"HOWDY replay 16", b"", b"VEC"]

#: What a reply's ``VEC`` header may be swapped for.
_HEADER_SWAPS = [b"", b"vec", b"VECTOR", b"VEC 16", b"HELLO replay 16", b"ERROR", b"\xff"]

#: What a value of a reply's vector may be swapped for.
_VALUE_SWAPS = [b"nan", b"inf", b"-inf", b"1e308", b"-1e308", b"x", b"0x10", b"", b"0.5 0.5",
                b"\xff"]

#: What a reply's vector may be scaled by: its norm off, or still within ``NORM_SLACK``.
_SCALES = [0.0, 0.5, 0.98, 0.995, 1.005, 1.02, 2.0, 1e300]

_MANIFEST = {"k": 1, "identities": [
    {"identity": name, "images": ["face.png", "face.png"],
     "normals": ["normals.png", "normals.png"]} for name in ("a", "b")]}


def _paths(value, prefix=()):
    """The path (a tuple of keys and indices) of every value inside ``value``, itself excluded."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _swapped(data, path, new):
    data = json.loads(json.dumps(data))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return data


def _with_crcs(blob: bytes) -> bytes:
    """``blob`` with the CRC of every whole chunk recomputed, so a mutation inside a chunk
    reaches the code behind the CRC check."""
    out, pos = bytearray(blob), 8
    while pos + 12 <= len(out):
        end = pos + 8 + int.from_bytes(out[pos:pos + 4], "big")
        if end + 4 > len(out):
            break
        out[end:end + 4] = (zlib.crc32(out[pos + 4:end]) & 0xFFFFFFFF).to_bytes(4, "big")
        pos = end + 4
    return bytes(out)


def _flipped(blob: bytes, flips) -> bytes:
    out = bytearray(blob)
    for position, mask in flips:
        out[position % len(out)] ^= mask
    return bytes(out)


def _header_lie(blob: bytes, width: int, height: int) -> bytes:
    """``blob`` whose IHDR declares ``width`` x ``height``, with a correct CRC."""
    return _with_crcs(blob[:16] + width.to_bytes(4, "big") + height.to_bytes(4, "big")
                      + blob[24:])


def _layout(blob: bytes):
    """``(width, height, depth, color type, scanlines)`` of ``blob``, a PNG laid out as
    ``pngio.write_png`` writes one: IHDR, one IDAT, IEND."""
    width, height, depth, color_type = struct.unpack(">IIBB", blob[16:26])
    idat_length = int.from_bytes(blob[33:37], "big")
    return width, height, depth, color_type, zlib.decompress(blob[41:41 + idat_length])


def _refiltered(blob: bytes, row: int, ftype: int) -> bytes:
    """``blob`` with the filter type byte of row ``row`` set to ``ftype`` (PNG defines 0-4)."""
    width, height, depth, color_type, scanlines = _layout(blob)
    rows = bytearray(scanlines)
    rows[(row % height) * (len(rows) // height)] = ftype
    return png_with_idat(width, height, zlib.compress(rows), depth, color_type)


@functools.lru_cache(maxsize=None)
def _bomb(blob: bytes, width: int, height: int) -> bytes:
    """A PNG in ``blob``'s format whose IDAT inflates to ``width`` x ``height`` zero pixels:
    a few hundred kilobytes on disk for a quarter gigabyte of pixels."""
    _, _, depth, color_type, _ = _layout(blob)
    total = height * (width * pngio._CHANNELS[color_type] * depth // 8 + 1)
    deflate, block = zlib.compressobj(9), bytes(min(total, 2**20))
    idat = b"".join(deflate.compress(block) for _ in range(total // len(block)))
    idat += deflate.compress(bytes(total % len(block))) + deflate.flush()
    return png_with_idat(width, height, idat, depth, color_type)


_DIMENSIONS = st.one_of(st.sampled_from([0, 1, 16, 1024, 1025, 4096, 2**31 - 1, 2**32 - 1]),
                        st.integers(0, 2**32 - 1))


@st.composite
def _png_mutants(draw, blob: bytes) -> bytes:
    kind = draw(st.sampled_from(["truncate", "flip", "flip_with_crcs", "header_lie", "filter",
                                 "bomb"]))
    if kind == "truncate":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    if kind == "header_lie":
        return _header_lie(blob, draw(_DIMENSIONS), draw(_DIMENSIONS))
    if kind == "filter":
        return _refiltered(blob, draw(st.integers(0, 2**16)), draw(st.integers(0, 255)))
    if kind == "bomb":
        return _bomb(blob, *draw(st.sampled_from([(1025, 1024), (2048, 2048), (4096, 4096)])))
    flips = draw(st.lists(st.tuples(st.integers(0, len(blob) - 1), st.integers(1, 255)),
                          min_size=1, max_size=4))
    flipped = _flipped(blob, flips)
    return _with_crcs(flipped) if kind == "flip_with_crcs" else flipped


@st.composite
def _mutants(draw, blob: bytes, swap) -> bytes:
    """``blob`` truncated, with 1-3 bytes flipped, or as ``swap(draw)`` rewrites it."""
    kind = draw(st.sampled_from(["truncate", "flip", "swap"]))
    if kind == "truncate":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    if kind == "flip":
        flips = st.tuples(st.integers(0, len(blob) - 1), st.integers(1, 255))
        return _flipped(blob, draw(st.lists(flips, min_size=1, max_size=3)))
    return swap(draw)


def _json_swap(data, swaps):
    """A swap that sets 1-2 of ``data``'s values, at any depth, to any of ``swaps``."""
    def swap(draw) -> bytes:
        out = data
        for path in draw(st.lists(st.sampled_from(list(_paths(data))), min_size=1, max_size=2)):
            try:
                out = _swapped(out, path, draw(st.sampled_from(swaps)))
            except (KeyError, IndexError, TypeError):  # an earlier swap removed this path
                pass
        return json.dumps(out).encode()
    return swap


def _token_swap(text: str):
    """A swap that sets 1-2 of ``text``'s comma- or space-separated tokens to any of
    ``_TOKEN_SWAPS``."""
    parts = re.split(r"([,\s]+)", text)  # tokens at even positions, separators between them
    def swap(draw) -> bytes:
        out = list(parts)
        for index in draw(st.lists(st.integers(0, len(parts) // 2), min_size=1, max_size=2)):
            out[2 * index] = draw(st.sampled_from(_TOKEN_SWAPS))
        return "".join(out).encode()
    return swap


#: (record signature, {field offset: field size}) of the zip records ``np.savez`` writes: the
#: central directory's version, flags, method, CRC, sizes, name and extra lengths and local
#: header offset; the local header's flags, method, CRC, sizes and lengths; and the end record's
#: entry counts, directory size and offset.
_ZIP_FIELDS = [(b"PK\x01\x02", {6: 2, 8: 2, 10: 2, 16: 4, 20: 4, 24: 4, 28: 2, 30: 2, 42: 4}),
               (b"PK\x03\x04", {6: 2, 8: 2, 14: 4, 18: 4, 22: 4, 26: 2, 28: 2}),
               (b"PK\x05\x06", {8: 2, 10: 2, 12: 4, 16: 4})]

_ZIP_VALUES = st.one_of(st.sampled_from([0, 1, 8, 9, 12, 14, 99, 0x41, 0xFFFF, 2**32 - 1]),
                        st.integers(0, 2**32 - 1))


def _zip_field_swap(blob: bytes):
    """A swap that sets one field of one of ``blob``'s zip records to any value of its width."""
    def swap(draw) -> bytes:
        signature, fields = draw(st.sampled_from(_ZIP_FIELDS))
        start = draw(st.sampled_from([m.start() for m in re.finditer(re.escape(signature), blob)]))
        offset = draw(st.sampled_from(sorted(fields)))
        at, size = start + offset, fields[offset]
        value = draw(_ZIP_VALUES) % 2 ** (8 * size)
        return blob[:at] + value.to_bytes(size, "little") + blob[at + size:]
    return swap


def _reply_lines() -> list[bytes]:
    """A valid reply stream: the handshake, then a header and a unit vector per reply."""
    rng = np.random.default_rng(0)
    lines = [f"HELLO replay {DIMENSION}".encode()]
    for _ in range(REPLIES):
        vector = rng.standard_normal(DIMENSION)
        lines += [b"VEC", " ".join(map(repr, (vector / np.linalg.norm(vector)).tolist())).encode()]
    return lines


@st.composite
def _reply_mutants(draw, lines: list[bytes]) -> bytes:
    """``lines`` as a stream, with its handshake, one reply's header or one reply's vector
    swapped, the stream closed early, or 1-3 of its bytes flipped."""
    kind = draw(st.sampled_from(["hello", "header", "short", "long", "value", "scale", "close",
                                 "flip"]))
    out = list(lines)
    header = 2 * draw(st.integers(0, REPLIES - 1)) + 1
    values = out[header + 1].split()
    if kind == "short":
        values = values[:draw(st.integers(0, DIMENSION - 1))]
    elif kind == "long":
        values += values[:draw(st.integers(1, DIMENSION))]
    elif kind == "value":
        values[draw(st.integers(0, DIMENSION - 1))] = draw(st.sampled_from(_VALUE_SWAPS))
    elif kind == "scale":
        scale = draw(st.sampled_from(_SCALES))
        values = [repr(float(v) * scale).encode() for v in values]
    out[header + 1] = b" ".join(values)
    if kind == "hello":
        out[0] = draw(st.sampled_from(_HELLO_SWAPS))
    elif kind == "header":
        out[header] = draw(st.sampled_from(_HEADER_SWAPS))
    elif kind == "close":
        out = out[:draw(st.integers(0, len(out) - 1))]
    stream = b"".join(line + b"\n" for line in out)
    if kind == "flip":
        flips = st.tuples(st.integers(0, len(stream) - 1), st.integers(1, 255))
        stream = _flipped(stream, draw(st.lists(flips, min_size=1, max_size=3)))
    return stream


def _face(normals) -> FaceImage:
    return FaceImage.from_luminance(0.8 * shade(normals, _LIGHT) + 0.05)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A face PNG, its normal-map PNG, a small scenario, a light file, a ``lights.csv``, a
    manifest, a predictor file and an endpoint's reply stream, each valid as written; and, for
    manifests to name, a face and a normal map of 17 px and a 16 px normal map that masks no
    pixel."""
    root = tmp_path_factory.mktemp("valid")
    normals = sphere_normals(16)
    save_face_image(root / "face.png", _face(normals))
    save_normal_map(root / "normals.png", normals)
    save_face_image(root / "face17.png", _face(sphere_normals(17)))
    save_normal_map(root / "normals17.png", sphere_normals(17))
    save_normal_map(root / "normals-empty.png", NormalMap(normals.normals, normals.mask & False))
    (root / "scenario.json").write_text(json.dumps(_SCENARIO))
    save_light(root / "light.txt", _LIGHT)
    write_csv(root / "lights.csv", ["index"] + [f"L{j}" for j in range(9)]
              + [f"Lhat{j}" for j in range(9)],
              [[i, *_LIGHT, *(np.roll(_LIGHT, i + 1) * 0.5)] for i in range(3)])
    (root / "manifest.json").write_text(json.dumps(_MANIFEST))
    attack_ap.save_params(root / "params.npz", attack_ap.init_params("static", hidden=4))
    (root / "replies.txt").write_bytes(b"".join(line + b"\n" for line in _reply_lines()))
    return root


def _run(argv):
    """``(exit code, stderr, seconds)`` of ``cli(argv)``, its output captured."""
    err = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli(argv)
    return code, err.getvalue(), time.perf_counter() - start


def _traced_run(argv):
    """``(exit code, stderr, seconds, traced allocation peak)`` of ``cli(argv)``."""
    result, peak = traced_peak(_run, argv)
    return (*result, peak)


def _run_counted(argv, reads=0, listed=(), run=_run, fits=0):
    """``run(argv)``: by default ``(exit code, stderr, seconds)`` of ``cli(argv)``, and always
    the exit code and stderr first. An exit 2 that names none of the ``listed`` files must come
    before more than ``reads`` PNGs are read, more than ``fits`` lights are fitted or the
    bundled corpus is built (calls counted through every binding of each, outside ``run``)."""
    counts = collections.Counter()

    def counted(function):
        def call(*args, **kwargs):
            counts[function.__name__] += 1
            return function(*args, **kwargs)
        return call

    with pytest.MonkeyPatch.context() as patch:
        for function in (pngio.read_png, relight.estimate_light, corpus.synthetic_corpus):
            patch_every_binding(patch, function, counted(function))
        result = run(argv)
    code, err = result[:2]
    if code == 2 and not any(str(path) in err for path in listed):
        assert counts <= collections.Counter(read_png=reads, estimate_light=fits), (
            err, dict(counts))
    return result


def _check(code, err, seconds, mutated, *listed):
    """Exit 0, or exit 2 naming ``mutated`` or one of the ``listed`` files it names."""
    assert code in (0, 2), err
    assert "Traceback" not in err
    if code == 2:
        named = any(str(path) in err for path in (mutated, *listed))
        assert err.startswith("error: ") and (named or _NOT_CONVERGED in err), err
    assert seconds < WALL_SECONDS


def _check_bounded(argv, peak_bytes, mutated, reads=0, listed=()):
    """:func:`_check` of ``argv``'s run, counted as :func:`_run_counted` counts it, and its
    traced allocation peak below ``peak_bytes``; returns the exit code and stderr."""
    code, err, seconds, peak = _run_counted(argv, reads, listed, _traced_run)
    _check(code, err, seconds, mutated)
    assert peak < peak_bytes
    return code, err


def _relight(files, light, new_light):
    return ["relight", "--image", str(files / "face.png"), "--normals", str(files / "normals.png"),
            "--light", str(light), "--new-light", str(new_light), "--out", str(files / "relit.png")]


def _analyze_light(lights, out):
    return ["analyze-light", "--lights", str(lights), "--resolution", "16", "--out-dir", str(out)]


def _eval(manifest, out):
    return ["eval", "--manifest", str(manifest), "--method", "random", "--epsilon", "0.1",
            "--out-dir", str(out)]


def _ap_run(files, params):
    return ["ap-run", "--image", str(files / "face.png"), "--normals",
            str(files / "normals.png"), "--params", str(params)]


def _replay(stream) -> str:
    """The command of an endpoint that replays ``stream`` (see ``helpers/replay_endpoint.py``),
    its interpreter isolated and without ``site`` so that it starts quickly."""
    return f"{sys.executable} -I -S {Path(__file__).parent / 'helpers' / 'replay_endpoint.py'} {stream}"


def _attack_aq(files, endpoint):
    return ["attack-aq", "--image", str(files / "face.png"), "--normals",
            str(files / "normals.png"), "--iters", "1", "--embedder", f"external:{endpoint}"]


def test_valid_files_pass(valid_files, tmp_path):
    """The gate's starting points are valid, so a mutant's error is the mutation's."""
    face, normals = valid_files / "face.png", valid_files / "normals.png"
    assert _run(["estimate-light", "--image", str(face), "--normals", str(normals),
                 "--out", str(tmp_path / "light.txt")])[0] == 0
    assert _run(["phy-sim", "--scenario", str(valid_files / "scenario.json")])[0] == 0
    light = valid_files / "light.txt"
    assert _run(_relight(valid_files, light, light))[0] == 0
    assert _run(_analyze_light(valid_files / "lights.csv", tmp_path))[0] == 0
    assert _run(_eval(valid_files / "manifest.json", tmp_path))[0] == 0
    assert _run(_ap_run(valid_files, valid_files / "params.npz"))[0] == 0
    assert _run(_attack_aq(valid_files, _replay(valid_files / "replies.txt")))[0] == 0


@GATE
@given(data=st.data())
def test_mutated_scenario_exits_0_or_2_naming_it(valid_files, data):
    mutated = valid_files / "mutated-scenario.json"
    mutated.write_bytes(data.draw(_mutants(json.dumps(_SCENARIO).encode(),
                                           _json_swap(_SCENARIO, _SWAPS))))
    _check(*_run(["phy-sim", "--scenario", str(mutated)]), mutated)


@GATE
@given(which=st.sampled_from(["face", "normals"]), data=st.data())
def test_mutated_png_exits_0_or_2_naming_it_in_bounded_memory(valid_files, which, data):
    files = {name: valid_files / f"{name}.png" for name in ("face", "normals")}
    files[which] = mutated = valid_files / f"mutated-{which}.png"
    mutated.write_bytes(data.draw(_png_mutants((valid_files / f"{which}.png").read_bytes())))
    argv = ["estimate-light", "--image", str(files["face"]), "--normals", str(files["normals"]),
            "--out", str(valid_files / "light.txt")]
    # The face is read first; a pair check names the normal map read after it.
    reads, listed = (1, [files["normals"]]) if which == "face" else (2, [])
    _check_bounded(argv, PNG_PEAK_BYTES, mutated, reads, listed)


@SMALL_GATE
@given(which=st.sampled_from(["light", "new-light"]), data=st.data())
def test_mutated_light_file_exits_0_or_2_naming_it(valid_files, which, data):
    light = valid_files / "light.txt"
    text = light.read_text()
    mutated = valid_files / f"mutated-{which}.txt"
    mutated.write_bytes(data.draw(_mutants(text.encode(), _token_swap(text))))
    argv = _relight(valid_files, *((mutated, light) if which == "light" else (light, mutated)))
    _check_bounded(argv, LIGHT_PEAK_BYTES, mutated)


@SMALL_GATE
@given(data=st.data())
def test_mutated_lights_csv_exits_0_or_2_naming_it(valid_files, data):
    text = (valid_files / "lights.csv").read_text()
    mutated = valid_files / "mutated-lights.csv"
    mutated.write_bytes(data.draw(_mutants(text.encode(), _token_swap(text))))
    _check_bounded(_analyze_light(mutated, valid_files / "hexhist"), LIGHTS_CSV_PEAK_BYTES, mutated)


@SMALL_GATE
@given(data=st.data())
def test_mutated_manifest_exits_0_or_2_naming_it_or_a_file_it_lists(valid_files, data):
    mutated = valid_files / "mutated-manifest.json"
    mutated.write_bytes(data.draw(_mutants(json.dumps(_MANIFEST).encode(),
                                           _json_swap(_MANIFEST, _SWAPS + _OTHER_PNGS))))
    names = re.findall(r'"([^"]+)"', mutated.read_text(errors="replace"))
    listed = [valid_files / name for name in names]
    _check(*_run_counted(_eval(mutated, valid_files / "eval"), 0, listed), mutated, *listed)


@SMALL_GATE
@given(data=st.data())
def test_mutated_predictor_file_exits_0_or_2_naming_it(valid_files, data):
    mutated = valid_files / "mutated-params.npz"
    blob = (valid_files / "params.npz").read_bytes()
    mutated.write_bytes(data.draw(_mutants(blob, _zip_field_swap(blob))))
    _check_bounded(_ap_run(valid_files, mutated), PREDICTOR_PEAK_BYTES, mutated)


def test_predictor_shape_claim_exits_2_in_bounded_memory(valid_files):
    """A member whose header claims a 32 MB array but holds 36 values is refused before numpy
    allocates the claim."""
    mutated = valid_files / "claimed-params.npz"
    with zipfile.ZipFile(valid_files / "params.npz") as src, zipfile.ZipFile(mutated, "w") as dst:
        for name in src.namelist():
            member = src.read(name)
            if name == "w1.npy":  # the header's padding absorbs the longer claim
                member = member.replace(b"(4, 9), }      ", b"(2048, 2048), }")
            dst.writestr(name, member)
    code, err = _check_bounded(_ap_run(valid_files, mutated), PREDICTOR_PEAK_BYTES, mutated)
    assert code == 2 and "(2048, 2048)" in err


@WEIGHT_GATE
@given(data=st.data())
def test_predictor_weight_swap_exits_0_or_2_naming_it(valid_files, data):
    """A well-formed predictor file, whose fault can show only in its prediction: after the
    face and normal map are read and their light fitted."""
    mutated = valid_files / "mutated-weights.npz"
    params = attack_ap.load_params(valid_files / "params.npz")
    weights = getattr(params, data.draw(st.sampled_from(params.trainable())))
    weights.flat[data.draw(st.integers(0, weights.size - 1))] = data.draw(
        st.sampled_from(_WEIGHT_SWAPS))
    attack_ap.save_params(mutated, params)
    _check(*_run_counted(_ap_run(valid_files, mutated), 2, fits=1), mutated)


@REPLY_GATE
@given(data=st.data())
def test_mutated_endpoint_replies_exit_0_or_2_naming_the_endpoint(valid_files, data):
    stream = valid_files / "mutated-replies.txt"
    stream.write_bytes(data.draw(_reply_mutants(_reply_lines())))
    endpoint = _replay(stream)
    _check(*_run(_attack_aq(valid_files, endpoint)), endpoint)
