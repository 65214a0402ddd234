"""A generative gate for malformed inputs: seeded mutants of valid input files, run through
``cli``.

Each example mutates one valid file (a ``phy-sim`` scenario JSON, or the face or normal-map
PNG that ``estimate-light`` reads) and runs the command on it. The mutations are truncation,
byte flips, JSON values swapped for non-finite, huge or wrongly typed ones, and PNG headers
that lie about their size, rows with any filter type byte, and decompression bombs. The
command must exit 0 (the mutant is still valid) or 2; an exit 2 starts with ``error:`` and
names the mutated file (or reports that the phy-sim loop ran and did not converge), no
traceback is printed, and every example finishes within a fixed wall time. A PNG example
also stays under a fixed traced allocation peak, which the reader's pixel cap bounds.
Examples are derandomized and their count is fixed, so the gate is deterministic.
"""

import functools
import io
import json
import math
import struct
import time
import zlib
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from advrelight import pngio
from advrelight.cli import cli
from advrelight.relight import FaceImage, save_face_image
from advrelight.shading import save_normal_map, shade, sphere_normals

from helpers.memory import traced_peak
from helpers.png import png_with_idat

#: Wall time one example may take. The slowest example took 0.03 s on a 2-CPU Xeon VM.
WALL_SECONDS = 1.0

#: Traced allocation peak of one PNG example; the largest was 0.4 MB. The pixel cap refuses
#: a bomb before it is inflated: a 1025 x 1024 face alone would decode to 25 MB of float64.
PNG_PEAK_BYTES = 4 * 2**20

GATE = settings(derandomize=True, database=None, deadline=None, max_examples=300)

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
def _scenario_mutants(draw) -> bytes:
    text = json.dumps(_SCENARIO).encode()
    kind = draw(st.sampled_from(["truncate", "flip", "swap"]))
    if kind == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    if kind == "flip":
        flips = st.tuples(st.integers(0, len(text) - 1), st.integers(1, 255))
        return _flipped(text, draw(st.lists(flips, min_size=1, max_size=3)))
    data = _SCENARIO
    for path in draw(st.lists(st.sampled_from(list(_paths(_SCENARIO))), min_size=1, max_size=2)):
        try:
            data = _swapped(data, path, draw(st.sampled_from(_SWAPS)))
        except (KeyError, IndexError, TypeError):  # an earlier swap removed this path
            pass
    return json.dumps(data).encode()


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A face PNG, its normal-map PNG and a small scenario, each valid as written."""
    root = tmp_path_factory.mktemp("valid")
    normals = sphere_normals(16)
    lum = 0.8 * shade(normals, [0.9, 0.1, 0.3, 0.2, 0, 0, 0, 0, 0]) + 0.05
    save_face_image(root / "face.png", FaceImage.from_luminance(lum))
    save_normal_map(root / "normals.png", normals)
    (root / "scenario.json").write_text(json.dumps(_SCENARIO))
    return root


def _run(argv):
    """``(exit code, stderr, seconds)`` of ``cli(argv)``, its output captured."""
    err = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli(argv)
    return code, err.getvalue(), time.perf_counter() - start


def _check(code, err, seconds, mutated):
    assert code in (0, 2), err
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and (str(mutated) in err or _NOT_CONVERGED in err), err
    assert seconds < WALL_SECONDS


def test_valid_files_pass(valid_files, tmp_path):
    """The gate's starting points are valid, so a mutant's error is the mutation's."""
    face, normals = valid_files / "face.png", valid_files / "normals.png"
    assert _run(["estimate-light", "--image", str(face), "--normals", str(normals),
                 "--out", str(tmp_path / "light.txt")])[0] == 0
    assert _run(["phy-sim", "--scenario", str(valid_files / "scenario.json")])[0] == 0


@GATE
@given(data=st.data())
def test_mutated_scenario_exits_0_or_2_naming_it(valid_files, data):
    mutated = valid_files / "mutated-scenario.json"
    mutated.write_bytes(data.draw(_scenario_mutants()))
    _check(*_run(["phy-sim", "--scenario", str(mutated)]), mutated)


@GATE
@given(which=st.sampled_from(["face", "normals"]), data=st.data())
def test_mutated_png_exits_0_or_2_naming_it_in_bounded_memory(valid_files, which, data):
    files = {name: valid_files / f"{name}.png" for name in ("face", "normals")}
    files[which] = mutated = valid_files / f"mutated-{which}.png"
    mutated.write_bytes(data.draw(_png_mutants((valid_files / f"{which}.png").read_bytes())))
    argv = ["estimate-light", "--image", str(files["face"]), "--normals", str(files["normals"]),
            "--out", str(valid_files / "light.txt")]
    (code, err, seconds), peak = traced_peak(_run, argv)
    _check(code, err, seconds, mutated)
    assert peak < PNG_PEAK_BYTES
