import re
import tracemalloc
import zlib

import numpy as np
import pytest

from advrelight import pngio

from helpers.png import png_with_idat


@pytest.mark.parametrize("dtype,peak", [(np.uint8, 255), (np.uint16, 65535)])
@pytest.mark.parametrize("channels", [1, 2, 3, 4])
def test_roundtrip(tmp_path, dtype, peak, channels):
    rng = np.random.default_rng(7)
    shape = (13, 9) if channels == 1 else (13, 9, channels)
    arr = rng.integers(0, peak + 1, size=shape).astype(dtype)
    path = tmp_path / "t.png"
    pngio.write_png(path, arr)
    back = pngio.read_png(path)
    assert back.dtype == dtype
    assert np.array_equal(back, arr)


def test_rejects_bad_dtype(tmp_path):
    with pytest.raises(ValueError):
        pngio.write_png(tmp_path / "t.png", np.zeros((4, 4), dtype=np.float64))


def test_rejects_non_png(tmp_path):
    path = tmp_path / "t.png"
    path.write_bytes(b"definitely not a png")
    with pytest.raises(ValueError):
        pngio.read_png(path)


def test_reads_filtered_files(tmp_path):
    # Pillow picks non-trivial scanline filters; decoding must agree with it.
    PIL = pytest.importorskip("PIL.Image")
    rng = np.random.default_rng(3)
    base = rng.integers(0, 40, size=(32, 32, 3)).astype(np.uint8)
    ramp = np.linspace(0, 200, 32).astype(np.uint8)
    arr = base + ramp[None, :, None]  # smooth rows make Sub/Paeth attractive
    path = tmp_path / "pil.png"
    PIL.fromarray(arr, mode="RGB").save(path, optimize=True)
    assert np.array_equal(pngio.read_png(path), arr)


def png_bytes(tmp_path, arr):
    path = tmp_path / "ok.png"
    pngio.write_png(path, arr)
    return path.read_bytes()


def test_deflate_bomb_is_rejected_without_inflating_it(tmp_path):
    inflated = 64 * 2**20
    block = bytes(2**20)
    deflate = zlib.compressobj(9)
    idat = b"".join(deflate.compress(block) for _ in range(inflated // len(block)))
    path = tmp_path / "bomb.png"
    path.write_bytes(png_with_idat(8, 8, idat + deflate.flush()))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="IDAT size mismatch"):
            pngio.read_png(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < inflated / 16


def test_declared_size_over_the_pixel_cap_is_refused_before_inflating(tmp_path, monkeypatch):
    path = tmp_path / "big.png"
    path.write_bytes(png_with_idat(1024, 1024, zlib.compress(bytes(1024 * 1025))))
    assert pngio.read_png(path).shape == (1024, 1024)

    def decompressobj(*args, **kwargs):
        raise AssertionError("inflated the data of a PNG over the pixel cap")

    monkeypatch.setattr(pngio.zlib, "decompressobj", decompressobj)
    for width, height in [(1025, 1024), (1024, 1025), (4096, 4096), (2**31 - 1, 2**31 - 1)]:
        path.write_bytes(png_with_idat(width, height, b""))
        message = f"{path}: unsupported image size {width}x{height} (at most 1048576 pixels)"
        with pytest.raises(ValueError, match=re.escape(message)):
            pngio.read_png(path)


def test_unknown_filter_type_names_the_file(tmp_path):
    path = tmp_path / "filter.png"
    rows = bytearray(8 * 9)  # 8 rows of filter byte 0 plus 8 zero pixels
    rows[3 * 9] = 5
    path.write_bytes(png_with_idat(8, 8, zlib.compress(bytes(rows))))
    with pytest.raises(ValueError, match=re.escape(f"{path}: unknown PNG filter type 5 in row 3")):
        pngio.read_png(path)


def test_short_and_trailing_idat_are_rejected(tmp_path):
    rows = bytes(8 * 9)  # 8 rows of filter byte 0 plus 8 zero pixels
    path = tmp_path / "t.png"
    path.write_bytes(png_with_idat(8, 8, zlib.compress(rows)))
    assert np.array_equal(pngio.read_png(path), np.zeros((8, 8), dtype=np.uint8))
    for data in (rows[:-1], rows + b"\0"):
        path.write_bytes(png_with_idat(8, 8, zlib.compress(data)))
        with pytest.raises(ValueError, match="IDAT size mismatch"):
            pngio.read_png(path)
    path.write_bytes(png_with_idat(8, 8, zlib.compress(rows)[:-2]))  # no checksum
    with pytest.raises(ValueError, match="IDAT"):
        pngio.read_png(path)


def test_flipped_crc_byte_is_rejected(tmp_path):
    blob = bytearray(png_bytes(tmp_path, np.zeros((5, 7), dtype=np.uint8)))
    blob[29] ^= 0x01  # first byte of the IHDR CRC (signature 8 + length 4 + type 4 + data 13)
    path = tmp_path / "crc.png"
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="CRC mismatch in IHDR chunk"):
        pngio.read_png(path)


def test_truncated_chunk_is_rejected(tmp_path):
    blob = png_bytes(tmp_path, np.arange(64, dtype=np.uint8).reshape(8, 8))
    idat_data = 8 + 25 + 8  # signature, IHDR chunk, IDAT length and type
    path = tmp_path / "short.png"
    path.write_bytes(blob[:idat_data + 3])
    with pytest.raises(ValueError, match="truncated IDAT chunk"):
        pngio.read_png(path)
