"""Minimal PNG reader/writer.

Supports greyscale, grey+alpha, RGB and RGBA at 8 or 16 bits per sample,
which covers every image container this package needs (8-bit face crops,
16-bit normal maps with an alpha mask, 16-bit lighting maps). Palette and
interlaced files are rejected, and so, before any data is inflated, is a
header that declares more than ``MAX_PNG_PIXELS`` pixels.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

_SIGNATURE = b"\x89PNG\r\n\x1a\n"

#: Most pixels a PNG may declare: the 1024 px square, the largest resolution a command renders.
MAX_PNG_PIXELS = 1024 * 1024

# color type -> channel count
_CHANNELS = {0: 1, 2: 3, 4: 2, 6: 4}
_COLOR_TYPE = {1: 0, 2: 4, 3: 2, 4: 6}


def write_png(path, array: np.ndarray) -> None:
    """Write ``array`` (uint8 or uint16, HxW[xC] with C in {1,2,3,4}) as PNG."""
    arr = np.asarray(array)
    if arr.dtype == np.uint8:
        depth = 8
    elif arr.dtype == np.uint16:
        depth = 16
    else:
        raise ValueError(f"expected uint8 or uint16 data, got {arr.dtype}")
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3 or arr.shape[2] not in _COLOR_TYPE:
        raise ValueError(f"unsupported array shape {array.shape}")
    height, width, channels = arr.shape
    color_type = _COLOR_TYPE[channels]

    if depth == 16:
        raw = arr.astype(">u2").tobytes()
    else:
        raw = arr.tobytes()
    stride = width * channels * (depth // 8)
    scanlines = bytearray()
    for row in range(height):
        scanlines.append(0)  # filter type None
        scanlines += raw[row * stride:(row + 1) * stride]

    header = struct.pack(">IIBBBBB", width, height, depth, color_type, 0, 0, 0)
    with open(path, "wb") as fh:
        fh.write(_SIGNATURE)
        _write_chunk(fh, b"IHDR", header)
        _write_chunk(fh, b"IDAT", zlib.compress(bytes(scanlines), 6))
        _write_chunk(fh, b"IEND", b"")


def read_png(path) -> np.ndarray:
    """Read a PNG into an HxW or HxWxC array of uint8 or uint16.

    Chunk CRCs are verified and IDAT is inflated to at most the size IHDR
    implies; a malformed file raises ``ValueError``.
    """
    with open(path, "rb") as fh:
        if fh.read(8) != _SIGNATURE:
            raise ValueError(f"{path}: not a PNG file")
        blob = fh.read()
    header = None
    idat = bytearray()
    pos = 0
    while True:
        if pos + 8 > len(blob):
            raise ValueError(f"{path}: truncated PNG")
        length, ctype = struct.unpack_from(">I4s", blob, pos)
        start, end = pos + 8, pos + 8 + length
        if end + 4 > len(blob):
            raise ValueError(f"{path}: truncated {ctype.decode('latin-1')} chunk")
        data = blob[start:end]
        if struct.unpack_from(">I", blob, end)[0] != zlib.crc32(blob[pos + 4:end]):
            raise ValueError(f"{path}: CRC mismatch in {ctype.decode('latin-1')} chunk")
        pos = end + 4
        if ctype == b"IHDR":
            if length != 13:
                raise ValueError(f"{path}: IHDR has {length} bytes, expected 13")
            header = struct.unpack(">IIBBBBB", data)
        elif ctype == b"IDAT":
            idat += data
        elif ctype == b"IEND":
            break
    if header is None:
        raise ValueError(f"{path}: missing IHDR")
    width, height, depth, color_type, compression, filt, interlace = header
    if interlace != 0:
        raise ValueError(f"{path}: interlaced PNG not supported")
    if color_type not in _CHANNELS:
        raise ValueError(f"{path}: unsupported color type {color_type}")
    if depth not in (8, 16):
        raise ValueError(f"{path}: unsupported bit depth {depth}")
    channels = _CHANNELS[color_type]
    sample_bytes = depth // 8
    stride = width * channels * sample_bytes

    expected = height * (stride + 1)
    if width == 0 or height == 0 or width * height > MAX_PNG_PIXELS:
        raise ValueError(f"{path}: unsupported image size {width}x{height} "
                         f"(at most {MAX_PNG_PIXELS} pixels)")
    inflater = zlib.decompressobj()
    try:
        decompressed = inflater.decompress(bytes(idat), expected)
        leftover = inflater.decompress(inflater.unconsumed_tail, 1)
    except zlib.error as exc:
        raise ValueError(f"{path}: corrupt IDAT ({exc})") from None
    if len(decompressed) != expected or leftover or not inflater.eof:
        raise ValueError(f"{path}: IDAT size mismatch")

    bpp = channels * sample_bytes
    out = bytearray(height * stride)
    prev = bytearray(stride)
    for row in range(height):
        offset = row * (stride + 1)
        ftype = decompressed[offset]
        if ftype > 4:
            raise ValueError(f"{path}: unknown PNG filter type {ftype} in row {row}")
        line = bytearray(decompressed[offset + 1:offset + 1 + stride])
        _unfilter(line, prev, ftype, bpp)
        out[row * stride:(row + 1) * stride] = line
        prev = line

    if depth == 16:
        arr = np.frombuffer(bytes(out), dtype=">u2").astype(np.uint16)
    else:
        arr = np.frombuffer(bytes(out), dtype=np.uint8)
    arr = arr.reshape(height, width, channels)
    return arr[:, :, 0] if channels == 1 else arr


def _write_chunk(fh, ctype: bytes, data: bytes) -> None:
    fh.write(struct.pack(">I", len(data)))
    fh.write(ctype)
    fh.write(data)
    fh.write(struct.pack(">I", zlib.crc32(ctype + data) & 0xFFFFFFFF))


def _unfilter(line: bytearray, prev: bytearray, ftype: int, bpp: int) -> None:
    """Undo filter type ``ftype`` (0-4, which :func:`read_png` checks) on ``line`` in place."""
    if ftype == 0:
        return
    n = len(line)
    if ftype == 1:  # Sub
        for i in range(bpp, n):
            line[i] = (line[i] + line[i - bpp]) & 0xFF
    elif ftype == 2:  # Up
        for i in range(n):
            line[i] = (line[i] + prev[i]) & 0xFF
    elif ftype == 3:  # Average
        for i in range(n):
            left = line[i - bpp] if i >= bpp else 0
            line[i] = (line[i] + ((left + prev[i]) >> 1)) & 0xFF
    elif ftype == 4:  # Paeth
        for i in range(n):
            left = line[i - bpp] if i >= bpp else 0
            up = prev[i]
            upleft = prev[i - bpp] if i >= bpp else 0
            p = left + up - upleft
            pa, pb, pc = abs(p - left), abs(p - up), abs(p - upleft)
            if pa <= pb and pa <= pc:
                pred = left
            elif pb <= pc:
                pred = up
            else:
                pred = upleft
            line[i] = (line[i] + pred) & 0xFF
