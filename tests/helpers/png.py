"""Hand-built PNG bytes, for tests of what the reader refuses."""

import struct
import zlib


def chunk(ctype: bytes, data: bytes) -> bytes:
    """One PNG chunk: length, type, data and a correct CRC."""
    crc = zlib.crc32(ctype + data) & 0xFFFFFFFF
    return struct.pack(">I", len(data)) + ctype + data + struct.pack(">I", crc)


def png_with_idat(width, height, idat, depth=8, color_type=0):
    """A PNG of the given size, bit depth and color type (8-bit greyscale unless given) whose
    single IDAT is ``idat``."""
    header = struct.pack(">IIBBBBB", width, height, depth, color_type, 0, 0, 0)
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", header) + chunk(b"IDAT", idat)
            + chunk(b"IEND", b""))
