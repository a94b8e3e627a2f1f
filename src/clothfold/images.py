"""Minimal deterministic PNG (8-bit RGB) and PGM (16-bit) readers/writers.

Only the subset this project produces is supported: truecolor PNGs written
with filter type 0 on every scanline, and binary P5 PGMs with maxval 65535.
Readers return what the file stores, a PNG's checked bytes and a PGM's uint16
counts. Depth images store 0.1 mm units (DEPTH_UNIT); heatmaps round(q * 65535).
Readers raise ImageFormatError for a file they cannot decode (cut off, a bad
PNG chunk CRC, corrupt, or outside that subset); writers raise it for a wrong
shape or out-of-range depth. Failing to open, read or write stays OSError.
"""

from __future__ import annotations

import re
import struct
import zlib
from typing import NamedTuple

import numpy as np

_PNG_MAGIC = b"\x89PNG\r\n\x1a\n"

DEPTH_UNIT = 1e-4           # meters per PGM depth count
HEATMAP_SCALE = 65535


class ImageFormatError(ValueError):
    pass


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (struct.pack(">I", len(payload)) + tag + payload
            + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF))


def write_png_rgb(path, rgb01: np.ndarray) -> None:
    """Write an [H, W, 3] float image in [0, 1] as an 8-bit truecolor PNG."""
    if rgb01.ndim != 3 or rgb01.shape[2] != 3:
        raise ImageFormatError(f"expected [H, W, 3], got {rgb01.shape}")
    h, w, _ = rgb01.shape
    levels = np.clip(rgb01, 0.0, 1.0)
    levels *= 255.0
    raw = np.zeros((h, 1 + w * 3), dtype=np.uint8)   # column 0: filter type 0
    raw[:, 1:] = np.round(levels, out=levels).reshape(h, w * 3)
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    data = (_PNG_MAGIC + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", zlib.compress(raw.tobytes(), 6))
            + _chunk(b"IEND", b""))
    with open(path, "wb") as f:
        f.write(data)


class StoredPng(NamedTuple):
    """A PNG file's bytes, which :func:`read_png_rgb` checked whole, and its
    [H, W, 3] shape. ``levels()`` inflates them afresh on every call."""

    data: bytes
    shape: tuple[int, int, int]

    def levels(self) -> np.ndarray:
        return _png_levels(self.data, "a checked PNG").copy()


def read_png_rgb(path) -> StoredPng:
    """Read a PNG written by :func:`write_png_rgb`, decoded once to check it."""
    with open(path, "rb") as f:
        blob = f.read()
    return StoredPng(blob, _png_levels(blob, path).shape)


def _png_levels(blob: bytes, path) -> np.ndarray:
    """A PNG's [H, W, 3] levels, checked whole: a read-only view of its
    inflated scanlines. The inflate buffer starts at the size IHDR implies,
    capped at zlib's largest ratio (1032:1), so a forged IHDR cannot ask for
    more memory than its data could fill."""
    if not blob.startswith(_PNG_MAGIC):
        raise ImageFormatError(f"{path}: not a PNG file")
    pos = len(_PNG_MAGIC)
    width = height = None
    idat = bytearray()
    try:
        while pos < len(blob):
            length, tag = struct.unpack(">I4s", blob[pos:pos + 8])
            payload = blob[pos + 8:pos + 8 + length]
            (crc,) = struct.unpack(">I", blob[pos + 8 + length:pos + 12 + length])
            pos += 12 + length
            if crc != zlib.crc32(payload, zlib.crc32(tag)):
                raise ImageFormatError(f"{path}: {tag!r} chunk fails its CRC")
            if tag == b"IHDR":
                width, height, depth, color, comp, filt, inter = struct.unpack(
                    ">IIBBBBB", payload)
                if depth != 8 or color != 2 or inter != 0:
                    raise ImageFormatError(f"{path}: unsupported PNG variant")
            elif tag == b"IDAT":
                idat.extend(payload)
            elif tag == b"IEND":
                break
        if width is None:
            raise ImageFormatError(f"{path}: missing IHDR")
        size = min(height * (3 * width + 1), 1032 * len(idat) + 64)
        raw = np.frombuffer(zlib.decompress(idat, bufsize=size), dtype=np.uint8)
    except (struct.error, zlib.error) as e:
        raise ImageFormatError(f"{path}: cut-off or corrupt PNG: {e}") from e
    stride = width * 3 + 1
    if raw.size != stride * height:
        raise ImageFormatError(f"{path}: truncated image data")
    lines = raw.reshape(height, stride)
    filters = lines[:, 0]
    if filters.any():
        raise ImageFormatError(f"{path}: unsupported PNG filter {filters[filters != 0][0]}")
    return lines[:, 1:].reshape(height, width, 3)


def write_pgm16(path, values: np.ndarray) -> None:
    """Write an [H, W] uint16 array as a binary (P5) PGM, maxval 65535."""
    if values.ndim != 2:
        raise ImageFormatError(f"expected [H, W], got {values.shape}")
    arr = values.astype(">u2")
    header = f"P5\n{values.shape[1]} {values.shape[0]}\n65535\n".encode("ascii")
    with open(path, "wb") as f:
        f.write(header + arr.tobytes())


def read_pgm16(path) -> np.ndarray:
    with open(path, "rb") as f:
        blob = f.read()
    parts = blob.split(b"\n", 3)
    if (len(parts) != 4 or parts[0] != b"P5" or parts[2] != b"65535"
            or not re.fullmatch(rb"\s*\d+\s+\d+\s*", parts[1])):
        raise ImageFormatError(f"{path}: not a 16-bit P5 PGM")
    w, h = (int(x) for x in parts[1].split())
    if len(parts[3]) < w * h * 2:
        raise ImageFormatError(f"{path}: truncated PGM data")
    return np.frombuffer(parts[3], dtype=">u2", count=w * h).reshape(h, w).astype(np.uint16)


def write_depth_pgm(path, depth_m: np.ndarray) -> None:
    counts = depth_m / DEPTH_UNIT
    np.round(counts, out=counts)
    if counts.min() < 0 or counts.max() > 65535:
        raise ImageFormatError("depth outside the 0 .. 6.5535 m PGM range")
    write_pgm16(path, counts.astype(np.uint16))


def write_heatmap_pgm(path, q: np.ndarray) -> None:
    write_pgm16(path, np.round(np.clip(q, 0.0, 1.0) * HEATMAP_SCALE).astype(np.uint16))

