"""Binary model container: JSON header + named float32 blocks + checksum.

Layout, all little-endian:
  - 4-byte magic ``INTC``
  - uint32 header length, then UTF-8 JSON header
  - uint32 block count, then per block: uint16 name length, name bytes,
    uint8 ndim, uint32 dims, raw float32 data
  - 8-byte FNV-1a 64 checksum over every preceding byte
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .errors import ContainerError

MAGIC = b"INTC"
FORMAT_VERSION = 1

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def write_container(path, header: dict, blocks: dict[str, np.ndarray]) -> None:
    parts = [MAGIC]
    header_bytes = json.dumps(header, ensure_ascii=False, sort_keys=True).encode("utf-8")
    parts.append(struct.pack("<I", len(header_bytes)))
    parts.append(header_bytes)
    parts.append(struct.pack("<I", len(blocks)))
    for name, arr in blocks.items():
        data = np.ascontiguousarray(arr, dtype="<f4")
        name_bytes = name.encode("utf-8")
        parts.append(struct.pack("<H", len(name_bytes)))
        parts.append(name_bytes)
        parts.append(struct.pack("<B", data.ndim))
        parts.append(struct.pack(f"<{data.ndim}I", *data.shape))
        parts.append(data.tobytes())
    payload = b"".join(parts)
    with open(path, "wb") as fh:
        fh.write(payload)
        fh.write(struct.pack("<Q", fnv1a64(payload)))


def read_container(path) -> tuple[dict, dict[str, np.ndarray]]:
    """The header and the named blocks, as read-only views of the file's bytes."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16 or raw[:4] != MAGIC:
        raise ContainerError(f"{path}: not a model container")
    payload, checksum = raw[:-8], struct.unpack("<Q", raw[-8:])[0]
    if fnv1a64(payload) != checksum:
        raise ContainerError(f"{path}: checksum mismatch")

    offset = 4

    def take(n):
        nonlocal offset
        if offset + n > len(payload):
            raise ContainerError(f"{path}: truncated container")
        chunk = payload[offset:offset + n]
        offset += n
        return chunk

    def text(n, what):
        try:
            return take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ContainerError(f"{path}: {what} is not valid UTF-8") from exc

    header_len = struct.unpack("<I", take(4))[0]
    try:
        header = json.loads(text(header_len, "header"))
    except json.JSONDecodeError as exc:
        raise ContainerError(f"{path}: header is not valid JSON ({exc})") from exc
    if not isinstance(header, dict):
        raise ContainerError(f"{path}: header is not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise ContainerError(f"{path}: unsupported format version")
    n_blocks = struct.unpack("<I", take(4))[0]
    blocks: dict[str, np.ndarray] = {}
    for _ in range(n_blocks):
        name_len = struct.unpack("<H", take(2))[0]
        name = text(name_len, "a block name")
        if name in blocks:
            raise ContainerError(f"{path}: block {name!r} appears twice")
        ndim = struct.unpack("<B", take(1))[0]
        if ndim > 3:  # the most any block has (the convolution filters)
            raise ContainerError(f"{path}: block {name!r} has {ndim} axes")
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        blocks[name] = np.frombuffer(take(4 * math.prod(shape)), dtype="<f4").reshape(shape)
    if offset != len(payload):
        raise ContainerError(f"{path}: trailing bytes in container")
    return header, blocks
