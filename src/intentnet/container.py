"""Binary model container: JSON header + named float32 blocks + checksum.

Layout, all little-endian:
  - 4-byte magic ``INTC``
  - uint32 header length, then the header as ``header_bytes`` encodes it
    (JSON, sorted keys, UTF-8, nothing ASCII-escaped); ``read_container``
    returns these bytes beside the header they parse to
  - uint32 block count, then per block: uint16 name length, name bytes,
    uint8 ndim, uint32 dims, raw float32 data
  - 8-byte FNV-1a 64 checksum over every preceding byte

The checksum is FNV-1a as Fowler, Noll and Vo specify it (IETF
draft-eastlake-fnv): per byte b, ``h = ((h ^ b) * P) mod 2**64`` with
P = 0x100000001B3. ``fnv1a64`` computes exactly that value with numpy over
fixed-size chunks instead of one byte at a time, from three facts. Write l_i
for the low byte of the state before byte b_i:

  1. The low byte runs on its own: l_{i+1} = ((l_i ^ b_i) * P) mod 256. XOR
     with a byte touches only the low 8 bits, and the low 8 bits of a
     product depend only on the low 8 bits of its factors.
  2. Each bit of the low byte is a prefix XOR. P is odd, so bit k of l_{i+1}
     is bit k of l_i, XOR bit k of b_i, XOR bit k of
     (((l_i ^ b_i) mod 2**k) * P). Once bits 0..k-1 are known at every
     position, bit k is a prefix XOR: eight passes per chunk. Each pass
     takes its prefix in two levels. Times 0x0101...01, a little-endian
     8-byte word of 0-or-bit-k bytes holds its own prefix, and its top byte
     the word's total. The words' top bytes, gathered into words of their
     own, take the same product, so a running XOR is left only over those
     second-level words, one per 64 bytes; each word then gets the XOR of
     every word before it.
  3. The full 64-bit state is then linear. With d_i = (l_i ^ b_i) - l_i,
     each step is h_{i+1} = (h_i + d_i) * P mod 2**64, so after n bytes
     h_n = h_0 * P**n + sum(d_i * P**(n - i)) mod 2**64: one uint64 dot
     product per sub-block against one fixed table of powers of P.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .errors import ContainerError, parse_json, quoted

MAGIC = b"INTC"
FORMAT_VERSION = 1

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1
_ONES = 0x0101010101010101  # a 1 in each byte of a word
# bytes per vectorised step: larger chunks run fewer numpy calls per byte,
# smaller ones hold less scratch (about 6 bytes per chunk byte: 379 KB for a
# 1 MiB input, beside the fixed table of powers)
_CHUNK = 1 << 16
# bytes under one second-level word of a bit pass: 8 words of 8 bytes
_GROUP = 64
# bytes per dot product of the linear part, and the length of its table
_SUB_BLOCK = 1 << 14
_POWERS = np.full(_SUB_BLOCK, _FNV_PRIME, dtype=np.uint64)
np.multiply.accumulate(_POWERS[::-1], out=_POWERS[::-1])  # P**_SUB_BLOCK, ..., P**1 mod 2**64
_POWERS.flags.writeable = False


def fnv1a64(data) -> int:
    """The 64-bit FNV-1a checksum of any bytes-like ``data``.

    The value is the byte loop's, ``h = ((h ^ b) * P) mod 2**64`` per byte,
    computed chunk by chunk from the three facts in the module docstring:
    the state's low byte follows its own recurrence, its bits come out of
    eight two-level prefix-XOR passes, and the 64-bit state is then one dot
    product against powers of P per sub-block. Scratch is about 6 bytes per
    chunk byte, whatever the input's length; numpy's uint64 arrays wrap mod
    2**64, and every 64-bit scalar stays a Python int.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    h = _FNV_OFFSET
    for start in range(0, buf.size, _CHUNK):
        chunk = buf[start:start + _CHUNK]
        x = _xor_with_low_bytes(chunk, h & 0xFF)
        for sub in range(0, chunk.size, _SUB_BLOCK):
            xs = x[sub:sub + _SUB_BLOCK]
            d = xs.astype(np.int16)
            d -= xs ^ chunk[sub:sub + _SUB_BLOCK]  # (l_i ^ b_i) - l_i
            powers = _POWERS[_SUB_BLOCK - d.size:]  # P**m, ..., P**1
            # the cast to uint64 wraps a negative d_i mod 2**64
            h = (h * int(powers[0]) + int(np.dot(d.astype(np.uint64), powers))) & _MASK64
    return h


def _xor_with_low_bytes(chunk: np.ndarray, low: int) -> np.ndarray:
    """l_i ^ b_i for each byte b_i of ``chunk``, where l_i is the low byte of
    the state before b_i and ``low`` is l_0."""
    n = chunk.size
    x = chunk.copy()  # bits below k hold l ^ b, bits from k up still b
    t = np.zeros(-(-n // _GROUP) * _GROUP, dtype=np.uint8)  # whole second-level words
    words = t.view("<u8")
    tops = np.empty(words.size, dtype=np.uint8)  # each word's top byte
    groups = tops.view("<u8")
    for k in range(8):
        bit = 1 << k
        # bit k of x_i * P is bit k of l_{i+1} ^ l_i; P mod 256 is 0xB3, and
        # bit 0 of x_i * 0xB3 is bit 0 of x_i
        if k:
            np.multiply(x[:-1], 0xB3, out=t[1:n])
        else:
            t[1:n] = x[:-1]
        words &= bit * _ONES  # bits below k would carry into bit k
        t[0] = low & bit
        # inclusive prefix XOR over the bytes. Every byte is 0 or ``bit``, so
        # times 0x0101...01 each byte of a little-endian word holds the sum of
        # the bytes up to it, bit k of that sum is their XOR, and the top byte
        # holds the word's total. A sum passes 255 only for k >= 6, and then
        # carries at most 4 into bits 0-2 of the next byte, never into its bit k.
        words *= _ONES
        words &= bit * _ONES
        tops[:] = t[7::8]  # the same over the words' totals, 8 to a group
        groups *= _ONES
        groups &= bit * _ONES
        carry = np.bitwise_xor.accumulate(groups >> 56)  # then over the groups
        groups[1:] ^= carry[:-1] * _ONES  # tops[j] is now the XOR of words 0..j
        spread = tops[:-1].astype(np.uint64)
        spread *= _ONES
        words[1:] ^= spread  # each word takes the XOR of the words before it
        x ^= t[:n]  # t is now bit k of l_i
    return x


def header_bytes(header: dict) -> bytes:
    """The one encoding of a header that ``write_container`` writes."""
    return json.dumps(header, ensure_ascii=False, sort_keys=True).encode("utf-8")


def write_container(path, header: dict, blocks: dict[str, np.ndarray]) -> None:
    parts = [MAGIC]
    encoded = header_bytes(header)
    parts.append(struct.pack("<I", len(encoded)))
    parts.append(encoded)
    parts.append(struct.pack("<I", len(blocks)))
    for name, arr in blocks.items():
        data = np.ascontiguousarray(arr, dtype="<f4")
        name_bytes = name.encode("utf-8")
        parts.append(struct.pack("<H", len(name_bytes)))
        parts.append(name_bytes)
        parts.append(struct.pack(f"<B{data.ndim}I", data.ndim, *data.shape))
        parts.append(data)
    payload = b"".join(parts)
    with open(path, "wb") as fh:
        fh.write(payload)
        fh.write(struct.pack("<Q", fnv1a64(payload)))


def read_container(path) -> tuple[bytes, dict, dict[str, np.ndarray]]:
    """The header's bytes, the header, and the named blocks as read-only views, in file order."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16 or raw[:4] != MAGIC:
        raise ContainerError(f"{path}: not a model container")
    payload, checksum = memoryview(raw)[:-8], struct.unpack("<Q", raw[-8:])[0]
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
            return str(take(n), "utf-8")
        except UnicodeDecodeError as exc:
            raise ContainerError(f"{path}: {what} is not valid UTF-8") from exc

    header_len = struct.unpack("<I", take(4))[0]
    raw_header = bytes(payload[offset:offset + header_len])  # ``text`` checks the length
    header = parse_json(text(header_len, "header"), ContainerError, f"{path}: header")
    if not isinstance(header, dict):
        raise ContainerError(f"{path}: header is not a JSON object")
    n_blocks = struct.unpack("<I", take(4))[0]
    blocks: dict[str, np.ndarray] = {}
    for _ in range(n_blocks):
        name_len = struct.unpack("<H", take(2))[0]
        name = text(name_len, "a block name")
        if name in blocks:
            raise ContainerError(f"{path}: block {quoted(name)} appears twice")
        ndim = struct.unpack("<B", take(1))[0]
        if ndim > 3:  # the most any block has (the convolution filters)
            raise ContainerError(f"{path}: block {quoted(name)} has {ndim} axes")
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        blocks[name] = np.frombuffer(take(4 * math.prod(shape)), dtype="<f4").reshape(shape)
    if offset != len(payload):
        raise ContainerError(f"{path}: trailing bytes in container")
    return raw_header, header, blocks
