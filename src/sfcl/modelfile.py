"""Bit-exact binary serialization of named tensors.

Layout (all integers little-endian):

    magic   4 bytes  "SFCL"
    version u32      currently 1
    count   u32      number of tensors
    per tensor:
        name_len u16, name bytes (UTF-8)
        dtype    u8   0 = float32, 1 = float64
        ndim     u8
        dims     u32 x ndim
        data     raw little-endian scalars, row-major

Save -> load -> save reproduces the file byte for byte and preserves order.
Saving is atomic: the bytes go to a temporary file next to the target, which
then replaces it, so a failed save leaves any existing file untouched.
"""

from __future__ import annotations

import math
import os
import struct
import uuid
from typing import Dict

import numpy as np

from .errors import FormatError, UsageError

MAGIC = b"SFCL"
VERSION = 1

_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def save_model(path, arrays: Dict[str, np.ndarray]) -> None:
    chunks = [MAGIC, struct.pack("<I", VERSION), struct.pack("<I", len(arrays))]
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        if arr.dtype not in _DTYPE_CODES:
            raise UsageError(f"{name}: only float32/float64 tensors serialize, got {arr.dtype}")
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise UsageError(f"tensor name too long: {name[:40]}...")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<BB", _DTYPE_CODES[arr.dtype], arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        little = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        chunks.append(np.ascontiguousarray(little).tobytes())
    target = os.fspath(path)
    tmp = f"{target}.{uuid.uuid4().hex[:12]}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.write(b"".join(chunks))
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = memoryview(blob)
        self.pos = 0
        self.path = path

    def take(self, n: int) -> memoryview:  # a view of the file's bytes, not a copy
        if self.pos + n > len(self.blob):
            raise FormatError(f"{self.path}: truncated model file")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_model(path) -> Dict[str, np.ndarray]:
    """Returns tensors as an insertion-ordered name -> array mapping."""
    with open(path, "rb") as fh:
        blob = fh.read()
    r = _Reader(blob, path)
    if r.take(4) != MAGIC:
        raise FormatError(f"{path}: bad magic, not a model file")
    (version,) = r.unpack("<I")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported model version {version} (expected {VERSION})")
    (count,) = r.unpack("<I")
    out: Dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = r.unpack("<H")
        raw_name = r.take(name_len)
        try:
            name = str(raw_name, "utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{path}: tensor name {bytes(raw_name[:40])!r} is not UTF-8") from None
        if name in out:
            raise FormatError(f"{path}: tensor {name!r} appears twice")
        code, ndim = r.unpack("<BB")
        if code not in _CODE_DTYPES:
            raise FormatError(f"{path}: unknown dtype code {code} for tensor {name!r}")
        dims = r.unpack(f"<{ndim}I")
        dtype = _CODE_DTYPES[code]
        data = np.frombuffer(r.take(math.prod(dims) * dtype.itemsize), dtype=dtype)
        out[name] = data.reshape(dims).astype(dtype.newbyteorder("="))
    if r.pos != len(blob):
        raise FormatError(f"{path}: {len(blob) - r.pos} trailing bytes after last tensor")
    return out
