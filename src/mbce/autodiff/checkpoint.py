"""Flat binary parameter checkpoints: magic MBWT, version 1.

Layout, little-endian: magic, u32 version, u32 tensor count, then per tensor
(sorted by name, each name once): u16 name length, name bytes (utf-8), u8
rank, u32 dims, f32 data in C order.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .engine import Tensor

__all__ = ["CHECKPOINT_MAGIC", "save_params", "load_params"]

CHECKPOINT_MAGIC = b"MBWT"


def save_params(params: dict[str, Tensor], path) -> None:
    """Write ``params`` in the module's layout, as float32.

    A value beyond the float32 range, a name longer than 65535 utf-8 bytes or
    a rank above 255 raises ``ValueError`` and writes nothing.
    """
    chunks = [struct.pack("<4sII", CHECKPOINT_MAGIC, 1, len(params))]
    for name in sorted(params):
        data = params[name].data
        if np.any(np.abs(data) > np.finfo(np.float32).max):
            raise ValueError(f"parameter {name!r} has values beyond the float32 range")
        data = data.astype("<f4", copy=False)
        raw_name = name.encode("utf-8")
        if len(raw_name) > 0xFFFF:
            raise ValueError(f"parameter name too long: {name[:32]}...")
        if data.ndim > 0xFF:
            raise ValueError(f"rank {data.ndim} exceeds format limit")
        chunks.append(struct.pack("<H", len(raw_name)))
        chunks.append(raw_name)
        chunks.append(struct.pack("<B", data.ndim))
        chunks.append(struct.pack(f"<{data.ndim}I", *data.shape))
        chunks.append(data.tobytes(order="C"))
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def load_params(path) -> dict[str, Tensor]:
    """Read a checkpoint that :func:`save_params` wrote.

    A malformed or truncated file, trailing bytes, a repeated name and
    non-finite values raise ``ValueError``.
    """
    with open(path, "rb") as fh:
        raw = memoryview(fh.read())
    off = 0

    def take(n: int) -> memoryview:
        nonlocal off
        if off + n > len(raw):
            raise ValueError(f"truncated checkpoint: needs {off + n} bytes, file has {len(raw)}")
        off += n
        return raw[off - n : off]

    def unpack(fmt: str) -> tuple:
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    magic, version, count = unpack("<4sII")
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
    if version != 1:
        raise ValueError(f"unsupported checkpoint version {version}")
    params: dict[str, Tensor] = {}
    for _ in range(count):
        (name_len,) = unpack("<H")
        name = str(take(name_len), "utf-8")
        (rank,) = unpack("<B")
        dims = unpack(f"<{rank}I")
        data = np.frombuffer(take(4 * math.prod(dims)), dtype="<f4").reshape(dims)
        if name in params:
            raise ValueError(f"parameter {name!r} appears twice")
        if not np.all(np.isfinite(data)):
            raise ValueError(f"parameter {name!r} holds non-finite values")
        params[name] = Tensor(data.astype(np.float32), requires_grad=True)
    if off != len(raw):
        raise ValueError("trailing bytes after last tensor record")
    return params
