"""Flat binary container for named float64 tensors.

Layout (all integers little-endian u32):

    magic "PCIL" | version | tensor count
    per tensor: name length | name (UTF-8) | rank | dims... | payload (<f8)

Parameter sets are stored with slash-namespaced names ("actor/layer0.w") so a
whole agent fits in one file.
"""

from __future__ import annotations

import math
import struct
from typing import Mapping

import numpy as np

from .autodiff import ParameterSet

MAGIC = b"PCIL"
VERSION = 1
_U32 = struct.Struct("<I")


class CheckpointError(ValueError):
    """Malformed or truncated checkpoint file."""


def save_checkpoint(path, tensors: Mapping[str, np.ndarray]) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_U32.pack(VERSION))
        fh.write(_U32.pack(len(tensors)))
        for name, value in tensors.items():
            arr = np.ascontiguousarray(value, dtype="<f8")
            encoded = name.encode("utf-8")
            fh.write(_U32.pack(len(encoded)))
            fh.write(encoded)
            fh.write(_U32.pack(arr.ndim))
            for dim in arr.shape:
                fh.write(_U32.pack(dim))
            fh.write(arr.tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()
    offset = 0

    def take(n: int, what: str) -> bytes:
        nonlocal offset
        if offset + n > len(blob):
            raise CheckpointError(
                f"truncated checkpoint: needed {n} bytes for {what} at byte {offset}, "
                f"file has {len(blob)}"
            )
        chunk = blob[offset : offset + n]
        offset += n
        return chunk

    if take(4, "magic") != MAGIC:
        raise CheckpointError("bad magic bytes, not a PCIL checkpoint")
    version = _U32.unpack(take(4, "version"))[0]
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    count = _U32.unpack(take(4, "tensor count"))[0]
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        name_len = _U32.unpack(take(4, "name length"))[0]
        raw_name = take(name_len, "name")
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"tensor name at byte {offset - name_len} is not UTF-8") from exc
        if name in tensors:
            raise CheckpointError(f"duplicate tensor name {name!r} at byte {offset - name_len}")
        rank = _U32.unpack(take(4, "rank"))[0]
        dims = tuple(_U32.unpack(take(4, "dim"))[0] for _ in range(rank))
        n_items = math.prod(dims)  # exact: np.prod would wrap around in int64
        payload = take(8 * n_items, f"payload of {name!r}")
        tensors[name] = np.frombuffer(payload, dtype="<f8").reshape(dims).astype(np.float64)
        if not np.all(np.isfinite(tensors[name])):
            raise CheckpointError(f"tensor {name!r} holds NaN or Inf")
    if offset != len(blob):
        raise CheckpointError(f"trailing garbage after byte {offset}")
    return tensors


def save_parameter_sets(path, sets: Mapping[str, ParameterSet]) -> None:
    flat = {
        f"{group}/{name}": value
        for group, params in sets.items()
        for name, value in params.items()
    }
    save_checkpoint(path, flat)


def load_parameter_sets(path) -> dict[str, ParameterSet]:
    groups: dict[str, ParameterSet] = {}
    for full_name, value in load_checkpoint(path).items():
        group, _, name = full_name.partition("/")
        if not name:
            raise CheckpointError(f"tensor {full_name!r} has no group/name structure")
        groups.setdefault(group, ParameterSet())[name] = value
    return groups
