"""Flat binary container for named float64 tensors.

Layout (all integers little-endian u32):

    magic "PCIL" | version | tensor count
    per tensor: name length | name (UTF-8) | rank | dims... | payload (<f8)

Parameter sets are stored with slash-namespaced names ("actor/layer0.w") so a
whole agent fits in one file.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import tempfile
from typing import Mapping

import numpy as np

from .autodiff import ParameterSet

MAGIC = b"PCIL"
VERSION = 1
_U32 = struct.Struct("<I")
_U32_MAX = 2**32 - 1


class CheckpointError(ValueError):
    """Malformed or truncated checkpoint file."""


def save_checkpoint(path, tensors: Mapping[str, np.ndarray]) -> None:
    """Write ``tensors`` to ``path``, replacing any file there atomically.

    Every name and tensor is checked before anything is written: a name that
    is not a UTF-8-encodable string, a value that is not an array of real
    numbers (a string or a boolean is none), a NaN/Inf entry or a dimension
    of 2**32 or more raises ``CheckpointError`` naming the tensor, and leaves
    ``path`` as it was. The file is written to a temporary file in the same
    directory and renamed onto ``path``, so a reader (or a crash) sees the
    old file or the new one, never a part. The rename is not followed by an
    fsync, so it does not survive power loss.
    """
    records = [_encode_tensor(name, value) for name, value in tensors.items()]
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(os.path.abspath(path)), prefix=os.path.basename(path) + ".",
        suffix=".tmp",
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC + _U32.pack(VERSION) + _U32.pack(len(records)))
            for header, arr in records:
                fh.write(header)
                fh.write(arr)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _encode_tensor(name, value) -> tuple[bytes, np.ndarray]:
    """The header bytes of one tensor and its little-endian payload array."""
    if not isinstance(name, str):
        raise CheckpointError(f"tensor name {name!r} is not a string")
    try:
        encoded = name.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise CheckpointError(f"tensor name {name!r} is not valid UTF-8") from exc
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"tensor {name!r} is not an array of real numbers: {exc}") from exc
    if arr.dtype.kind not in "iuf":  # float64 would take "1.5" and True as numbers
        raise CheckpointError(f"tensor {name!r} is not an array of real numbers: dtype {arr.dtype}")
    arr = arr.astype(np.float64, copy=False)
    if any(dim > _U32_MAX for dim in arr.shape):
        raise CheckpointError(
            f"tensor {name!r} has shape {arr.shape}; every dimension must be below 2**32"
        )
    if not np.all(np.isfinite(arr)):
        raise CheckpointError(f"tensor {name!r} holds NaN or Inf")
    arr = np.asarray(arr, dtype="<f8", order="C")  # ascontiguousarray would make 0-d 1-d
    header = b"".join(
        [_U32.pack(len(encoded)), encoded, _U32.pack(arr.ndim)]
        + [_U32.pack(dim) for dim in arr.shape]
    )
    return header, arr


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read the tensors ``save_checkpoint`` wrote to ``path``, by name.

    The file is read once, front to back, and each payload straight into the
    array returned for it, so no payload is copied. Each array is a writable
    float64 array of its own: its lifetime is independent of the others',
    and it is aligned, which a view into one buffer of the whole file would
    not be (payloads start at any byte). Bad magic, an unknown version, a
    truncated file, a name that is not UTF-8 or that repeats, a NaN/Inf
    entry or bytes after the last tensor raise ``CheckpointError``.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        offset = 0

        def take(n: int, what: str, make=bytearray):
            """``make(n)``, a buffer of ``n`` bytes, filled with the next ``n``
            bytes of the file; they are checked to exist before it is made."""
            nonlocal offset
            have = size - offset
            if n <= have:
                buf = make(n)
                have = fh.readinto(buf)  # short only if the file shrank after fstat
            if have < n:
                raise CheckpointError(
                    f"truncated checkpoint: needed {n} bytes for {what} at byte {offset}, "
                    f"file has {offset + have}"
                )
            offset += n
            return buf

        def u32(what: str) -> int:
            return _U32.unpack(take(4, what))[0]

        if take(4, "magic") != MAGIC:
            raise CheckpointError("bad magic bytes, not a PCIL checkpoint")
        version = u32("version")
        if version != VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        count = u32("tensor count")
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            name_len = u32("name length")
            raw_name = take(name_len, "name")
            try:
                name = raw_name.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError(
                    f"tensor name at byte {offset - name_len} is not UTF-8") from exc
            if name in tensors:
                raise CheckpointError(
                    f"duplicate tensor name {name!r} at byte {offset - name_len}")
            rank = u32("rank")
            dims = tuple(u32("dim") for _ in range(rank))
            n_items = math.prod(dims)  # exact: np.prod would wrap around in int64
            payload = take(8 * n_items, f"payload of {name!r}",
                           lambda n: np.empty(n // 8, dtype="<f8"))
            # a no-op astype on little-endian hosts, a converting copy elsewhere
            tensors[name] = payload.reshape(dims).astype(np.float64, copy=False)
            if not np.all(np.isfinite(tensors[name])):
                raise CheckpointError(f"tensor {name!r} holds NaN or Inf")
        if offset != size:
            raise CheckpointError(f"trailing garbage after byte {offset}")
    return tensors


def save_parameter_sets(path, sets: Mapping[str, ParameterSet]) -> None:
    """Write every set in ``sets`` to ``path`` as tensors named ``group/name``.

    A group name with a ``/`` would load back as another group, so it raises
    ``CheckpointError`` naming the group, and leaves ``path`` as it was.
    """
    for group in sets:
        if "/" in group:
            raise CheckpointError(f"group name {group!r} contains '/'")
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
