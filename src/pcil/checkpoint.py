"""Flat binary container for named float64 tensors.

Layout (all integers little-endian u32):

    magic "PCIL" | version | tensor count
    per tensor: name length | name (UTF-8) | rank | dims... | payload (<f8)

It is the package's one file format, with two users. Parameter sets are
stored with slash-namespaced names ("actor/layer0.w") so a whole agent fits
in one file. Demo sets (``replay.save_demos``) are five tensors: ``state``
(N, S), ``action`` (N, A), ``next_state`` (N, S), ``reward_env`` (N,) and
``done`` (N,), stored as 0.0 or 1.0.
"""

from __future__ import annotations

import contextlib
import math
import os
import secrets
import struct
from typing import Mapping

import numpy as np

from ._checks import real_float64
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
    fsync, so it does not survive power loss. The file gets the mode
    ``open()`` gives a new file, 0o666 less the process umask.
    """
    records = [_encode_tensor(name, value) for name, value in tensors.items()]
    path = os.fspath(path)
    # a random name, created exclusively, as tempfile.mkstemp does, but not
    # with mkstemp's owner-only mode 0o600
    tmp = f"{os.path.abspath(path)}.{secrets.token_hex(8)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
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
        arr = real_float64(value, "it")
    except ValueError as exc:  # no real dtype, a boolean among numbers, or ragged rows
        raise CheckpointError(f"tensor {name!r} is not an array of real numbers: {exc}") from exc
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
    entry or bytes after the last tensor raise ``CheckpointError``, which
    names the byte where the fault is, where there is one.
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
            finite = np.isfinite(tensors[name])
            if not finite.all():
                first = offset - 8 * n_items + 8 * int(np.argmin(finite))
                raise CheckpointError(f"tensor {name!r} holds NaN or Inf at byte {first}")
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
