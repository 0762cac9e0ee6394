"""Binary checkpoint format.

Layout (all integers little-endian):

    magic            8 bytes  b"IPTCKPT1"
    tensor count     u32
    per tensor:      u16 name length, UTF-8 name, u8 rank,
                     rank x u32 dims, row-major float32 payload
    iteration        u64

Optimizer moments are stored as tensors named "<param>/m1" and "<param>/m2";
BatchNorm running statistics are stored under their buffer names.  Payloads
are always float32, which makes save/load round trips bitwise exact for the
default runtime dtype.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .errors import CheckpointError, CheckpointMagicError, CheckpointShapeError, CheckpointTruncatedError

MAGIC = b"IPTCKPT1"
MAX_RANK = 32  # the most dims numpy 1.x arrays can have (numpy 2: 64)


def save_checkpoint(path: str, tensors: dict[str, np.ndarray], iteration: int):
    """Write `tensors` to `path` atomically: a save that fails partway leaves
    any previous file at `path` untouched and no temporary file behind."""
    tmp = f"{path}.{os.getpid()}.tmp"  # same directory, so os.replace is atomic
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(tensors)))
            for name, arr in tensors.items():
                raw = name.encode("utf-8")
                fh.write(struct.pack("<H", len(raw)))
                fh.write(raw)
                fh.write(struct.pack("<B", arr.ndim))
                for d in arr.shape:
                    fh.write(struct.pack("<I", d))
                fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
            fh.write(struct.pack("<Q", int(iteration)))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read(fh, n: int) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise CheckpointTruncatedError(f"expected {n} bytes, got {len(buf)}")
    return buf


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], int]:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise CheckpointMagicError(f"bad magic {magic!r}; not a checkpoint file")
        (count,) = struct.unpack("<I", _read(fh, 4))
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            (nlen,) = struct.unpack("<H", _read(fh, 2))
            try:
                name = _read(fh, nlen).decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError("tensor name is not valid UTF-8") from None
            (rank,) = struct.unpack("<B", _read(fh, 1))
            if rank > MAX_RANK:
                raise CheckpointShapeError(f"tensor {name!r} declares rank {rank} > {MAX_RANK}")
            dims = [struct.unpack("<I", _read(fh, 4))[0] for _ in range(rank)]
            nbytes = 4 * math.prod(dims)
            if nbytes > size - fh.tell():
                # Checked before reading, so hostile dims cannot force a huge allocation.
                raise CheckpointTruncatedError(
                    f"tensor {name!r} declares {nbytes} payload bytes, "
                    f"only {size - fh.tell()} left in the file")
            payload = _read(fh, nbytes)
            tensors[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
        (iteration,) = struct.unpack("<Q", _read(fh, 8))
    return tensors, iteration


def apply_tensors(targets: dict[str, np.ndarray], loaded: dict[str, np.ndarray]):
    """Copy loaded arrays into target arrays in place, checking names/shapes.

    Targets are visited in their own (model) order so the first mismatch
    reported is deterministic.
    """
    for name, dst in targets.items():
        if name not in loaded:
            raise CheckpointShapeError(f"checkpoint is missing tensor {name!r}")
        src = loaded[name]
        if tuple(src.shape) != tuple(dst.shape):
            raise CheckpointShapeError(
                f"tensor {name!r} has shape {tuple(src.shape)} in checkpoint, "
                f"expected {tuple(dst.shape)}"
            )
        dst[...] = src.astype(dst.dtype, copy=False)
