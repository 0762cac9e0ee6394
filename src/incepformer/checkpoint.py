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
import stat
import struct
from contextlib import contextmanager

import numpy as np

from .errors import CheckpointError, CheckpointMagicError, CheckpointShapeError, CheckpointTruncatedError

MAGIC = b"IPTCKPT1"
MAX_RANK = 32  # the most dims numpy 1.x arrays can have (numpy 2: 64)


@contextmanager
def atomic_write(path: str):
    """Open a temporary file beside `path` for binary writing.  A clean exit
    gives it the permission bits of any previous `path` and moves it onto
    `path` with os.replace; an exception deletes it, so `path` keeps its
    previous content and no temporary file is left behind.

    An existing `path` that is not itself a regular file is written in
    place: a symlink (such as /dev/stdout) is written through to its target
    and stays a link, and a device or FIFO receives the bytes instead of
    being renamed over.

    An OSError raised while writing or renaming names `path`, not the
    temporary file."""
    if os.path.lexists(path) and not stat.S_ISREG(os.lstat(path).st_mode):
        with open(path, "wb") as fh:
            yield fh
        return
    tmp = f"{path}.{os.getpid()}.tmp"  # same directory, so os.replace is atomic
    try:
        with open(tmp, "wb") as fh:
            yield fh
        if os.path.exists(path):
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        os.replace(tmp, path)
    except BaseException as e:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(e, OSError) and e.errno is not None:
            raise OSError(e.errno, e.strerror, path) from None
        raise


def save_checkpoint(path: str, tensors: dict[str, np.ndarray], iteration: int):
    """Write `tensors` to `path` atomically (see `atomic_write`).  A tensor
    whose float32 payload holds NaN or +-inf (a float64 value beyond the
    float32 range included), which `load_checkpoint` would reject, raises a
    CheckpointError naming it and `path`, and `path` keeps its content."""
    with atomic_write(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(tensors)))
        for name, arr in tensors.items():
            with np.errstate(over="ignore"):
                payload = np.ascontiguousarray(arr, dtype="<f4")
            if not np.isfinite(payload).all():
                raise CheckpointError(f"tensor {name!r} holds non-finite float32 values; not writing {path!r}")
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<B", arr.ndim))
            for d in arr.shape:
                fh.write(struct.pack("<I", d))
            fh.write(payload.tobytes())
        fh.write(struct.pack("<Q", int(iteration)))


def _read(fh, n: int) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise CheckpointTruncatedError(f"expected {n} bytes, got {len(buf)}")
    return buf


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], int]:
    """Read a checkpoint.  A tensor holding NaN or +-inf, or one whose name
    repeats an earlier one, raises a CheckpointError that names it; bytes
    after the iteration counter raise a CheckpointError that counts them."""
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
            arr = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
            if not np.isfinite(arr).all():
                raise CheckpointError(f"tensor {name!r} holds non-finite values")
            if name in tensors:
                raise CheckpointError(f"tensor {name!r} appears more than once")
            tensors[name] = arr
        (iteration,) = struct.unpack("<Q", _read(fh, 8))
        if fh.tell() != size:
            raise CheckpointError(f"{size - fh.tell()} trailing bytes after the iteration counter")
    return tensors, iteration


def apply_tensors(targets: dict[str, np.ndarray], loaded: dict[str, np.ndarray], skipped):
    """Copy loaded arrays into target arrays in place, checking names/shapes.

    A loaded name that is neither a target nor in `skipped` raises
    CheckpointShapeError naming the first one, before anything is copied.
    Targets are visited in their own (model) order so the first mismatch
    reported is deterministic.
    """
    extra = next((name for name in loaded if name not in targets and name not in skipped), None)
    if extra is not None:
        raise CheckpointShapeError(f"checkpoint tensor {extra!r} has no counterpart in the model")
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
