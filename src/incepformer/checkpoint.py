"""Binary checkpoint format.

Layout (all integers little-endian):

    magic            8 bytes  b"IPTCKPT1"
    tensor count     u32
    per tensor:      u16 name length, UTF-8 name, u8 rank,
                     rank x u32 dims, row-major float32 payload
    iteration        u64

Optimizer moments are stored as tensors named "<param>/m1" and "<param>/m2";
BatchNorm running statistics are stored under their buffer names.  Payloads
are always float32, which makes save/restore round trips bitwise exact for the
default runtime dtype.
"""

from __future__ import annotations

import math
import os
import stat
import struct
from contextlib import contextmanager
from typing import Mapping

import numpy as np

from .errors import CheckpointError, CheckpointMagicError, CheckpointShapeError, CheckpointTruncatedError

MAGIC = b"IPTCKPT1"
MAX_RANK = 32  # the most dims numpy 1.x arrays can have (numpy 2: 64)
MAX_NAME_BYTES = 0xFFFF  # a name's length is a u16
# A restore reads a payload it does not keep this many bytes at a time.
CHUNK_BYTES = 1 << 20
CHUNK_VALUES = CHUNK_BYTES // 4


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
    """Write `tensors` to `path` atomically (see `atomic_write`).  What the
    layout cannot hold or a restore would reject raises a CheckpointError
    naming `path` (and the tensor at fault), and `path` keeps its content.
    Checked before anything is written: an iteration outside the u64 range,
    a rank above MAX_RANK, and a name that UTF-8 cannot encode or that takes
    over MAX_NAME_BYTES bytes.  Checked as each payload is written: NaN or
    +-inf in its float32 values (a float64 value beyond the float32 range
    included)."""
    if not 0 <= iteration < 1 << 64:
        raise CheckpointError(f"iteration {iteration} is outside the u64 range; not writing {path!r}")
    for name, arr in tensors.items():
        if arr.ndim > MAX_RANK:
            raise CheckpointError(f"tensor {name!r} has rank {arr.ndim} > {MAX_RANK}; not writing {path!r}")
        try:
            nbytes = len(name.encode("utf-8"))
        except UnicodeEncodeError:
            raise CheckpointError(f"tensor name {name!r} is not encodable as UTF-8; not writing {path!r}") from None
        if nbytes > MAX_NAME_BYTES:
            raise CheckpointError(f"tensor name {name[:40]!r}... is longer than {MAX_NAME_BYTES} "
                                  f"UTF-8 bytes; not writing {path!r}")
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


def _read_into(fh, out: np.ndarray):
    """Fill contiguous `out` with the next bytes of `fh`."""
    view = out.reshape(-1).view(np.uint8)
    got = 0
    while got < len(view):
        n = fh.readinto(view[got:])
        if not n:
            raise CheckpointTruncatedError(f"expected {len(view)} bytes, got {got}")
        got += n


def _check_finite(values: np.ndarray, name: str):
    """Raise CheckpointError naming `name` if `values` hold NaN or +-inf."""
    if not np.isfinite(values).all():
        raise CheckpointError(f"tensor {name!r} holds non-finite values")


def _scan(fh) -> tuple[dict[str, tuple[tuple[int, ...], int]], int]:
    """Read the header of every tensor, seeking over the payloads.  Returns
    {name: (shape, payload offset)} in file order, and the iteration.

    Rejects everything wrong with the file itself: bad magic, a non-UTF-8
    name, rank above MAX_RANK, a payload larger than what is left of the
    file, a name that repeats an earlier one (named), and bytes after the
    iteration counter (counted).  No payload byte is read."""
    size = os.fstat(fh.fileno()).st_size
    magic = fh.read(len(MAGIC))
    if magic != MAGIC:
        raise CheckpointMagicError(f"bad magic {magic!r}; not a checkpoint file")
    (count,) = struct.unpack("<I", _read(fh, 4))
    records: dict[str, tuple[tuple[int, ...], int]] = {}
    for _ in range(count):
        (nlen,) = struct.unpack("<H", _read(fh, 2))
        try:
            name = _read(fh, nlen).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError("tensor name is not valid UTF-8") from None
        (rank,) = struct.unpack("<B", _read(fh, 1))
        if rank > MAX_RANK:
            raise CheckpointShapeError(f"tensor {name!r} declares rank {rank} > {MAX_RANK}")
        dims = tuple(struct.unpack("<I", _read(fh, 4))[0] for _ in range(rank))
        nbytes = 4 * math.prod(dims)
        offset = fh.tell()
        if nbytes > size - offset:
            # Checked before any payload is read, so hostile dims cannot force a huge allocation.
            raise CheckpointTruncatedError(
                f"tensor {name!r} declares {nbytes} payload bytes, "
                f"only {size - offset} left in the file")
        if name in records:
            raise CheckpointError(f"tensor {name!r} appears more than once")
        records[name] = (dims, offset)
        fh.seek(nbytes, os.SEEK_CUR)
    (iteration,) = struct.unpack("<Q", _read(fh, 8))
    if fh.tell() != size:
        raise CheckpointError(f"{size - fh.tell()} trailing bytes after the iteration counter")
    return records, iteration


def restore_checkpoint(path: str, targets: dict[str, np.ndarray],
                       skipped: Mapping[str, tuple[int, ...]]) -> int:
    """Copy a checkpoint's tensors into the `targets` arrays in place and
    return its iteration.  Every tensor of the file must be a target or a
    name in `skipped`, which maps it to its expected shape; a skipped
    payload is checked but not kept, and a skipped name may be absent.

    The file is rejected as `_scan` rejects it.  Then, before any payload
    is read, a file name that is neither a target nor skipped raises
    CheckpointShapeError naming the first one; so does a target that is
    missing from the file, and a target or skipped tensor whose shape
    differs.  The first such in the targets' own (model) order, then in
    `skipped`'s order, is reported, so the mismatch is deterministic.  Then the
    payloads are read in file order: the targets' into one float32 staging
    buffer, the skipped ones CHUNK_BYTES at a time through a buffer made
    when the first of them is read, and the first holding NaN or +-inf
    raises a CheckpointError that names it.  Only then is the staging
    buffer copied into the targets, so a rejected restore leaves every
    target as it was.  What it holds beyond the targets' own arrays is
    their float32 copy, one chunk, and the bool mask of the one tensor (or
    chunk) being checked."""
    with open(path, "rb") as fh:
        records, iteration = _scan(fh)
        extra = next((name for name in records if name not in targets and name not in skipped), None)
        if extra is not None:
            raise CheckpointShapeError(f"checkpoint tensor {extra!r} has no counterpart in the model")
        expected = [(name, dst.shape) for name, dst in targets.items()] + list(skipped.items())
        for name, shape in expected:
            if name not in records:
                if name in targets:
                    raise CheckpointShapeError(f"checkpoint is missing tensor {name!r}")
            elif records[name][0] != shape:
                raise CheckpointShapeError(
                    f"tensor {name!r} has shape {records[name][0]} in checkpoint, "
                    f"expected {shape}"
                )
        sizes = [dst.size for dst in targets.values()]
        slots = dict(zip(targets, np.split(np.empty(sum(sizes), dtype="<f4"), np.cumsum(sizes)[:-1])))
        largest = max((math.prod(dims) for name, (dims, _) in records.items() if name not in targets), default=0)
        chunk = None
        for name, (dims, offset) in records.items():
            fh.seek(offset)
            if name in slots:
                _read_into(fh, slots[name])
                _check_finite(slots[name], name)
                continue
            if chunk is None:
                chunk = np.empty(min(CHUNK_VALUES, largest), dtype="<f4")
            left = math.prod(dims)
            while left:
                part = chunk[:min(left, chunk.size)]
                _read_into(fh, part)
                _check_finite(part, name)
                left -= part.size
    for name, dst in targets.items():
        dst[...] = slots[name].reshape(dst.shape)
    return iteration
