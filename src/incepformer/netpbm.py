"""Binary netpbm I/O (P5 grayscale, P6 color) used for mask output and
inference input.  Zero-dependency and bit-exactly specifiable."""

from __future__ import annotations

import numpy as np

from .errors import ContractError


def write_pgm(path: str, arr: np.ndarray):
    """P5, maxval 255.  `arr` is [H, W] uint8."""
    if arr.ndim != 2:
        raise ContractError(f"PGM needs a 2-D array, got shape {arr.shape}")
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(arr, dtype=np.uint8).tobytes())


def write_ppm(path: str, arr: np.ndarray):
    """P6, maxval 255.  `arr` is [H, W, 3] uint8."""
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ContractError(f"PPM needs an [H, W, 3] array, got shape {arr.shape}")
    h, w, _ = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(arr, dtype=np.uint8).tobytes())


def _tokens(data: bytes):
    """Yield whitespace-separated header tokens, skipping '#' comments."""
    i = 0
    while True:
        while i < len(data) and data[i : i + 1].isspace():
            i += 1
        if i < len(data) and data[i : i + 1] == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
            continue
        start = i
        while i < len(data) and not data[i : i + 1].isspace():
            i += 1
        if start == i:
            return
        yield data[start:i], i


def read_image(path: str) -> np.ndarray:
    """Read a P5 or P6 file as float32 [3, H, W] in [0, 1].

    Grayscale input is replicated across the three channels.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    gen = _tokens(data)
    try:
        magic, _ = next(gen)
        (wtok, _), (htok, _), (mtok, end) = next(gen), next(gen), next(gen)
    except StopIteration:
        raise ContractError(f"{path}: truncated netpbm header") from None
    if magic not in (b"P5", b"P6"):
        raise ContractError(f"{path}: unsupported netpbm magic {magic!r}")
    try:
        w, h, maxval = int(wtok), int(htok), int(mtok)
    except ValueError:
        raise ContractError(f"{path}: netpbm header fields must be integers") from None
    if w < 1 or h < 1:
        raise ContractError(f"{path}: image dims must be positive, got {w}x{h}")
    if maxval != 255:
        raise ContractError(f"{path}: only maxval 255 is supported, got {maxval}")
    channels = 3 if magic == b"P6" else 1
    payload = data[end + 1 : end + 1 + w * h * channels]
    if len(payload) != w * h * channels:
        raise ContractError(f"{path}: truncated pixel payload")
    arr = np.frombuffer(payload, dtype=np.uint8).reshape(h, w, channels)
    if channels == 1:
        arr = np.repeat(arr, 3, axis=2)
    return (arr.transpose(2, 0, 1).astype(np.float32)) / 255.0
