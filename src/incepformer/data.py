"""Synthetic segmentation data and the train-time augmentation pipeline.

Images are float32 [3, H, W] in [0, 1]; labels are int32 [H, W] holding
class ids (or the ignore index after crop padding).  Samples are colored
geometric regions whose label mask is the generating region id, so a test
can re-render the mask from the region list and compare.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import MAX_INPUT_SIDE
from .errors import ConfigError, ContractError
from .tensor import interp_matrix

NOISE_AMPLITUDE = 0.04  # uniform pixel noise, bounded so colors stay separable


@dataclass
class SegSample:
    image: np.ndarray
    label: np.ndarray

    def __post_init__(self):
        if self.image.ndim != 3 or self.image.shape[0] != 3:
            raise ContractError(f"image must be [3, H, W], got {self.image.shape}")
        if self.label.shape != self.image.shape[1:]:
            raise ContractError(
                f"label {self.label.shape} does not match image {self.image.shape[1:]}"
            )


@dataclass(frozen=True)
class Region:
    kind: str  # "rect" or "disk"
    cls: int
    cy: int
    cx: int
    ry: int
    rx: int


def class_colors(n_cls: int) -> np.ndarray:
    """Fixed color per class id (bit-reversal palette), float32 [n, 3] in [0, 1].

    Bit 3 * j + ch of the id sets bit 7 - j of channel ch (r, g, b) for
    j < 8; higher bits of the id are unused."""
    j = np.arange(8)[:, None]
    bits = (np.arange(n_cls)[:, None, None] >> (3 * j + np.arange(3))) & 1  # [n, 8, 3]
    rgb = (bits << (7 - j)).sum(axis=1)
    return (rgb / 255.0).astype(np.float32)


def generate_regions(rng: np.random.Generator, h: int, w: int, n_cls: int) -> list[Region]:
    """Draw 1..3 large shapes; later regions paint over earlier ones."""
    regions = []
    for _ in range(int(rng.integers(1, 4))):
        kind = "rect" if rng.random() < 0.5 else "disk"
        cls = int(rng.integers(1, n_cls)) if n_cls > 1 else 0
        cy = int(rng.integers(h // 4, 3 * h // 4 + 1))
        cx = int(rng.integers(w // 4, 3 * w // 4 + 1))
        ry = int(rng.integers(max(2, h // 6), max(3, h // 3) + 1))
        rx = int(rng.integers(max(2, w // 6), max(3, w // 3) + 1))
        regions.append(Region(kind, cls, cy, cx, ry, rx))
    return regions


def render_label(regions: list[Region], h: int, w: int) -> np.ndarray:
    """Paint regions in order onto a background of class 0."""
    label = np.zeros((h, w), dtype=np.int32)
    yy, xx = np.mgrid[0:h, 0:w]
    for reg in regions:
        if reg.kind == "rect":
            mask = (np.abs(yy - reg.cy) <= reg.ry) & (np.abs(xx - reg.cx) <= reg.rx)
        else:
            mask = ((yy - reg.cy) / reg.ry) ** 2 + ((xx - reg.cx) / reg.rx) ** 2 <= 1.0
        label[mask] = reg.cls
    return label


def render_image(label: np.ndarray, n_cls: int, rng: np.random.Generator) -> np.ndarray:
    """Class colors plus bounded uniform noise, clipped to [0, 1]."""
    base = class_colors(n_cls)[label].transpose(2, 0, 1)
    noise = rng.uniform(-NOISE_AMPLITUDE, NOISE_AMPLITUDE, base.shape)
    return np.clip(base + noise, 0.0, 1.0).astype(np.float32)


def make_synth_dataset(n: int, h: int, w: int, n_cls: int, seed: int) -> list[SegSample]:
    """Deterministic list of synthetic samples; sample i depends only on (seed, i)."""
    if n_cls < 2:
        raise ConfigError(f"need at least 2 classes, got {n_cls}")
    if n < 1:
        raise ConfigError("dataset size must be >= 1")
    samples = []
    for idx in range(n):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 7919, idx]))
        regions = generate_regions(rng, h, w, n_cls)
        label = render_label(regions, h, w)
        image = render_image(label, n_cls, rng)
        samples.append(SegSample(image=image, label=label))
    return samples


def resize_image(image: np.ndarray, oh: int, ow: int) -> np.ndarray:
    """Bilinear resize of a [3, H, W] float image (half-pixel centers)."""
    _, h, w = image.shape
    wh = interp_matrix(h, oh, align_corners=False)
    ww = interp_matrix(w, ow, align_corners=False)
    out = np.einsum("ph,chw,qw->cpq", wh, image.astype(np.float64), ww, optimize=True)
    return out.astype(np.float32)


def resize_label(label: np.ndarray, oh: int, ow: int) -> np.ndarray:
    """Nearest-neighbor resize; class ids are never interpolated."""
    h, w = label.shape
    iy = np.clip(np.floor((np.arange(oh) + 0.5) * h / oh), 0, h - 1).astype(np.int64)
    ix = np.clip(np.floor((np.arange(ow) + 0.5) * w / ow), 0, w - 1).astype(np.int64)
    return label[np.ix_(iy, ix)]


def augment(sample: SegSample, cfg, rng: np.random.Generator) -> SegSample:
    """Random scale, horizontal flip and crop, in a fixed draw order.

    The output always has cfg.crop dims; short sides are padded with zero
    image values and cfg.ignore_index labels before cropping.  A drawn
    scale that takes a side past MAX_INPUT_SIDE raises ConfigError before
    anything is resized.
    """
    ch, cw = cfg.crop
    lo, hi = cfg.scale_range
    s = float(rng.uniform(lo, hi))
    flip_draw = float(rng.random())

    image, label = sample.image, sample.label
    h, w = label.shape
    if max(h, w) * s > MAX_INPUT_SIDE + 0.5:  # exactly where round() passes MAX_INPUT_SIDE
        raise ConfigError(f"scale {s:g} takes a {h}x{w} sample past {MAX_INPUT_SIDE} pixels a side; "
                          f"lower scale_range, got {cfg.scale_range}")
    nh, nw = max(1, round(h * s)), max(1, round(w * s))
    if (nh, nw) != (h, w):
        image = resize_image(image, nh, nw)
        label = resize_label(label, nh, nw)
    if flip_draw < cfg.flip_prob:
        image = image[:, :, ::-1]
        label = label[:, ::-1]

    h, w = label.shape
    if h < ch or w < cw:
        ph, pw = max(0, ch - h), max(0, cw - w)
        image = np.pad(image, ((0, 0), (0, ph), (0, pw)))
        label = np.pad(label, ((0, ph), (0, pw)), constant_values=cfg.ignore_index)
        h, w = label.shape
    oy = int(rng.integers(0, h - ch + 1))
    ox = int(rng.integers(0, w - cw + 1))
    return SegSample(
        image=np.ascontiguousarray(image[:, oy : oy + ch, ox : ox + cw]),
        label=np.ascontiguousarray(label[oy : oy + ch, ox : ox + cw]),
    )
