"""Segmentation metrics: confusion matrix and mean IoU evaluation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError
from .tensor import Tensor


class ConfusionMatrix:
    """Pixel-level confusion counts; rows are ground truth, columns prediction."""

    def __init__(self, num_classes: int):
        if num_classes < 2:
            raise ContractError(f"need at least 2 classes, got {num_classes}")
        self.num_classes = num_classes
        self.counts = np.zeros((num_classes, num_classes), dtype=np.int64)

    def update(self, gt: np.ndarray, pred: np.ndarray, ignore_index: int = 255):
        if gt.shape != pred.shape:
            raise ContractError(f"gt {gt.shape} and pred {pred.shape} differ")
        k = self.num_classes
        mask = gt != ignore_index
        g = gt[mask].astype(np.int64)
        p = pred[mask].astype(np.int64)
        if g.size and (g.min() < 0 or g.max() >= k or p.min() < 0 or p.max() >= k):
            raise ContractError("class id outside [0, num_classes)")
        self.counts += np.bincount(k * g + p, minlength=k * k).reshape(k, k)

    @property
    def total_scored(self) -> int:
        return int(self.counts.sum())

    def iou(self) -> tuple[float, np.ndarray]:
        """(mIoU, per-class IoU); classes absent from both GT and prediction
        are NaN per class and excluded from the mean."""
        tp = np.diag(self.counts).astype(np.float64)
        union = self.counts.sum(axis=1) + self.counts.sum(axis=0) - np.diag(self.counts)
        present = union > 0
        per_class = np.full(self.num_classes, np.nan)
        per_class[present] = tp[present] / union[present]
        if not present.any():
            raise ContractError("confusion matrix is empty; nothing was scored")
        return float(per_class[present].mean()), per_class


def class_map(scores) -> np.ndarray:
    """np.argmax over classes of finite class scores: a [K, H, W] array, or
    any iterable of its [H, W] planes in class order.

    A running maximum over the K class planes reads each plane once,
    contiguously, where argmax over axis 0 strides across all K planes for
    every pixel.  A strict `>` keeps the lowest index on ties, as argmax does.
    """
    planes = iter(scores)
    best = next(planes).copy()
    labels = np.zeros(best.shape, dtype=np.intp)
    better = np.empty(best.shape, dtype=bool)
    for k, plane in enumerate(planes, start=1):
        np.greater(plane, best, out=better)
        np.copyto(labels, k, where=better)
        np.maximum(best, plane, out=best)
    return labels


# Classes upsampled together by `label_map`: 8 MiB of f32 planes at 512x512.
# For 150 classes from 128x128 to 512x512, blocks of 4 and 8 timed alike
# and blocks of 16 and 32 slower (2-core Xeon VM).
CLASS_BLOCK = 8


def label_map(logits: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Predicted class of each pixel of [K, h, w] logits resized to
    out_h x out_w: bitwise `class_map` of their `bilinear_upsample`.

    `bilinear_upsample` runs on CLASS_BLOCK classes at a time (the same
    cached matrices and per-plane products, and its finiteness check), and
    each block feeds the running maximum of `class_map`; so no
    [K, out_h, out_w] array exists.
    """
    def planes():
        for k in range(0, logits.shape[0], CLASS_BLOCK):
            yield from T.bilinear_upsample(Tensor(logits[None, k:k + CLASS_BLOCK]), out_h, out_w).data[0]

    return class_map(planes())


@dataclass
class MIoUResult:
    miou: float
    per_class: np.ndarray
    confusion: ConfusionMatrix


def eval_miou(model, dataset, cfg) -> MIoUResult:
    """Single-scale evaluation: the `label_map` of each image's logits at
    label resolution, scored against the label.

    BatchNorm runs in eval mode (running statistics).
    """
    if not dataset:
        raise ContractError("cannot evaluate an empty dataset")
    model.eval()
    dtype = next(model.parameters()).dtype
    cm = ConfusionMatrix(model.cfg.num_classes)
    for sample in dataset:
        h, w = sample.label.shape
        x = Tensor(sample.image[None], dtype=dtype)
        pred = label_map(model(x).data[0], h, w)
        cm.update(sample.label, pred, cfg.ignore_index)
    miou, per_class = cm.iou()
    return MIoUResult(miou=miou, per_class=per_class, confusion=cm)
