"""Segmentation metrics: confusion matrix and mean IoU evaluation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError, NumericsError
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


def label_map(logits: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Predicted class of each pixel of [K, h, w] logits resized to
    out_h x out_w: the argmax over classes (ties go to the lowest index) of
    each row block of their `T.row_bands` resize.

    The logits are checked finite once: bilinear weights are convex, so
    their resized blocks are finite too (as in `train.cross_entropy`).
    Each [rows, K, W] block takes numpy's `argmax` over its class axis.
    """
    if not np.isfinite(logits).all():
        raise NumericsError("label_map: the logits hold non-finite values")
    walk = T.row_bands((1,) + logits.shape, out_h, out_w, logits.dtype)[0]
    labels = np.empty((out_h, out_w), dtype=np.intp)
    for (r0, r1, _, _), z in walk(logits[None]):
        labels[r0:r1] = z[0].argmax(axis=1)
    return labels


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
