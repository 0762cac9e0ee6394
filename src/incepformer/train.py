"""Desk-scale training loop: pixelwise cross-entropy, AdamW with decoupled
weight decay, poly learning-rate decay, and checkpoint/resume support.

Determinism: all stochastic decisions of iteration `it` come from a
generator seeded with (cfg.seed, it), in a fixed draw order, so resuming
from a checkpoint written at iteration k reproduces iterations > k exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from . import tensor as T
from .checkpoint import apply_tensors, load_checkpoint, save_checkpoint
from .config import ModelConfig
from .data import SegSample, augment
from .errors import ConfigError, ContractError, NumericsError
from .model import IncepFormer, build_model
from .modules import ParameterStore
from .tensor import GradTape, Tensor, backward, record_op


@dataclass
class TrainConfig:
    base_lr: float = 6e-5
    power: float = 0.9
    max_iters: int = 100
    batch_size: int = 2
    weight_decay: float = 0.01
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    crop: tuple[int, int] = (64, 64)
    scale_range: tuple[float, float] = (0.5, 2.0)
    flip_prob: float = 0.5
    seed: int = 0
    ignore_index: int = 255

    def validate(self):
        lo, hi = self.scale_range
        if not (0 < lo <= hi):
            raise ConfigError(f"scale_range must satisfy 0 < lo <= hi, got {self.scale_range}")
        if not (0.0 <= self.flip_prob <= 1.0):
            raise ConfigError(f"flip_prob must be in [0, 1], got {self.flip_prob}")
        ch, cw = self.crop
        if ch % 32 or cw % 32:
            raise ConfigError(f"crop dims must be divisible by 32, got {self.crop}")
        if self.max_iters < 1 or self.batch_size < 1:
            raise ConfigError("max_iters and batch_size must be >= 1")
        if self.base_lr <= 0 or self.power < 0 or self.eps <= 0:
            raise ConfigError("base_lr and eps must be positive, power non-negative")


@dataclass
class OptimState:
    """Per-parameter first/second moments plus the shared step counter."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0


def init_optim_state(store: ParameterStore) -> OptimState:
    state = OptimState()
    for name, p in store.items():
        state.m[name] = np.zeros_like(p.data)
        state.v[name] = np.zeros_like(p.data)
    return state


def poly_lr(iteration: int, cfg: TrainConfig) -> float:
    """base_lr * (1 - iter/max_iters)^power, clamped to 0 past max_iters."""
    if iteration < 0:
        raise ContractError(f"negative iteration {iteration}")
    frac = min(iteration / cfg.max_iters, 1.0)
    return cfg.base_lr * (1.0 - frac) ** cfg.power


def adamw_step(params: ParameterStore, grads: Mapping[str, np.ndarray],
               state: OptimState, lr: float, cfg: TrainConfig):
    """One AdamW update over every parameter, in store order.

    Weight decay is decoupled (applied to the weights directly).  The update
    uses the efficient Adam formulation: the step size folds in the bias
    corrections and eps is added to the uncorrected sqrt(v).
    """
    b1, b2 = cfg.betas
    t = state.step + 1
    step_size = lr * math.sqrt(1.0 - b2 ** t) / (1.0 - b1 ** t)
    decay = 1.0 - lr * cfg.weight_decay
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            raise ContractError(f"no gradient for parameter {name!r}")
        if g.shape != p.data.shape:
            raise ContractError(f"gradient shape {g.shape} != parameter {name!r} shape {p.shape}")
        m, v = state.m[name], state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        if cfg.weight_decay:
            p.data *= decay
        p.data -= step_size * m / (np.sqrt(v) + cfg.eps)
    state.step = t


def cross_entropy(logits: Tensor, labels: np.ndarray, ignore_index: int = 255) -> Tensor:
    """Mean pixelwise negative log-likelihood over the non-ignored pixels.

    logits: [N, K, H, W]; labels: integer [N, H, W].
    """
    if logits.ndim != 4:
        raise ContractError(f"logits must be [N, K, H, W], got {logits.shape}")
    n, k, h, w = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n, h, w):
        raise ContractError(f"labels shape {labels.shape} != {(n, h, w)}")
    mask = labels != ignore_index
    if not mask.any():
        raise ContractError("all pixels are ignored; the mean loss is undefined")
    valid = labels[mask]
    if valid.min() < 0 or valid.max() >= k:
        raise ContractError(f"label values must lie in [0, {k}) or equal {ignore_index}")

    x = logits.data
    shifted = x - x.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    safe = np.where(mask, labels, 0)
    picked = np.take_along_axis(logp, safe[:, None], axis=1)[:, 0]
    count = int(mask.sum())
    loss = np.asarray(-(picked * mask).sum() / count, dtype=x.dtype)

    def bwd(g):
        prob = np.exp(logp)
        grad = prob * mask[:, None]
        np.put_along_axis(
            grad, safe[:, None],
            np.take_along_axis(grad, safe[:, None], axis=1) - mask[:, None],
            axis=1,
        )
        return ((g / count) * grad.astype(x.dtype, copy=False),)

    return record_op(loss, (logits,), bwd, "cross_entropy")


def iteration_rng(seed: int, iteration: int) -> np.random.Generator:
    """The documented per-iteration generator for all stochastic decisions."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), 1000003, int(iteration)]))


@dataclass
class TrainResult:
    history: list[float]
    model: IncepFormer
    store: ParameterStore
    state: OptimState


def training_state_tensors(model: IncepFormer, state: Optional[OptimState] = None) -> dict[str, np.ndarray]:
    """Everything that must round-trip through a checkpoint, in a fixed order:
    parameters, BatchNorm buffers, then optimizer moments (when `state` is
    given).  The arrays are the live ones, so loading can copy into them."""
    out: dict[str, np.ndarray] = {}
    store = model.parameter_store()
    for name, p in store.items():
        out[name] = p.data
    for name, b in model.named_buffers():
        out[name] = b
    if state is not None:
        for name in store.names():
            out[name + "/m1"] = state.m[name]
            out[name + "/m2"] = state.v[name]
    return out


def save_training_checkpoint(path: str, model: IncepFormer, state: OptimState, iteration: int):
    save_checkpoint(path, training_state_tensors(model, state), iteration)


def load_training_checkpoint(path: str, model: IncepFormer,
                             state: Optional[OptimState] = None) -> int:
    """Restore parameters/buffers (and moments when `state` is given);
    returns the stored iteration counter."""
    loaded, iteration = load_checkpoint(path)
    apply_tensors(training_state_tensors(model, state), loaded)
    if state is not None:
        state.step = iteration
    return iteration


def train(
    model_cfg: ModelConfig,
    cfg: TrainConfig,
    dataset: list[SegSample],
    dtype: str = "f32",
    checkpoint_path: Optional[str] = None,
    resume_from: Optional[str] = None,
    snapshot_at: Optional[tuple[int, str]] = None,
    log: Optional[Callable[[int, float, float], None]] = None,
) -> TrainResult:
    """Iterate the dataset with wrap-around batches until cfg.max_iters.

    Each iteration: augment -> forward -> cross-entropy on logits upsampled
    to the crop size -> backward -> AdamW with the poly learning rate.
    `snapshot_at=(k, path)` additionally writes a checkpoint once k
    iterations have completed; resuming from it reproduces the rest of the
    run bit for bit.
    """
    cfg.validate()
    if not dataset:
        raise ContractError("training dataset is empty")
    model = build_model(model_cfg, seed=cfg.seed, dtype=dtype)
    store = model.parameter_store()
    state = init_optim_state(store)
    start = 0
    if resume_from is not None:
        start = load_training_checkpoint(resume_from, model, state)
    ch, cw = cfg.crop
    history: list[float] = []
    model.train()
    for it in range(start, cfg.max_iters):
        rng = iteration_rng(cfg.seed, it)
        batch = [
            augment(dataset[(it * cfg.batch_size + j) % len(dataset)], cfg, rng)
            for j in range(cfg.batch_size)
        ]
        images = np.stack([s.image for s in batch])
        labels = np.stack([s.label for s in batch])
        try:
            with GradTape() as tape:
                logits = model(Tensor(images, dtype=dtype))
                up = T.bilinear_upsample(logits, ch, cw, align_corners=False)
                loss = cross_entropy(up, labels, cfg.ignore_index)
            backward(loss, tape)
        except NumericsError as e:
            raise NumericsError(f"training aborted at iteration {it}: {e}") from e
        lr = poly_lr(it, cfg)
        grads = {name: p.grad for name, p in store.items()}
        adamw_step(store, grads, state, lr, cfg)
        value = loss.item()
        if not math.isfinite(value):
            raise NumericsError(f"training aborted at iteration {it}: non-finite loss")
        history.append(value)
        if log is not None:
            log(it, lr, value)
        if snapshot_at is not None and it + 1 == snapshot_at[0]:
            save_training_checkpoint(snapshot_at[1], model, state, it + 1)
    if checkpoint_path is not None:
        save_training_checkpoint(checkpoint_path, model, state, cfg.max_iters)
    return TrainResult(history=history, model=model, store=store, state=state)
