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
from .checkpoint import restore_checkpoint, save_checkpoint
from .config import MAX_INPUT_SIDE, ModelConfig, check_input_size
from .data import SegSample, augment
from .errors import ConfigError, ContractError, NumericsError
from .model import IncepFormer, build_model
from .modules import ParameterStore
from .tensor import GradTape, Tensor, backward, record_op

# AdamW's fixed settings: decoupled weight decay, moment decay rates, and
# the eps added to sqrt(v).
WEIGHT_DECAY = 0.01
ADAMW_BETAS = (0.9, 0.999)
ADAMW_EPS = 1e-8


@dataclass
class TrainConfig:
    base_lr: float = 6e-5
    power: float = 0.9
    max_iters: int = 100
    batch_size: int = 2
    crop: tuple[int, int] = (64, 64)
    scale_range: tuple[float, float] = (0.5, 2.0)
    flip_prob: float = 0.5
    seed: int = 0
    ignore_index: int = 255

    def validate(self):
        lo, hi = self.scale_range
        if not (0 < lo <= hi < math.inf):
            raise ConfigError(f"scale_range must be finite with 0 < lo <= hi, got {self.scale_range}")
        if not (0.0 <= self.flip_prob <= 1.0):
            raise ConfigError(f"flip_prob must be in [0, 1], got {self.flip_prob}")
        check_input_size(*self.crop, "crop")
        if self.max_iters < 1 or self.batch_size < 1:
            raise ConfigError("max_iters and batch_size must be >= 1")
        if self.max_iters >= 1 << 64:  # a checkpoint stores the iteration as a u64
            raise ConfigError(f"max_iters {self.max_iters} does not fit a checkpoint's u64 iteration counter")
        if self.batch_size * self.crop[0] * self.crop[1] > MAX_INPUT_SIDE ** 2:
            raise ConfigError(f"batch_size {self.batch_size} of {self.crop[0]}x{self.crop[1]} crops exceeds "
                              f"{MAX_INPUT_SIDE}x{MAX_INPUT_SIDE} pixels per batch")
        # Every comparison with NaN is False, and `x < math.inf` rejects inf.
        if not 0 < self.base_lr < math.inf:
            raise ConfigError(f"base_lr must be finite and positive, got {self.base_lr}")
        if not (0 <= self.power < math.inf and self.seed >= 0):
            raise ConfigError("power and seed must be finite and non-negative")


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
               state: OptimState, lr: float):
    """One AdamW update over every parameter, in store order.

    Weight decay is decoupled (applied to the weights directly).  The update
    uses the efficient Adam formulation: the step size folds in the bias
    corrections and eps is added to the uncorrected sqrt(v).

    A step that overflows raises NumericsError naming the first parameter
    whose new value or second moment holds NaN or +-inf, with no numpy
    warning; that parameter and the ones before it are already updated.
    """
    b1, b2 = ADAMW_BETAS
    t = state.step + 1
    step_size = lr * math.sqrt(1.0 - b2 ** t) / (1.0 - b1 ** t)
    decay = 1.0 - lr * WEIGHT_DECAY
    with np.errstate(over="ignore", invalid="ignore"):
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
            p.data *= decay
            p.data -= step_size * m / (np.sqrt(v) + ADAMW_EPS)
            T._check_finite(p.data, f"adamw_step on {name!r}")
            T._check_finite(v, f"adamw_step on the second moment of {name!r}")
    state.step = t


def cross_entropy(logits: Tensor, labels: np.ndarray, ignore_index: int = 255) -> Tensor:
    """Mean pixelwise negative log-likelihood over the non-ignored pixels of
    the bilinear (half-pixel) upsample of `logits` to the label size.

    logits: [N, K, h, w]; labels: integer [N, H, W].  At h, w = H, W the
    interpolation matrices are identities and this is the plain loss.

    The upsampled [N, K, H, W] logits are never held whole: both passes
    take them block by block of output rows from `T.row_bands`, and the
    backward recomputes each block, keeping only the per-pixel log-sum-exp.
    No check of the blocks' finiteness is needed: bilinear weights are
    convex, so finite logits (checked by the op that made them) upsample to
    finite values, and the loss is checked.
    """
    if logits.ndim != 4:
        raise ContractError(f"logits must be [N, K, H, W], got {logits.shape}")
    n, k = logits.shape[:2]
    labels = np.asarray(labels)
    if not np.issubdtype(labels.dtype, np.integer):
        raise ContractError(f"labels must have an integer dtype, got {labels.dtype}")
    if labels.ndim != 3 or labels.shape[0] != n:
        raise ContractError(f"labels must be [N, H, W] for logits {logits.shape}, got {labels.shape}")
    mask = labels != ignore_index
    if not mask.any():
        raise ContractError("all pixels are ignored; the mean loss is undefined")
    valid = labels[mask]
    if valid.min() < 0 or valid.max() >= k:
        raise ContractError(f"label values must lie in [0, {k}) or equal {ignore_index}")

    x = logits.data
    _, out_h, out_w = labels.shape
    walk, pull_back = T.row_bands(x.shape, out_h, out_w, x.dtype)
    safe = np.where(mask, labels, 0)

    def label_at(r0, r1):
        """Flat positions of each pixel's label logit in a block of rows."""
        image_row = np.arange(n * (r1 - r0)).reshape(n, r1 - r0, 1)
        return (image_row * k + safe[:, r0:r1]) * out_w + np.arange(out_w)

    log_z = np.empty((n, out_h, out_w), dtype=x.dtype)  # max + log-sum-exp
    total = 0.0
    for (r0, r1, _, _), z in walk(x):
        picked = z.reshape(-1)[label_at(r0, r1)]
        m = z.max(axis=2)
        z -= m[:, :, None]
        np.exp(z, out=z)
        log_z[:, r0:r1] = m + np.log(z.sum(axis=2))
        total += float(((log_z[:, r0:r1] - picked) * mask[:, r0:r1]).sum())
    count = int(mask.sum())
    loss = np.asarray(total / count, dtype=x.dtype)

    def grads():
        """Gradient of the summed loss for each block of upsampled rows."""
        for (r0, r1, c0, c1), p in walk(x):
            p -= log_z[:, r0:r1, None]
            np.exp(p, out=p)
            p *= mask[:, r0:r1, None]
            p.reshape(-1)[label_at(r0, r1)] -= mask[:, r0:r1]
            yield (r0, r1, c0, c1), p

    def bwd(g):
        gx = pull_back(grads())
        gx *= g / count
        return (gx,)

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
    returns the stored iteration counter.  A checkpoint tensor that is not
    in `training_state_tensors(model, state)` raises CheckpointShapeError,
    except the moments of the model's parameters when `state` is None,
    which are checked but not read into memory whole.  So does a missing
    tensor, and one whose shape differs from its array's (a skipped
    moment's from its parameter's).  Any rejection comes before the first copy,
    and leaves the model and `state` as they were (see
    `restore_checkpoint`)."""
    moments = {} if state is not None else {
        f"{name}/{m}": p.shape for name, p in model.parameter_store().items() for m in ("m1", "m2")}
    iteration = restore_checkpoint(path, training_state_tensors(model, state), moments)
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

    Each iteration: augment -> forward -> `cross_entropy` of the
    1/4-resolution logits against the crop-size labels, i.e. over the
    logits' bilinear upsample to the crop (bilinear weights are convex, so
    with the logits and the loss both checked no intermediate needs a
    check) -> backward -> AdamW with the poly learning rate.  Every
    parameter's `.grad` is dropped before each iteration's forward, so no
    step holds the previous step's gradients; the last iteration's stay on
    the returned store.
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
        if start > cfg.max_iters:
            raise ConfigError(f"checkpoint {resume_from!r} is at iteration {start}, "
                              f"past max_iters {cfg.max_iters}")
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
        for _, p in store.items():
            p.grad = None
        try:
            with GradTape() as tape:
                logits = model(Tensor(images, dtype=dtype))
                loss = cross_entropy(logits, labels, cfg.ignore_index)
            backward(loss, tape)
            lr = poly_lr(it, cfg)
            adamw_step(store, {name: p.grad for name, p in store.items()}, state, lr)
        except NumericsError as e:
            raise NumericsError(f"training aborted at iteration {it}: {e}") from e
        value = loss.item()
        history.append(value)
        if log is not None:
            log(it, lr, value)
        if snapshot_at is not None and it + 1 == snapshot_at[0]:
            save_training_checkpoint(snapshot_at[1], model, state, it + 1)
    if checkpoint_path is not None:
        save_training_checkpoint(checkpoint_path, model, state, cfg.max_iters)
    return TrainResult(history=history, model=model, store=store, state=state)
