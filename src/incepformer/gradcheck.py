"""Finite-difference gradient oracle and comparison helpers.

The oracle never looks at the tape: it re-evaluates the forward function
with perturbed inputs, so it stays independent of the autodiff path it is
used to verify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .tensor import GradTape, Tensor, backward
from .train import cross_entropy

# Denominator floor: below this scale the comparison is effectively absolute,
# which keeps finite-difference roundoff from failing near-zero gradients.
REL_ERR_FLOOR = 1e-4


def finite_diff_grad(f: Callable[[Tensor], float], x: Tensor, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar-valued `f` at `x`.

    `x.data` is perturbed in place one coordinate at a time and restored,
    also when `f` raises, so `f` may close over `x` directly.
    """
    if h <= 0:
        raise ConfigError("finite_diff_grad step h must be positive")
    grad = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        try:
            flat[i] = orig + h
            fp = float(f(x))
            flat[i] = orig - h
            fm = float(f(x))
        finally:
            flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def rel_error(a: np.ndarray, b: np.ndarray, floor: float = REL_ERR_FLOOR) -> float:
    """max |a - b| / max(|a|_inf, |b|_inf, floor)."""
    diff = float(np.max(np.abs(a - b))) if a.size else 0.0
    denom = max(float(np.max(np.abs(a))) if a.size else 0.0,
                float(np.max(np.abs(b))) if b.size else 0.0,
                floor)
    return diff / denom


@dataclass
class GradCheckRow:
    name: str
    rel_err: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.rel_err < self.tol


def _compare(loss_fn: Callable[[], Tensor], named: Sequence[tuple[str, Tensor]], h: float,
             tol: float) -> list[GradCheckRow]:
    """One row per (name, tensor): the tape gradient of scalar `loss_fn()`
    against its central differences.  The tape pass runs first, and its
    gradients are copied before any input is perturbed."""
    with GradTape() as tape:
        loss = loss_fn()
    backward(loss, tape)
    auto = [x.grad.copy() if x.grad is not None else np.zeros_like(x.data) for _, x in named]
    return [GradCheckRow(name, rel_error(a, finite_diff_grad(lambda _x: loss_fn().item(), x, h)), tol)
            for (name, x), a in zip(named, auto)]


def check_function(
    f: Callable[[Sequence[Tensor]], Tensor],
    inputs: Sequence[Tensor],
    name: str,
    h: float = 1e-5,
    tol: float = 1e-4,
) -> list[GradCheckRow]:
    """Compare autodiff grads of scalar `f(inputs)` against finite differences.

    One row per differentiable input.
    """
    named = [(f"{name}/arg{i}", x) for i, x in enumerate(inputs) if x.requires_grad]
    return _compare(lambda: f(inputs), named, h, tol)


def _rand(rng, shape, dtype=np.float64, grad=True) -> Tensor:
    return Tensor(rng.standard_normal(shape), dtype=dtype, requires_grad=grad)


def check_op_gradients(seed: int = 0, h: float = 1e-5, tol: float = 1e-4) -> list[GradCheckRow]:
    """Gradient-check every registered forward op on small random tensors.

    Each case projects the op output to a scalar against a fixed random
    weighting so the whole Jacobian is exercised.
    """
    rng = np.random.default_rng(seed)
    rows: list[GradCheckRow] = []

    def run(name, builder, *inputs):
        w = None

        def f(args):
            nonlocal w
            out = builder(*args)
            if w is None:
                w = Tensor(rng.standard_normal(out.shape), dtype=np.float64)
            return T.tsum(T.mul(out, w))

        rows.extend(check_function(f, inputs, name, h, tol))

    run("add", T.add, _rand(rng, (3, 4)), _rand(rng, (3, 4)))
    run("add_broadcast", T.add, _rand(rng, (2, 3, 4)), _rand(rng, (4,)))
    run("mul", T.mul, _rand(rng, (3, 4)), _rand(rng, (3, 4)))
    run("scale", lambda x: T.scale(x, 1.7), _rand(rng, (3, 4)))
    run("neg", T.neg, _rand(rng, (5,)))
    run("relu", T.relu, _rand(rng, (4, 4)))
    run("gelu", T.gelu, _rand(rng, (4, 4)))
    run("sum", T.tsum, _rand(rng, (3, 3)))
    run("mean", T.mean, _rand(rng, (3, 3)))
    run("reshape", lambda x: T.reshape(x, (4, 3)), _rand(rng, (3, 4)))
    run("transpose", lambda x: T.transpose(x, (1, 0, 2)), _rand(rng, (2, 3, 2)))
    run("concat", lambda a, b: T.concat([a, b], axis=1), _rand(rng, (2, 3)), _rand(rng, (2, 2)))
    run("slice_rows", lambda x: T.slice_rows(x, 1, 3), _rand(rng, (2, 4, 3)))
    run("pad2d", lambda x: T.pad2d(x, (1, 2, 0, 1)), _rand(rng, (1, 2, 3, 3)))
    run("matmul", T.matmul_batched, _rand(rng, (2, 3, 4)), _rand(rng, (2, 4, 2)))
    run("linear", T.linear, _rand(rng, (2, 3, 4)), _rand(rng, (4, 5)), _rand(rng, (5,)))
    run("softmax", lambda x: T.softmax(x, axis=-1), _rand(rng, (3, 5)))
    run("conv2d", lambda x, w, b: T.conv2d(x, w, b, stride=(2, 2)),
        _rand(rng, (2, 3, 4, 6)), _rand(rng, (2, 3, 2, 2)), _rand(rng, (2,)))
    run("conv2d_depthwise", lambda x, w, b: T.conv2d(x, w, b, stride=(1, 1), padding=(1, 1), groups=3),
        _rand(rng, (1, 3, 4, 4)), _rand(rng, (3, 1, 3, 3)), _rand(rng, (3,)))
    run("avg_pool2d", lambda x: T.avg_pool2d(x, 2), _rand(rng, (1, 2, 4, 4)))
    run("layer_norm", T.layer_norm,
        _rand(rng, (2, 3, 4)), _rand(rng, (4,)), _rand(rng, (4,)))
    run("bilinear_upsample", lambda x: T.bilinear_upsample(x, 5, 6),
        _rand(rng, (1, 2, 3, 3)))
    run("bilinear_align", lambda x: T.bilinear_upsample(x, 4, 4, align_corners=True),
        _rand(rng, (1, 1, 3, 3)))
    run("img2seq", T.img2seq, _rand(rng, (1, 3, 2, 4)))
    run("seq2img", lambda x: T.seq2img(x, 2, 3), _rand(rng, (2, 6, 3)))

    def bn_train(x, g, b):
        rm = np.zeros(3)
        rv = np.ones(3)
        return T.batch_norm2d(x, g, b, rm, rv, training=True, update_running=False)

    run("batch_norm2d_train", bn_train, _rand(rng, (2, 3, 3, 2)), _rand(rng, (3,)), _rand(rng, (3,)))

    def bn_eval(x, g, b):
        rm = np.full(3, 0.3)
        rv = np.full(3, 1.7)
        return T.batch_norm2d(x, g, b, rm, rv, training=False)

    run("batch_norm2d_eval", bn_eval, _rand(rng, (2, 3, 3, 2)), _rand(rng, (3,)), _rand(rng, (3,)))

    # The loss upsamples [2, 3, 3, 4] logits to 7x10, a non-integer ratio.
    labels = rng.integers(0, 3, (2, 7, 10))
    labels[rng.random(labels.shape) < 0.2] = 255
    run("cross_entropy_upsample", lambda x: cross_entropy(x, labels), _rand(rng, (2, 3, 3, 4)))
    return rows


def check_model_gradients(model, loss_fn, h: float = 1e-5, tol: float = 1e-4) -> list[GradCheckRow]:
    """Compare autodiff vs finite differences for every model parameter.

    `loss_fn()` must rebuild the forward pass from the model's current
    parameters and return a scalar Tensor.  One row per parameter tensor.
    """
    return _compare(loss_fn, list(model.parameter_store().items()), h, tol)
