"""Minimal layer system: parameter naming and common layers.

A module's attributes are its registry.  Walking them in first-assignment
order finds its parameters (requires_grad Tensors), buffers (any numpy array
attribute, such as BatchNorm running statistics; every one is checkpointed)
and child modules; that order is the ParameterStore and checkpoint order.
Names are slash-delimited paths, e.g. "stage1/block0/attn/wq".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .tensor import Tensor


# The most parameters one model may have: 2^28 (1 GiB of float32 weights,
# about 6.8x ipt-b).
MAX_PARAMS = 1 << 28


@dataclass
class InitCtx:
    """Deterministic initialization context threaded through model build.

    Counts the parameters it creates: the tensor that would take the count
    past MAX_PARAMS raises ConfigError before it is allocated.
    """

    rng: np.random.Generator
    dtype: np.dtype
    n_params: int = field(default=0, init=False)

    def _claim(self, *shape: int) -> tuple:
        self.n_params += math.prod(shape)
        if self.n_params > MAX_PARAMS:
            raise ConfigError(f"model needs more than {MAX_PARAMS} parameters "
                              f"(reached at a tensor of shape {shape})")
        return shape

    def conv_weight(self, cout: int, cin_g: int, kh: int, kw: int) -> Tensor:
        fan_in = cin_g * kh * kw
        std = float(np.sqrt(2.0 / fan_in))
        return T.parameter(self.rng.standard_normal(self._claim(cout, cin_g, kh, kw)) * std, dtype=self.dtype)

    def linear_weight(self, cin: int, cout: int) -> Tensor:
        std = float(np.sqrt(2.0 / (cin + cout)))
        return T.parameter(self.rng.standard_normal(self._claim(cin, cout)) * std, dtype=self.dtype)

    def zeros(self, *shape: int) -> Tensor:
        return T.parameter(np.zeros(self._claim(*shape)), dtype=self.dtype)

    def ones(self, *shape: int) -> Tensor:
        return T.parameter(np.ones(self._claim(*shape)), dtype=self.dtype)


class Module:
    """Base layer whose attributes are its registry, walked in
    first-assignment order: a requires_grad Tensor is a parameter, a numpy
    array is a checkpointed buffer, a Module is a child; anything else is
    plain state."""

    training = True

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for name, v in vars(self).items():
            if isinstance(v, Tensor) and v.requires_grad:
                yield prefix + name, v
            elif isinstance(v, Module):
                yield from v.named_parameters(prefix + name + "/")

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name, v in vars(self).items():
            if isinstance(v, np.ndarray):
                yield prefix + name, v
            elif isinstance(v, Module):
                yield from v.named_buffers(prefix + name + "/")

    def parameters(self) -> Iterator[Tensor]:
        for _, p in self.named_parameters():
            yield p

    def modules(self) -> Iterator["Module"]:
        yield self
        for v in vars(self).values():
            if isinstance(v, Module):
                yield from v.modules()

    def train(self, mode: bool = True):
        for m in self.modules():
            m.training = mode
        return self

    def eval(self):
        return self.train(False)

    def parameter_store(self) -> "ParameterStore":
        return ParameterStore(self.named_parameters())


class ParameterStore(dict):
    """The learnable tensors of a model by path, in parameter order.  Paths
    join attribute names with "/", so no two are the same."""

    def names(self):
        return list(self)

    def total_params(self) -> int:
        return sum(t.size for t in self.values())


class Conv2d(Module):
    def __init__(self, cin: int, cout: int, kernel, stride=(1, 1), padding=(0, 0),
                 groups: int = 1, *, init: InitCtx):
        kh, kw = (kernel, kernel) if isinstance(kernel, int) else kernel
        self.stride = (stride, stride) if isinstance(stride, int) else tuple(stride)
        self.padding = (padding, padding) if isinstance(padding, int) else tuple(padding)
        T.check_conv(cin, cout, groups, (kh, kw), self.stride, self.padding)
        self.groups = groups
        self.weight = init.conv_weight(cout, cin // groups, kh, kw)
        self.bias = init.zeros(cout)

    def forward(self, x: Tensor) -> Tensor:
        return T.conv2d(x, self.weight, self.bias, self.stride, self.padding, self.groups)

    __call__ = forward


class BatchNorm2d(Module):
    def __init__(self, channels: int, init: InitCtx):
        self.track_running = True
        self.gamma = init.ones(channels)
        self.beta = init.zeros(channels)
        self.running_mean = np.zeros(channels, dtype=init.dtype)
        self.running_var = np.ones(channels, dtype=init.dtype)

    def forward(self, x: Tensor) -> Tensor:
        return T.batch_norm2d(x, self.gamma, self.beta, self.running_mean, self.running_var,
                              self.training, self.track_running)

    __call__ = forward


class LayerNorm(Module):
    def __init__(self, channels: int, init: InitCtx):
        self.gamma = init.ones(channels)
        self.beta = init.zeros(channels)

    def forward(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gamma, self.beta)

    __call__ = forward
