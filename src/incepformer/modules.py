"""Minimal layer system: parameter registration, naming and common layers.

Modules register parameters (requires_grad Tensors), buffers (plain numpy
arrays such as BatchNorm running statistics) and child modules in attribute
insertion order, which fixes the enumeration order of the ParameterStore.
Names are slash-delimited paths, e.g. "stage1/block0/attn/wq".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .tensor import Tensor


@dataclass
class InitCtx:
    """Deterministic initialization context threaded through model build."""

    rng: np.random.Generator
    dtype: np.dtype
    with_bias: bool = True

    def conv_weight(self, cout: int, cin_g: int, kh: int, kw: int) -> Tensor:
        fan_in = cin_g * kh * kw
        std = float(np.sqrt(2.0 / fan_in))
        return T.parameter(self.rng.standard_normal((cout, cin_g, kh, kw)) * std, dtype=self.dtype)

    def linear_weight(self, cin: int, cout: int) -> Tensor:
        std = float(np.sqrt(2.0 / (cin + cout)))
        return T.parameter(self.rng.standard_normal((cin, cout)) * std, dtype=self.dtype)

    def zeros(self, *shape: int) -> Tensor:
        return T.parameter(np.zeros(shape), dtype=self.dtype)

    def ones(self, *shape: int) -> Tensor:
        return T.parameter(np.ones(shape), dtype=self.dtype)


class Module:
    """Base class tracking parameters/buffers/children in insertion order."""

    def __init__(self):
        object.__setattr__(self, "_entries", [])  # (kind, name) in insertion order
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name, value):
        if isinstance(value, Tensor) and value.requires_grad:
            self._entries.append(("param", name))
        elif isinstance(value, Module):
            self._entries.append(("child", name))
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray):
        self._buffers[name] = value
        self._entries.append(("buffer", name))
        object.__setattr__(self, name, value)

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for kind, name in self._entries:
            if kind == "param":
                yield prefix + name, getattr(self, name)
            elif kind == "child":
                yield from getattr(self, name).named_parameters(prefix + name + "/")

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for kind, name in self._entries:
            if kind == "buffer":
                yield prefix + name, self._buffers[name]
            elif kind == "child":
                yield from getattr(self, name).named_buffers(prefix + name + "/")

    def parameters(self) -> Iterator[Tensor]:
        for _, p in self.named_parameters():
            yield p

    def modules(self) -> Iterator["Module"]:
        yield self
        for kind, name in self._entries:
            if kind == "child":
                yield from getattr(self, name).modules()

    def train(self, mode: bool = True):
        for m in self.modules():
            object.__setattr__(m, "training", mode)
        return self

    def eval(self):
        return self.train(False)

    def parameter_store(self) -> "ParameterStore":
        return ParameterStore(self.named_parameters())


class ParameterStore:
    """Ordered, uniquely named map of the learnable tensors of a model."""

    def __init__(self, named: Iterable[tuple[str, Tensor]]):
        self._items: dict[str, Tensor] = {}
        for name, t in named:
            if name in self._items:
                raise ConfigError(f"duplicate parameter name {name!r}")
            self._items[name] = t

    def items(self):
        return self._items.items()

    def names(self):
        return list(self._items)

    def __getitem__(self, name: str) -> Tensor:
        return self._items[name]

    def __len__(self) -> int:
        return len(self._items)

    def total_params(self) -> int:
        return sum(t.size for t in self._items.values())


class Conv2d(Module):
    def __init__(self, cin: int, cout: int, kernel, stride=(1, 1), padding=(0, 0),
                 groups: int = 1, init: InitCtx = None, bias: bool = True):
        super().__init__()
        kh, kw = (kernel, kernel) if isinstance(kernel, int) else kernel
        if cin % groups or cout % groups:
            raise ConfigError(f"groups={groups} must divide cin={cin} and cout={cout}")
        self.stride = (stride, stride) if isinstance(stride, int) else tuple(stride)
        self.padding = (padding, padding) if isinstance(padding, int) else tuple(padding)
        self.groups = groups
        self.weight = init.conv_weight(cout, cin // groups, kh, kw)
        if bias and init.with_bias:
            self.bias = init.zeros(cout)
        else:
            object.__setattr__(self, "bias", None)

    def forward(self, x: Tensor) -> Tensor:
        return T.conv2d(x, self.weight, self.bias, self.stride, self.padding, self.groups)

    __call__ = forward


class BatchNorm2d(Module):
    def __init__(self, channels: int, init: InitCtx, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.eps = eps
        self.momentum = momentum
        self.track_running = True
        self.gamma = init.ones(channels)
        self.beta = init.zeros(channels)
        self.register_buffer("running_mean", np.zeros(channels, dtype=init.dtype))
        self.register_buffer("running_var", np.ones(channels, dtype=init.dtype))

    def forward(self, x: Tensor) -> Tensor:
        mode = "train" if self.training else "eval"
        return T.batch_norm2d(
            x, self.gamma, self.beta, self.running_mean, self.running_var,
            mode=mode, momentum=self.momentum, eps=self.eps,
            update_running=self.track_running,
        )

    __call__ = forward


class LayerNorm(Module):
    def __init__(self, channels: int, init: InitCtx, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.gamma = init.ones(channels)
        self.beta = init.zeros(channels)

    def forward(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gamma, self.beta, self.eps)

    __call__ = forward
