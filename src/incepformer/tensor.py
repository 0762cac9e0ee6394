"""Dense-tensor engine with reverse-mode automatic differentiation.

Tensors wrap contiguous numpy arrays (float32 or float64).  Operations run
eagerly; when a GradTape is active and an input requires gradients, every op
appends a node holding a backward closure.  Replaying the tape in reverse
accumulates gradients in a fixed order, which keeps runs bitwise reproducible.

Every forward op validates that its output is finite and raises NumericsError
otherwise; silent NaN/Inf propagation is treated as a bug.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ContractError, NumericsError, ShapeError

DTYPES = {"f32": np.float32, "f64": np.float64}

# tanh-approximation GELU constants
GELU_COEF = 0.7978845608028654  # sqrt(2/pi)
GELU_CUBIC = 0.044715


def resolve_dtype(dtype) -> np.dtype:
    """Accept 'f32'/'f64' strings or numpy float dtypes."""
    if isinstance(dtype, str):
        if dtype not in DTYPES:
            raise ConfigError(f"unknown dtype {dtype!r}; expected one of {sorted(DTYPES)}")
        return np.dtype(DTYPES[dtype])
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ConfigError(f"unsupported dtype {dt}; only f32/f64 tensors exist")
    return dt


class Tensor:
    """N-dimensional array of real values, optionally tracked for autodiff.

    `data` is always C-contiguous with dtype float32 or float64: the
    constructor and `record_op` are the only places that enforce this, so
    ops may compute their outputs in any layout.  On the leaves of a tape,
    `backward` sets `grad` to a C-contiguous numpy array of identical
    shape/dtype; op outputs end a backward pass with `grad` None.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, dtype=None, requires_grad: bool = False):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(resolve_dtype(dtype), copy=False)
        elif arr.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            arr = arr.astype(np.float32)
        if any(n <= 0 for n in arr.shape):
            raise ShapeError(f"tensor extents must be positive, got shape {arr.shape}")
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __float__(self) -> float:
        return self.item()

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{flag})"


def parameter(data, dtype=None) -> Tensor:
    """Leaf tensor that accumulates gradients."""
    return Tensor(data, dtype=dtype, requires_grad=True)


class _TapeNode:
    __slots__ = ("out", "inputs", "backward_fn", "name")

    def __init__(self, out, inputs, backward_fn, name):
        self.out = out
        self.inputs = inputs
        self.backward_fn = backward_fn
        self.name = name


class GradTape:
    """Append-only record of executed ops; append order is topological order."""

    def __init__(self):
        self.nodes: list[_TapeNode] = []

    def __len__(self) -> int:
        return len(self.nodes)

    def clear(self):
        self.nodes.clear()

    def __enter__(self) -> "GradTape":
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise ContractError("a GradTape is already active; tapes do not nest")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False


_ACTIVE_TAPE: Optional[GradTape] = None


def active_tape() -> Optional[GradTape]:
    return _ACTIVE_TAPE


def _check_finite(data: np.ndarray, op: str):
    if not np.isfinite(data).all():
        raise NumericsError(f"{op} produced non-finite values")


def record_op(data: np.ndarray, inputs: Sequence[Tensor], backward_fn: Callable, name: str) -> Tensor:
    """Wrap `data` as an op result, recording `backward_fn` on the active tape.

    `data` may have any layout; the result holds a C-contiguous copy.
    `backward_fn(grad_out)` must return one gradient array (or None) per
    input, each matching that input's shape, in any layout (views included).
    This is the extension point used by ops defined outside this module
    (e.g. losses).
    """
    data = np.ascontiguousarray(data)
    _check_finite(data, name)
    tape = _ACTIVE_TAPE
    track = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = track
    out.grad = None
    if track:
        tape.nodes.append(_TapeNode(out, tuple(inputs), backward_fn, name))
    return out


def backward(loss: Tensor, tape: GradTape):
    """Populate `.grad` on the recorded leaves of `tape` (requires_grad
    tensors that no recorded op produced).

    Gradients accumulate additively across fan-out in fixed (reverse tape)
    order, each allocated on its first contribution.  Intermediate outputs
    hold their gradient only until their own op's backward has run and end
    with `.grad is None`.  Recorded leaves that do not influence the loss end
    up with zero gradients.  Every `.grad` is its own C-contiguous array
    with the leaf's dtype: no two gradients share memory, and none aliases an
    op's data.  So the `grad_out` each backward closure receives is
    C-contiguous, whatever layout the closures downstream returned.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    produced: set[int] = set()
    leaves: dict[int, Tensor] = {}
    for node in tape.nodes:
        for t in node.inputs:
            if t.requires_grad:
                t.grad = None
                if id(t) not in produced:
                    leaves[id(t)] = t
        node.out.grad = None
        produced.add(id(node.out))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape.nodes):
        g_out = node.out.grad
        if g_out is None:
            continue
        grads = node.backward_fn(g_out)
        node.out.grad = None
        for t, g in zip(node.inputs, grads):
            if g is None or not t.requires_grad:
                continue
            if g.shape != t.data.shape:
                raise ShapeError(f"backward of {node.name}: gradient shape {g.shape} != input shape {t.data.shape}")
            if t.grad is None:
                t.grad = np.array(g, dtype=t.dtype, order="C")
            else:
                t.grad += g
    for t in leaves.values():
        if t.grad is None:
            t.grad = np.zeros_like(t.data)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------

def _binary_check(a: Tensor, b: Tensor, op: str):
    if a.dtype != b.dtype:
        raise ContractError(f"{op}: dtype mismatch {a.dtype} vs {b.dtype}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_check(a, b, "add")
    out = a.data + b.data

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return record_op(out, (a, b), bwd, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_check(a, b, "mul")
    out = a.data * b.data

    def bwd(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return record_op(out, (a, b), bwd, "mul")


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    out = x.data * x.dtype.type(c)

    def bwd(g):
        return (g * x.dtype.type(c),)

    return record_op(out, (x,), bwd, "scale")


def neg(x: Tensor) -> Tensor:
    return record_op(-x.data, (x,), lambda g: (-g,), "neg")


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0)

    def bwd(g):
        return (g * (x.data > 0),)

    return record_op(out, (x,), bwd, "relu")


def gelu(x: Tensor) -> Tensor:
    """GELU under the tanh approximation (closed-form derivative)."""
    d = x.data
    inner = GELU_COEF * (d + GELU_CUBIC * d * d * d)
    t = np.tanh(inner)
    out = 0.5 * d * (1.0 + t)

    def bwd(g):
        dinner = GELU_COEF * (1.0 + 3.0 * GELU_CUBIC * d * d)
        local = 0.5 * (1.0 + t) + 0.5 * d * (1.0 - t * t) * dinner
        return (g * local,)

    return record_op(out.astype(x.dtype, copy=False), (x,), bwd, "gelu")


def tsum(x: Tensor) -> Tensor:
    out = np.asarray(x.data.sum(), dtype=x.dtype)

    def bwd(g):
        return (np.broadcast_to(g, x.shape).astype(x.dtype, copy=True),)

    return record_op(out, (x,), bwd, "sum")


def mean(x: Tensor) -> Tensor:
    n = x.size
    out = np.asarray(x.data.sum() / n, dtype=x.dtype)

    def bwd(g):
        return (np.broadcast_to(g / n, x.shape).astype(x.dtype, copy=True),)

    return record_op(out, (x,), bwd, "mean")


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} to {shape}")
    out = x.data.reshape(shape).copy()

    def bwd(g):
        return (g.reshape(x.shape),)

    return record_op(out, (x,), bwd, "reshape")


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(int(a) for a in axes)
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"transpose axes {axes} invalid for rank {x.ndim}")
    out = x.data.transpose(axes)
    inv = np.argsort(axes)

    def bwd(g):
        return (g.transpose(inv),)

    return record_op(out, (x,), bwd, "transpose")


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ContractError("concat of zero tensors")
    first = tensors[0]
    for t in tensors[1:]:
        _binary_check(first, t, "concat")
        if t.ndim != first.ndim:
            raise ShapeError("concat: rank mismatch")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def bwd(g):
        return np.split(g, offsets, axis=axis)

    return record_op(out, tuple(tensors), bwd, "concat")


def pad2d(x: Tensor, pads: tuple) -> Tensor:
    """Zero-pad the two trailing spatial axes; pads = (top, bottom, left, right)."""
    top, bottom, left, right = (int(p) for p in pads)
    if min(top, bottom, left, right) < 0:
        raise ConfigError(f"negative padding {pads}")
    if x.ndim < 2:
        raise ShapeError("pad2d needs at least 2 dimensions")
    width = [(0, 0)] * (x.ndim - 2) + [(top, bottom), (left, right)]
    out = np.pad(x.data, width)
    h, w = x.shape[-2], x.shape[-1]

    def bwd(g):
        return (g[..., top : top + h, left : left + w],)

    return record_op(out, (x,), bwd, "pad2d")


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul_batched(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the two trailing axes; leading batch dims must match."""
    _binary_check(a, b, "matmul")
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul needs rank >= 2 operands")
    if a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul batch dims differ: {a.shape[:-2]} vs {b.shape[:-2]}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape[-1]} vs {b.shape[-2]}")
    out = a.data @ b.data

    def bwd(g):
        return g @ b.data.swapaxes(-1, -2), a.data.swapaxes(-1, -2) @ g

    return record_op(out, (a, b), bwd, "matmul")


def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """Affine map over the last axis: x[..., K] @ w[K, P] (+ b[P])."""
    _binary_check(x, w, "linear")
    if w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear: input last dim {x.shape[-1]} vs weight {w.shape}")
    out = x.data @ w.data
    if b is not None:
        if b.shape != (w.shape[1],):
            raise ShapeError(f"linear bias shape {b.shape} != ({w.shape[1]},)")
        out = out + b.data

    def bwd(g):
        g2 = g.reshape(-1, w.shape[1])
        gx = g @ w.data.T
        gw = x.data.reshape(-1, w.shape[0]).T @ g2
        return (gx, gw) if b is None else (gx, gw, g2.sum(axis=0))

    inputs = (x, w) if b is None else (x, w, b)
    return record_op(out, inputs, bwd, "linear")


def softmax(x: Tensor, axis: int) -> Tensor:
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"softmax axis {axis} out of range for rank {x.ndim}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - inner),)

    return record_op(y, (x,), bwd, "softmax")


# ---------------------------------------------------------------------------
# convolution / pooling
# ---------------------------------------------------------------------------

def _conv_out_size(n: int, k: int, s: int, p: int) -> int:
    return (n + 2 * p - k) // s + 1


def _patches(xp: np.ndarray, kh: int, kw: int, sh: int, sw: int) -> np.ndarray:
    """Strided view [N, C, Ho, Wo, kh, kw] over a padded input."""
    v = sliding_window_view(xp, (kh, kw), axis=(2, 3))
    return v[:, :, ::sh, ::sw]


def conv2d(
    x: Tensor,
    w: Tensor,
    b: Optional[Tensor] = None,
    stride: tuple = (1, 1),
    padding: tuple = (0, 0),
    groups: int = 1,
) -> Tensor:
    """2-D cross-correlation with zero padding and channel groups.

    x: [N, Cin, H, W]; w: [Cout, Cin/groups, Kh, Kw]; b: [Cout].
    Output spatial size: floor((H + 2p - K)/s) + 1 per axis.

    The input shape picks one of three paths: an unpadded, unstrided 1x1
    dense conv is a channel matmul; depthwise (groups == Cin == Cout) sums
    the Kh*Kw shifted input slices directly; everything else (the patch
    embeds, general grouped convs) runs im2col as a batched matmul.
    """
    _binary_check(x, w, "conv2d")
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d expects 4-D input/weight, got {x.shape} / {w.shape}")
    n, cin, h, wdt = x.shape
    cout, cin_g, kh, kw = w.shape
    sh, sw = (int(s) for s in stride)
    ph, pw = (int(p) for p in padding)
    if sh < 1 or sw < 1:
        raise ConfigError(f"conv2d stride must be >= 1, got {stride}")
    if ph < 0 or pw < 0:
        raise ConfigError(f"conv2d padding must be >= 0, got {padding}")
    if groups < 1 or cin % groups or cout % groups:
        raise ConfigError(f"groups={groups} must divide Cin={cin} and Cout={cout}")
    if cin_g != cin // groups:
        raise ShapeError(f"weight channel dim {cin_g} != Cin/groups = {cin // groups}")
    if kh > h + 2 * ph:
        raise ShapeError(f"kernel height {kh} exceeds padded input height {h + 2 * ph}")
    if kw > wdt + 2 * pw:
        raise ShapeError(f"kernel width {kw} exceeds padded input width {wdt + 2 * pw}")
    if b is not None and b.shape != (cout,):
        raise ShapeError(f"conv2d bias shape {b.shape} != ({cout},)")

    ho = _conv_out_size(h, kh, sh, ph)
    wo = _conv_out_size(wdt, kw, sw, pw)
    bias = None if b is None else b.data

    if kh == 1 and kw == 1 and groups == 1 and (sh, sw) == (1, 1) and (ph, pw) == (0, 0):
        # Pointwise fast path: a plain channel matmul.
        w2 = w.data.reshape(cout, cin)
        out = np.matmul(w2, x.data.reshape(n, cin, h * wdt)).reshape(n, cout, h, wdt)
        if b is not None:
            out += bias[None, :, None, None]

        def bwd(g):
            g2 = g.reshape(n, cout, h * wdt)
            gx = np.matmul(w2.T, g2).reshape(n, cin, h, wdt)
            gw = np.matmul(g2, x.data.reshape(n, cin, h * wdt).transpose(0, 2, 1)).sum(axis=0)
            grads = [gx, gw.reshape(cout, cin, 1, 1)]
            if b is not None:
                grads.append(g.sum(axis=(0, 2, 3)))
            return tuple(grads)

    elif groups == cin == cout:
        out, bwd = _conv2d_depthwise(x.data, w.data, bias, (sh, sw), (ph, pw), (ho, wo))
    else:
        out, bwd = _conv2d_im2col(x.data, w.data, bias, (sh, sw), (ph, pw), (ho, wo), groups)

    inputs = (x, w) if b is None else (x, w, b)
    return record_op(out, inputs, bwd, "conv2d")


def _conv2d_depthwise(x, w, b, stride, padding, out_hw):
    """groups == Cin == Cout: the sum of Kh*Kw shifted, strided slices of
    the padded input, each scaled by its per-channel tap.

    At stride 1 a tap reads whole padded rows: its slice is one contiguous
    run of Ho*Wp values per flattened plane, so the output is computed
    Wp wide and the columns past Wo are dropped at the end.
    """
    n, c, h, wdt = x.shape
    kh, kw = w.shape[2:]
    (sh, sw), (ph, pw), (ho, wo) = stride, padding, out_hw
    wide = (sh, sw) == (1, 1)
    cols = wdt + 2 * pw if wide else wo
    if ph or pw or wide:
        # A spare bottom row keeps the last tap's run inside the plane.
        xp = np.zeros((n, c, h + 2 * ph + wide, wdt + 2 * pw), dtype=x.dtype)
        xp[:, :, ph : ph + h, pw : pw + wdt] = x
    else:
        xp = x

    def tap_slice(a, u, v):
        if wide:
            start = u * cols + v
            return a.reshape(n, c, -1)[:, :, start : start + ho * cols].reshape(n, c, ho, cols)
        return a[:, :, u : u + sh * (ho - 1) + 1 : sh, v : v + sw * (wo - 1) + 1 : sw]

    taps = [(u, v, w[None, :, 0, u, v, None, None]) for u in range(kh) for v in range(kw)]
    xs = [tap_slice(xp, u, v) for u, v, _ in taps]
    out = np.multiply(xs[0], taps[0][2])
    buf = np.empty_like(out)
    for xt, (_, _, wt) in zip(xs[1:], taps[1:]):
        out += np.multiply(xt, wt, out=buf)
    if b is not None:
        out += b[None, :, None, None]
    out = out[:, :, :, :wo]

    def bwd(g):
        if wide:
            # Zero gradient on the dropped columns, so they add nothing below.
            gp = np.zeros((n, c, ho, cols), dtype=g.dtype)
            gp[:, :, :, :wo] = g
        else:
            gp = g
        gxp = np.zeros_like(xp)
        gw = np.empty((c, kh, kw), dtype=w.dtype)
        buf = np.empty_like(gp)
        for xt, (u, v, wt) in zip(xs, taps):
            view = tap_slice(gxp, u, v)
            view += np.multiply(gp, wt, out=buf)
            gw[:, u, v] = np.einsum("nchw,nchw->c", gp, xt)
        grads = [gxp[:, :, ph : ph + h, pw : pw + wdt], gw.reshape(c, 1, kh, kw)]
        if b is not None:
            grads.append(g.sum(axis=(0, 2, 3)))
        return tuple(grads)

    return out, bwd


def _conv2d_im2col(x, w, b, stride, padding, out_hw, groups):
    """General grouped convolution as a per-group batched matmul over
    [N*Ho*Wo, Cg*Kh*Kw] patch rows."""
    n, cin, h, wdt = x.shape
    cout, cg, kh, kw = w.shape
    (sh, sw), (ph, pw), (ho, wo) = stride, padding, out_hw
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if (ph or pw) else x
    pat = _patches(xp, kh, kw, sh, sw)  # [N, Cin, Ho, Wo, kh, kw]
    og, ck = cout // groups, cg * kh * kw
    pat2 = np.ascontiguousarray(
        pat.reshape(n, groups, cg, ho, wo, kh, kw).transpose(1, 0, 3, 4, 2, 5, 6)
    ).reshape(groups, n * ho * wo, ck)
    w2 = w.reshape(groups, og, ck)
    out = np.matmul(pat2, w2.transpose(0, 2, 1))
    out = np.ascontiguousarray(
        out.reshape(groups, n, ho, wo, og).transpose(1, 0, 4, 2, 3).reshape(n, cout, ho, wo)
    )
    if b is not None:
        out += b[None, :, None, None]

    def bwd(g):
        g2 = np.ascontiguousarray(
            g.reshape(n, groups, og, ho, wo).transpose(1, 0, 3, 4, 2)
        ).reshape(groups, n * ho * wo, og)
        gw = np.matmul(pat2.transpose(0, 2, 1), g2).transpose(0, 2, 1).reshape(cout, cg, kh, kw)
        gpat = np.matmul(g2, w2).reshape(groups, n, ho, wo, cg, kh, kw)
        gpat = gpat.transpose(1, 0, 4, 2, 3, 5, 6).reshape(n, cin, ho, wo, kh, kw)
        gxp = np.zeros_like(xp)
        for u in range(kh):
            for v in range(kw):
                gxp[:, :, u : u + sh * ho : sh, v : v + sw * wo : sw] += gpat[:, :, :, :, u, v]
        gx = gxp[:, :, ph : ph + h, pw : pw + wdt] if (ph or pw) else gxp
        grads = [gx, gw]
        if b is not None:
            grads.append(g.sum(axis=(0, 2, 3)))
        return tuple(grads)

    return out, bwd


def avg_pool2d(x: Tensor, kernel: int, stride: int) -> Tensor:
    """Mean over non-padded k x k windows; out = floor((H - k)/s) + 1."""
    if x.ndim != 4:
        raise ShapeError(f"avg_pool2d expects 4-D input, got {x.shape}")
    k, s = int(kernel), int(stride)
    if k < 1 or s < 1:
        raise ConfigError(f"avg_pool2d kernel/stride must be >= 1, got {kernel}, {stride}")
    n, c, h, w = x.shape
    if k > h or k > w:
        raise ShapeError(f"pool kernel {k} exceeds input {h}x{w}")
    ho = (h - k) // s + 1
    wo = (w - k) // s + 1
    pat = _patches(x.data, k, k, s, s)
    out = pat.mean(axis=(-2, -1))

    def bwd(g):
        gx = np.zeros_like(x.data)
        gs = g / (k * k)
        for u in range(k):
            for v in range(k):
                gx[:, :, u : u + s * ho : s, v : v + s * wo : s] += gs
        return (gx,)

    return record_op(out, (x,), bwd, "avg_pool2d")


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def _safe_inv_sqrt(var: np.ndarray, eps: float) -> np.ndarray:
    # Zero-variance convention: normalized value is 0, output is the bias.
    denom = np.sqrt(var + eps)
    with np.errstate(divide="ignore"):
        inv = np.where(denom > 0, 1.0 / np.where(denom > 0, denom, 1.0), 0.0)
    return inv


def batch_norm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    mode: str = "train",
    momentum: float = 0.1,
    eps: float = 1e-5,
    update_running: bool = True,
) -> Tensor:
    """Per-channel normalization of a [N, C, H, W] tensor.

    Train mode uses batch statistics over N*H*W (biased variance) and, when
    `update_running` is set, folds them into the running buffers as
    running = (1 - momentum) * running + momentum * batch.  Eval mode
    normalizes with the running buffers only.
    """
    if x.ndim != 4:
        raise ShapeError(f"batch_norm2d expects 4-D input, got {x.shape}")
    if mode not in ("train", "eval"):
        raise ConfigError(f"batch_norm2d mode must be train/eval, got {mode!r}")
    if eps < 0:
        raise ConfigError("batch_norm2d eps must be >= 0")
    n, c, h, w = x.shape
    for name, t in (("gamma", gamma), ("beta", beta)):
        if t.shape != (c,):
            raise ShapeError(f"batch_norm2d {name} shape {t.shape} != ({c},)")
    g_col = gamma.data[None, :, None, None]

    if mode == "train":
        m = n * h * w
        if m == 1:
            raise NumericsError("batch_norm2d train mode with a single value per channel has degenerate statistics")
        mean_c = x.data.mean(axis=(0, 2, 3))
        var_c = x.data.var(axis=(0, 2, 3))
        if update_running:
            running_mean *= 1.0 - momentum
            running_mean += momentum * mean_c
            running_var *= 1.0 - momentum
            running_var += momentum * var_c
        inv = _safe_inv_sqrt(var_c, eps)
        xhat = (x.data - mean_c[None, :, None, None]) * inv[None, :, None, None]
        out = g_col * xhat + beta.data[None, :, None, None]

        def bwd(g):
            dxhat = g * g_col
            s1 = dxhat.sum(axis=(0, 2, 3))
            s2 = (dxhat * xhat).sum(axis=(0, 2, 3))
            gx = (inv[None, :, None, None] / m) * (
                m * dxhat - s1[None, :, None, None] - xhat * s2[None, :, None, None]
            )
            ggamma = (g * xhat).sum(axis=(0, 2, 3))
            gbeta = g.sum(axis=(0, 2, 3))
            return gx.astype(x.dtype, copy=False), ggamma, gbeta

        return record_op(out.astype(x.dtype, copy=False), (x, gamma, beta), bwd, "batch_norm2d")

    inv = _safe_inv_sqrt(running_var, eps)
    xhat = (x.data - running_mean[None, :, None, None]) * inv[None, :, None, None]
    out = g_col * xhat + beta.data[None, :, None, None]

    def bwd_eval(g):
        gx = g * g_col * inv[None, :, None, None]
        ggamma = (g * xhat).sum(axis=(0, 2, 3))
        gbeta = g.sum(axis=(0, 2, 3))
        return gx.astype(x.dtype, copy=False), ggamma, gbeta

    return record_op(out.astype(x.dtype, copy=False), (x, gamma, beta), bwd_eval, "batch_norm2d")


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last (channel) axis only, then apply gamma/beta."""
    if x.ndim < 1 or x.shape[-1] == 0:
        raise ShapeError(f"layer_norm needs a non-empty channel axis, got {x.shape}")
    c = x.shape[-1]
    for name, t in (("gamma", gamma), ("beta", beta)):
        if t.shape != (c,):
            raise ShapeError(f"layer_norm {name} shape {t.shape} != ({c},)")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = _safe_inv_sqrt(var, eps)
    xhat = (x.data - mu) * inv
    out = xhat * gamma.data + beta.data

    def bwd(g):
        dxhat = g * gamma.data
        s1 = dxhat.sum(axis=-1, keepdims=True)
        s2 = (dxhat * xhat).sum(axis=-1, keepdims=True)
        gx = (inv / c) * (c * dxhat - s1 - xhat * s2)
        lead = tuple(range(x.ndim - 1))
        ggamma = (g * xhat).sum(axis=lead)
        gbeta = g.sum(axis=lead)
        return gx.astype(x.dtype, copy=False), ggamma, gbeta

    return record_op(out.astype(x.dtype, copy=False), (x, gamma, beta), bwd, "layer_norm")


# ---------------------------------------------------------------------------
# resampling / layout
# ---------------------------------------------------------------------------

@lru_cache(maxsize=512)
def _interp_matrix_cached(in_size: int, out_size: int, align_corners: bool, dtype_name: str) -> np.ndarray:
    if out_size < 1 or in_size < 1:
        raise ShapeError("interpolation sizes must be >= 1")
    w = np.zeros((out_size, in_size), dtype=np.dtype(dtype_name))
    idx = np.arange(out_size, dtype=np.float64)
    if align_corners:
        src = idx * (in_size - 1) / (out_size - 1) if out_size > 1 else np.zeros(out_size)
    else:
        src = np.clip((idx + 0.5) * in_size / out_size - 0.5, 0.0, in_size - 1)
    i0 = np.floor(src).astype(np.int64)
    i0 = np.clip(i0, 0, in_size - 1)
    i1 = np.minimum(i0 + 1, in_size - 1)
    frac = src - i0
    for r in range(out_size):
        w[r, i0[r]] += 1.0 - frac[r]
        w[r, i1[r]] += frac[r]
    w.setflags(write=False)
    return w


def interp_matrix(in_size: int, out_size: int, align_corners: bool, dtype=np.float64) -> np.ndarray:
    """Dense 1-D bilinear interpolation matrix [out_size, in_size].

    align_corners=False uses half-pixel centers (source = (i + 0.5) * in/out
    - 0.5, clamped); align_corners=True maps endpoints to endpoints.
    """
    return _interp_matrix_cached(int(in_size), int(out_size), bool(align_corners),
                                 np.dtype(dtype).name).copy()


def bilinear_upsample(x: Tensor, out_h: int, out_w: int, align_corners: bool = False) -> Tensor:
    """Bilinear resize of [N, C, H, W] to [N, C, out_h, out_w]."""
    if x.ndim != 4:
        raise ShapeError(f"bilinear_upsample expects 4-D input, got {x.shape}")
    out_h, out_w = int(out_h), int(out_w)
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"output size must be >= 1, got {out_h}x{out_w}")
    _, _, h, w = x.shape
    name = x.data.dtype.name
    wh = _interp_matrix_cached(h, out_h, align_corners, name)
    ww = _interp_matrix_cached(w, out_w, align_corners, name)
    # Separable interpolation as two matrix products.
    out = np.matmul(np.matmul(wh, x.data), ww.T)

    def bwd(g):
        return (np.matmul(np.matmul(wh.T, g), ww),)

    return record_op(out, (x,), bwd, "bilinear_upsample")


def img2seq(x: Tensor) -> Tensor:
    """[N, C, H, W] -> [N, H*W, C] with row-major token order."""
    if x.ndim != 4:
        raise ShapeError(f"img2seq expects 4-D input, got {x.shape}")
    n, c, h, w = x.shape
    out = x.data.transpose(0, 2, 3, 1).reshape(n, h * w, c)

    def bwd(g):
        return (g.reshape(n, h, w, c).transpose(0, 3, 1, 2),)

    return record_op(out, (x,), bwd, "img2seq")


def seq2img(x: Tensor, h: int, w: int) -> Tensor:
    """[N, L, C] -> [N, C, H, W]; requires L == H*W."""
    if x.ndim != 3:
        raise ShapeError(f"seq2img expects 3-D input, got {x.shape}")
    n, l, c = x.shape
    h, w = int(h), int(w)
    if l != h * w:
        raise ShapeError(f"seq2img: {l} tokens cannot fill a {h}x{w} map")
    out = x.data.reshape(n, h, w, c).transpose(0, 3, 1, 2)

    def bwd(g):
        return (g.transpose(0, 2, 3, 1).reshape(n, l, c),)

    return record_op(out, (x,), bwd, "seq2img")
