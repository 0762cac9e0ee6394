"""Dense-tensor engine with reverse-mode automatic differentiation.

Tensors wrap contiguous numpy arrays (float32 or float64).  Operations run
eagerly; when a GradTape is active and an input requires gradients, every op
appends a node holding a backward closure.  `backward` walks the tape once,
in reverse, accumulating gradients in a fixed order, which keeps runs bitwise
reproducible.

A node holds gradient slots (`_Slot`: grad, shape, dtype), not Tensors: one
for its output and one per input that requires gradients.  So the tape keeps
an array alive only where a backward closure captured it, and an op output
that no closure reads is freed as soon as the forward drops it.  Closures
capture the arrays they read and, where they read only a shape or a dtype,
that metadata.  `backward` consumes the tape: it drops each node once its
closure has run, so what that closure captured is freed during the walk.

Every forward op validates that its output is finite and raises NumericsError
otherwise; silent NaN/Inf propagation is treated as a bug.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, ContractError, NumericsError, ShapeError

DTYPES = {"f32": np.float32, "f64": np.float64}

# tanh-approximation GELU constants
GELU_COEF = 0.7978845608028654  # sqrt(2/pi)
GELU_CUBIC = 0.044715
# |x| bound in the GELU derivative's 3 * GELU_CUBIC * x * x factor only: past
# it the tanh is already +-1 in f32 and f64, so the term it scales is +-0.
GELU_CLIP = 1e3

# Bytes of the working set of one block, for every blocked loop, in training
# and evaluation alike: channel blocks of the depthwise conv, row blocks of
# `row_bands`, the decoder's row blocks and attention's query blocks
# (model.py), all taken from `block_ranges`.  So an f64 block holds half the
# values of an f32 one.  It is of the order of one core's L2 cache, so a
# block's repeated passes read from cache instead of memory.
BLOCK_BYTES = 1 << 21


def block_ranges(n: int, item_bytes: int) -> list:
    """(start, stop) blocks of range(n), in order, of BLOCK_BYTES // item_bytes items (at least one)."""
    step = max(1, BLOCK_BYTES // item_bytes)
    return [(i, min(i + step, n)) for i in range(0, n, step)]


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
    shape/dtype; op outputs keep `grad` None.

    A tracked Tensor also carries `_slot`, its gradient slot on the tape
    that last recorded it: the slot of its node's output if an op of that
    tape made it, else a leaf slot.  A Tensor whose slot belongs to another
    tape becomes a leaf of the tape that uses it next.
    """

    __slots__ = ("data", "requires_grad", "grad", "_slot")

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
        self._slot: Optional[_Slot] = None

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


class _Slot:
    """Gradient of one tracked Tensor on one tape, with the shape and dtype
    that `backward` checks and allocates it by.  `key` is its tape's key;
    a slot refers to no tape and no Tensor, so dropping a tape frees it by
    reference counting alone."""

    __slots__ = ("key", "grad", "shape", "dtype")

    def __init__(self, key, shape, dtype):
        self.key = key
        self.grad: Optional[np.ndarray] = None
        self.shape = shape
        self.dtype = dtype


class _TapeNode:
    """One recorded op: its output slot, one slot per input (None for an
    input that needs no gradient) and its backward closure."""

    __slots__ = ("out", "inputs", "backward_fn", "name")

    def __init__(self, out, inputs, backward_fn, name):
        self.out = out
        self.inputs = inputs
        self.backward_fn = backward_fn
        self.name = name


class GradTape:
    """Append-only record of executed ops; append order is topological order.

    `leaves` pairs each leaf Tensor (requires_grad, made by no op of this
    tape) with its slot, so `backward` can set the leaf's `grad`.

    A tape serves one `backward`, which takes its nodes and leaves and
    leaves it empty, as `clear` does; a second `backward` of the same loss
    raises ContractError.
    """

    def __init__(self):
        self.clear()

    def __len__(self) -> int:
        return len(self.nodes)

    def clear(self):
        """Forget every node and leaf; Tensors recorded before become leaves
        if used again."""
        self.nodes: list[_TapeNode] = []
        self.leaves: list[tuple[Tensor, _Slot]] = []
        self._key = object()

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
    """Raise NumericsError naming `op` if `data` holds NaN or +-inf."""
    if not np.isfinite(data).all():
        raise NumericsError(f"{op} produced non-finite values")


def record_op(data: np.ndarray, inputs: Sequence[Tensor], backward_fn: Callable, name: str) -> Tensor:
    """Wrap `data` as an op result, recording `backward_fn` on the active tape.

    `data` may have any layout; the result holds it C-contiguous (a view of
    an input if it already is: no op writes into an op's output).  A
    non-finite value in it raises NumericsError naming the op.
    `backward_fn(grad_out)` must return one gradient (or None) per input,
    in any layout (views included): an array of that input's shape, or an
    (index, g) pair, g the gradient of `input.data[index]`, zero elsewhere.
    This is the extension point used by ops defined outside this module
    (e.g. losses).

    The node records slots, not `inputs` or the result: whatever arrays
    `backward_fn` captured are all that the tape keeps alive, and only
    until `backward` has run it.  An input
    that requires gradients and has no slot on this tape yet gets a leaf
    slot.
    """
    data = np.ascontiguousarray(data)
    _check_finite(data, name)
    tape = _ACTIVE_TAPE
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._slot = None
    out.requires_grad = tape is not None and any(t.requires_grad for t in inputs)
    if out.requires_grad:
        key = tape._key
        slots = []
        for t in inputs:
            slot = None
            if t.requires_grad:
                slot = t._slot
                if slot is None or slot.key is not key:
                    slot = t._slot = _Slot(key, t.data.shape, t.data.dtype)
                    tape.leaves.append((t, slot))
            slots.append(slot)
        out._slot = _Slot(key, data.shape, data.dtype)
        tape.nodes.append(_TapeNode(out._slot, slots, backward_fn, name))
    return out


def backward(loss: Tensor, tape: GradTape):
    """Populate `.grad` on the leaves of `tape` (requires_grad tensors that
    no op of it produced), consuming the tape.  `loss` must be a scalar that
    carries its slot on `tape` (an op output or a leaf of it, not used under
    another tape since), else ContractError.

    The walk takes the tape's nodes and leaves and leaves the tape empty
    under a fresh key, so a second `backward` on it raises ContractError.
    It drops each node once its closure has run: what that closure captured
    is freed while the walk goes on, and no node outlives the call.

    Gradients accumulate in the slots, additively across fan-out in fixed
    (reverse tape) order, each allocated on its first contribution from the
    slot's shape and dtype.  A closure's (index, g) pair is placed here
    alone: zeros with g written at `index` on the first contribution, an
    in-place add at `index` after.  An op output's slot holds its gradient
    only until its own op's backward runs; op output Tensors never get a
    `.grad`.  Leaves that do not influence the loss end up with zero
    gradients.  Every `.grad` is its own C-contiguous array with the leaf's
    dtype: no two gradients share memory, and none aliases an op's data.
    So the `grad_out` each backward closure receives is C-contiguous,
    whatever layout the closures downstream returned.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    root = loss._slot
    if root is None or root.key is not tape._key:
        raise ContractError("backward: the loss was not recorded on this tape")
    nodes, leaves = tape.nodes, tape.leaves
    tape.clear()
    root.grad = np.ones(root.shape, root.dtype)
    while nodes:
        # Rebinding `node` and `g_out` frees the previous node, its closure
        # and its output's gradient before the next closure runs.
        node = nodes.pop()
        g_out, node.out.grad = node.out.grad, None
        if g_out is not None:
            _accumulate(node, node.backward_fn(g_out))
    for t, slot in leaves:
        t.grad = slot.grad if slot.grad is not None else np.zeros(slot.shape, slot.dtype)
        slot.grad = None


def _accumulate(node: _TapeNode, grads):
    """Add the gradients `node`'s closure returned into its input slots.
    A function of its own, so its references to them end on return, before
    the next closure runs."""
    for slot, g in zip(node.inputs, grads):
        if g is None or slot is None:
            continue
        index, g = g if isinstance(g, tuple) else (..., g)
        want = slot.shape if index is ... else np.broadcast_to(slot.dtype.type(0), slot.shape)[index].shape
        if g.shape != want:
            raise ShapeError(f"backward of {node.name}: gradient shape {g.shape} != {want}")
        if slot.grad is not None:
            slot.grad[index] += g
        elif index is ...:
            slot.grad = np.array(g, dtype=slot.dtype, order="C")
        else:
            slot.grad = np.zeros(slot.shape, slot.dtype)
            slot.grad[index] = g


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------

def _binary_check(a: Tensor, b: Tensor, op: str):
    if a.dtype != b.dtype:
        raise ContractError(f"{op}: dtype mismatch {a.dtype} vs {b.dtype}")


def _same_shape(a: Tensor, b: Tensor, op: str):
    _binary_check(a, b, op)
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b of two tensors of one dtype and one shape.  Nothing broadcasts:
    unequal shapes raise ShapeError naming both, as the model only joins
    equal maps (its residuals)."""
    _same_shape(a, b, "add")
    return record_op(a.data + b.data, (a, b), lambda g: (g, g), "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    """a * b of two tensors of one dtype and one shape; unequal shapes raise
    ShapeError naming both, as in `add`."""
    _same_shape(a, b, "mul")
    return record_op(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data), "mul")


def scale(x: Tensor, c: float) -> Tensor:
    c = x.dtype.type(float(c))
    out = x.data * c

    def bwd(g):
        return (g * c,)

    return record_op(out, (x,), bwd, "scale")


def neg(x: Tensor) -> Tensor:
    return record_op(-x.data, (x,), lambda g: (-g,), "neg")


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0)

    def bwd(g):
        return (g * (x.data > 0),)

    return record_op(out, (x,), bwd, "relu")


def gelu(x: Tensor) -> Tensor:
    """GELU under the tanh approximation (closed-form derivative).  The
    backward recomputes the tanh, bitwise, instead of keeping it.

    Every finite input gives a finite value and gradient.  Once the tanh
    is +-1 (its argument may overflow to +-inf on the way) the value is x
    or 0 and the gradient 1 or 0.  The backward clips x to +-GELU_CLIP in
    the derivative's 3 * GELU_CUBIC * x * x factor, so x * x cannot
    overflow; the term that factor scales is +-0 beyond the clip anyway,
    so no gradient changes."""
    d = x.data

    def tanh_term():
        with np.errstate(over="ignore"):
            return np.tanh(GELU_COEF * (d + GELU_CUBIC * d * d * d))

    out = 0.5 * d * (1.0 + tanh_term())

    def bwd(g):
        t = tanh_term()
        dc = np.clip(d, -GELU_CLIP, GELU_CLIP)
        local = 0.5 * (1.0 + t) + 0.5 * d * (1.0 - t * t) * (GELU_COEF * (1.0 + 3.0 * GELU_CUBIC * dc * dc))
        return (g * local,)

    return record_op(out, (x,), bwd, "gelu")


def tsum(x: Tensor) -> Tensor:
    out = np.asarray(x.data.sum(), dtype=x.dtype)
    shape = x.shape

    def bwd(g):
        return (np.broadcast_to(g, shape),)

    return record_op(out, (x,), bwd, "sum")


def mean(x: Tensor) -> Tensor:
    n, shape = x.size, x.shape
    out = np.asarray(x.data.sum() / n, dtype=x.dtype)

    def bwd(g):
        return (np.broadcast_to(g / n, shape),)

    return record_op(out, (x,), bwd, "mean")


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} to {shape}")
    out = x.data.reshape(shape)
    in_shape = x.shape

    def bwd(g):
        return (g.reshape(in_shape),)

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


def slice_rows(x: Tensor, r0: int, r1: int) -> Tensor:
    """Rows r0:r1 of axis -2 (the H of [N, C, H, W], the L of [N, L, C]); all
    rows are `x` itself, unrecorded."""
    r0, r1 = int(r0), int(r1)
    if x.ndim < 2 or not 0 <= r0 < r1 <= x.shape[-2]:
        raise ShapeError(f"slice_rows {r0}:{r1} of shape {x.shape} needs 0 <= r0 < r1 <= rows")
    if r1 - r0 == x.shape[-2]:
        return x
    index = (..., slice(r0, r1), slice(None))
    return record_op(x.data[index], (x,), lambda g: ((index, g),), "slice_rows")


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    """Join along `axis`; one tensor is returned itself, unrecorded."""
    if not tensors:
        raise ContractError("concat of zero tensors")
    first = tensors[0]
    if not -first.ndim <= axis < first.ndim:
        raise ShapeError(f"concat axis {axis} out of range for shape {first.shape}")
    rest = [i for i in range(first.ndim) if i != axis % first.ndim]
    for t in tensors[1:]:
        _binary_check(first, t, "concat")
        if t.ndim != first.ndim or any(t.shape[i] != first.shape[i] for i in rest):
            raise ShapeError(f"concat along axis {axis}: shape {t.shape} does not fit {first.shape}")
    if len(tensors) == 1:
        return first
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def bwd(g):
        return np.split(g, offsets, axis=axis)

    return record_op(out, tuple(tensors), bwd, "concat")


def pad2d(x: Tensor, pads: tuple) -> Tensor:
    """Zero-pad the two trailing spatial axes; pads = (top, bottom, left, right).
    No layer of the model calls it."""
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


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map over the last axis: x[..., K] @ w[K, P] + b[P]."""
    _binary_check(x, w, "linear")
    if w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear: input last dim {x.shape[-1]} vs weight {w.shape}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"linear bias shape {b.shape} != ({w.shape[1]},)")
    out = x.data @ w.data + b.data

    def bwd(g):
        g2 = g.reshape(-1, w.shape[1])
        gx = g @ w.data.T
        gw = x.data.reshape(-1, w.shape[0]).T @ g2
        return gx, gw, g2.sum(axis=0)

    return record_op(out, (x, w, b), bwd, "linear")


def softmax(x: Tensor, axis: int) -> Tensor:
    """exp(x - max) / sum(exp(x - max)) along `axis`, computed in place in
    its one output buffer, with the shifted scores x - max clamped from
    below at log(tiny * Lk) (tiny = np.finfo(dtype).tiny, Lk the length of
    `axis`).

    The clamp keeps subnormals out: exp into subnormals, and BLAS products
    over subnormal weights, run many times slower.  A clamped entry's exp
    is tiny * Lk and its row's sum is under Lk, so no output lies in
    (0, tiny).  Each entry moves by less than about Lk * tiny (9e-36 in f32
    at Lk = 768); rows whose shifted scores all stay above the floor are
    bitwise the textbook expression.
    """
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"softmax axis {axis} out of range for rank {x.ndim}")
    y = x.data - x.data.max(axis=axis, keepdims=True)
    tiny = np.finfo(y.dtype).tiny
    floor = y.dtype.type(math.log(tiny) + math.log(y.shape[axis]))
    np.maximum(y, floor, out=y)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)

    def bwd(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - inner),)

    return record_op(y, (x,), bwd, "softmax")


# ---------------------------------------------------------------------------
# convolution / pooling
# ---------------------------------------------------------------------------

def check_conv(cin: int, cout: int, groups: int, kernel: tuple, stride: tuple, padding: tuple):
    """The two convolutions the model runs: depthwise (groups == Cin ==
    Cout) at any stride and padding, and dense (groups == 1) over
    non-overlapping tiles: stride equal to the kernel and no padding, so a
    1x1 conv is the k = 1 case.  Anything else is a ConfigError."""
    if min(stride) < 1:
        raise ConfigError(f"conv2d stride must be >= 1, got {stride}")
    if min(padding) < 0:
        raise ConfigError(f"conv2d padding must be >= 0, got {padding}")
    if groups == cin == cout:
        return
    if groups != 1:
        raise ConfigError(f"groups={groups} must be 1 or equal Cin={cin} and Cout={cout}")
    if stride != kernel or any(padding):
        raise ConfigError(f"a dense conv2d tiles its input: stride must equal the kernel {kernel} "
                          f"with no padding, got stride {stride} and padding {padding}")


def conv2d(
    x: Tensor,
    w: Tensor,
    b: Tensor,
    stride: tuple = (1, 1),
    padding: tuple = (0, 0),
    groups: int = 1,
) -> Tensor:
    """2-D cross-correlation, depthwise or dense over tiles.

    x: [N, Cin, H, W]; w: [Cout, Cin/groups, Kh, Kw]; b: [Cout].  Two paths:
    * depthwise (groups == Cin == Cout), any stride and zero padding, output
      floor((H + 2p - K)/s) + 1 per axis: sums the Kh*Kw shifted input
      slices, one cache-sized block of channels at a time;
    * dense (groups == 1), stride equal to the kernel and no padding, output
      H/Kh x W/Kw: the weight times the input's tiles (`_conv2d_patch`).  A
      1x1 conv is the k = 1 case.
    Any other grouping or dense geometry raises ConfigError (`check_conv`),
    and a dense input whose H or W is not a multiple of the kernel
    ShapeError.
    """
    _binary_check(x, w, "conv2d")
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d expects 4-D input/weight, got {x.shape} / {w.shape}")
    n, cin, h, wdt = x.shape
    cout, cin_g, kh, kw = w.shape
    sh, sw = (int(s) for s in stride)
    ph, pw = (int(p) for p in padding)
    check_conv(cin, cout, groups, (kh, kw), (sh, sw), (ph, pw))
    if cin_g != cin // groups:
        raise ShapeError(f"weight channel dim {cin_g} != Cin/groups = {cin // groups}")
    if kh > h + 2 * ph:
        raise ShapeError(f"kernel height {kh} exceeds padded input height {h + 2 * ph}")
    if kw > wdt + 2 * pw:
        raise ShapeError(f"kernel width {kw} exceeds padded input width {wdt + 2 * pw}")
    if b.shape != (cout,):
        raise ShapeError(f"conv2d bias shape {b.shape} != ({cout},)")

    if groups == cin == cout:
        out, bwd = _conv2d_depthwise(x.data, w.data, b.data, (sh, sw), (ph, pw))
    elif h % kh or wdt % kw:
        raise ShapeError(f"dense conv2d needs input dims divisible by its {kh}x{kw} kernel, got {h}x{wdt}")
    else:
        out, bwd = _conv2d_patch(x.data, w.data, b.data)
    return record_op(out, (x, w, b), bwd, "conv2d")


def _conv2d_depthwise(x, w, b, stride, padding):
    """groups == Cin == Cout: the sum of Kh*Kw shifted, strided slices of
    the padded input, each scaled by its per-channel tap.

    At stride 1 a tap reads whole padded rows: its slice is one contiguous
    run of Ho*Wp values per flattened plane, so the output is computed
    Wp wide and the columns past Wo are dropped at the end.  These wide
    runs cost the extra columns but measure faster than 2-D strided tap
    slices, in the training step most of all.

    The forward and the input gradient make all Kh*Kw tap passes over one
    channel block before the next.  A block's padded input planes plus two
    output-sized planes (output and product buffer) take at most
    BLOCK_BYTES, so these passes read from cache; this measures faster
    than one block in the eval forward.  Each element sees the same
    operations in the same order whatever the block size, so the results
    are bitwise those of one block.  The weight gradient reduces each tap
    over whole arrays, because einsum's summation order depends on the
    operand layout and per-block calls would change it by rounding.
    """
    n, c, h, wdt = x.shape
    kh, kw = w.shape[2:]
    (sh, sw), (ph, pw) = stride, padding
    ho, wo = (h + 2 * ph - kh) // sh + 1, (wdt + 2 * pw - kw) // sw + 1
    wide = (sh, sw) == (1, 1)
    cols = wdt + 2 * pw if wide else wo
    if ph or pw or wide:
        # A spare bottom row keeps the last tap's run inside the plane.
        xp = np.zeros((n, c, h + 2 * ph + wide, wdt + 2 * pw), dtype=x.dtype)
        xp[:, :, ph : ph + h, pw : pw + wdt] = x
    else:
        xp = x
    per_channel = n * (xp.shape[2] * xp.shape[3] + 2 * ho * cols) * xp.itemsize
    blocks = [slice(c0, c1) for c0, c1 in block_ranges(c, per_channel)]
    cb = blocks[0].stop
    taps = [(u, v) for u in range(kh) for v in range(kw)]

    def tap_slice(a, blk, u, v):
        if wide:
            start = u * cols + v
            run = a.reshape(n, c, -1)[:, blk, start : start + ho * cols]
            return run.reshape(n, -1, ho, cols)
        return a[:, blk, u : u + sh * (ho - 1) + 1 : sh, v : v + sw * (wo - 1) + 1 : sw]

    out = np.empty((n, c, ho, cols), dtype=x.dtype)
    buf = np.empty((n, cb, ho, cols), dtype=x.dtype)
    for blk in blocks:
        ob, bb = out[:, blk], buf[:, : blk.stop - blk.start]
        np.multiply(tap_slice(xp, blk, 0, 0), w[None, blk, 0, 0, 0, None, None], out=ob)
        for u, v in taps[1:]:
            ob += np.multiply(tap_slice(xp, blk, u, v), w[None, blk, 0, u, v, None, None], out=bb)
        ob += b[None, blk, None, None]
    out = out[:, :, :, :wo]

    def bwd(g):
        if wide:
            # Zero gradient on the dropped columns, so they add nothing below.
            gp = np.zeros((n, c, ho, cols), dtype=g.dtype)
            gp[:, :, :, :wo] = g
        else:
            gp = g
        gxp = np.zeros_like(xp)
        buf = np.empty((n, cb, ho, cols), dtype=g.dtype)
        for blk in blocks:
            gb, bb = gp[:, blk], buf[:, : blk.stop - blk.start]
            for u, v in taps:
                view = tap_slice(gxp, blk, u, v)
                view += np.multiply(gb, w[None, blk, 0, u, v, None, None], out=bb)
        gw = np.empty((c, kh, kw), dtype=w.dtype)
        for u, v in taps:
            gw[:, u, v] = np.einsum("nchw,nchw->c", gp, tap_slice(xp, slice(None), u, v))
        gx = gxp[:, :, ph : ph + h, pw : pw + wdt]
        return gx, gw.reshape(c, 1, kh, kw), g.sum(axis=(0, 2, 3))

    return out, bwd


def _conv2d_patch(x, w, b):
    """Dense conv over non-overlapping Kh x Kw tiles: per sample, the
    [Cout, Cin*Kh*Kw] weight times the [Cin*Kh*Kw, Ho*Wo] tile columns (a
    view of x when k = 1).  Backward folds `w2.T @ g` back into tiles by
    reshape and transpose, and sums the per-sample weight gradients."""
    n, cin, h, wdt = x.shape
    cout, _, kh, kw = w.shape
    ho, wo = h // kh, wdt // kw
    cols = x.reshape(n, cin, ho, kh, wo, kw).transpose(0, 1, 3, 5, 2, 4).reshape(n, cin * kh * kw, ho * wo)
    w2 = w.reshape(cout, cin * kh * kw)
    out = np.matmul(w2, cols).reshape(n, cout, ho, wo)
    out += b[None, :, None, None]

    def bwd(g):
        g2 = g.reshape(n, cout, ho * wo)
        gcols = np.matmul(w2.T, g2).reshape(n, cin, kh, kw, ho, wo)
        gx = gcols.transpose(0, 1, 4, 2, 5, 3).reshape(n, cin, h, wdt)
        gw = np.matmul(g2, cols.transpose(0, 2, 1)).sum(axis=0)
        return gx, gw.reshape(w.shape), g.sum(axis=(0, 2, 3))

    return out, bwd


def avg_pool2d(x: Tensor, kernel: int) -> Tensor:
    """Mean over the non-overlapping k x k windows of a [N, C, H, W] input
    whose H and W are multiples of k: out = [N, C, H/k, W/k].

    One copy lays x out tap-major, [k * k, N, C, H/k, W/k] with the taps in
    row-major window order (tap (0, 0), then the rest of window row 0, then
    each next row).  `np.add.reduce` over its first axis adds those taps
    whole array by whole array in that order, starting from 0, and the sum
    is divided by k * k.  That is the order of the scalar loop oracle
    `tests/oracles.py::avg_pool_loops`, so float64 values are bitwise its
    values, except where the output holds a single value: numpy then sums
    the one window pairwise."""
    if x.ndim != 4:
        raise ShapeError(f"avg_pool2d expects 4-D input, got {x.shape}")
    k = int(kernel)
    if k < 1:
        raise ConfigError(f"avg_pool2d kernel must be >= 1, got {kernel}")
    n, c, h, w = x.shape
    if h % k or w % k:
        raise ShapeError(f"avg_pool2d input {h}x{w} is not a multiple of kernel {k}")
    ho, wo = h // k, w // k
    taps = np.ascontiguousarray(x.data.reshape(n, c, ho, k, wo, k).transpose(3, 5, 0, 1, 2, 4))
    out = np.add.reduce(taps.reshape(k * k, n, c, ho, wo), axis=0)
    out /= k * k

    def bwd(g):
        gs = (g / (k * k))[:, :, :, None, :, None]
        return (np.broadcast_to(gs, (n, c, ho, k, wo, k)).reshape(n, c, h, w),)

    return record_op(out, (x,), bwd, "avg_pool2d")


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

# Weight of a batch's statistics in BatchNorm's running buffers.
BN_MOMENTUM = 0.1
# What every BatchNorm and LayerNorm adds to the variance before its square root.
NORM_EPS = 1e-5


def _normalize(x: Tensor, gamma: Tensor, beta: Tensor, ch: int, axes: tuple, stats, name: str):
    """gamma * (x - mean) / sqrt(var + NORM_EPS) + beta with [C] gamma/beta
    along axis `ch`: the one body of `batch_norm2d` and `layer_norm`,
    recorded as op `name`.

    `stats` None normalizes with the biased mean and variance of x over
    `axes`, so the x gradient has their two batch-sum terms; a (mean, var)
    pair of [C] arrays, var never negative, is used as given and the x
    gradient is g * gamma * inv_std.  Returns (output, mean, var), mean and
    var shaped to broadcast against x.
    """
    c = x.shape[ch]
    for pname, t in (("gamma", gamma), ("beta", beta)):
        if t.shape != (c,):
            raise ShapeError(f"{name} {pname} shape {t.shape} != ({c},)")
    shape = [1] * x.ndim
    shape[ch] = c
    g_b = gamma.data.reshape(shape)
    if stats is None:
        mean = x.data.mean(axis=axes, keepdims=True)
        xc = x.data - mean
        # The bits of x.var(axes), without its second mean and subtraction.
        var = np.square(xc).mean(axis=axes, keepdims=True)
    else:
        mean, var = stats[0].reshape(shape), stats[1].reshape(shape)
        xc = x.data - mean
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    xhat = xc * inv
    out = g_b * xhat + beta.data.reshape(shape)
    m, ndim, dtype = x.size // mean.size, x.ndim, x.dtype

    def bwd(g):
        dxhat = g * g_b
        if stats is None:
            s1 = dxhat.sum(axis=axes, keepdims=True)
            s2 = (dxhat * xhat).sum(axis=axes, keepdims=True)
            gx = (inv / m) * (m * dxhat - s1 - xhat * s2)
        else:
            gx = dxhat * inv
        rest = tuple(i for i in range(ndim) if i != ch % ndim)
        return gx.astype(dtype, copy=False), (g * xhat).sum(axis=rest), g.sum(axis=rest)

    return record_op(out.astype(x.dtype, copy=False), (x, gamma, beta), bwd, name), mean, var


def batch_norm2d(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: np.ndarray, running_var: np.ndarray,
                 training: bool, update_running: bool = True) -> Tensor:
    """Per-channel normalization of a [N, C, H, W] tensor over N*H*W.

    Training uses the batch statistics and, when `update_running` is set,
    folds them into the running buffers in place as
    running = (1 - BN_MOMENTUM) * running + BN_MOMENTUM * batch.  Otherwise
    it normalizes with the running buffers; a negative running variance
    (only a checkpoint or a caller can supply one) raises NumericsError.
    See `_normalize`.
    """
    if x.ndim != 4:
        raise ShapeError(f"batch_norm2d expects 4-D input, got {x.shape}")
    if training and x.size == x.shape[1]:
        raise NumericsError("batch_norm2d train mode with a single value per channel has degenerate statistics")
    if not training and (running_var < 0).any():
        raise NumericsError(f"batch_norm2d running variance is negative in channel {np.argmax(running_var < 0)}")
    stats = None if training else (running_mean, running_var)
    out, mean, var = _normalize(x, gamma, beta, 1, (0, 2, 3), stats, "batch_norm2d")
    if training and update_running:
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mean.reshape(-1)
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var.reshape(-1)
    return out


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize each position over its last (channel) axis, then apply
    gamma/beta.  See `_normalize`."""
    if x.ndim < 1 or x.shape[-1] == 0:
        raise ShapeError(f"layer_norm needs a non-empty channel axis, got {x.shape}")
    return _normalize(x, gamma, beta, -1, (-1,), None, "layer_norm")[0]


# ---------------------------------------------------------------------------
# resampling / layout
# ---------------------------------------------------------------------------

def interp_matrix(in_size: int, out_size: int, align_corners: bool, dtype=np.float64) -> np.ndarray:
    """Dense 1-D bilinear interpolation matrix [out_size, in_size], built fresh.

    align_corners=False uses half-pixel centers (source = (i + 0.5) * in/out
    - 0.5, clamped); align_corners=True maps endpoints to endpoints.
    """
    if out_size < 1 or in_size < 1:
        raise ShapeError("interpolation sizes must be >= 1")
    w = np.zeros((out_size, in_size), dtype=np.dtype(dtype))
    idx = np.arange(out_size, dtype=np.float64)
    if align_corners:
        src = idx * (in_size - 1) / (out_size - 1) if out_size > 1 else np.zeros(out_size)
    else:
        src = np.clip((idx + 0.5) * in_size / out_size - 0.5, 0.0, in_size - 1)
    i0 = np.floor(src).astype(np.int64)
    i0 = np.clip(i0, 0, in_size - 1)
    i1 = np.minimum(i0 + 1, in_size - 1)
    frac = src - i0
    rows = np.arange(out_size)
    np.add.at(w, (rows, i0), 1.0 - frac)
    np.add.at(w, (rows, i1), frac)
    return w


@lru_cache(maxsize=512)
def _interp_matrix_cached(in_size: int, out_size: int, align_corners: bool, dtype_name: str) -> np.ndarray:
    """Read-only `interp_matrix` for the few model sizes of `bilinear_upsample`
    and `row_bands`."""
    w = interp_matrix(in_size, out_size, align_corners, dtype_name)
    w.setflags(write=False)
    return w


def _band(wh: np.ndarray, r0: int, r1: int) -> tuple:
    """(c0, c1): the input rows that rows r0:r1 of interpolation matrix wh read."""
    band = np.flatnonzero(wh[r0:r1].any(axis=0))
    return int(band[0]), int(band[-1]) + 1


def row_bands(shape: tuple, out_h: int, out_w: int, dtype: np.dtype):
    """(walk, pull_back) of the bilinear (half-pixel) resize of [N, K, h, w]
    arrays to out_h x out_w, in blocks of output rows; no full-size array is held.

    walk(x) resizes the width once, then yields ((r0, r1, c0, c1), rows) per
    `block_ranges` block of output rows: rows is a fresh
    [N, r1 - r0, K, out_w] array, one product over the input rows c0:c1
    that they read.
    pull_back(pairs of block and gradient of its rows) is the adjoint: the
    gradient of x, [N, K, h, w] as a transposed view.
    """
    n, k, h, w = shape
    wh = _interp_matrix_cached(h, out_h, False, dtype.name)
    ww = _interp_matrix_cached(w, out_w, False, dtype.name)
    blocks = [(r0, r1) + _band(wh, r0, r1) for r0, r1 in block_ranges(out_h, dtype.itemsize * n * k * out_w)]

    def walk(x):
        xw = np.matmul(x.transpose(0, 2, 1, 3), ww.T).reshape(n, h, k * out_w)
        for r0, r1, c0, c1 in blocks:
            yield (r0, r1, c0, c1), np.matmul(wh[r0:r1, c0:c1], xw[:, c0:c1]).reshape(n, r1 - r0, k, out_w)

    def pull_back(pairs):
        gxw = np.zeros((n, h, k * out_w), dtype=wh.dtype)
        for (r0, r1, c0, c1), g in pairs:
            gxw[:, c0:c1] += np.matmul(wh[r0:r1, c0:c1].T, g.reshape(n, r1 - r0, -1))
        return np.matmul(gxw.reshape(n, h, k, out_w), ww).transpose(0, 2, 1, 3)

    return walk, pull_back


def bilinear_upsample(x: Tensor, out_h: int, out_w: int, align_corners: bool = False,
                      rows: Optional[tuple] = None) -> Tensor:
    """Bilinear resize of [N, C, H, W] to [N, C, out_h, out_w], or only its
    output rows r0:r1 when rows=(r0, r1) is given: [N, C, r1 - r0, out_w].

    A block of rows is one product with the band of input rows that they
    read (as in `row_bands`), so it costs its share of the whole resize and
    equals the same rows of it up to float rounding.  Its backward is the
    adjoint, returned for that band only.
    """
    if x.ndim != 4:
        raise ShapeError(f"bilinear_upsample expects 4-D input, got {x.shape}")
    out_h, out_w = int(out_h), int(out_w)
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"output size must be >= 1, got {out_h}x{out_w}")
    n, c, h, w = x.shape
    name = x.data.dtype.name
    wh = _interp_matrix_cached(h, out_h, align_corners, name)
    ww = _interp_matrix_cached(w, out_w, align_corners, name)
    r0, r1 = (0, out_h) if rows is None else (int(r) for r in rows)
    if not 0 <= r0 < r1 <= out_h:
        raise ShapeError(f"bilinear_upsample rows {rows} need 0 <= r0 < r1 <= {out_h}")
    c0, c1 = _band(wh, r0, r1)
    wb = wh[r0:r1, c0:c1]
    # Separable interpolation as two matrix products.  The width product is
    # one [N*C*rows, W] GEMM, not one per channel: with OpenBLAS 0.3.31 the
    # per-channel products of a few rows rounded unlike those of all rows,
    # while the one GEMM gives a block bitwise the rows of the whole resize.
    out = np.matmul(np.matmul(wb, x.data[:, :, c0:c1]).reshape(-1, w), ww.T).reshape(n, c, r1 - r0, out_w)

    def bwd(g):
        return ((np.s_[:, :, c0:c1], np.matmul(np.matmul(wb.T, g), ww)),)

    return record_op(out, (x,), bwd, "bilinear_upsample")


def img2seq(x: Tensor) -> Tensor:
    """[N, C, H, W] -> [N, H*W, C] with row-major token order."""
    if x.ndim != 4:
        raise ShapeError(f"img2seq expects 4-D input, got {x.shape}")
    n, c, h, w = x.shape

    def bwd(g):
        return (g.reshape(n, h, w, c).transpose(0, 3, 1, 2),)

    return record_op(x.data.reshape(n, c, h * w).transpose(0, 2, 1), (x,), bwd, "img2seq")


def seq2img(x: Tensor, h: int, w: int) -> Tensor:
    """[N, L, C] -> [N, C, H, W]; requires L == H*W."""
    if x.ndim != 3:
        raise ShapeError(f"seq2img expects 3-D input, got {x.shape}")
    n, l, c = x.shape
    h, w = int(h), int(w)
    if h < 1 or w < 1 or l != h * w:
        raise ShapeError(f"seq2img: the {l} tokens of {x.shape} cannot fill a {h}x{w} map")
    out = x.data.reshape(n, h, w, c).transpose(0, 3, 1, 2)

    def bwd(g):
        return (g.transpose(0, 2, 3, 1).reshape(n, l, c),)

    return record_op(out, (x,), bwd, "seq2img")
