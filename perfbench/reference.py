"""Independent float64 reference for the eval workload's check.

A plain-numpy forward pass of IncepFormer in eval mode, written from the
architecture description and reading weights straight from the checkpoint
bytes.  It shares no code with the package: convolutions are shifted-slice
sums, not im2col, and the interpolation matrices are built here.  A change
to the package's kernels therefore cannot move the reference with it.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"IPTCKPT1"
GELU_COEF = math.sqrt(2.0 / math.pi)


def read_checkpoint(path: Path) -> tuple[dict[str, np.ndarray], int]:
    """Parse the IPTCKPT1 layout: tensors by name, plus the iteration counter."""
    buf = Path(path).read_bytes()
    if buf[:8] != MAGIC:
        raise ValueError(f"{path}: not an IPTCKPT1 checkpoint")
    off = 8
    (count,) = struct.unpack_from("<I", buf, off)
    off += 4
    out = {}
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", buf, off)
        name = buf[off + 2: off + 2 + nlen].decode("utf-8")
        off += 2 + nlen
        rank = buf[off]
        dims = struct.unpack_from(f"<{rank}I", buf, off + 1)
        off += 1 + 4 * rank
        n = math.prod(dims)
        out[name] = np.frombuffer(buf, dtype="<f4", count=n, offset=off).reshape(dims)
        off += 4 * n
    (iteration,) = struct.unpack_from("<Q", buf, off)
    if off + 8 != len(buf):
        raise ValueError(f"{path}: {len(buf) - off - 8} trailing bytes")
    return out, iteration


class _Weights:
    def __init__(self, tensors: dict):
        self.t = tensors

    def __call__(self, name: str):
        return self.t[name].astype(np.float64)

    def get(self, name: str):
        return self(name) if name in self.t else None


def _conv(x, w, b, stride, pad, depthwise):
    """Cross-correlation of one [C, H, W] image as a sum of shifted slices."""
    sh, sw = stride
    ph, pw = pad
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw)))
    cout, cg, kh, kw = w.shape
    ho = (xp.shape[1] - kh) // sh + 1
    wo = (xp.shape[2] - kw) // sw + 1
    out = np.zeros((cout, ho, wo))
    for u in range(kh):
        for v in range(kw):
            xs = xp[:, u: u + sh * (ho - 1) + 1: sh, v: v + sw * (wo - 1) + 1: sw]
            if depthwise:
                out += w[:, 0, u, v][:, None, None] * xs
            else:
                out += (w[:, :, u, v] @ xs.reshape(xs.shape[0], -1)).reshape(cout, ho, wo)
    if b is not None:
        out += b[:, None, None]
    return out


def _layer(W, name, x, stride=(1, 1), pad=(0, 0), depthwise=False):
    return _conv(x, W(name + "/weight"), W.get(name + "/bias"), stride, pad, depthwise)


def _bn(W, name, x, eps):
    inv = 1.0 / np.sqrt(W(name + "/running_var") + eps)
    return ((x - W(name + "/running_mean")[:, None, None]) * (inv * W(name + "/gamma"))[:, None, None]
            + W(name + "/beta")[:, None, None])


def _ln(W, name, t, eps):
    mu = t.mean(axis=-1, keepdims=True)
    var = t.var(axis=-1, keepdims=True)
    return (t - mu) / np.sqrt(var + eps) * W(name + "/gamma") + W(name + "/beta")


def _tokens(img):
    return img.reshape(img.shape[0], -1).T


def _image(tokens, h, w):
    return tokens.T.reshape(-1, h, w)


def interp(n_in: int, n_out: int) -> np.ndarray:
    """Half-pixel bilinear weights [n_out, n_in], clamped at the borders."""
    m = np.zeros((n_out, n_in))
    for r in range(n_out):
        src = min(max((r + 0.5) * n_in / n_out - 0.5, 0.0), n_in - 1)
        i0 = int(math.floor(src))
        i1 = min(i0 + 1, n_in - 1)
        m[r, i0] += 1.0 - (src - i0)
        m[r, i1] += src - i0
    return m


def _resize(x, oh, ow):
    """Separable bilinear resize of [C, H, W] as two plain matrix products."""
    c, h, w = x.shape
    y = x.reshape(c * h, w) @ interp(w, ow).T  # [C*H, OW]
    y = interp(h, oh) @ y.reshape(c, h, ow).transpose(1, 0, 2).reshape(h, c * ow)
    return y.reshape(oh, c, ow).transpose(1, 0, 2)


def _attention(W, pre, x_tok, kv_tok, heads):
    def proj(t, nm):
        b = W.get(f"{pre}/b{nm}")
        y = t @ W(f"{pre}/w{nm}")
        return y if b is None else y + b

    q, k, v = proj(x_tok, "q"), proj(kv_tok, "k"), proj(kv_tok, "v")
    length, c = q.shape
    dk = c // heads
    ctx = np.empty_like(q)
    for hd in range(heads):
        sl = slice(hd * dk, (hd + 1) * dk)
        s = q[:, sl] @ k[:, sl].T / math.sqrt(dk)
        s = np.exp(s - s.max(axis=1, keepdims=True))
        ctx[:, sl] = (s / s.sum(axis=1, keepdims=True)) @ v[:, sl]
    return proj(ctx, "o")


def _reduce(W, pre, img, r, eps, bypass):
    if bypass:
        return _ln(W, pre + "/ln", _tokens(img), eps)
    c, h, w = img.shape
    ch, cw = -(-h // r), -(-w // r)
    xpad = np.pad(img, ((0, 0), (0, ch * r - h), (0, cw * r - w)))
    b1 = _layer(W, pre + "/dw_1xr", xpad, stride=(1, r), depthwise=True)
    b1 = _layer(W, pre + "/dw_rx1", b1, stride=(r, 1), depthwise=True)
    b2 = _layer(W, pre + "/dw_3x3_b2", img, stride=(r, r), pad=(1, 1), depthwise=True)
    pooled = xpad.reshape(c, ch, r, cw, r).mean(axis=(2, 4))
    b3 = _layer(W, pre + "/dw_3x3_b3", pooled, pad=(1, 1), depthwise=True)
    kv = np.concatenate([_tokens(b1), _tokens(b2), _tokens(b3)], axis=0)
    return _ln(W, pre + "/ln", kv, eps)


def _block(W, pre, seq, h, w, sc, cfg):
    eps = cfg.norm_eps
    xn = _bn(W, pre + "/bn1", _image(seq, h, w), eps)
    kv = _reduce(W, pre + "/attn/reduce", xn, sc.reduction, eps,
                 cfg.bypass_reduce_r1 and sc.reduction == 1)
    x_att = seq + _attention(W, pre + "/attn", _tokens(xn), kv, sc.heads)
    xin = _image(x_att, h, w)
    y = _layer(W, pre + "/ffn/fc1", _bn(W, pre + "/ffn/bn", xin, eps))
    y = _layer(W, pre + "/ffn/dw", y, pad=(1, 1), depthwise=True)
    y = 0.5 * y * (1.0 + np.tanh(GELU_COEF * (y + 0.044715 * y ** 3)))
    return _tokens(_layer(W, pre + "/ffn/fc2", y) + xin)


def logits(cfg, tensors: dict, image: np.ndarray) -> np.ndarray:
    """Class logits [K, H/4, W/4] of one [3, H, W] image."""
    W = _Weights(tensors)
    x = image.astype(np.float64)
    feats = []
    for i, sc in enumerate(cfg.stages, start=1):
        if cfg.patch_mode == "nonoverlap":
            k, s, p = (4, 4, 0) if i == 1 else (2, 2, 0)
        else:
            k, s, p = (7, 4, 3) if i == 1 else (3, 2, 1)
        x = _layer(W, f"stage{i}/patch/proj", x, stride=(s, s), pad=(p, p))
        x = _bn(W, f"stage{i}/patch/norm", x, cfg.norm_eps)
        _, h, w = x.shape
        seq = _tokens(x)
        for j in range(sc.depth):
            seq = _block(W, f"stage{i}/block{j}", seq, h, w, sc, cfg)
        x = _image(seq, h, w)
        feats.append(x)
    h4, w4 = feats[0].shape[1:]
    cat = np.concatenate([_resize(f, h4, w4) for f in feats], axis=0)
    return _layer(W, "decoder/classify", _layer(W, "decoder/fuse", cat))


def predict(cfg, tensors: dict, image: np.ndarray) -> np.ndarray:
    """Per-pixel argmax of the logits resized to the image size."""
    lg = logits(cfg, tensors, image)
    k, lh, lw = lg.shape
    h, w = image.shape[1:]
    wide = (lg.reshape(k * lh, lw) @ interp(lw, w).T).reshape(k, lh, w)
    wide = wide.transpose(1, 0, 2).reshape(lh, k * w)
    rows = interp(lh, h)
    pred = np.empty((h, w), dtype=np.int64)
    for r0 in range(0, h, 64):  # bounded memory: 64 output rows at a time
        up = (rows[r0: r0 + 64] @ wide).reshape(-1, k, w)
        pred[r0: r0 + 64] = np.argmax(up, axis=1)
    return pred


def confusion(label: np.ndarray, pred: np.ndarray, k: int, ignore_index: int) -> np.ndarray:
    keep = label != ignore_index
    g = label[keep].astype(np.int64)
    return np.bincount(k * g + pred[keep], minlength=k * k).reshape(k, k)
