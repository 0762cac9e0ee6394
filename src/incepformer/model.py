"""IncepFormer model: patch embedding, inception-attention transformer
blocks, the four-stage pyramid encoder and the upsample-concat decoder.

Layout conventions: images are [N, C, H, W]; token sequences are [N, L, C]
with row-major token order.  Stages and blocks take and return images;
token sequences exist only inside attention (`IncepMHSA`, `IncepReduce`).
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .config import INPUT_MULTIPLE, PATCH_STRIDES, ModelConfig
from .errors import ConfigError, ShapeError
from .modules import BatchNorm2d, Conv2d, InitCtx, LayerNorm, Module
from .tensor import Tensor, resolve_dtype

class PatchEmbed(Module):
    """Non-overlapping k x k, stride-k projection between stages (k = 4 into
    stage 1, 2 afterwards), then a BatchNorm.  An input whose extent is not
    a multiple of k raises ShapeError from the conv."""

    def __init__(self, stage_index: int, cin: int, cout: int, init: InitCtx):
        s = PATCH_STRIDES[stage_index - 1]
        self.proj = Conv2d(cin, cout, s, stride=s, init=init)
        self.norm = BatchNorm2d(cout, init)

    def forward(self, x: Tensor) -> Tensor:
        return self.norm(self.proj(x))

    __call__ = forward


class IncepReduce(Module):
    """Three-branch spatial reduction producing the key/value token sequence.

    Branch 1: strip convolutions 1xR then Rx1 (stride R along the strip);
    branch 2: 3x3 depthwise with stride R; branch 3: RxR average pooling
    followed by a 3x3 depthwise.  The branch maps are stacked along H and
    flattened, which gives branch 1's tokens, then branch 2's, then branch
    3's, each in row-major order; the sequence is LayerNormed.
    """

    def __init__(self, channels: int, reduction: int, init: InitCtx):
        self.reduction = r = reduction
        self.dw_1xr = Conv2d(channels, channels, (1, r), stride=(1, r), groups=channels, init=init)
        self.dw_rx1 = Conv2d(channels, channels, (r, 1), stride=(r, 1), groups=channels, init=init)
        self.dw_3x3_b2 = Conv2d(channels, channels, 3, stride=(r, r), padding=1, groups=channels, init=init)
        self.dw_3x3_b3 = Conv2d(channels, channels, 3, stride=1, padding=1, groups=channels, init=init)
        self.ln = LayerNorm(channels, init)

    def forward(self, x: Tensor) -> Tensor:
        b1 = self.dw_rx1(self.dw_1xr(x))
        b2 = self.dw_3x3_b2(x)
        b3 = self.dw_3x3_b3(T.avg_pool2d(x, self.reduction))
        return self.ln(T.img2seq(T.concat([b1, b2, b3], axis=2)))

    __call__ = forward


class IncepMHSA(Module):
    """Multi-head attention on an [N, C, H, W] map: queries are its tokens,
    keys/values the `IncepReduce` sequence.  q is taken before the reduction,
    so backward() adds q's gradient to the input's last, after the reduction
    branches' sum: the grouping of the block composed on sequences, which
    tests pin bitwise."""

    def __init__(self, channels: int, heads: int, reduction: int, init: InitCtx):
        if channels % heads:
            raise ConfigError(f"channels ({channels}) not divisible by heads ({heads})")
        self.heads = heads
        self.head_dim = channels // heads
        self.reduce = IncepReduce(channels, reduction, init)
        self.wq = init.linear_weight(channels, channels)
        self.wk = init.linear_weight(channels, channels)
        self.wv = init.linear_weight(channels, channels)
        self.wo = init.linear_weight(channels, channels)
        for nm in ("bq", "bk", "bv", "bo"):
            setattr(self, nm, init.zeros(channels))

    def attend(self, q_tokens: Tensor, kv_tokens: Tensor) -> Tensor:
        """Scaled dot-product attention from query tokens onto key/value
        tokens, including the head split and output projection.

        The 1/sqrt(head_dim) scale multiplies the projected queries [N, L, C]
        rather than the scores [N, heads, L, Lk]: the same product up to
        rounding, over far fewer values (Lk is 768 at stage 1 of a 512x512
        input).

        Scores, softmax and the weights-by-values product run one
        `T.block_ranges` block of query rows at a time, sized by their
        scores, so they stay in cache instead of one [N, heads, L, Lk]
        array being paged in whole; the block contexts are concatenated
        along the query axis.  Each row's softmax is exact; the blocked
        products differ from the whole one by float rounding at most.
        """
        n, l, c = q_tokens.shape
        q = T.scale(T.linear(q_tokens, self.wq, self.bq), 1.0 / math.sqrt(self.head_dim))
        k = T.linear(kv_tokens, self.wk, self.bk)
        v = T.linear(kv_tokens, self.wv, self.bv)
        lk = k.shape[1]
        hd, dk = self.heads, self.head_dim
        qh = T.transpose(T.reshape(q, (n, l, hd, dk)), (0, 2, 1, 3))
        kt = T.transpose(T.reshape(k, (n, lk, hd, dk)), (0, 2, 3, 1))
        vh = T.transpose(T.reshape(v, (n, lk, hd, dk)), (0, 2, 1, 3))
        blocks = []
        for r0, r1 in T.block_ranges(l, q.dtype.itemsize * n * hd * lk):
            scores = T.matmul_batched(T.slice_rows(qh, r0, r1), kt)
            blocks.append(T.matmul_batched(T.softmax(scores, axis=-1), vh))
        ctx = T.concat(blocks, axis=2)
        merged = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (n, l, c))
        return T.linear(merged, self.wo, self.bo)

    def forward(self, x: Tensor) -> Tensor:
        q = T.img2seq(x)
        o = self.reduce(x)
        return T.seq2img(self.attend(q, o), x.shape[2], x.shape[3])

    __call__ = forward


class EFFN(Module):
    """Feed-forward block on an [N, C, H, W] map:
    BN -> 1x1 conv (C -> ratio*C) -> 3x3 depthwise -> GELU -> 1x1 conv -> + input."""

    def __init__(self, channels: int, ratio: int, init: InitCtx):
        hidden = channels * ratio
        self.bn = BatchNorm2d(channels, init)
        self.fc1 = Conv2d(channels, hidden, 1, init=init)
        self.dw = Conv2d(hidden, hidden, 3, stride=1, padding=1, groups=hidden, init=init)
        self.fc2 = Conv2d(hidden, channels, 1, init=init)

    def forward(self, x: Tensor) -> Tensor:
        return T.add(self.fc2(T.gelu(self.dw(self.fc1(self.bn(x))))), x)

    __call__ = forward


class IPTBlock(Module):
    """Inception transformer block on an [N, C, H, W] map: BN -> attention ->
    + input, then the E-FFN sub-block (which owns the second BN and residual)."""

    def __init__(self, channels: int, heads: int, reduction: int, ratio: int, init: InitCtx):
        self.bn1 = BatchNorm2d(channels, init)
        self.attn = IncepMHSA(channels, heads, reduction, init)
        self.ffn = EFFN(channels, ratio, init)

    def forward(self, x: Tensor) -> Tensor:
        return self.ffn(T.add(x, self.attn(self.bn1(x))))

    __call__ = forward


class Stage(Module):
    def __init__(self, index: int, cin: int, cfg: ModelConfig, init: InitCtx):
        sc = cfg.stages[index - 1]
        self.patch = PatchEmbed(index, cin, sc.channels, init)
        self.depth = sc.depth
        for j in range(sc.depth):
            setattr(self, f"block{j}",
                    IPTBlock(sc.channels, sc.heads, sc.reduction, sc.ffn_ratio, init))

    def forward(self, x: Tensor) -> Tensor:
        x = self.patch(x)
        for j in range(self.depth):
            x = getattr(self, f"block{j}")(x)
        return x

    __call__ = forward


class Decoder(Module):
    """Upsample every pyramid level to 1/4 resolution, concatenate along
    channels, then two 1x1 convolutions down to class logits.

    This runs one `T.block_ranges` block of 1/4-resolution rows at a time,
    sized by its concat: every level's rows of the upsample
    (`bilinear_upsample(rows=)`), their concat, `fuse` and `classify`; the
    block logits are concatenated along H.  So no full-size concat or
    `fuse` output is held (a tape keeps each block's until the backward,
    which then takes one block's gradients at a time).  A 1x1 conv acts on
    each pixel alone, so the blocks differ from one whole forward by float
    rounding at most.
    """

    def __init__(self, cfg: ModelConfig, init: InitCtx):
        self.fuse = Conv2d(cfg.concat_channels, cfg.decoder_channels, 1, init=init)
        self.classify = Conv2d(cfg.decoder_channels, cfg.num_classes, 1, init=init)

    def forward(self, feats: list[Tensor]) -> Tensor:
        h4, w4 = feats[0].shape[2], feats[0].shape[3]
        for i, f in enumerate(feats[1:], start=2):
            expect = (h4 // 2 ** (i - 1), w4 // 2 ** (i - 1))
            if (f.shape[2], f.shape[3]) != expect:
                raise ShapeError(
                    f"pyramid level {i} has spatial {f.shape[2:]}, expected {expect}"
                )
        n, c = feats[0].shape[0], sum(f.shape[1] for f in feats)
        blocks = []
        for rows in T.block_ranges(h4, feats[0].dtype.itemsize * n * c * w4):
            ups = [T.bilinear_upsample(f, h4, w4, rows=rows) for f in feats]
            blocks.append(self.classify(self.fuse(T.concat(ups, axis=1))))
        return T.concat(blocks, axis=2)

    __call__ = forward


class IncepFormer(Module):
    """Four-stage pyramid encoder plus the upsample-concat decoder."""

    def __init__(self, cfg: ModelConfig, init: InitCtx):
        cfg.validate()
        self.cfg = cfg
        cin = 3
        for i in range(1, 5):
            setattr(self, f"stage{i}", Stage(i, cin, cfg, init))
            cin = cfg.stages[i - 1].channels
        self.decoder = Decoder(cfg, init)

    def encode(self, image: Tensor) -> list[Tensor]:
        """The four stage outputs, at 1/4, 1/8, 1/16 and 1/32 of the input
        resolution."""
        if image.ndim != 4 or image.shape[1] != 3:
            raise ShapeError(f"expected [N, 3, H, W] image, got {image.shape}")
        h, w = image.shape[2], image.shape[3]
        if h % INPUT_MULTIPLE or w % INPUT_MULTIPLE:
            raise ShapeError(f"input dims must be divisible by {INPUT_MULTIPLE}, got {h}x{w}")
        feats = []
        x = image
        for i in range(1, 5):
            x = getattr(self, f"stage{i}")(x)
            feats.append(x)
        return feats

    def forward(self, image: Tensor) -> Tensor:
        return self.decoder(self.encode(image))

    __call__ = forward


def build_model(cfg: ModelConfig, seed: int = 0, dtype="f32") -> IncepFormer:
    """Construct a model with deterministic, seed-derived initialization."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x1A2B]))
    return IncepFormer(cfg, InitCtx(rng=rng, dtype=resolve_dtype(dtype)))


def freeze_batchnorm_stats(model: Module):
    """Stop BatchNorm layers from updating running statistics.

    Used by gradient checking so repeated forward passes stay pure.
    """
    for m in model.modules():
        if isinstance(m, BatchNorm2d):
            m.track_running = False
