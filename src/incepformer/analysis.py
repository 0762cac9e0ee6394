"""Closed-form cost accounting: parameter counts and FLOP estimates.

Parameter rows carry the exact slash-delimited names of the model's
learnable tensors, computed from the config alone, so enumeration of a
built model can be compared row by row (the two routes are independent).

FLOPs count one multiply-accumulate per MAC.  Rows are categorized:

* ``linear``       convolutions and token projections (hook-countable)
* ``attention``    the QK^T / attention-V products and the softmax, whose
                   cost is quadratic in token count
* ``elementwise``  norms, activations, residuals, pooling, interpolation

`CostReport.hook_profiler_flops` sums linear + elementwise, mirroring
module-hook profilers that do not see functional attention products; that
is the total comparable with commonly reported per-variant figures, and the one
that scales exactly 4x when the input side doubles.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field, replace

from .config import ModelConfig
from .errors import ConfigError, ContractError

CAT_PARAMS = "params"
CAT_LINEAR = "linear"
CAT_ATTENTION = "attention"
CAT_ELEMENTWISE = "elementwise"


@dataclass(frozen=True)
class CostRow:
    layer: str
    params: int
    flops: int
    category: str


@dataclass
class CostReport:
    rows: list[CostRow] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def total_params(self) -> int:
        return sum(r.params for r in self.rows)

    @property
    def total_flops(self) -> int:
        return sum(r.flops for r in self.rows)

    def params_millions(self) -> float:
        return round(self.total_params / 1e6, 1)

    def flops_by_category(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for r in self.rows:
            if r.flops:
                out[r.category] = out.get(r.category, 0) + r.flops
        return out

    @property
    def hook_profiler_flops(self) -> int:
        by_cat = self.flops_by_category()
        return by_cat.get(CAT_LINEAR, 0) + by_cat.get(CAT_ELEMENTWISE, 0)

    def param_rows(self) -> dict[str, int]:
        return {r.layer: r.params for r in self.rows if r.category == CAT_PARAMS}


def _patch_geometry(stage_index: int, mode: str) -> tuple[int, int]:
    """(kernel, stride) of the patch-merging convolution."""
    if mode == "nonoverlap":
        return (4, 4) if stage_index == 1 else (2, 2)
    return (7, 4) if stage_index == 1 else (3, 2)


def conv_macs(kh: int, kw: int, cin: int, cout: int, groups: int, ho: int, wo: int) -> int:
    """Multiply-accumulates of one convolution: Kh*Kw*(Cin/groups)*Cout*Ho*Wo."""
    return kh * kw * (cin // groups) * cout * ho * wo


def matmul_macs(m: int, k: int, p: int, batch: int = 1) -> int:
    """Multiply-accumulates of a batched matrix product: batch*M*K*P."""
    return batch * m * k * p


class _Walk:
    """Accumulates rows while walking the model structure defined by a config."""

    def __init__(self, cfg: ModelConfig):
        cfg.validate()
        self.cfg = cfg
        self.rows: list[CostRow] = []

    def param(self, layer: str, count: int):
        self.rows.append(CostRow(layer, int(count), 0, CAT_PARAMS))

    def flops(self, layer: str, count: int, category: str):
        self.rows.append(CostRow(layer, 0, int(count), category))

    def conv_params(self, path: str, cout: int, cin_g: int, kh: int, kw: int):
        self.param(f"{path}/weight", cout * cin_g * kh * kw)
        if self.cfg.with_bias:
            self.param(f"{path}/bias", cout)

    def norm_params(self, path: str, c: int):
        self.param(f"{path}/gamma", c)
        self.param(f"{path}/beta", c)

    def walk_params(self):
        cfg = self.cfg
        cin = 3
        for i, sc in enumerate(cfg.stages, start=1):
            c, r = sc.channels, sc.reduction
            k, _ = _patch_geometry(i, cfg.patch_mode)
            pre = f"stage{i}"
            self.conv_params(f"{pre}/patch/proj", c, cin, k, k)
            self.norm_params(f"{pre}/patch/norm", c)
            for j in range(sc.depth):
                b = f"{pre}/block{j}"
                self.norm_params(f"{b}/bn1", c)
                if not (cfg.bypass_reduce_r1 and r == 1):
                    self.conv_params(f"{b}/attn/reduce/dw_1xr", c, 1, 1, r)
                    self.conv_params(f"{b}/attn/reduce/dw_rx1", c, 1, r, 1)
                    self.conv_params(f"{b}/attn/reduce/dw_3x3_b2", c, 1, 3, 3)
                    self.conv_params(f"{b}/attn/reduce/dw_3x3_b3", c, 1, 3, 3)
                self.norm_params(f"{b}/attn/reduce/ln", c)
                for nm in ("wq", "wk", "wv", "wo"):
                    self.param(f"{b}/attn/{nm}", c * c)
                if cfg.with_bias:
                    for nm in ("bq", "bk", "bv", "bo"):
                        self.param(f"{b}/attn/{nm}", c)
                hidden = c * sc.ffn_ratio
                self.norm_params(f"{b}/ffn/bn", c)
                self.conv_params(f"{b}/ffn/fc1", hidden, c, 1, 1)
                self.conv_params(f"{b}/ffn/dw", hidden, 1, 3, 3)
                self.conv_params(f"{b}/ffn/fc2", c, hidden, 1, 1)
            cin = c
        self.conv_params("decoder/fuse", cfg.decoder_channels, cfg.concat_channels, 1, 1)
        self.conv_params("decoder/classify", cfg.num_classes, cfg.decoder_channels, 1, 1)

    def walk_flops(self, h: int, w: int):
        cfg = self.cfg
        cin = 3
        sh, sw = h, w
        stage_hw = []
        for i, sc in enumerate(cfg.stages, start=1):
            c, r = sc.channels, sc.reduction
            k, s = _patch_geometry(i, cfg.patch_mode)
            sh, sw = sh // s, sw // s
            stage_hw.append((sh, sw))
            pre = f"stage{i}"
            self.flops(f"{pre}/patch/proj@conv", conv_macs(k, k, cin, c, 1, sh, sw), CAT_LINEAR)
            self.flops(f"{pre}/patch/norm@bn", sh * sw * c, CAT_ELEMENTWISE)
            length = sh * sw
            ch, cw = -(-sh // r), -(-sw // r)
            bypass = cfg.bypass_reduce_r1 and r == 1
            l_kv = length if bypass else 3 * ch * cw
            for j in range(sc.depth):
                b = f"{pre}/block{j}"
                self.flops(f"{b}/bn1@bn", length * c, CAT_ELEMENTWISE)
                if not bypass:
                    self.flops(f"{b}/attn/reduce/dw_1xr@conv", conv_macs(1, r, c, c, c, sh, cw), CAT_LINEAR)
                    self.flops(f"{b}/attn/reduce/dw_rx1@conv", conv_macs(r, 1, c, c, c, ch, cw), CAT_LINEAR)
                    self.flops(f"{b}/attn/reduce/dw_3x3_b2@conv", conv_macs(3, 3, c, c, c, ch, cw), CAT_LINEAR)
                    self.flops(f"{b}/attn/reduce/pool@avg", r * r * c * ch * cw, CAT_ELEMENTWISE)
                    self.flops(f"{b}/attn/reduce/dw_3x3_b3@conv", conv_macs(3, 3, c, c, c, ch, cw), CAT_LINEAR)
                self.flops(f"{b}/attn/reduce/ln@ln", l_kv * c, CAT_ELEMENTWISE)
                self.flops(f"{b}/attn/q@proj", matmul_macs(length, c, c), CAT_LINEAR)
                self.flops(f"{b}/attn/k@proj", matmul_macs(l_kv, c, c), CAT_LINEAR)
                self.flops(f"{b}/attn/v@proj", matmul_macs(l_kv, c, c), CAT_LINEAR)
                dk = c // sc.heads
                self.flops(f"{b}/attn/qk@matmul", matmul_macs(length, dk, l_kv, sc.heads), CAT_ATTENTION)
                self.flops(f"{b}/attn/softmax@softmax", sc.heads * length * l_kv, CAT_ATTENTION)
                self.flops(f"{b}/attn/av@matmul", matmul_macs(length, l_kv, dk, sc.heads), CAT_ATTENTION)
                self.flops(f"{b}/attn/out@proj", matmul_macs(length, c, c), CAT_LINEAR)
                self.flops(f"{b}/res1@add", length * c, CAT_ELEMENTWISE)
                hidden = c * sc.ffn_ratio
                self.flops(f"{b}/ffn/bn@bn", length * c, CAT_ELEMENTWISE)
                self.flops(f"{b}/ffn/fc1@conv", conv_macs(1, 1, c, hidden, 1, sh, sw), CAT_LINEAR)
                self.flops(f"{b}/ffn/dw@conv", conv_macs(3, 3, hidden, hidden, hidden, sh, sw), CAT_LINEAR)
                self.flops(f"{b}/ffn/gelu@act", hidden * length, CAT_ELEMENTWISE)
                self.flops(f"{b}/ffn/fc2@conv", conv_macs(1, 1, hidden, c, 1, sh, sw), CAT_LINEAR)
                self.flops(f"{b}/res2@add", length * c, CAT_ELEMENTWISE)
            cin = c
        h4, w4 = stage_hw[0]
        for i, sc in enumerate(cfg.stages, start=1):
            self.flops(f"decoder/upsample_f{i}@interp", 4 * sc.channels * h4 * w4, CAT_ELEMENTWISE)
        self.flops("decoder/fuse@conv",
                   conv_macs(1, 1, cfg.concat_channels, cfg.decoder_channels, 1, h4, w4), CAT_LINEAR)
        self.flops("decoder/classify@conv",
                   conv_macs(1, 1, cfg.decoder_channels, cfg.num_classes, 1, h4, w4), CAT_LINEAR)


def count_params(cfg: ModelConfig) -> CostReport:
    """Closed-form per-tensor parameter counts (no model is built)."""
    walk = _Walk(cfg)
    walk.walk_params()
    meta = {"model": cfg.name, "kind": "params"}
    return CostReport(rows=walk.rows, meta=meta)


def estimate_flops(cfg: ModelConfig, h: int, w: int) -> CostReport:
    """Parameter and MAC rows at input size h x w (one count per
    multiply-accumulate)."""
    if h % 32 or w % 32:
        raise ConfigError(f"input dims must be divisible by 32, got {h}x{w}")
    walk = _Walk(cfg)
    walk.walk_params()
    walk.walk_flops(h, w)
    meta = {
        "model": cfg.name,
        "kind": "params+flops",
        "input": f"{h}x{w}",
        "flop_convention": "macs x1; hook_profiler total excludes the attention category",
    }
    return CostReport(rows=walk.rows, meta=meta)


@dataclass
class DecoderSweep:
    channels: list[int]
    reports: list[CostReport]
    param_deltas: list[int]
    flop_deltas: list[int]


def compare_decoder_channels(cfg: ModelConfig, channels: list[int],
                             input_hw: tuple[int, int] | None = None) -> DecoderSweep:
    """One report per decoder width, plus deltas between consecutive widths."""
    if not channels or any(c < 1 for c in channels):
        raise ConfigError("decoder channel list must contain positive values")
    reports = []
    for c in channels:
        variant = replace(cfg, decoder_channels=int(c))
        if input_hw is None:
            reports.append(count_params(variant))
        else:
            reports.append(estimate_flops(variant, *input_hw))
    p = [r.total_params for r in reports]
    f = [r.hook_profiler_flops for r in reports]
    return DecoderSweep(
        channels=list(channels),
        reports=reports,
        param_deltas=[b - a for a, b in zip(p, p[1:])],
        flop_deltas=[b - a for a, b in zip(f, f[1:])],
    )


def decoder_params(cfg: ModelConfig) -> int:
    """Learnable parameter count of the decoder alone."""
    report = count_params(cfg)
    return sum(r.params for r in report.rows if r.layer.startswith("decoder/"))


def emit_report(report: CostReport, fmt: str) -> bytes:
    """Serialize a report deterministically as json, csv or a text table."""
    if fmt == "csv":
        buf = io.StringIO()
        buf.write("layer,params,flops\n")
        for r in report.rows:
            buf.write(f"{r.layer},{r.params},{r.flops}\n")
        buf.write(f"total,{report.total_params},{report.total_flops}\n")
        return buf.getvalue().encode("utf-8")
    if fmt == "json":
        doc = {
            "meta": report.meta,
            "rows": [
                {"layer": r.layer, "params": r.params, "flops": r.flops, "category": r.category}
                for r in report.rows
            ],
            "totals": {
                "params": report.total_params,
                "params_millions": report.params_millions(),
                "flops": report.total_flops,
                "flops_by_category": dict(sorted(report.flops_by_category().items())),
                "hook_profiler_flops": report.hook_profiler_flops,
            },
        }
        return (json.dumps(doc, indent=2) + "\n").encode("utf-8")
    if fmt == "table":
        width = max([len(r.layer) for r in report.rows] + [len("layer"), len("total")])
        lines = [f"{'layer':<{width}}  {'params':>12}  {'flops':>16}  category"]
        for r in report.rows:
            lines.append(f"{r.layer:<{width}}  {r.params:>12}  {r.flops:>16}  {r.category}")
        lines.append(f"{'total':<{width}}  {report.total_params:>12}  {report.total_flops:>16}")
        lines.append(f"params (M): {report.params_millions()}")
        if report.total_flops:
            lines.append(f"hook-profiler flops: {report.hook_profiler_flops}")
        for k, v in report.meta.items():
            lines.append(f"# {k}: {v}")
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ContractError(f"unknown report format {fmt!r}; expected json, csv or table")
