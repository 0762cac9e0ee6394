"""Closed-form cost accounting: parameter counts and FLOP estimates.

Parameter rows carry the exact slash-delimited names of the model's
learnable tensors, computed from the config alone, so enumeration of a
built model can be compared row by row (the two routes are independent).
One walk over the stage/block tree states each layer's geometry once and
emits both its parameter rows and its MAC rows; a report lists every
parameter row first, then every MAC row.

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
from dataclasses import dataclass, field

from .config import INPUT_MULTIPLE, PATCH_STRIDES, ModelConfig, check_input_size
from .errors import ContractError

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


def conv_macs(kh: int, kw: int, cin: int, cout: int, groups: int, ho: int, wo: int) -> int:
    """Multiply-accumulates of one convolution: Kh*Kw*(Cin/groups)*Cout*Ho*Wo."""
    return kh * kw * (cin // groups) * cout * ho * wo


def matmul_macs(m: int, k: int, p: int, batch: int = 1) -> int:
    """Multiply-accumulates of a batched matrix product: batch*M*K*P."""
    return batch * m * k * p


class _Walk:
    """One walk of the model structure a config defines: each layer writes
    its parameter rows to `params` and its MAC rows to `flops`."""

    def __init__(self, cfg: ModelConfig):
        cfg.validate()
        self.cfg = cfg
        self.params: list[CostRow] = []
        self.flops: list[CostRow] = []

    def param(self, layer: str, count: int):
        self.params.append(CostRow(layer, int(count), 0, CAT_PARAMS))

    def op(self, layer: str, count: int, category: str):
        self.flops.append(CostRow(layer, 0, int(count), category))

    def conv(self, path: str, cin: int, cout: int, kh: int, kw: int, groups: int, ho: int, wo: int):
        self.param(f"{path}/weight", cout * (cin // groups) * kh * kw)
        self.param(f"{path}/bias", cout)
        self.op(f"{path}@conv", conv_macs(kh, kw, cin, cout, groups, ho, wo), CAT_LINEAR)

    def norm(self, path: str, c: int, tag: str, values: int):
        self.param(f"{path}/gamma", c)
        self.param(f"{path}/beta", c)
        self.op(f"{path}@{tag}", values, CAT_ELEMENTWISE)

    def walk(self, h: int, w: int):
        cfg = self.cfg
        cin = 3
        sh, sw = h, w
        stage_hw = []
        for i, (sc, k) in enumerate(zip(cfg.stages, PATCH_STRIDES), start=1):
            c, r = sc.channels, sc.reduction
            sh, sw = sh // k, sw // k
            stage_hw.append((sh, sw))
            pre = f"stage{i}"
            length = sh * sw
            self.conv(f"{pre}/patch/proj", cin, c, k, k, 1, sh, sw)
            self.norm(f"{pre}/patch/norm", c, "bn", length * c)
            ch, cw = sh // r, sw // r
            l_kv = 3 * ch * cw
            hidden = c * sc.ffn_ratio
            dk = c // sc.heads
            for j in range(sc.depth):
                b = f"{pre}/block{j}"
                self.norm(f"{b}/bn1", c, "bn", length * c)
                red = f"{b}/attn/reduce"
                self.conv(f"{red}/dw_1xr", c, c, 1, r, c, sh, cw)
                self.conv(f"{red}/dw_rx1", c, c, r, 1, c, ch, cw)
                self.conv(f"{red}/dw_3x3_b2", c, c, 3, 3, c, ch, cw)
                self.op(f"{red}/pool@avg", r * r * c * ch * cw, CAT_ELEMENTWISE)
                self.conv(f"{red}/dw_3x3_b3", c, c, 3, 3, c, ch, cw)
                self.norm(f"{red}/ln", c, "ln", l_kv * c)
                for nm in ("wq", "wk", "wv", "wo"):
                    self.param(f"{b}/attn/{nm}", c * c)
                for nm in ("bq", "bk", "bv", "bo"):
                    self.param(f"{b}/attn/{nm}", c)
                self.op(f"{b}/attn/q@proj", matmul_macs(length, c, c), CAT_LINEAR)
                self.op(f"{b}/attn/k@proj", matmul_macs(l_kv, c, c), CAT_LINEAR)
                self.op(f"{b}/attn/v@proj", matmul_macs(l_kv, c, c), CAT_LINEAR)
                self.op(f"{b}/attn/qk@matmul", matmul_macs(length, dk, l_kv, sc.heads), CAT_ATTENTION)
                self.op(f"{b}/attn/softmax@softmax", sc.heads * length * l_kv, CAT_ATTENTION)
                self.op(f"{b}/attn/av@matmul", matmul_macs(length, l_kv, dk, sc.heads), CAT_ATTENTION)
                self.op(f"{b}/attn/out@proj", matmul_macs(length, c, c), CAT_LINEAR)
                self.op(f"{b}/res1@add", length * c, CAT_ELEMENTWISE)
                self.norm(f"{b}/ffn/bn", c, "bn", length * c)
                self.conv(f"{b}/ffn/fc1", c, hidden, 1, 1, 1, sh, sw)
                self.conv(f"{b}/ffn/dw", hidden, hidden, 3, 3, hidden, sh, sw)
                self.op(f"{b}/ffn/gelu@act", hidden * length, CAT_ELEMENTWISE)
                self.conv(f"{b}/ffn/fc2", hidden, c, 1, 1, 1, sh, sw)
                self.op(f"{b}/res2@add", length * c, CAT_ELEMENTWISE)
            cin = c
        h4, w4 = stage_hw[0]
        for i, sc in enumerate(cfg.stages[1:], start=2):
            self.op(f"decoder/upsample_f{i}@interp", 4 * sc.channels * h4 * w4, CAT_ELEMENTWISE)
        self.conv("decoder/fuse", cfg.concat_channels, cfg.decoder_channels, 1, 1, 1, h4, w4)
        self.conv("decoder/classify", cfg.decoder_channels, cfg.num_classes, 1, 1, 1, h4, w4)


def count_params(cfg: ModelConfig) -> CostReport:
    """Closed-form per-tensor parameter counts (no model is built).  The
    parameter rows do not depend on the input size, so the walk runs at
    the smallest valid input."""
    walk = _Walk(cfg)
    walk.walk(INPUT_MULTIPLE, INPUT_MULTIPLE)
    return CostReport(rows=walk.params, meta={"model": cfg.name, "kind": "params"})


def estimate_flops(cfg: ModelConfig, h: int, w: int) -> CostReport:
    """Parameter and MAC rows at input size h x w (one count per
    multiply-accumulate): every parameter row first, then every MAC row."""
    check_input_size(h, w, "input")
    walk = _Walk(cfg)
    walk.walk(h, w)
    meta = {
        "model": cfg.name,
        "kind": "params+flops",
        "input": f"{h}x{w}",
        "flop_convention": "macs x1; hook_profiler total excludes the attention category",
    }
    return CostReport(rows=walk.params + walk.flops, meta=meta)


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
