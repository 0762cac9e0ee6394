"""Cost accounting: closed-form counts vs enumeration, FLOP conventions,
decoder sweeps and report emission."""

import dataclasses
import json

import pytest

from incepformer.analysis import (
    CAT_ATTENTION,
    CAT_PARAMS,
    CostReport,
    compare_decoder_channels,
    conv_macs,
    count_params,
    decoder_params,
    emit_report,
    estimate_flops,
    matmul_macs,
)
from incepformer.config import StageConfig, ipt_b, ipt_s, ipt_t, micro
from incepformer.errors import ConfigError, ContractError
from incepformer.model import build_model
from incepformer.tensor import parameter

REFERENCE_PARAMS = {"ipt-t": 14.0e6, "ipt-s": 24.6e6, "ipt-b": 39.6e6}
REFERENCE_GFLOPS = {"ipt-t": 21.2e9, "ipt-s": 38.5e9, "ipt-b": 54.6e9}


class TestParamCounting:
    def test_single_1x1_conv_with_bias(self):
        # 1024 -> 768 pointwise: weights plus bias
        rows = count_params(ipt_s()).param_rows()
        assert rows["decoder/fuse/weight"] + rows["decoder/fuse/bias"] == 787200

    def test_effn_block_params(self):
        rows = count_params(ipt_t()).param_rows()
        ffn = sum(v for k, v in rows.items() if k.startswith("stage1/block0/ffn/"))
        assert ffn == 35776

    @pytest.mark.parametrize("mk", [ipt_t, ipt_s, ipt_b, micro])
    def test_closed_form_equals_enumeration_exactly(self, mk):
        cfg = mk()
        closed = count_params(cfg)
        store = build_model(cfg, seed=0).parameter_store()
        assert closed.param_rows() == {name: t.size for name, t in store.items()}
        assert closed.total_params == store.total_params()

    @pytest.mark.parametrize("cfg", [micro(), ipt_t()], ids=["micro", "ipt_t"])
    def test_store_and_buffer_order_match_closed_form(self, cfg):
        # The enumeration order is the checkpoint byte order.
        rows = [r.layer for r in count_params(cfg).rows]
        model = build_model(cfg, seed=0)
        assert model.parameter_store().names() == rows
        bn = [n[: -len("gamma")] for n in rows if n.endswith("/gamma") and not n.endswith("ln/gamma")]
        assert [n for n, _ in model.named_buffers()] == [
            p + s for p in bn for s in ("running_mean", "running_var")]
        # Reassigning a parameter attribute replaces it in its first position.
        proj = model.stage1.patch.proj
        proj.weight = parameter(proj.weight.data.copy())
        store = model.parameter_store()
        assert store.names() == rows
        assert store["stage1/patch/proj/weight"] is proj.weight

    def test_reference_totals_within_20_percent(self):
        for mk in (ipt_t, ipt_s, ipt_b):
            cfg = mk(num_classes=150)
            total = count_params(cfg).total_params
            target = REFERENCE_PARAMS[cfg.name]
            assert abs(total - target) / target < 0.20, (cfg.name, total)

    def test_strict_ordering(self):
        t, s, b = (count_params(mk()).total_params for mk in (ipt_t, ipt_s, ipt_b))
        assert t < s < b

    def test_params_independent_of_input_size(self):
        cfg = ipt_t()
        assert estimate_flops(cfg, 64, 64).total_params == count_params(cfg).total_params
        assert estimate_flops(cfg, 512, 512).total_params == count_params(cfg).total_params

    def test_millions_rounding(self):
        assert count_params(ipt_t()).params_millions() == 13.4


class TestFlops:
    def test_single_conv_hand_macs(self):
        assert conv_macs(3, 3, 1, 1, 1, 4, 4) == 144
        assert matmul_macs(2, 3, 4) == 24

    def test_loop_count_oracle_micro_attention(self):
        # brute-force MAC counting on a tiny stage geometry
        rows = {r.layer: r.flops for r in estimate_flops(micro(), 32, 32).rows if r.flops}
        heads, c = 1, 8
        length, l_kv = 8 * 8, 3  # stage 1 of 32x32: 8x8 tokens, R=8 -> 1x1 branches
        dk = c // heads

        def loop_matmul(batch, m, k, p):
            macs = 0
            for _ in range(batch):
                for _ in range(m):
                    for _ in range(k):
                        for _ in range(p):
                            macs += 1
            return macs

        assert rows["stage1/block0/attn/q@proj"] == loop_matmul(1, length, c, c)
        assert rows["stage1/block0/attn/k@proj"] == loop_matmul(1, l_kv, c, c)
        assert rows["stage1/block0/attn/qk@matmul"] == loop_matmul(heads, length, dk, l_kv)
        assert rows["stage1/block0/attn/av@matmul"] == loop_matmul(heads, length, l_kv, dk)
        assert rows["stage1/block0/attn/out@proj"] == loop_matmul(1, length, c, c)

    def test_patch_conv_row_value(self):
        rows = {r.layer: r.flops for r in estimate_flops(ipt_t(), 64, 64).rows if r.flops}
        assert rows["stage1/patch/proj@conv"] == 4 * 4 * 3 * 64 * 16 * 16

    def test_reference_totals_within_25_percent(self):
        for mk in (ipt_t, ipt_s, ipt_b):
            cfg = mk(num_classes=150)
            got = estimate_flops(cfg, 512, 512).hook_profiler_flops
            target = REFERENCE_GFLOPS[cfg.name]
            assert abs(got - target) / target < 0.25, (cfg.name, got)

    def test_quadrupling_exact(self):
        small = estimate_flops(ipt_t(), 64, 64).hook_profiler_flops
        large = estimate_flops(ipt_t(), 128, 128).hook_profiler_flops
        assert large == 4 * small  # integer arithmetic, no ppm slack needed

    def test_attention_category_is_quadratic(self):
        small = estimate_flops(ipt_t(), 64, 64).flops_by_category()[CAT_ATTENTION]
        large = estimate_flops(ipt_t(), 128, 128).flops_by_category()[CAT_ATTENTION]
        assert large == 16 * small

    def test_flops_ordering(self):
        t, s, b = (estimate_flops(mk(), 512, 512).hook_profiler_flops
                   for mk in (ipt_t, ipt_s, ipt_b))
        assert t < s < b

    def test_indivisible_input_rejected(self):
        with pytest.raises(ConfigError):
            estimate_flops(ipt_t(), 100, 100)

    @pytest.mark.parametrize("hw", [(0, 0), (-32, -32), (64, 0), (-32, 64)])
    def test_non_positive_input_rejected(self, hw):
        with pytest.raises(ConfigError, match="positive multiples of 32"):
            estimate_flops(micro(), *hw)

    @pytest.mark.parametrize("cfg", [
        ipt_t(),
        dataclasses.replace(micro(), stages=tuple(
            StageConfig(channels=6, depth=2, reduction=r, heads=2, ffn_ratio=3) for r in (4, 2, 2, 1))),
    ], ids=["ipt_t", "non-preset-reduction"])
    @pytest.mark.parametrize("hw", [(32, 32), (64, 96), (512, 512)])
    def test_param_rows_do_not_depend_on_input_size(self, cfg, hw):
        params = count_params(cfg).rows
        rows = estimate_flops(cfg, *hw).rows
        assert rows[:len(params)] == params
        assert all(r.category != CAT_PARAMS and r.params == 0 for r in rows[len(params):])
        assert len({r.layer for r in rows}) == len(rows)


class TestDecoderFacts:
    @pytest.mark.parametrize("mk", [ipt_t, ipt_s, ipt_b])
    def test_decoder_under_one_million(self, mk):
        assert decoder_params(mk(num_classes=150)) < 1_000_000

    def test_delta_512_to_768_analytic(self):
        sweep = compare_decoder_channels(ipt_s(num_classes=150), [512, 768])
        delta = sweep.param_deltas[0]
        assert delta == (1024 + 1) * 256 + 256 * 150 == 300800
        # magnitude consistent with the reference 24.4M -> 24.6M step
        assert abs(delta - 0.2e6) <= 0.15e6

    def test_deltas_strictly_increasing_in_c(self):
        sweep = compare_decoder_channels(ipt_s(), [256, 512, 768, 1024, 2048])
        per_channel = [d / (c2 - c1) for d, c1, c2 in
                       zip(sweep.param_deltas, sweep.channels, sweep.channels[1:])]
        assert all(d > 0 for d in sweep.param_deltas)
        assert len(set(round(p) for p in per_channel)) == 1  # linear in C

    def test_gap_256_to_2048(self):
        sweep = compare_decoder_channels(ipt_s(num_classes=150), [256, 2048])
        gap = sweep.reports[1].total_params - sweep.reports[0].total_params
        assert abs(gap - 2.0e6) <= 0.15e6


class TestEmitReport:
    def test_empty_report_totals(self):
        report = CostReport(rows=[], meta={"model": "empty"})
        assert report.total_params == 0 and report.total_flops == 0
        assert b"total,0,0" in emit_report(report, "csv")

    def test_csv_header_fixed(self):
        payload = emit_report(count_params(micro()), "csv")
        assert payload.startswith(b"layer,params,flops\n")

    def test_csv_parses_and_totals_consistent(self):
        report = estimate_flops(micro(), 32, 32)
        lines = emit_report(report, "csv").decode().strip().splitlines()
        header, *rows = lines
        assert header == "layer,params,flops"
        total_line = rows[-1].split(",")
        body = [r.split(",") for r in rows[:-1]]
        assert sum(int(r[1]) for r in body) == int(total_line[1]) == report.total_params
        assert sum(int(r[2]) for r in body) == int(total_line[2]) == report.total_flops

    def test_json_round_trips(self):
        report = estimate_flops(micro(), 32, 32)
        doc = json.loads(emit_report(report, "json"))
        assert doc["totals"]["params"] == report.total_params
        assert doc["totals"]["hook_profiler_flops"] == report.hook_profiler_flops
        assert len(doc["rows"]) == len(report.rows)

    def test_emissions_byte_identical(self):
        report = estimate_flops(ipt_t(), 64, 64)
        for fmt in ("csv", "json", "table"):
            assert emit_report(report, fmt) == emit_report(report, fmt)

    def test_unknown_format(self):
        with pytest.raises(ContractError):
            emit_report(count_params(micro()), "yaml")
