"""Config handling and model architecture tests."""

import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import attention_loop_oracle, make_init

from incepformer import model as model_mod, tensor as T
from incepformer.config import (
    MAX_DEPTH,
    MAX_NUM_CLASSES,
    PRESETS,
    ModelConfig,
    StageConfig,
    dumps,
    from_dict,
    ipt_b,
    ipt_s,
    ipt_t,
    load_model_config,
    micro,
    to_dict,
)
from incepformer.errors import ConfigError, ShapeError
from incepformer.gradcheck import check_function, finite_diff_grad, rel_error
from incepformer.model import EFFN, IPTBlock, IncepMHSA, IncepReduce, build_model
from incepformer.tensor import GradTape, Tensor, backward


def rand_t(shape, seed=0, dtype="f64"):
    return Tensor(np.random.default_rng(seed).standard_normal(shape), dtype=dtype)


class TestConfig:
    def test_preset_tables(self):
        t, s, b = ipt_t(), ipt_s(), ipt_b()
        for cfg in (t, s, b):
            assert tuple(st.channels for st in cfg.stages) == (64, 128, 320, 512)
            assert tuple(st.reduction for st in cfg.stages) == (8, 4, 2, 1)
        assert tuple(st.depth for st in t.stages) == (2, 2, 4, 2)
        assert tuple(st.depth for st in s.stages) == (3, 4, 12, 3)
        assert tuple(st.depth for st in b.stages) == (3, 6, 24, 2)
        assert (t.decoder_channels, s.decoder_channels, b.decoder_channels) == (512, 768, 768)
        assert t.num_classes == 150

    def test_heads_divide_channels(self):
        for cfg in (ipt_t(), ipt_s(), ipt_b(), micro()):
            for st in cfg.stages:
                assert st.channels % st.heads == 0

    def test_invalid_heads_named(self):
        with pytest.raises(ConfigError, match="divisible by heads"):
            StageConfig(channels=10, depth=1, reduction=1, heads=3, ffn_ratio=1).validate()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 16), min_size=4, max_size=4))
    def test_reduction_must_divide_its_stage_map(self, ratios):
        # Stage i's map sides are multiples of 2^(4-i): 8, 4, 2 and 1.
        cfg = dataclasses.replace(micro(), stages=tuple(
            dataclasses.replace(sc, reduction=r) for sc, r in zip(micro().stages, ratios)))
        bad = [i for i, r in enumerate(ratios, start=1) if 2 ** (4 - i) % r]
        if bad:
            with pytest.raises(ConfigError, match=rf"stages\[{bad[0]}\]\.reduction"):
                cfg.validate()
        else:
            cfg.validate()

    def test_unknown_field_rejected(self):
        doc = to_dict(micro())
        doc["positional_embedding"] = True
        with pytest.raises(ConfigError, match="positional_embedding"):
            from_dict(doc)

    def test_stage_count_enforced(self):
        doc = to_dict(micro())
        doc["stages"] = doc["stages"][:3]
        with pytest.raises(ConfigError, match="4"):
            from_dict(doc)

    def test_num_classes_bounded(self):
        doc = to_dict(micro())
        doc["num_classes"] = MAX_NUM_CLASSES
        assert from_dict(doc).num_classes == MAX_NUM_CLASSES
        doc["num_classes"] = MAX_NUM_CLASSES + 1
        with pytest.raises(ConfigError, match="num_classes"):
            from_dict(doc)

    def test_depth_bounded(self):
        doc = to_dict(micro())
        doc["stages"][2]["depth"] = MAX_DEPTH
        assert from_dict(doc).stages[2].depth == MAX_DEPTH == 1024
        doc["stages"][2]["depth"] = MAX_DEPTH + 1
        with pytest.raises(ConfigError, match=r"stages\[3\]\.depth"):
            from_dict(doc)

    def test_round_trip(self):
        cfg = ipt_s()
        assert from_dict(to_dict(cfg)) == cfg

    def test_load_preset_and_file(self, tmp_path):
        assert tuple(s.depth for s in load_model_config("ipt-s").stages) == (3, 4, 12, 3)
        path = tmp_path / "cfg.json"
        path.write_text(dumps(ipt_t()))
        assert load_model_config(str(path)) == ipt_t()

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_every_preset_round_trips_through_a_file(self, name, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(dumps(PRESETS[name]()))
        assert load_model_config(str(path)) == PRESETS[name]()

    @pytest.mark.parametrize("field,value", [
        ("bypass_reduce_r1", "false"), ("bypass_reduce_r1", 1),
        ("channels", 8.9), ("channels", True),
        ("norm_eps", math.nan), ("norm_eps", math.inf), ("norm_eps", "1e-5"), ("norm_eps", 10**400),
    ])
    def test_value_of_wrong_json_kind_rejected(self, field, value):
        # Each once passed through int(), bool() or float(): "false" read as
        # true, 8.9 became 8 channels, a NaN eps made every norm output beta.
        # `bypass_reduce_r1` and `norm_eps` are not fields, so those values
        # fail as unknown fields, also by name.
        doc = to_dict(micro())
        (doc["stages"][0] if field == "channels" else doc)[field] = value
        with pytest.raises(ConfigError, match=field):
            from_dict(doc)

    def test_parse_error_has_line_and_column(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"stages": [\n  oops\n]}')
        with pytest.raises(ConfigError, match=r"line 2"):
            load_model_config(str(path))

    def test_fixed_encoder_choices_are_not_fields(self):
        assert [f.name for f in dataclasses.fields(ModelConfig)] == [
            "stages", "decoder_channels", "num_classes", "name"]
        for field, value in (("patch_mode", "overlap"), ("norm_eps", 1e-6), ("bypass_reduce_r1", True)):
            with pytest.raises(TypeError):
                dataclasses.replace(micro(), **{field: value})

    def test_readme_schema_example_is_ipt_t(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Model config schema", 1)[1]
        example = section.split("```json\n", 1)[1].split("```", 1)[0]
        assert from_dict(json.loads(example)) == ipt_t()


class TestPatchEmbed:
    def test_stage1_stride_4(self):
        model = build_model(micro(), seed=0)
        x = rand_t((1, 3, 64, 64), dtype="f32")
        out = model.stage1.patch(x)
        assert out.shape == (1, 8, 16, 16)

    def test_indivisible_dims_error(self):
        model = build_model(micro(), seed=0)
        with pytest.raises(ShapeError, match="divisible"):
            model.stage1.patch(rand_t((1, 3, 30, 30), dtype="f32"))


class TestIncepReduce:
    def test_token_count_8x8_r4(self):
        red = IncepReduce(4, 4, make_init())
        out = red(rand_t((1, 4, 8, 8)))
        assert out.shape == (1, 12, 4)  # three 2x2 branches

    def test_r1_triples_tokens(self):
        red = IncepReduce(4, 1, make_init())
        out = red(rand_t((1, 4, 3, 5)))
        assert out.shape == (1, 3 * 15, 4)

    def test_map_not_a_multiple_of_r_raises(self):
        red = IncepReduce(4, 3, make_init())
        with pytest.raises(ShapeError):
            red(rand_t((1, 4, 5, 7)))

    def test_input_smaller_than_r(self):
        red = IncepReduce(4, 4, make_init())
        with pytest.raises(ShapeError):
            red(rand_t((1, 4, 3, 8)))

    # The last case is stage 1 of a 512x512 input: 3 * 16 * 16 = 768 keys.
    @pytest.mark.parametrize("hw,r", [((8, 8), 8), ((16, 8), 4), ((6, 10), 2), ((128, 128), 8)])
    def test_kv_count_formula(self, hw, r):
        h, w = hw
        red = IncepReduce(2, r, make_init())
        out = red(rand_t((1, 2, h, w)))
        assert out.shape[1] == 3 * (h // r) * (w // r)

    @staticmethod
    def _per_branch_tokens(red, x):
        """The reduction with each branch flattened to tokens before the
        token-axis concat."""
        b1 = red.dw_rx1(red.dw_1xr(x))
        b2 = red.dw_3x3_b2(x)
        b3 = red.dw_3x3_b3(T.avg_pool2d(x, red.reduction))
        return red.ln(T.concat([T.img2seq(b1), T.img2seq(b2), T.img2seq(b3)], axis=1))

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("hw,r", [((8, 8), 4)], ids=["8x8-r4"])
    def test_token_order_bitwise(self, dtype, hw, r):
        red = IncepReduce(4, r, make_init(24, dtype=dtype))
        x = rand_t((2, 4) + hw, seed=25, dtype=dtype)
        x.requires_grad = True
        leaves = [("x", x)] + list(red.named_parameters())

        def run(forward):
            with GradTape() as tape:
                out = forward()
                proj = rand_t(out.shape, seed=26, dtype=dtype)
                loss = T.tsum(T.mul(out, proj))
            backward(loss, tape)
            return out.data.copy(), [t.grad.copy() for _, t in leaves]

        want, want_grads = run(lambda: self._per_branch_tokens(red, x))
        got, got_grads = run(lambda: red(x))
        np.testing.assert_array_equal(got, want)
        for (name, _), g, wg in zip(leaves, got_grads, want_grads):
            assert np.array_equal(g, wg), name


class TestIncepMHSA:
    def test_constant_value_rows_give_v(self):
        attn = IncepMHSA(4, 1, 2, make_init(3))
        v = np.array([0.5, -1.0, 2.0, 0.25])
        attn.wv.data[...] = 0.0
        attn.bv.data[...] = v
        attn.wo.data[...] = np.eye(4)
        attn.bo.data[...] = 0.0
        out = T.img2seq(attn(T.seq2img(rand_t((2, 16, 4), seed=4), 4, 4)))
        np.testing.assert_allclose(out.data, np.broadcast_to(v, (2, 16, 4)), atol=1e-12)

    def test_attend_matches_loop_oracle_2q_3kv(self):
        attn = IncepMHSA(4, 1, 2, make_init(5))
        q = rand_t((1, 2, 4), seed=6)
        kv = rand_t((1, 3, 4), seed=7)
        got = attn.attend(q, kv)
        want = attention_loop_oracle(q.data, kv.data, attn)
        assert np.abs(got.data - want).max() < 1e-6

    def test_full_forward_matches_oracle_small(self):
        # 2x2 input with R=2: 4 query tokens, 3 key/value tokens
        attn = IncepMHSA(4, 2, 2, make_init(8))
        x = rand_t((1, 4, 4), seed=9)
        got = T.img2seq(attn(T.seq2img(x, 2, 2)))
        o = attn.reduce(T.seq2img(x, 2, 2))
        assert o.shape[1] == 3
        want = attention_loop_oracle(x.data, o.data, attn)
        assert np.abs(got.data - want).max() < 1e-6

    def test_convex_hull_bounding_box(self):
        # pre-output-projection context of every token must lie inside the
        # per-head bounding box of the value rows (necessary hull condition)
        for trial in range(100):
            attn = IncepMHSA(4, 1, 2, make_init(100 + trial))
            attn.wo.data[...] = np.eye(4)
            attn.bo.data[...] = 0.0
            x = rand_t((1, 16, 4), seed=200 + trial)
            o = attn.reduce(T.seq2img(x, 4, 4))
            v = o.data @ attn.wv.data + attn.bv.data
            out = attn.attend(x, o).data
            lo = v.min(axis=1, keepdims=True) - 1e-9
            hi = v.max(axis=1, keepdims=True) + 1e-9
            assert (out >= lo).all() and (out <= hi).all()

    ATTEND_OPS = ["linear", "scale", "linear", "linear", "reshape", "transpose", "reshape", "transpose",
                  "reshape", "transpose", "matmul", "softmax", "matmul", "transpose", "reshape", "linear"]

    def _blocked_setup(self, monkeypatch):
        """Two heads, 10 queries, 3 keys; a block of 3 query rows (18 f64
        scores), so four blocks, the last of one row."""
        attn = IncepMHSA(4, 2, 2, make_init(31))
        monkeypatch.setattr(T, "BLOCK_BYTES", 3 * 2 * 3 * 8)
        softmaxes = []
        softmax = T.softmax

        def counted(x, axis):
            softmaxes.append(x.shape)
            return softmax(x, axis)

        monkeypatch.setattr(T, "softmax", counted)
        return attn, rand_t((1, 10, 4), seed=32), rand_t((1, 3, 4), seed=33), softmaxes

    def test_no_tape_query_blocks_match_one_block_and_oracle(self, monkeypatch):
        attn, q, kv, softmaxes = self._blocked_setup(monkeypatch)
        got = attn.attend(q, kv).data
        assert [s[2] for s in softmaxes] == [3, 3, 3, 1]
        monkeypatch.setattr(T, "BLOCK_BYTES", 1 << 40)
        one = attn.attend(q, kv).data
        assert len(softmaxes) == 5
        np.testing.assert_allclose(got, one, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got, attention_loop_oracle(q.data, kv.data, attn), rtol=0, atol=1e-12)

    def test_tape_records_query_blocks(self, monkeypatch):
        attn, q, kv, softmaxes = self._blocked_setup(monkeypatch)
        with GradTape() as tape:
            attn.attend(q, kv)
        block = ["slice_rows", "matmul", "softmax", "matmul"]
        assert [node.name for node in tape.nodes] == self.ATTEND_OPS[:10] + block * 4 + ["concat"] + \
            self.ATTEND_OPS[13:]
        assert [s[2] for s in softmaxes] == [3, 3, 3, 1]
        # One block records no slice and no concat.
        monkeypatch.setattr(T, "BLOCK_BYTES", 1 << 40)
        with GradTape() as tape:
            attn.attend(q, kv)
        assert [node.name for node in tape.nodes] == self.ATTEND_OPS

    def test_blocked_gradients_match_finite_differences(self, monkeypatch):
        attn, q, kv, softmaxes = self._blocked_setup(monkeypatch)
        q.requires_grad = kv.requires_grad = True
        params = [attn.wq, attn.wk, attn.wv, attn.wo, attn.bq, attn.bk, attn.bv, attn.bo]
        proj = rand_t((1, 10, 4), seed=37)
        rows = check_function(lambda args: T.tsum(T.mul(attn.attend(args[0], args[1]), proj)),
                              [q, kv] + params, "attend")
        assert [s[2] for s in softmaxes[:4]] == [3, 3, 3, 1]
        assert len(rows) == 10
        assert all(r.ok for r in rows), [(r.name, r.rel_err) for r in rows]

    def test_blocks_sized_in_bytes(self, monkeypatch):
        # A row of either loop here holds 60 values: 3 channels x 20 columns
        # of the resize, 2 heads x 30 keys of attention's scores.  At one
        # BLOCK_BYTES, a block holds 4 such rows in f32 and 2 in f64.
        monkeypatch.setattr(T, "BLOCK_BYTES", 4 * 4 * 3 * 20)
        softmaxes = []
        softmax = T.softmax
        monkeypatch.setattr(T, "softmax", lambda x, axis: softmaxes.append(x.shape[2]) or softmax(x, axis))
        for dtype, rows in (("f32", 4), ("f64", 2)):
            walk = T.row_bands((1, 3, 4, 5), 16, 20, T.resolve_dtype(dtype))[0]
            x = np.ones((1, 3, 4, 5), dtype=T.DTYPES[dtype])
            assert [r1 - r0 for (r0, r1, _, _), _ in walk(x)] == [rows] * (16 // rows)
            softmaxes.clear()
            attn = IncepMHSA(4, 2, 1, make_init(34, dtype=dtype))
            attn.attend(rand_t((1, 8, 4), seed=35, dtype=dtype), rand_t((1, 30, 4), seed=36, dtype=dtype))
            assert softmaxes == [rows] * (8 // rows)

    def test_channels_heads_error(self):
        with pytest.raises(ConfigError):
            IncepMHSA(6, 4, 1, make_init())


class TestEFFN:
    def test_residual_identity_with_zero_weights(self):
        ffn = EFFN(4, 2, make_init(10))
        for conv in (ffn.fc1, ffn.dw, ffn.fc2):
            conv.weight.data[...] = 0.0
            conv.bias.data[...] = 0.0
        x = rand_t((2, 12, 4), seed=11)
        out = T.img2seq(ffn(T.seq2img(x, 3, 4)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_param_count_c64_ratio4(self):
        ffn = EFFN(64, 4, make_init())
        total = sum(p.size for _, p in ffn.named_parameters())
        assert total == 16640 + 2560 + 16448 + 128 == 35776

    def test_shape_preserved(self):
        ffn = EFFN(6, 3, make_init(12))
        for hw in [(2, 5), (4, 4), (1, 8)]:
            x = rand_t((1, hw[0] * hw[1], 6), seed=13)
            assert T.img2seq(ffn(T.seq2img(x, *hw))).shape == x.shape


class TestIPTBlock:
    def _zeroed_block(self):
        blk = IPTBlock(4, 1, 2, 2, make_init(14))
        for t in (blk.attn.wq, blk.attn.wk, blk.attn.wv, blk.attn.wo,
                  blk.attn.bq, blk.attn.bk, blk.attn.bv, blk.attn.bo):
            t.data[...] = 0.0
        for conv in (blk.ffn.fc1, blk.ffn.dw, blk.ffn.fc2):
            conv.weight.data[...] = 0.0
            conv.bias.data[...] = 0.0
        return blk

    def test_double_residual_identity(self):
        blk = self._zeroed_block().eval()
        x = rand_t((2, 16, 4), seed=15)
        out = T.img2seq(blk(T.seq2img(x, 4, 4)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_shape_preserved(self):
        blk = IPTBlock(8, 2, 2, 2, make_init(16))
        x = rand_t((1, 24, 8), seed=17)
        assert T.img2seq(blk(T.seq2img(x, 4, 6))).shape == x.shape

    def test_gradcheck_wq(self):
        from incepformer.model import freeze_batchnorm_stats

        blk = IPTBlock(4, 1, 2, 1, make_init(18))
        freeze_batchnorm_stats(blk)
        x = rand_t((1, 16, 4), seed=19)
        proj = rand_t((1, 16, 4), seed=20)

        def loss_fn():
            return T.tsum(T.mul(T.img2seq(blk(T.seq2img(x, 4, 4))), proj))

        with GradTape() as tape:
            loss = loss_fn()
        backward(loss, tape)
        auto = blk.attn.wq.grad.copy()
        fd = finite_diff_grad(lambda _t: loss_fn().item(), blk.attn.wq, h=1e-5)
        assert blk.attn.wq.size <= 48
        assert rel_error(auto, fd) < 1e-4


    @staticmethod
    def _sequence_layout_block(blk, x_seq, h, w):
        """The block as composed on [N, L, C] token sequences, converting to
        the image layout around each norm and convolution."""
        xn = T.img2seq(blk.bn1(T.seq2img(x_seq, h, w)))
        x_att = T.add(x_seq, blk.attn.attend(xn, blk.attn.reduce(T.seq2img(xn, h, w))))
        xin = T.seq2img(x_att, h, w)
        f = blk.ffn
        return T.img2seq(T.add(f.fc2(T.gelu(f.dw(f.fc1(f.bn(xin))))), xin))

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("hw", [(4, 6), (2, 6)])
    def test_equals_sequence_layout_bitwise(self, dtype, hw):
        from incepformer.model import freeze_batchnorm_stats

        h, w = hw
        blk = IPTBlock(8, 2, 2, 2, make_init(21, dtype=dtype))
        freeze_batchnorm_stats(blk)
        x = rand_t((2, 8, h, w), seed=22, dtype=dtype)
        x.requires_grad = True
        proj = rand_t((2, 8, h, w), seed=23, dtype=dtype)
        leaves = [x] + [p for _, p in blk.named_parameters()]

        def run(forward):
            with GradTape() as tape:
                out = forward()
                loss = T.tsum(T.mul(out, proj))
            backward(loss, tape)
            return out.data.copy(), [t.grad.copy() for t in leaves]

        want, want_grads = run(lambda: T.seq2img(self._sequence_layout_block(blk, T.img2seq(x), h, w), h, w))
        got, got_grads = run(lambda: blk(x))
        np.testing.assert_array_equal(got, want)
        for (name, _), g, wg in zip([("x", x)] + list(blk.named_parameters()), got_grads, want_grads):
            assert np.array_equal(g, wg), name


class TestEncoderDecoder:
    @pytest.mark.parametrize("mk", [ipt_t, ipt_s, ipt_b])
    def test_pyramid_shapes_64(self, mk):
        cfg = mk(num_classes=19)
        model = build_model(cfg, seed=0).eval()
        x = rand_t((1, 3, 64, 64), dtype="f32")
        pyr = model.encode(x)
        shapes = [(f.shape[1], f.shape[2], f.shape[3]) for f in pyr]
        assert shapes == [(64, 16, 16), (128, 8, 8), (320, 4, 4), (512, 2, 2)]

    def test_block_counts_from_store_names(self):
        names = set(build_model(ipt_b(num_classes=2), seed=0).parameter_store().names())
        assert "stage3/block23/attn/wq" in names
        assert "stage3/block24/attn/wq" not in names
        assert "stage4/block1/attn/wq" in names
        assert "stage4/block2/attn/wq" not in names

    def test_no_positional_embedding_params(self):
        names = build_model(ipt_t(num_classes=2), seed=0).parameter_store().names()
        assert not [n for n in names if "pos" in n.lower()]

    @pytest.mark.filterwarnings("error")
    def test_untrained_eval_forward_warns_nothing(self, capfd):
        # Untrained BatchNorm in eval mode is the identity, so activations
        # grow stage by stage: above 1e13 at stage 4, where GELU's cube once
        # overflowed with a RuntimeWarning.
        model = build_model(ipt_b(num_classes=2), seed=0).eval()
        out = model(rand_t((1, 3, 256, 256), dtype="f32"))
        assert out.shape == (1, 2, 64, 64)
        assert capfd.readouterr().err == ""

    def test_decoder_concat_channels(self):
        model = build_model(ipt_t(num_classes=150), seed=0)
        assert model.decoder.fuse.weight.shape == (512, 1024, 1, 1)
        assert 64 + 128 + 320 + 512 == 1024

    @staticmethod
    def _pyramid(cfg, h4, w4, dtype):
        rng = np.random.default_rng(h4)
        levels = [rng.standard_normal((1, sc.channels, h4 >> i, w4 >> i)) for i, sc in enumerate(cfg.stages)]
        return [Tensor(a, dtype=dtype, requires_grad=True) for a in levels]

    # Level 1 is at the decoder's resolution already: it is sliced, not resized.
    DECODER_OPS = ["bilinear_upsample"] * 3 + ["concat", "conv2d", "conv2d"]

    def test_decoder_no_tape_row_blocks_match_one_block(self, monkeypatch):
        # A 16x24 map in blocks of 5 rows: 5, 5, 5 and 1.
        cfg = micro(num_classes=5)
        dec = model_mod.Decoder(cfg, make_init(41))
        pyr = self._pyramid(cfg, 16, 24, "f64")
        classified = []
        classify = dec.classify
        monkeypatch.setattr(dec, "classify", lambda x: classified.append(x.shape[2]) or classify(x))
        monkeypatch.setattr(T, "BLOCK_BYTES", 5 * cfg.concat_channels * 24 * 8)
        got = dec(pyr).data
        assert classified == [5, 5, 5, 1]
        monkeypatch.setattr(T, "BLOCK_BYTES", 1 << 40)
        one = dec(pyr).data
        assert classified[4:] == [16]
        assert got.shape == one.shape == (1, 5, 16, 24)
        np.testing.assert_allclose(got, one, rtol=0, atol=1e-12)

    def test_decoder_tape_records_row_blocks(self, monkeypatch):
        # A 16x24 map in blocks of 5 rows: 5, 5, 5 and 1.
        cfg = micro(num_classes=5)
        dec = model_mod.Decoder(cfg, make_init(42))
        pyr = self._pyramid(cfg, 16, 24, "f64")
        monkeypatch.setattr(T, "BLOCK_BYTES", 5 * cfg.concat_channels * 24 * 8)
        with GradTape() as tape:
            out = dec(pyr)
        assert [node.name for node in tape.nodes] == (["slice_rows"] + self.DECODER_OPS) * 4 + ["concat"]
        assert [node.out.shape[2] for node in tape.nodes if node.name == "conv2d"][1::2] == [5, 5, 5, 1]
        assert out.shape == (1, 5, 16, 24)
        # One block records no slice of level 1 and no concat of blocks.
        monkeypatch.setattr(T, "BLOCK_BYTES", 1 << 40)
        with GradTape() as tape:
            dec(pyr)
        assert [node.name for node in tape.nodes] == self.DECODER_OPS

    def test_decoder_blocked_gradients_match_finite_differences(self, monkeypatch):
        # Levels of two channels each on an 8x8 map, in blocks of 3 rows: 3, 3 and 2.
        cfg = dataclasses.replace(micro(num_classes=3), decoder_channels=4, stages=tuple(
            dataclasses.replace(sc, channels=2) for sc in micro().stages))
        dec = model_mod.Decoder(cfg, make_init(44))
        pyr = self._pyramid(cfg, 8, 8, "f64")
        monkeypatch.setattr(T, "BLOCK_BYTES", 3 * cfg.concat_channels * 8 * 8)
        proj = rand_t((1, 3, 8, 8), seed=45)
        params = [dec.fuse.weight, dec.fuse.bias, dec.classify.weight, dec.classify.bias]
        with GradTape() as tape:
            dec(pyr)
        assert sum(node.name == "concat" for node in tape.nodes) == 4
        rows = check_function(lambda args: T.tsum(T.mul(dec(args[:4]), proj)), pyr + params, "decoder")
        assert len(rows) == 8
        assert all(r.ok for r in rows), [(r.name, r.rel_err) for r in rows]

    def test_decoder_no_tape_peak_below_one_concat(self):
        # ipt-t levels of a 256x256 input; one whole forward holds the
        # upsampled levels, their [1, 1024, 64, 64] concat and fuse's output.
        cfg = ipt_t()
        dec = model_mod.Decoder(cfg, make_init(43, dtype="f32"))
        pyr = self._pyramid(cfg, 64, 64, "f32")
        concat = cfg.concat_channels * 64 * 64 * 4
        tracemalloc.start()
        try:
            out = dec(pyr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (1, 150, 64, 64)
        assert peak < concat, f"peak {peak / 2**20:.1f} MiB"

    def test_mask_resolution_arithmetic(self):
        # 512x512 with 150 classes maps to 150 x 128 x 128 logits
        assert (512 // 4, 512 // 4) == (128, 128)
        model = build_model(micro(num_classes=5), seed=0).eval()
        logits = model(rand_t((1, 3, 64, 64), dtype="f32"))
        assert logits.shape == (1, 5, 16, 16)

    def test_indivisible_input_rejected(self):
        model = build_model(micro(), seed=0)
        with pytest.raises(ShapeError, match="32"):
            model.encode(rand_t((1, 3, 48, 48), dtype="f32"))

    def test_inconsistent_pyramid_rejected(self):
        model = build_model(micro(num_classes=4), seed=0).eval()
        f1, f2, f3, f4 = model.encode(rand_t((1, 3, 64, 64), dtype="f32"))
        with pytest.raises(ShapeError, match="pyramid"):
            model.decoder([f1, f3, f2, f4])
        # Three levels of the right sizes fail fuse's channel check.
        with pytest.raises(ShapeError):
            model.decoder([f1, f2, f3])

    def test_forward_deterministic(self):
        model = build_model(micro(num_classes=4), seed=3).eval()
        x = rand_t((2, 3, 64, 64), seed=21, dtype="f32")
        np.testing.assert_array_equal(model(x).data, model(x).data)

    def test_build_deterministic(self):
        a = build_model(micro(), seed=5)
        b = build_model(micro(), seed=5)
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_zero_blocks_degenerate_to_linear_path(self):
        model = build_model(micro(num_classes=4), seed=6).eval()
        for name, p in model.parameter_store().items():
            if "/attn/" in name and "reduce/ln" not in name and "reduce/dw" not in name:
                p.data[...] = 0.0
            if "/ffn/fc1" in name or "/ffn/dw" in name or "/ffn/fc2" in name:
                p.data[...] = 0.0
        x = rand_t((1, 3, 64, 64), seed=22, dtype="f32")
        got = model(x).data

        # reference: pure patch-embed chain into the decoder
        feats = []
        y = x
        for i in range(1, 5):
            y = getattr(model, f"stage{i}").patch(y)
            feats.append(y)
        want = model.decoder(feats).data
        np.testing.assert_array_equal(got, want)
