"""Forward-op unit tests against hand and brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import bilinear_pixel_oracle, conv2d_loops, int_valued

from incepformer import tensor as T
from incepformer.errors import ConfigError, ContractError, NumericsError, ShapeError
from incepformer.tensor import Tensor


def t64(data, grad=False):
    return Tensor(data, dtype="f64", requires_grad=grad)


class TestConv2d:
    def test_identity_depthwise_1x1(self):
        x = t64(np.random.default_rng(0).standard_normal((2, 3, 4, 5)))
        w = t64(np.ones((3, 1, 1, 1)))
        b = t64(np.zeros(3))
        out = T.conv2d(x, w, b, stride=(1, 1), padding=(0, 0), groups=3)
        np.testing.assert_array_equal(out.data, x.data)

    def test_hand_2x2_sum(self):
        x = t64([[[[1.0, 2.0], [3.0, 4.0]]]])
        w = t64(np.ones((1, 1, 2, 2)))
        out = T.conv2d(x, w)
        assert out.shape == (1, 1, 1, 1)
        assert out.data[0, 0, 0, 0] == 10.0

    # ksp = (kernel, stride, padding, groups).  Dense convs have 2 output
    # channels; depthwise ones (groups == C) use the model's geometries with
    # reduction R = 4: the 1xR and Rx1 strips, the strided 3x3 and the 3x3.
    @pytest.mark.parametrize("shape,ksp", [
        ((1, 1, 3, 3), ((2, 2), (1, 1), (0, 0), 1)),
        ((2, 3, 5, 5), ((3, 3), (1, 1), (0, 0), 1)),
        ((2, 3, 5, 5), ((3, 3), (2, 2), (1, 1), 1)),
        ((1, 2, 4, 5), ((2, 3), (2, 1), (0, 1), 1)),
        ((2, 3, 8, 8), ((1, 4), (1, 4), (0, 0), 3)),
        ((2, 3, 8, 8), ((4, 1), (4, 1), (0, 0), 3)),
        ((2, 3, 8, 8), ((3, 3), (4, 4), (1, 1), 3)),
        ((2, 3, 9, 7), ((3, 3), (4, 4), (1, 1), 3)),
        ((2, 3, 8, 8), ((3, 3), (1, 1), (1, 1), 3)),
        ((2, 3, 5, 7), ((3, 3), (1, 1), (1, 1), 3)),
    ])
    def test_matches_loop_oracle_bitwise(self, shape, ksp):
        (kh, kw), stride, padding, groups = ksp
        cout = 2 if groups == 1 else shape[1]
        rng = np.random.default_rng(7)
        x = int_valued(rng, shape)
        w = int_valued(rng, (cout, shape[1] // groups, kh, kw))
        b = int_valued(rng, (cout,))
        for bias in (b, None):
            got = T.conv2d(t64(x), t64(w), None if bias is None else t64(bias),
                           stride=stride, padding=padding, groups=groups)
            want = conv2d_loops(x, w, bias, stride, padding, groups)
            assert (got.data == want).all()  # exactly representable values

    def test_matches_loop_oracle_float(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 3, 5, 5))
        w = rng.standard_normal((4, 3, 3, 3))
        got = T.conv2d(t64(x), t64(w), stride=(1, 1), padding=(1, 1))
        want = conv2d_loops(x, w, None, (1, 1), (1, 1), 1)
        np.testing.assert_allclose(got.data, want, rtol=1e-13, atol=1e-13)

    def test_depthwise_equals_per_channel_loop(self):
        rng = np.random.default_rng(9)
        c = 4
        x = int_valued(rng, (2, c, 6, 6))
        w = int_valued(rng, (c, 1, 3, 3))
        full = T.conv2d(t64(x), t64(w), stride=(1, 1), padding=(1, 1), groups=c)
        per = [
            T.conv2d(t64(x[:, i : i + 1]), t64(w[i : i + 1]), stride=(1, 1), padding=(1, 1)).data
            for i in range(c)
        ]
        assert np.abs(full.data - np.concatenate(per, axis=1)).max() == 0.0

    def test_groups_must_divide(self):
        x = t64(np.zeros((1, 3, 4, 4)))
        w = t64(np.zeros((4, 1, 1, 1)))
        with pytest.raises(ConfigError):
            T.conv2d(x, w, groups=2)

    def test_kernel_too_large(self):
        x = t64(np.zeros((1, 1, 3, 3)))
        w = t64(np.zeros((1, 1, 5, 5)))
        with pytest.raises(ShapeError, match="height"):
            T.conv2d(x, w)


class TestAvgPool:
    def test_identity(self):
        x = t64(np.random.default_rng(0).standard_normal((1, 2, 3, 3)))
        np.testing.assert_array_equal(T.avg_pool2d(x, 1, 1).data, x.data)

    def test_hand_mean(self):
        x = t64([[[[1.0, 2.0], [3.0, 4.0]]]])
        assert T.avg_pool2d(x, 2, 2).data[0, 0, 0, 0] == 2.5

    def test_constant(self):
        x = t64(np.full((1, 1, 6, 6), 3.25))
        out = T.avg_pool2d(x, 3, 3)
        assert (out.data == 3.25).all()

    def test_kernel_exceeds_input(self):
        with pytest.raises(ShapeError):
            T.avg_pool2d(t64(np.zeros((1, 1, 2, 2))), 3, 1)


class TestBatchNorm:
    def test_eval_identity_statistics(self):
        x = t64(np.random.default_rng(1).standard_normal((2, 3, 2, 2)))
        g, b = t64(np.ones(3)), t64(np.zeros(3))
        out = T.batch_norm2d(x, g, b, np.zeros(3), np.ones(3), mode="eval", eps=0.0)
        np.testing.assert_allclose(out.data, x.data, rtol=0, atol=1e-15)

    def test_train_hand_case(self):
        x = t64(np.array([1.0, 3.0]).reshape(1, 1, 1, 2))
        g, b = t64(np.ones(1)), t64(np.zeros(1))
        out = T.batch_norm2d(x, g, b, np.zeros(1), np.ones(1), mode="train", eps=0.0)
        np.testing.assert_array_equal(out.data.reshape(-1), [-1.0, 1.0])

    def test_affine_collapse(self):
        x = t64(np.random.default_rng(2).standard_normal((2, 2, 3, 3)))
        g, b = t64(np.zeros(2)), t64(np.array([5.0, -1.0]))
        out = T.batch_norm2d(x, g, b, np.zeros(2), np.ones(2), mode="train", eps=1e-5)
        assert (out.data[:, 0] == 5.0).all() and (out.data[:, 1] == -1.0).all()

    def test_degenerate_statistics(self):
        x = t64(np.ones((1, 2, 1, 1)))
        g, b = t64(np.ones(2)), t64(np.zeros(2))
        with pytest.raises(NumericsError, match="degenerate"):
            T.batch_norm2d(x, g, b, np.zeros(2), np.ones(2), mode="train")

    def test_running_stats_update(self):
        x = t64(np.array([2.0, 4.0]).reshape(1, 1, 1, 2))
        g, b = t64(np.ones(1)), t64(np.zeros(1))
        rm, rv = np.zeros(1), np.ones(1)
        T.batch_norm2d(x, g, b, rm, rv, mode="train", momentum=0.5, eps=1e-5)
        assert rm[0] == pytest.approx(1.5)  # 0.5*0 + 0.5*3
        assert rv[0] == pytest.approx(1.0)  # 0.5*1 + 0.5*1 (biased var of {2,4})

    def test_zero_variance_outputs_bias(self):
        x = t64(np.full((1, 1, 1, 3), 7.0))
        g, b = t64(np.ones(1)), t64(np.array([0.25]))
        out = T.batch_norm2d(x, g, b, np.zeros(1), np.ones(1), mode="train", eps=0.0)
        assert (out.data == 0.25).all()


class TestLayerNorm:
    def test_constant_row_is_zero(self):
        x = t64(np.full((2, 4), 3.0))
        out = T.layer_norm(x, t64(np.ones(4)), t64(np.zeros(4)), eps=0.0)
        assert (out.data == 0.0).all()

    def test_hand_case(self):
        out = T.layer_norm(t64([[1.0, 2.0, 3.0]]), t64(np.ones(3)), t64(np.zeros(3)), eps=0.0)
        np.testing.assert_allclose(out.data[0], [-1.224745, 0.0, 1.224745], atol=1e-6)
        np.testing.assert_allclose(out.data[0], [-np.sqrt(1.5), 0.0, np.sqrt(1.5)], atol=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 5))
        g, b = t64(np.ones(5)), t64(np.zeros(5))
        a = T.layer_norm(t64(x), g, b, eps=0.0)
        c = T.layer_norm(t64(2.0 * x), g, b, eps=0.0)
        np.testing.assert_allclose(a.data, c.data, atol=1e-12)


class TestSoftmax:
    def test_uniform(self):
        out = T.softmax(t64(np.zeros((2, 5))), axis=-1)
        np.testing.assert_allclose(out.data, np.full((2, 5), 0.2), atol=1e-15)

    def test_analytic(self):
        out = T.softmax(t64([[0.0, np.log(2.0)]]), axis=-1)
        np.testing.assert_allclose(out.data[0], [1 / 3, 2 / 3], atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 6))
        a = T.softmax(t64(x), axis=1)
        b = T.softmax(t64(x + 123.456), axis=1)
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_large_values_stable(self):
        out = T.softmax(t64([[1e300, 1e300]]), axis=-1)
        np.testing.assert_allclose(out.data[0], [0.5, 0.5])

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(1, 6), st.integers(1, 8), st.integers(0, 10 ** 6))
    def test_rows_sum_to_one(self, rows, cols, seed):
        x = np.random.default_rng(seed).standard_normal((rows, cols)) * 10
        out = T.softmax(t64(x), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(rows), atol=1e-6)


class TestMatmul:
    def test_identity(self):
        a = t64(np.random.default_rng(5).standard_normal((3, 3)))
        out = T.matmul_batched(a, t64(np.eye(3)))
        np.testing.assert_array_equal(out.data, a.data)

    def test_hand_product(self):
        out = T.matmul_batched(t64([[1.0, 2.0], [3.0, 4.0]]), t64([[5.0, 6.0], [7.0, 8.0]]))
        np.testing.assert_array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])

    def test_batch_equals_loop(self):
        rng = np.random.default_rng(6)
        a, b = rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 4, 5))
        got = T.matmul_batched(t64(a), t64(b)).data
        for i in range(2):
            np.testing.assert_allclose(got[i], T.matmul_batched(t64(a[i]), t64(b[i])).data,
                                       atol=1e-13)

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeError, match="inner"):
            T.matmul_batched(t64(np.zeros((2, 3))), t64(np.zeros((4, 2))))


class TestBilinear:
    def test_identity_dims(self):
        x = t64(np.random.default_rng(7).standard_normal((2, 3, 4, 5)))
        out = T.bilinear_upsample(x, 4, 5)
        np.testing.assert_array_equal(out.data, x.data)

    def test_constant_extension(self):
        out = T.bilinear_upsample(t64(np.full((1, 1, 1, 1), 2.5)), 3, 4)
        assert (out.data == 2.5).all()

    @pytest.mark.parametrize("align", [False, True])
    def test_per_pixel_oracle(self, align):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 2))
        got = T.bilinear_upsample(t64(x[None, None]), 4, 4, align_corners=align)
        want = bilinear_pixel_oracle(x, 4, 4, align)
        np.testing.assert_allclose(got.data[0, 0], want, atol=1e-12)

    def test_downsample_oracle(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((5, 7))
        got = T.bilinear_upsample(t64(x[None, None]), 3, 2)
        want = bilinear_pixel_oracle(x, 3, 2, False)
        np.testing.assert_allclose(got.data[0, 0], want, atol=1e-12)


class TestUnaryMaps:
    def test_gelu_fixed_point(self):
        assert T.gelu(t64([0.0])).data[0] == 0.0

    def test_gelu_at_one(self):
        # scalar evaluation of the tanh-approximation formula
        import math

        want = 0.5 * (1.0 + math.tanh(0.7978845608028654 * (1.0 + 0.044715)))
        got = T.gelu(t64([1.0])).data[0]
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.841192, abs=1e-6)

    def test_relu(self):
        out = T.relu(t64([-1.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 2.0])


class TestSeqImg:
    def test_round_trip_bitwise(self):
        x = t64(np.random.default_rng(10).standard_normal((2, 4, 3, 5)))
        back = T.seq2img(T.img2seq(x), 3, 5)
        np.testing.assert_array_equal(back.data, x.data)

    def test_token_order_row_major(self):
        # value encodes (channel, row, col); token k must be (r0c0, r0c1, r1c0, r1c1)[k]
        x = np.arange(1 * 2 * 2 * 2).reshape(1, 2, 2, 2).astype(np.float64)
        seq = T.img2seq(t64(x))
        for tok, (r, c) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            np.testing.assert_array_equal(seq.data[0, tok], x[0, :, r, c])

    def test_token_count_mismatch(self):
        with pytest.raises(ShapeError):
            T.seq2img(t64(np.zeros((1, 5, 2))), 2, 3)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
           st.integers(0, 10 ** 6))
    def test_round_trip_property(self, n, c, h, w, seed):
        x = np.random.default_rng(seed).standard_normal((n, c, h, w))
        back = T.seq2img(T.img2seq(t64(x)), h, w)
        np.testing.assert_array_equal(back.data, x)


class TestEngineContracts:
    def test_non_finite_surfaced(self):
        big = t64([1e308])
        with np.errstate(over="ignore"), pytest.raises(NumericsError):
            T.scale(big, 1e10)

    def test_zero_extent_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 0, 3)))

    def test_dtype_mismatch(self):
        a = Tensor([1.0], dtype="f32")
        b = Tensor([1.0], dtype="f64")
        with pytest.raises(ContractError):
            T.add(a, b)

    def test_pad2d(self):
        x = t64([[[[1.0]]]])
        out = T.pad2d(x, (1, 0, 0, 2))
        assert out.shape == (1, 1, 2, 3)
        assert out.data.sum() == 1.0 and out.data[0, 0, 1, 0] == 1.0

    def test_concat_and_split_backward_shapes(self):
        a, b = t64(np.ones((1, 2))), t64(np.ones((1, 3)))
        assert T.concat([a, b], axis=1).shape == (1, 5)

    def test_determinism_same_inputs(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 3, 8, 8))
        w = rng.standard_normal((4, 3, 3, 3))
        one = T.conv2d(t64(x), t64(w), padding=(1, 1)).data
        two = T.conv2d(t64(x), t64(w), padding=(1, 1)).data
        np.testing.assert_array_equal(one, two)
