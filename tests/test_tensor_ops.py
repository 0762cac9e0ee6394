"""Forward-op unit tests against hand and brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import avg_pool_loops, bilinear_pixel_oracle, conv2d_loops, int_valued, interp_matrix_loops, make_init

from incepformer import tensor as T
from incepformer.errors import ConfigError, ContractError, NumericsError, ShapeError
from incepformer.gradcheck import check_function
from incepformer.modules import Conv2d
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
        out = T.conv2d(x, w, t64([0.5]))
        assert out.shape == (1, 1, 1, 1)
        assert out.data[0, 0, 0, 0] == 10.5

    # ksp = (kernel, stride, padding, groups).  Dense convs have 2 output
    # channels and tile their input (k = s in {1, 2, 4} and a 2x3 tile);
    # depthwise ones (groups == C) use the model's geometries with
    # reduction R = 4: the 1xR and Rx1 strips, the strided 3x3 and the 3x3.
    @pytest.mark.parametrize("shape,ksp", [
        ((2, 3, 5, 5), ((1, 1), (1, 1), (0, 0), 1)),
        ((1, 1, 4, 6), ((2, 2), (2, 2), (0, 0), 1)),
        ((2, 3, 8, 8), ((4, 4), (4, 4), (0, 0), 1)),
        ((1, 2, 4, 9), ((2, 3), (2, 3), (0, 0), 1)),
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
        got = T.conv2d(t64(x), t64(w), t64(b), stride=stride, padding=padding, groups=groups)
        want = conv2d_loops(x, w, b, stride, padding, groups)
        assert (got.data == want).all()  # exactly representable values

    def test_matches_loop_oracle_float(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 3, 8, 6))
        w = rng.standard_normal((4, 3, 2, 2))
        b = rng.standard_normal(4)
        got = T.conv2d(t64(x), t64(w), t64(b), stride=(2, 2))
        want = conv2d_loops(x, w, b, (2, 2), (0, 0), 1)
        np.testing.assert_allclose(got.data, want, rtol=1e-13, atol=1e-13)

    def test_depthwise_equals_per_channel_loop(self):
        rng = np.random.default_rng(9)
        c = 4
        x = int_valued(rng, (2, c, 6, 6))
        w = int_valued(rng, (c, 1, 3, 3))
        b = int_valued(rng, (c,))
        full = T.conv2d(t64(x), t64(w), t64(b), stride=(1, 1), padding=(1, 1), groups=c)
        per = [
            T.conv2d(t64(x[:, i : i + 1]), t64(w[i : i + 1]), t64(b[i : i + 1]),
                     stride=(1, 1), padding=(1, 1)).data
            for i in range(c)
        ]
        assert np.abs(full.data - np.concatenate(per, axis=1)).max() == 0.0

    def test_groups_must_divide(self):
        x = t64(np.zeros((1, 3, 4, 4)))
        w = t64(np.zeros((4, 1, 1, 1)))
        with pytest.raises(ConfigError):
            T.conv2d(x, w, t64(np.zeros(4)), groups=2)
        # Groups that divide the channels but are neither dense nor depthwise.
        for cin, cout, groups in ((4, 4, 2), (3, 6, 3)):
            x = t64(np.zeros((1, cin, 4, 4)))
            w = t64(np.zeros((cout, cin // groups, 1, 1)))
            with pytest.raises(ConfigError):
                T.conv2d(x, w, t64(np.zeros(cout)), groups=groups)
            with pytest.raises(ConfigError):
                Conv2d(cin, cout, 1, groups=groups, init=make_init())

    @pytest.mark.parametrize("kernel,stride,padding", [
        ((2, 2), (1, 1), (0, 0)),  # overlapping tiles
        ((2, 2), (2, 2), (1, 1)),  # padded tiles
        ((1, 1), (1, 1), (1, 1)),  # padded 1x1
        ((3, 3), (3, 1), (0, 0)),
    ])
    def test_dense_must_tile(self, kernel, stride, padding):
        x = t64(np.zeros((1, 2, 6, 6)))
        w = t64(np.zeros((3, 2) + kernel))
        with pytest.raises(ConfigError, match="tiles"):
            T.conv2d(x, w, t64(np.zeros(3)), stride=stride, padding=padding)
        with pytest.raises(ConfigError, match="tiles"):
            Conv2d(2, 3, kernel, stride=stride, padding=padding, init=make_init())

    def test_dense_indivisible_input(self):
        x = t64(np.zeros((1, 2, 6, 5)))
        w = t64(np.zeros((3, 2, 2, 2)))
        with pytest.raises(ShapeError, match="divisible"):
            T.conv2d(x, w, t64(np.zeros(3)), stride=(2, 2))

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_1x1_equals_direct_matmul_bitwise(self, dtype):
        rng = np.random.default_rng(12)
        n, cin, cout, h, wd = 2, 5, 3, 4, 6
        x = T.parameter(rng.standard_normal((n, cin, h, wd)), dtype=dtype)
        w = T.parameter(rng.standard_normal((cout, cin, 1, 1)), dtype=dtype)
        b = T.parameter(rng.standard_normal(cout), dtype=dtype)
        g = Tensor(rng.standard_normal((n, cout, h, wd)), dtype=dtype)
        with T.GradTape() as tape:
            out = T.conv2d(x, w, b)
            loss = T.tsum(T.mul(out, g))
        T.backward(loss, tape)
        x3, w2, g3 = x.data.reshape(n, cin, h * wd), w.data.reshape(cout, cin), g.data.reshape(n, cout, h * wd)
        want = np.matmul(w2, x3).reshape(n, cout, h, wd) + b.data[None, :, None, None]
        assert out.data.tobytes() == want.tobytes()
        assert x.grad.tobytes() == np.matmul(w2.T, g3).tobytes()
        assert w.grad.tobytes() == np.matmul(g3, x3.transpose(0, 2, 1)).sum(axis=0).tobytes()
        assert b.grad.tobytes() == g.data.sum(axis=(0, 2, 3)).tobytes()

    def test_kernel_too_large(self):
        x = t64(np.zeros((1, 1, 3, 3)))
        w = t64(np.zeros((1, 1, 5, 5)))
        with pytest.raises(ShapeError, match="height"):
            T.conv2d(x, w, t64(np.zeros(1)))


class TestDepthwiseBlocking:
    """Channel blocking of the depthwise conv must not change a bit of the
    output or of any gradient."""

    @staticmethod
    def run(shape, kernel, stride, padding, dtype, budget, monkeypatch):
        monkeypatch.setattr(T, "BLOCK_BYTES", budget)
        rng = np.random.default_rng(21)
        c = shape[1]
        x = T.parameter(rng.standard_normal(shape), dtype=dtype)
        w = T.parameter(rng.standard_normal((c, 1) + kernel), dtype=dtype)
        b = T.parameter(rng.standard_normal(c), dtype=dtype)
        with T.GradTape() as tape:
            out = T.conv2d(x, w, b, stride=stride, padding=padding, groups=c)
            proj = Tensor(rng.standard_normal(out.shape), dtype=dtype)
            loss = T.tsum(T.mul(out, proj))
        T.backward(loss, tape)
        return [out.data, x.grad, w.grad, b.grad]

    # C = 5 channels: a two-channel budget leaves a ragged last block of one.
    @pytest.mark.parametrize("shape,kernel,stride,padding", [
        ((1, 5, 12, 10), (3, 3), (1, 1), (1, 1)),
        ((2, 5, 9, 7), (3, 3), (1, 1), (1, 1)),
        ((2, 5, 9, 7), (3, 3), (4, 4), (1, 1)),
        ((1, 5, 8, 16), (1, 4), (1, 4), (0, 0)),
        ((2, 5, 16, 8), (4, 1), (4, 1), (0, 0)),
    ])
    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_blocked_equals_unblocked_bitwise(self, shape, kernel, stride, padding, dtype, monkeypatch):
        n, _, h, w = shape
        (kh, kw), (sh, sw), (ph, pw) = kernel, stride, padding
        ho, wo = (h + 2 * ph - kh) // sh + 1, (w + 2 * pw - kw) // sw + 1
        wide = (sh, sw) == (1, 1)
        cols = w + 2 * pw if wide else wo
        item = np.dtype(T.DTYPES[dtype]).itemsize
        # Bytes one channel of a block takes (see _conv2d_depthwise).
        per_channel = n * ((h + 2 * ph + wide) * (w + 2 * pw) + 2 * ho * cols) * item
        whole = self.run(shape, kernel, stride, padding, dtype, 1 << 40, monkeypatch)
        for budget in (1, 2 * per_channel, 3 * per_channel):
            blocked = self.run(shape, kernel, stride, padding, dtype, budget, monkeypatch)
            for got, want in zip(blocked, whole):
                assert got.tobytes() == want.tobytes()


class TestAvgPool:
    def test_identity(self):
        x = t64(np.random.default_rng(0).standard_normal((1, 2, 3, 3)))
        np.testing.assert_array_equal(T.avg_pool2d(x, 1).data, x.data)

    def test_hand_mean(self):
        x = t64([[[[1.0, 2.0], [3.0, 4.0]]]])
        assert T.avg_pool2d(x, 2).data[0, 0, 0, 0] == 2.5

    def test_constant(self):
        x = t64(np.full((1, 1, 6, 6), 3.25))
        out = T.avg_pool2d(x, 3)
        assert (out.data == 3.25).all()

    # The model's reduction ratios R.
    @pytest.mark.parametrize("r", [2, 4, 8])
    def test_matches_loop_oracle_bitwise(self, r):
        x = int_valued(np.random.default_rng(r), (2, 3, 2 * r, 3 * r))
        got = T.avg_pool2d(t64(x), r)
        assert got.data.tobytes() == avg_pool_loops(x, r).tobytes()

    # Non-integer values over six decades, so the summation order shows in
    # the rounding: k covers the model's ratios, odd kernels and windows of
    # up to 256 taps; output widths 1 and 3.
    @staticmethod
    def _spread_values(k, wo):
        rng = np.random.default_rng(100 * k + wo)
        shape = (2, 3, 2 * k, wo * k)
        return rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)

    @pytest.mark.parametrize("k", [2, 3, 4, 8, 9, 16])
    @pytest.mark.parametrize("wo", [1, 3])
    def test_bitwise_equals_loop_oracle_f64(self, k, wo):
        x = self._spread_values(k, wo)
        got = T.avg_pool2d(t64(x), k).data
        assert got.dtype == np.float64 and got.tobytes() == avg_pool_loops(x, k).tobytes()

    # Each f32 add rounds its partial sum, so the error is counted in ulps of
    # the window's mean magnitude; cancellation can make the mean itself far
    # smaller.
    @pytest.mark.parametrize("k", [2, 3, 4, 8, 9, 16])
    @pytest.mark.parametrize("wo", [1, 3])
    def test_f32_within_ulps_of_f64_oracle(self, k, wo):
        x = self._spread_values(k, wo).astype(np.float32)
        got = T.avg_pool2d(Tensor(x), k).data
        want = avg_pool_loops(x.astype(np.float64), k)
        scale = np.spacing(avg_pool_loops(np.abs(x).astype(np.float64), k).astype(np.float32))
        assert got.dtype == np.float32
        assert (np.abs(got - want) <= 4 * scale).all()

    def test_input_not_a_multiple_of_kernel(self):
        with pytest.raises(ShapeError):
            T.avg_pool2d(t64(np.zeros((1, 1, 6, 8))), 4)

    def test_kernel_exceeds_input(self):
        with pytest.raises(ShapeError):
            T.avg_pool2d(t64(np.zeros((1, 1, 2, 2))), 3)


class TestBatchNorm:
    def test_eval_identity_statistics(self):
        x = t64(np.random.default_rng(1).standard_normal((2, 3, 2, 2)))
        g, b = t64(np.ones(3)), t64(np.zeros(3))
        out = T.batch_norm2d(x, g, b, np.zeros(3), np.ones(3), training=False)
        np.testing.assert_allclose(out.data, x.data / np.sqrt(1.0 + T.NORM_EPS), rtol=0, atol=1e-15)

    def test_train_hand_case(self):
        x = t64(np.array([1.0, 3.0]).reshape(1, 1, 1, 2))
        g, b = t64(np.ones(1)), t64(np.zeros(1))
        out = T.batch_norm2d(x, g, b, np.zeros(1), np.ones(1), training=True)
        np.testing.assert_array_equal(out.data.reshape(-1), np.array([-1.0, 1.0]) * (1.0 / np.sqrt(1.0 + T.NORM_EPS)))

    def test_affine_collapse(self):
        x = t64(np.random.default_rng(2).standard_normal((2, 2, 3, 3)))
        g, b = t64(np.zeros(2)), t64(np.array([5.0, -1.0]))
        out = T.batch_norm2d(x, g, b, np.zeros(2), np.ones(2), training=True)
        assert (out.data[:, 0] == 5.0).all() and (out.data[:, 1] == -1.0).all()

    def test_degenerate_statistics(self):
        x = t64(np.ones((1, 2, 1, 1)))
        g, b = t64(np.ones(2)), t64(np.zeros(2))
        with pytest.raises(NumericsError, match="degenerate"):
            T.batch_norm2d(x, g, b, np.zeros(2), np.ones(2), training=True)

    def test_running_stats_update(self):
        x = t64(np.array([2.0, 4.0]).reshape(1, 1, 1, 2))
        g, b = t64(np.ones(1)), t64(np.zeros(1))
        rm, rv = np.zeros(1), np.ones(1)
        T.batch_norm2d(x, g, b, rm, rv, training=True)
        assert T.BN_MOMENTUM == 0.1
        assert rm[0] == pytest.approx(0.3)  # 0.9*0 + 0.1*3
        assert rv[0] == pytest.approx(1.0)  # 0.9*1 + 0.1*1 (biased var of {2,4})

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equals_direct_expression(self, training, dtype):
        rng = np.random.default_rng(11)
        x, g, b = (rng.standard_normal(s).astype(dtype) for s in ((2, 3, 4, 5), (3,), (3,)))
        rm, rv = rng.standard_normal(3).astype(dtype), rng.uniform(0.5, 2.0, 3).astype(dtype)
        upstream = rng.standard_normal(x.shape).astype(dtype)
        xt, gt, bt = (T.parameter(a) for a in (x, g, b))
        with T.GradTape() as tape:
            out = T.batch_norm2d(xt, gt, bt, rm.copy(), rv.copy(), training=training)
            loss = T.tsum(T.mul(out, Tensor(upstream)))
        T.backward(loss, tape)

        col = lambda v: v[None, :, None, None]
        m = x.size // 3
        mu, var = (x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))) if training else (rm, rv)
        inv = col(1.0 / np.sqrt(var + T.NORM_EPS))
        xhat = (x - col(mu)) * inv
        dxhat = upstream * col(g)
        if training:
            s1, s2 = dxhat.sum(axis=(0, 2, 3)), (dxhat * xhat).sum(axis=(0, 2, 3))
            gx = (inv / m) * (m * dxhat - col(s1) - xhat * col(s2))
        else:
            gx = dxhat * inv
        want = [col(g) * xhat + col(b), gx, (upstream * xhat).sum(axis=(0, 2, 3)),
                upstream.sum(axis=(0, 2, 3))]
        for got, exp in zip([out.data, xt.grad, gt.grad, bt.grad], want):
            assert got.dtype == dtype and got.tobytes() == exp.tobytes()

    def test_zero_variance_outputs_bias(self):
        x = t64(np.full((1, 1, 1, 3), 7.0))
        g, b = t64(np.ones(1)), t64(np.array([0.25]))
        out = T.batch_norm2d(x, g, b, np.zeros(1), np.ones(1), training=True)
        assert (out.data == 0.25).all()

    @pytest.mark.parametrize("var", [-1.0, -1e-5])
    def test_negative_running_variance_raises(self, var):
        # Such a variance once made channel 0 its beta, 0.5, with at most a RuntimeWarning.
        x = t64(np.random.default_rng(5).standard_normal((1, 2, 2, 2)))
        g, b = t64(np.ones(2)), t64(np.array([0.5, 0.0]))
        with pytest.raises(NumericsError, match="batch_norm2d running variance is negative in channel 0"):
            T.batch_norm2d(x, g, b, np.zeros(2), np.array([var, 1.0]), training=False)


class TestLayerNorm:
    def test_constant_row_is_zero(self):
        x = t64(np.full((2, 4), 3.0))
        out = T.layer_norm(x, t64(np.ones(4)), t64(np.zeros(4)))
        assert (out.data == 0.0).all()

    def test_hand_case(self):
        out = T.layer_norm(t64([[1.0, 2.0, 3.0]]), t64(np.ones(3)), t64(np.zeros(3)))
        np.testing.assert_allclose(out.data[0], [-1.224736, 0.0, 1.224736], atol=1e-6)
        np.testing.assert_allclose(out.data[0], np.array([-1.0, 0.0, 1.0]) / np.sqrt(2 / 3 + T.NORM_EPS), atol=1e-12)

    @pytest.mark.parametrize("shape", [(6, 5), (2, 7, 5)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equals_direct_expression(self, shape, dtype):
        rng = np.random.default_rng(12)
        x, g, b = (rng.standard_normal(s).astype(dtype) for s in (shape, (5,), (5,)))
        x.reshape(-1, 5)[1] = 0.75  # a constant row: zero variance, output beta
        upstream = rng.standard_normal(shape).astype(dtype)
        xt, gt, bt = (T.parameter(a) for a in (x, g, b))
        with T.GradTape() as tape:
            out = T.layer_norm(xt, gt, bt)
            loss = T.tsum(T.mul(out, Tensor(upstream)))
        T.backward(loss, tape)

        lead = tuple(range(x.ndim - 1))
        mu, var = x.mean(axis=-1, keepdims=True), x.var(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + T.NORM_EPS)
        xhat = (x - mu) * inv
        dxhat = upstream * g
        s1, s2 = dxhat.sum(axis=-1, keepdims=True), (dxhat * xhat).sum(axis=-1, keepdims=True)
        gx = (inv / 5) * (5 * dxhat - s1 - xhat * s2)
        want = [xhat * g + b, gx, (upstream * xhat).sum(axis=lead), upstream.sum(axis=lead)]
        assert (out.data.reshape(-1, 5)[1] == b).all()
        for got, exp in zip([out.data, xt.grad, gt.grad, bt.grad], want):
            assert got.dtype == dtype and got.tobytes() == exp.tobytes()


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equals_direct_expression(self, dtype):
        x = (np.random.default_rng(6).standard_normal((3, 4, 50)) * 8).astype(dtype)
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        assert T.softmax(Tensor(x), axis=-1).data.tobytes() == (e / e.sum(axis=-1, keepdims=True)).tobytes()

    # Blocks of scores with none below the clamp floor and with some: both
    # are bitwise the clamped expression written out step by step.
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("spread,below", [(8.0, False), (1e3, True)])
    def test_bitwise_equals_always_clamped(self, dtype, spread, below):
        x = (np.random.default_rng(7).standard_normal((4, 16, 96)) * spread).astype(dtype)
        y = x - x.max(axis=-1, keepdims=True)
        floor = dtype(np.log(float(np.finfo(dtype).tiny)) + np.log(x.shape[-1]))
        assert (y < floor).any() == below
        np.maximum(y, floor, out=y)
        np.exp(y, out=y)
        y /= y.sum(axis=-1, keepdims=True)
        assert T.softmax(Tensor(x), axis=-1).data.tobytes() == y.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_floor_makes_no_subnormals_and_moves_entries_by_under_lk_tiny(self, dtype):
        lk = 768
        tiny = float(np.finfo(dtype).tiny)
        floor = np.log(tiny) + np.log(lk)
        rng = np.random.default_rng(11)
        # Shifted scores (the max is 0) across the floor and down past where
        # exp underflows to subnormals and to zero.  Only two more scores lie
        # far above the floor, so each row's sum is near 1, where a clamped
        # entry's move comes nearest Lk * tiny.
        offsets = np.concatenate([[0.0], -rng.uniform(3, 6, 2),
                                  floor + rng.uniform(-3, 3, 300), floor - rng.uniform(3, 700, 465)])
        x = np.stack([offsets, rng.permutation(offsets) + 2.5]).astype(dtype)
        got = T.softmax(Tensor(x), axis=-1).data
        x64 = x.astype(np.float64)
        e = np.exp(x64 - x64.max(axis=-1, keepdims=True))
        want = e / e.sum(axis=-1, keepdims=True)
        assert ((want > 0) & (want < tiny)).any()  # the textbook rows hold subnormals
        assert not ((got > 0) & (got < tiny)).any()
        rounding = 4 * np.finfo(dtype).eps * want
        assert (np.abs(got - want) <= lk * tiny + rounding).all()

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
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_interp_matrix_matches_row_loop_bitwise(self, align, dtype):
        for n_in in [*range(1, 40), 64, 128, 255, 512]:
            for n_out in [*range(1, 40), 64, 100, 128, 256, 512, 1024]:
                got = T.interp_matrix(n_in, n_out, align, dtype)
                want = interp_matrix_loops(n_in, n_out, align, dtype)
                assert got.dtype == dtype and got.tobytes() == want.tobytes(), (n_in, n_out)

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

    @pytest.mark.parametrize("h, w, out_h, out_w", [
        (5, 3, 10, 6),     # 2x
        (3, 4, 12, 16),    # 4x
        (2, 3, 16, 24),    # 8x
        (4, 6, 7, 10),     # non-integer ratios
        (17, 9, 5, 4),     # downsampling: the first and last blocks read a band
    ])
    def test_row_blocks_equal_rows_of_full(self, h, w, out_h, out_w):
        # Blocks of 3 rows, the last one ragged unless 3 divides out_h.
        x = t64(np.random.default_rng(out_h).standard_normal((2, 3, h, w)))
        full = T.bilinear_upsample(x, out_h, out_w).data
        for r0 in range(0, out_h, 3):
            r1 = min(r0 + 3, out_h)
            got = T.bilinear_upsample(x, out_h, out_w, rows=(r0, r1)).data
            assert got.shape == (2, 3, r1 - r0, out_w)
            np.testing.assert_allclose(got, full[:, :, r0:r1], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("rows", [(6, 10), (0, 16), (15, 16)])
    def test_row_block_gradcheck_4x(self, rows):
        # 4x3 to 16x12: rows 6:10 read input rows 1:3 only, so the adjoint
        # is zero on rows 0 and 3.
        rng = np.random.default_rng(11)
        x = t64(rng.standard_normal((2, 2, 4, 3)), grad=True)
        weight = t64(rng.standard_normal((2, 2, rows[1] - rows[0], 12)))
        rows_out = check_function(
            lambda a: T.tsum(T.mul(T.bilinear_upsample(a[0], 16, 12, rows=rows), weight)), [x], "up_rows")
        assert all(r.ok for r in rows_out), [(r.name, r.rel_err) for r in rows_out]

    @pytest.mark.parametrize("rows", [(3, 3), (4, 2), (-1, 2), (0, 13), (12, 13)])
    def test_empty_or_out_of_range_rows_rejected(self, rows):
        with pytest.raises(ShapeError, match="rows"):
            T.bilinear_upsample(t64(np.zeros((1, 1, 3, 4))), 12, 16, rows=rows)


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dtype,values", [
        (np.float32, [2e19, 1e20, -1e20, 3e38, -3e38]),
        (np.float64, [1e20, -1e20, 1e200, -1e200]),
    ], ids=["f32", "f64"])
    def test_gelu_saturates_at_huge_inputs(self, dtype, values):
        # The cube, and in the backward d * d, overflow; the values and
        # gradients are the saturated ones, with no warning.
        d = np.array(values, dtype=dtype)
        x = T.parameter(d)
        with T.GradTape() as tape:
            out = T.gelu(x)
            loss = T.tsum(out)
        T.backward(loss, tape)
        np.testing.assert_array_equal(out.data, np.where(d > 0, d, 0))
        np.testing.assert_array_equal(x.grad, np.where(d > 0, 1, 0))

    def test_relu(self):
        out = T.relu(t64([-1.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 2.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_bitwise_equals_direct_expressions(self, dtype):
        # Forward and backward round exactly like these expressions,
        # subnormal and near-zero inputs included.
        tiny = [1e-39, -1e-39, 5e-45, -5e-45, 2.5e-38, -2.5e-38, 0.0, -0.0]
        # Around and past GELU_CLIP, where the backward clips x in one factor
        # (in f32 the cube overflows from about 7e12).
        wide = [s * v for v in (8.0, 40.0, 999.0, 1000.0, 1001.0, 1e6, 1e12, 1e18) for s in (1, -1)]
        d = np.concatenate([np.random.default_rng(3).standard_normal(500) * 4, tiny, wide]).astype(dtype)
        g = np.random.default_rng(4).standard_normal(d.shape).astype(dtype)
        x = T.parameter(d)
        with T.GradTape() as tape:
            out = T.gelu(x)
            loss = T.tsum(T.mul(out, Tensor(g)))
        T.backward(loss, tape)
        c, k = T.GELU_COEF, T.GELU_CUBIC
        with np.errstate(over="ignore"):
            t = np.tanh(c * (d + k * d * d * d))
            want = 0.5 * d * (1.0 + t)
            local = 0.5 * (1.0 + t) + 0.5 * d * (1.0 - t * t) * (c * (1.0 + 3.0 * k * d * d))
        assert out.data.tobytes() == want.tobytes()
        assert x.grad.tobytes() == (g * local).tobytes()
        # Past the clip the clipped factor scales (1 - t * t), already 0 there.
        clip = dtype(T.GELU_CLIP)
        assert np.tanh(dtype(c) * (clip + dtype(k) * clip**3)) == 1
        # Near the top of the range 0.5 * d * (1 + t) is finite where
        # (1 + t) * d would overflow.
        huge = np.array([3e38, -3e38, 1.7e38], dtype=dtype)
        with np.errstate(over="ignore"):
            t = np.tanh(c * (huge + k * huge * huge * huge))
            assert T.gelu(Tensor(huge)).data.tobytes() == (0.5 * huge * (1.0 + t)).tobytes()


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

    @pytest.mark.parametrize("c", [7, 8, 13, 64])
    def test_img2seq_equals_one_transposing_copy(self, c):
        x = np.random.default_rng(c).standard_normal((2, c, 4, 6)).astype(np.float32)
        got = T.img2seq(Tensor(x))
        assert got.data.tobytes() == x.transpose(0, 2, 3, 1).reshape(2, 24, c).tobytes()

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
           st.integers(0, 10 ** 6))
    def test_round_trip_property(self, n, c, h, w, seed):
        x = np.random.default_rng(seed).standard_normal((n, c, h, w))
        back = T.seq2img(T.img2seq(t64(x)), h, w)
        np.testing.assert_array_equal(back.data, x)


class TestSliceRows:
    def test_rows_of_second_to_last_axis(self):
        x = t64(np.random.default_rng(12).standard_normal((2, 3, 5, 4)))
        np.testing.assert_array_equal(T.slice_rows(x, 1, 4).data, x.data[:, :, 1:4])

    @pytest.mark.parametrize("shape, r0, r1", [((2, 5, 3), 2, 2), ((2, 5, 3), 3, 1), ((2, 5, 3), -1, 2),
                                               ((2, 5, 3), 0, 6), ((2, 5, 3), 5, 6), ((4,), 0, 1)])
    def test_empty_or_out_of_range_rows_rejected(self, shape, r0, r1):
        with pytest.raises(ShapeError, match="slice_rows"):
            T.slice_rows(t64(np.zeros(shape)), r0, r1)


    def test_all_rows_is_the_input_unrecorded(self):
        x = t64(np.zeros((2, 5, 3)), grad=True)
        with T.GradTape() as tape:
            assert T.slice_rows(x, 0, 5) is x
            assert T.concat([x], axis=1) is x
        assert len(tape) == 0


class TestBlockRanges:
    def test_cover_with_ragged_last_block(self, monkeypatch):
        monkeypatch.setattr(T, "BLOCK_BYTES", 3 * 8)
        assert T.block_ranges(10, 8) == [(0, 3), (3, 6), (6, 9), (9, 10)]
        assert T.block_ranges(9, 8) == [(0, 3), (3, 6), (6, 9)]
        assert T.block_ranges(2, 8) == [(0, 2)]

    def test_one_item_per_block_past_the_budget(self, monkeypatch):
        monkeypatch.setattr(T, "BLOCK_BYTES", 100)
        assert T.block_ranges(3, 101) == [(0, 1), (1, 2), (2, 3)]


@pytest.mark.filterwarnings("error")
class TestAllFinite:
    """_check_finite raises NumericsError naming the op exactly when a value
    is NaN or infinite, and warns of nothing, huge finite values
    included."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("planted", [np.nan, np.inf, -np.inf, 3e38, -3e38, 1e20])
    @pytest.mark.parametrize("shape,at", [((), ()), ((7,), (6,)), ((3, 4, 5), (2, 0, 3)),
                                          ((200_000,), (199_999,)), ((200_000,), (70_000,))])
    def test_planted_values(self, dtype, planted, shape, at):
        a = np.random.default_rng(5).standard_normal(shape).astype(dtype)
        a.flat[0] = planted  # two copies: the first value and the one at `at`
        a[at] = planted
        if np.isfinite(planted):  # huge but finite in both dtypes
            T._check_finite(a, "probe")
        else:
            with pytest.raises(NumericsError, match="probe produced non-finite"):
                T._check_finite(a, "probe")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("planted", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("size", [1, 9, 4097, 300_001])
    @pytest.mark.parametrize("where", ["first", "mid", "last"])
    def test_one_bad_value_anywhere_raises_naming_the_op(self, dtype, planted, size, where):
        a = np.random.default_rng(size).standard_normal(size).astype(dtype)
        a[{"first": 0, "mid": size // 2, "last": -1}[where]] = planted
        with pytest.raises(NumericsError, match="^scale produced non-finite values$"):
            T.scale(Tensor(a), 1.0)

    def test_size_zero_passes(self):
        T._check_finite(np.zeros((0, 3), dtype=np.float32), "probe")


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

    @pytest.mark.parametrize("op", [
        lambda: T.add(t64(np.zeros((2, 3))), t64(np.zeros((2, 4)))),
        lambda: T.mul(t64(np.zeros((2, 3))), t64(np.zeros((3, 2)))),
        lambda: T.add(t64(np.zeros((2, 3, 4))), t64(np.zeros((4,)))),
        lambda: T.mul(t64(np.zeros((2, 3, 4))), t64(np.zeros((4,)))),
        lambda: T.concat([t64(np.zeros((2, 3))), t64(np.zeros((3, 3)))], axis=1),
        lambda: T.concat([t64(np.zeros((2, 3))), t64(np.zeros((2, 3)))], axis=2),
        lambda: T.seq2img(t64(np.zeros((1, 6, 2))), -2, -3),
    ], ids=["add", "mul", "add_broadcastable", "mul_broadcastable", "concat_extent", "concat_axis",
            "seq2img_negative"])
    def test_shape_errors_are_typed(self, op):
        with pytest.raises(ShapeError, match=r"(add|mul|concat|seq2img).*\(\d"):
            op()

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
        w = rng.standard_normal((4, 3, 2, 2))
        b = rng.standard_normal(4)
        one = T.conv2d(t64(x), t64(w), t64(b), stride=(2, 2)).data
        two = T.conv2d(t64(x), t64(w), t64(b), stride=(2, 2)).data
        np.testing.assert_array_equal(one, two)
