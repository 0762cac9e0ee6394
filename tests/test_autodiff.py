"""Tape mechanics, backward correctness and the finite-difference oracle."""

import numpy as np
import pytest

from incepformer import tensor as T
from incepformer.errors import ContractError
from incepformer.gradcheck import check_function, check_op_gradients, finite_diff_grad, rel_error
from incepformer.tensor import GradTape, Tensor, backward


def t64(data, grad=False):
    return Tensor(data, dtype="f64", requires_grad=grad)


class TestTape:
    def test_records_only_inside_context(self):
        x = t64(np.ones(3), grad=True)
        T.scale(x, 2.0)  # no active tape
        with GradTape() as tape:
            T.scale(x, 2.0)
        assert len(tape) == 1

    def test_clear(self):
        x = t64(np.ones(3), grad=True)
        with GradTape() as tape:
            T.scale(x, 2.0)
        tape.clear()
        assert len(tape) == 0

    def test_no_nesting(self):
        with GradTape():
            with pytest.raises(ContractError):
                with GradTape():
                    pass

    def test_untracked_inputs_record_nothing(self):
        x = t64(np.ones(3), grad=False)
        with GradTape() as tape:
            T.scale(x, 2.0)
        assert len(tape) == 0

    def test_non_scalar_loss(self):
        x = t64(np.ones(3), grad=True)
        with GradTape() as tape:
            y = T.scale(x, 2.0)
        with pytest.raises(ContractError, match="scalar"):
            backward(y, tape)


class TestBackward:
    def test_sum_of_squares(self):
        x = t64([1.0, -2.0, 3.0], grad=True)
        with GradTape() as tape:
            loss = T.tsum(T.mul(x, x))
        backward(loss, tape)
        np.testing.assert_allclose(x.grad, 2.0 * x.data, atol=1e-15)

    def test_uninfluential_leaf_gets_zero_grad(self):
        x = t64([1.0, 2.0], grad=True)
        z = t64([3.0], grad=True)
        with GradTape() as tape:
            T.scale(x, 2.0)  # recorded but unused by the loss
            loss = T.tsum(T.mul(z, z))
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, np.zeros(2))
        np.testing.assert_allclose(z.grad, [6.0])

    def test_fanout_accumulates(self):
        x = t64([2.0], grad=True)
        with GradTape() as tape:
            loss = T.tsum(T.add(T.mul(x, x), T.scale(x, 3.0)))  # x^2 + 3x
        backward(loss, tape)
        np.testing.assert_allclose(x.grad, [7.0])

    def test_grad_buffers_reset_between_backwards(self):
        x = t64([1.0], grad=True)
        for _ in range(2):
            with GradTape() as tape:
                loss = T.tsum(T.mul(x, x))
            backward(loss, tape)
        np.testing.assert_allclose(x.grad, [2.0])  # not 4.0

    def test_fanout_gradients_do_not_share_memory(self):
        # add() hands one array to both inputs; x's later use adds into x.grad.
        x = t64([1.0, 2.0], grad=True)
        y = t64([5.0, 7.0], grad=True)
        with GradTape() as tape:
            a = T.scale(x, 3.0)
            s = T.add(x, y)
            loss = T.tsum(T.add(s, a))  # 4x + y
        backward(loss, tape)
        assert not np.shares_memory(x.grad, y.grad)
        np.testing.assert_array_equal(x.grad, [4.0, 4.0])
        np.testing.assert_array_equal(y.grad, [1.0, 1.0])

    def test_leaf_grad_keeps_leaf_dtype(self):
        x = Tensor([1.0, 2.0], dtype="f32", requires_grad=True)
        with GradTape() as tape:
            y = T.record_op(x.data * 2, (x,), lambda g: (g.astype(np.float64) * 2,), "double_f64")
            loss = T.tsum(y)
        backward(loss, tape)
        assert x.grad.dtype == np.float32
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    def test_grads_are_c_contiguous_whatever_closures_return(self):
        # Q's backward returns a transposed view (F-ordered); backward() must
        # still hand P a C-contiguous g and leave x with a C-contiguous grad.
        x = t64(np.arange(12.0).reshape(3, 4), grad=True)
        wq = t64(np.arange(12.0).reshape(4, 3) + 1.0)
        seen = []

        def p_bwd(g):
            seen.append(g)
            return (g,)

        with GradTape() as tape:
            m = T.record_op(x.data, (x,), p_bwd, "identity")
            q = T.record_op(m.data.T, (m,), lambda g: (g.T,), "transpose_view")
            loss = T.tsum(T.mul(q, wq))
        backward(loss, tape)
        assert seen[0].flags.c_contiguous
        np.testing.assert_array_equal(seen[0], wq.data.T)
        assert x.grad.flags.c_contiguous
        np.testing.assert_array_equal(x.grad, wq.data.T)

    def test_intermediate_grads_released(self):
        x = t64(np.arange(6.0).reshape(1, 1, 2, 3), grad=True)
        w = t64(np.ones((1, 1, 1, 1)), grad=True)
        with GradTape() as tape:
            y = T.conv2d(x, w)
            z = T.reshape(T.relu(y), (6,))
            loss = T.tsum(T.mul(z, z))
        backward(loss, tape)
        assert all(node.out.grad is None for node in tape.nodes)
        assert y.grad is None and z.grad is None and loss.grad is None
        np.testing.assert_array_equal(x.grad.reshape(-1), 2.0 * np.arange(6.0))
        assert w.grad.shape == (1, 1, 1, 1)

    def test_composite_conv_norm_softmax_sum(self):
        rng = np.random.default_rng(0)
        x = t64(rng.standard_normal((1, 2, 4, 4)), grad=True)
        w = t64(rng.standard_normal((2, 2, 3, 3)), grad=True)
        g = t64(np.ones(2), grad=True)
        b = t64(np.zeros(2), grad=True)
        proj = t64(rng.standard_normal((1, 2, 4, 4)))

        def f(args):
            xx, ww, gg, bb = args
            y = T.conv2d(xx, ww, stride=(1, 1), padding=(1, 1))
            y = T.batch_norm2d(y, gg, bb, np.zeros(2), np.ones(2),
                               mode="train", update_running=False)
            y = T.softmax(T.img2seq(y), axis=-1)
            return T.tsum(T.mul(y, T.img2seq(proj)))

        rows = check_function(f, [x, w, g, b], "composite", h=1e-5, tol=1e-5)
        assert rows and all(r.ok for r in rows), [(r.name, r.rel_err) for r in rows]


class TestDepthwiseGradients:
    # The model's depthwise geometries (reduction R = 4) at N = 2, f64.
    @pytest.mark.parametrize("shape,kernel,stride,padding", [
        ((2, 3, 8, 8), (1, 4), (1, 4), (0, 0)),
        ((2, 3, 8, 8), (4, 1), (4, 1), (0, 0)),
        ((2, 3, 9, 7), (3, 3), (4, 4), (1, 1)),
        ((2, 3, 5, 7), (3, 3), (1, 1), (1, 1)),
    ])
    def test_x_w_b_match_finite_differences(self, shape, kernel, stride, padding):
        rng = np.random.default_rng(12)
        c = shape[1]
        x = t64(rng.standard_normal(shape), grad=True)
        w = t64(rng.standard_normal((c, 1) + kernel), grad=True)
        b = t64(rng.standard_normal(c), grad=True)
        proj = []

        def f(args):
            out = T.conv2d(*args, stride=stride, padding=padding, groups=c)
            if not proj:
                proj.append(t64(rng.standard_normal(out.shape)))
            return T.tsum(T.mul(out, proj[0]))

        rows = check_function(f, [x, w, b], "conv2d_dw", h=1e-5, tol=1e-6)
        assert len(rows) == 3
        assert all(r.ok for r in rows), [(r.name, r.rel_err) for r in rows]


class TestFiniteDiff:
    def test_square(self):
        x = t64([3.0], grad=True)

        def f(t):
            return float(t.data[0] ** 2)

        grad = finite_diff_grad(f, x, h=1e-4)
        assert grad[0] == pytest.approx(6.0, abs=1e-6)

    def test_constant(self):
        x = t64(np.ones(4), grad=True)
        grad = finite_diff_grad(lambda t: 7.5, x, h=1e-5)
        np.testing.assert_array_equal(grad, np.zeros(4))

    def test_two_layer_toy_net_cross_oracle(self):
        rng = np.random.default_rng(1)
        w1 = t64(rng.standard_normal((3, 4)) * 0.5, grad=True)
        w2 = t64(rng.standard_normal((4, 1)) * 0.5, grad=True)
        x = t64(rng.standard_normal((2, 3)))

        def loss_fn():
            return T.tsum(T.linear(T.relu(T.linear(x, w1)), w2))

        with GradTape() as tape:
            loss = loss_fn()
        backward(loss, tape)
        for p in (w1, w2):
            fd = finite_diff_grad(lambda _t: loss_fn().item(), p, h=1e-5)
            assert rel_error(p.grad, fd) < 1e-4

    def test_bad_step(self):
        from incepformer.errors import ConfigError

        with pytest.raises(ConfigError):
            finite_diff_grad(lambda t: 0.0, t64([1.0]), h=0.0)


class TestOpGradients:
    def test_every_registered_op(self):
        rows = check_op_gradients(seed=0)
        assert len(rows) >= 30
        bad = [(r.name, r.rel_err) for r in rows if not r.ok]
        assert not bad, bad


class TestDeterminism:
    def test_tape_order_fixed(self):
        runs = []
        for _ in range(2):
            x = t64([1.0, 2.0], grad=True)
            with GradTape() as tape:
                a = T.mul(x, x)
                b = T.scale(x, 3.0)
                loss = T.tsum(T.add(a, b))
            backward(loss, tape)
            runs.append(x.grad.copy())
        np.testing.assert_array_equal(runs[0], runs[1])
