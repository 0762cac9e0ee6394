"""Tape mechanics, backward correctness and the finite-difference oracle."""

import gc
import importlib
import tracemalloc
import weakref

import numpy as np
import pytest

from incepformer import TrainConfig, make_synth_dataset, micro, tensor as T, train
from incepformer.errors import ContractError, NumericsError, ShapeError
from incepformer.gradcheck import check_function, check_op_gradients, finite_diff_grad, rel_error
from incepformer.model import build_model
from incepformer.tensor import GradTape, Tensor, backward
from incepformer.train import cross_entropy


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

    def test_loss_of_another_tape_raises(self):
        x = t64([1.0, 2.0], grad=True)
        with GradTape() as tape_a:
            loss_a = T.tsum(T.mul(x, x))
        with GradTape() as tape_b:
            T.scale(x, 3.0)
        with pytest.raises(ContractError, match="not recorded on this tape"):
            backward(loss_a, tape_b)
        assert x.grad is None

    def test_untracked_loss_raises(self):
        x = t64([1.0, 2.0], grad=True)
        c = t64([3.0, 4.0])
        with GradTape() as tape:
            T.scale(x, 2.0)
            loss = T.tsum(c)  # no input requires a gradient: not recorded
        with pytest.raises(ContractError, match="not recorded on this tape"):
            backward(loss, tape)
        assert loss.grad is None and x.grad is None


class TestSlotsPerTape:
    """A Tensor's slot belongs to one tape; another tape makes it a leaf."""

    def test_output_of_one_tape_is_leaf_of_the_next(self):
        x = t64([1.0, -2.0], grad=True)
        with GradTape() as tape_a:
            y = T.scale(x, 3.0)
            loss_a = T.tsum(y)
        with GradTape() as tape_b:
            loss_b = T.tsum(T.mul(y, y))
        backward(loss_b, tape_b)
        np.testing.assert_array_equal(y.grad, 2.0 * y.data)
        assert x.grad is None
        backward(loss_a, tape_a)  # y's node on tape A still routes to x
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])

    def test_parameter_gets_each_tapes_own_gradient(self):
        for first in (0, 1):
            x = t64([1.0, 2.0], grad=True)
            with GradTape() as tape_1:
                loss_1 = T.tsum(T.mul(x, x))
            with GradTape() as tape_2:
                loss_2 = T.tsum(T.scale(x, 5.0))
            runs = [(loss_1, tape_1, [2.0, 4.0]), (loss_2, tape_2, [5.0, 5.0])]
            for loss, tape, want in runs[first:] + runs[:first]:
                backward(loss, tape)
                np.testing.assert_array_equal(x.grad, want)
        with pytest.raises(ContractError, match="not recorded on this tape"):
            backward(loss_1, tape_1)  # the first backward consumed tape 1
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_cleared_tape_takes_old_outputs_as_leaves(self):
        x = t64([1.0, 2.0], grad=True)
        with GradTape() as tape:
            y = T.scale(x, 2.0)
        tape.clear()
        with tape:
            loss = T.tsum(T.mul(y, y))
        backward(loss, tape)
        np.testing.assert_array_equal(y.grad, 2.0 * y.data)
        assert x.grad is None


class TestTapeMemory:
    """Under gc.disable() only reference counting frees: the tape keeps an
    op output's array alive only through a backward closure that reads it,
    and backward frees each closure once it has run."""

    @pytest.fixture(autouse=True)
    def no_cyclic_gc(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            yield
        finally:
            if enabled:
                gc.enable()

    def test_scores_freed_before_backward(self):
        rng = np.random.default_rng(3)
        q, k, v = (t64(rng.standard_normal((1, 6, 4)), grad=True) for _ in range(3))
        refs = {}

        def attend():
            s = T.matmul_batched(q, T.transpose(k, (0, 2, 1)))
            p = T.softmax(s, axis=-1)
            refs["scores"], refs["weights"] = weakref.ref(s.data), weakref.ref(p.data)
            return T.tsum(T.matmul_batched(p, v))

        with GradTape() as tape:
            loss = attend()
        assert refs["scores"]() is None  # softmax's backward reads its output, not its input
        assert refs["weights"]() is not None
        backward(loss, tape)
        assert q.grad.shape == k.grad.shape == v.grad.shape == (1, 6, 4)

    def test_dropping_the_tape_frees_every_op_output(self, monkeypatch):
        refs = []
        record = T.record_op

        def spy(data, inputs, backward_fn, name):
            out = record(data, inputs, backward_fn, name)
            refs.append((name, weakref.ref(out.data)))
            return out

        monkeypatch.setattr(T, "record_op", spy)
        model = build_model(micro(), seed=0, dtype="f64")
        rng = np.random.default_rng(4)
        images = Tensor(rng.standard_normal((2, 3, 32, 32)), dtype="f64")
        labels = rng.integers(0, micro().num_classes, (2, 32, 32))
        with GradTape() as tape:
            loss = cross_entropy(model(images), labels)
        backward(loss, tape)
        assert len(refs) > 100
        del tape, loss
        alive = [name for name, ref in refs if ref() is not None]
        assert not alive, alive

    def test_backward_frees_each_closure_once_it_has_run(self, monkeypatch):
        record = T.record_op
        seen = []  # (op, is the array only mul's closure captured alive?)

        def spy(data, inputs, backward_fn, name):
            def bwd(g):
                seen.append((name, ref() is not None))
                return backward_fn(g)

            return record(data, inputs, bwd, name)

        monkeypatch.setattr(T, "record_op", spy)
        x = t64([1.0, -2.0], grad=True)
        c = t64(3.0)
        ref = weakref.ref(c.data)
        with GradTape() as tape:
            loss = T.mul(T.tsum(T.scale(x, 2.0)), c)
        del c
        backward(loss, tape)
        assert seen == [("mul", True), ("sum", False), ("scale", False)]
        np.testing.assert_array_equal(x.grad, [6.0, 6.0])

    def test_gelu_keeps_no_tanh(self, monkeypatch):
        refs = []
        tanh = np.tanh

        def spy(a):
            out = tanh(a)
            refs.append(weakref.ref(out))
            return out

        monkeypatch.setattr(np, "tanh", spy)
        x = t64([-1.0, 0.5, 2.0], grad=True)
        with GradTape() as tape:
            loss = T.tsum(T.gelu(x))
        assert len(refs) == 1 and refs[0]() is None
        backward(loss, tape)  # recomputes the tanh
        assert len(refs) == 2 and x.grad.shape == (3,)

    def test_train_drops_gradients_before_each_forward(self, monkeypatch):
        train_mod = importlib.import_module("incepformer.train")
        build, loss_fn = train_mod.build_model, train_mod.cross_entropy
        models, grads_held = [], []

        def build_spy(*args, **kwargs):
            models.append(build(*args, **kwargs))
            return models[-1]

        def loss_spy(*args, **kwargs):
            grads_held.append(sum(p.grad is not None for p in models[0].parameters()))
            return loss_fn(*args, **kwargs)

        monkeypatch.setattr(train_mod, "build_model", build_spy)
        monkeypatch.setattr(train_mod, "cross_entropy", loss_spy)
        data = make_synth_dataset(2, 32, 32, 2, seed=5)
        res = train(micro(num_classes=2), TrainConfig(max_iters=2, batch_size=2, crop=(32, 32)), data)
        assert grads_held == [0, 0]
        assert all(p.grad is not None for _, p in res.store.items())


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
            y = T.conv2d(x, w, t64(np.zeros(1)))
            z = T.reshape(T.relu(y), (6,))
            loss = T.tsum(T.mul(z, z))
        backward(loss, tape)
        assert len(tape) == 0
        assert y.grad is None and z.grad is None and loss.grad is None
        np.testing.assert_array_equal(x.grad.reshape(-1), 2.0 * np.arange(6.0))
        assert w.grad.shape == (1, 1, 1, 1)

    def test_composite_conv_norm_softmax_sum(self):
        rng = np.random.default_rng(0)
        x = t64(rng.standard_normal((1, 2, 4, 6)), grad=True)
        w = t64(rng.standard_normal((2, 2, 2, 2)), grad=True)
        g = t64(np.ones(2), grad=True)
        b = t64(np.zeros(2), grad=True)
        proj = t64(rng.standard_normal((1, 2, 2, 3)))

        def f(args):
            xx, ww, gg, bb = args
            y = T.conv2d(xx, ww, t64(np.zeros(2)), stride=(2, 2))
            y = T.batch_norm2d(y, gg, bb, np.zeros(2), np.ones(2), training=True, update_running=False)
            y = T.softmax(T.img2seq(y), axis=-1)
            return T.tsum(T.mul(y, T.img2seq(proj)))

        rows = check_function(f, [x, w, g, b], "composite", tol=1e-5)
        assert rows and all(r.ok for r in rows), [(r.name, r.rel_err) for r in rows]


class TestRowRangeGradients:
    """A closure's (index, g) pair: backward() places g at index."""

    def test_overlapping_blocks_add_up(self):
        x = t64(np.zeros((4, 1)), grad=True)
        with GradTape() as tape:
            loss = T.add(T.tsum(T.slice_rows(x, 0, 3)), T.tsum(T.slice_rows(x, 2, 4)))
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad[:, 0], [1.0, 1.0, 2.0, 1.0])

    def test_wrong_shaped_pair_names_the_op(self):
        x = t64(np.zeros((4, 3)), grad=True)
        with GradTape() as tape:
            y = T.record_op(x.data[1:3], (x,), lambda g: ((np.s_[1:4], g),), "bad_rows")
            loss = T.tsum(y)
        with pytest.raises(ShapeError, match="bad_rows"):
            backward(loss, tape)

    def test_disjoint_blocks_hold_one_input_size(self):
        # Each block's backward places its rows in the one input gradient,
        # instead of a zero-filled input-sized array per block.
        x = t64(np.random.default_rng(5).standard_normal((1, 2, 4096, 64)), grad=True)
        with GradTape() as tape:
            loss = T.tsum(T.slice_rows(x, 0, 256))
            for r0 in range(256, 4096, 256):
                loss = T.add(loss, T.tsum(T.slice_rows(x, r0, r0 + 256)))
        tracemalloc.start()
        try:
            backward(loss, tape)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(x.grad, np.ones(x.shape))
        assert peak < 1.5 * x.data.nbytes, peak / x.data.nbytes


class TestReductionGradients:
    @pytest.mark.parametrize("op,scale", [(T.tsum, 1.0), (T.mean, 0.25)])
    def test_leaf_grad_is_owned(self, op, scale):
        # sum/mean return a broadcast view of their upstream gradient;
        # backward() must still leave the leaf a writeable array of its own.
        x = t64([[1.0, 2.0], [3.0, 4.0]], grad=True)
        upstream = []

        def bwd(g):
            upstream.append(np.full(g.shape, 3.0))
            return (upstream[0],)

        with GradTape() as tape:
            s = op(x)
            loss = T.record_op(s.data * 3.0, (s,), bwd, "triple")
        backward(loss, tape)
        assert x.grad.flags.writeable and x.grad.flags.c_contiguous
        assert not np.shares_memory(x.grad, upstream[0])
        np.testing.assert_array_equal(x.grad, np.full((2, 2), 3.0 * scale))


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

        rows = check_function(f, [x, w, b], "conv2d_dw", tol=1e-6)
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
            return T.tsum(T.linear(T.relu(T.linear(x, w1, t64(np.zeros(4)))), w2, t64(np.zeros(1))))

        with GradTape() as tape:
            loss = loss_fn()
        backward(loss, tape)
        for p in (w1, w2):
            fd = finite_diff_grad(lambda _t: loss_fn().item(), p, h=1e-5)
            assert rel_error(p.grad, fd) < 1e-4

    def test_restores_coordinate_when_f_raises(self):
        x = t64([1.0, 2.0, 3.0], grad=True)
        before = x.data.copy()
        calls = []

        def f(t):
            calls.append(t.data.copy())
            if len(calls) == 2:
                raise NumericsError("planted")
            return float(t.data.sum())

        with pytest.raises(NumericsError, match="planted"):
            finite_diff_grad(f, x, h=1e-5)
        assert calls[1][0] != before[0]
        assert x.data.tobytes() == before.tobytes()

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
