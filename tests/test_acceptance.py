"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; tolerances and runtime budgets are asserted, not just reported.
"""

import dataclasses
import functools
import math
import time

import numpy as np
import pytest

from incepformer import tensor as T
from incepformer.analysis import conv_macs, count_params, estimate_flops
from incepformer.config import ipt_b, ipt_s, ipt_t, micro
from incepformer.data import make_synth_dataset
from incepformer.gradcheck import FD_STEP, GRAD_TOL, check_config_gradients
from incepformer.metrics import ConfusionMatrix, eval_miou
from incepformer.model import IncepMHSA, build_model
from incepformer.tensor import Tensor
from incepformer.train import (
    TrainConfig,
    init_optim_state,
    load_training_checkpoint,
    save_training_checkpoint,
    train,
    training_state_tensors,
)

REFERENCE_PARAMS = {"ipt-t": 14.0e6, "ipt-s": 24.6e6, "ipt-b": 39.6e6}
REFERENCE_GFLOPS = {"ipt-t": 21.2e9, "ipt-s": 38.5e9, "ipt-b": 54.6e9}


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({description}): FAIL in {time.monotonic() - start:.1f} s")
                raise
            print(f"criterion {number} ({description}): PASS in {time.monotonic() - start:.1f} s")

        return run

    return wrap


@criterion(1, "gradient soundness on the micro preset")
def test_gradient_soundness():
    # The loss `incepformer gradcheck --model micro --input 32x32` checks.
    start = time.monotonic()
    assert (FD_STEP, GRAD_TOL) == (1e-5, 1e-4)
    rows = check_config_gradients(micro(), 0, 32, 32)
    assert [r.name for r in rows] == build_model(micro(), seed=0).parameter_store().names()
    assert all(r.tol == GRAD_TOL for r in rows)
    bad = [(r.name, r.rel_err) for r in rows if not r.ok]
    assert not bad, bad
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"gradient check took {elapsed:.1f}s"


@criterion(2, "encoder/decoder shape suite at 64x64")
def test_shape_suite():
    for mk in (ipt_t, ipt_s, ipt_b):
        cfg = mk(num_classes=11)
        model = build_model(cfg, seed=0).eval()
        x = Tensor(np.random.default_rng(1).uniform(0, 1, (1, 3, 64, 64)), dtype="f32")
        pyr = model.encode(x)
        spatial = [f.shape[2] for f in pyr]
        channels = [f.shape[1] for f in pyr]
        assert spatial == [16, 8, 4, 2], (cfg.name, spatial)
        assert [f.shape[3] for f in pyr] == [16, 8, 4, 2]
        assert channels == [64, 128, 320, 512], (cfg.name, channels)
        logits = model.decoder(pyr)
        assert logits.shape == (1, 11, 16, 16), (cfg.name, logits.shape)


@criterion(3, "parameter counts: exact closed form, reference totals, ordering")
def test_parameter_counts():
    start = time.monotonic()
    totals = {}
    for mk in (ipt_t, ipt_s, ipt_b):
        cfg = mk(num_classes=150)
        closed = count_params(cfg)
        store = build_model(cfg, seed=0).parameter_store()
        assert closed.param_rows() == {name: t.size for name, t in store.items()}
        assert closed.total_params - store.total_params() == 0
        totals[cfg.name] = closed.total_params
        target = REFERENCE_PARAMS[cfg.name]
        assert abs(closed.total_params - target) / target < 0.20, (cfg.name, closed.total_params)
    assert totals["ipt-t"] < totals["ipt-s"] < totals["ipt-b"]
    assert time.monotonic() - start < 10.0


@criterion(4, "decoder size facts")
def test_decoder_facts():
    for mk in (ipt_t, ipt_s, ipt_b):
        rows = count_params(mk(num_classes=150)).rows
        assert sum(r.params for r in rows if r.layer.startswith("decoder/")) < 1_000_000
    cfg = ipt_s(num_classes=150)
    p512, p768 = (count_params(dataclasses.replace(cfg, decoder_channels=c)).total_params for c in (512, 768))
    delta = p768 - p512
    assert delta == (1024 + 1) * 256 + 256 * 150  # analytic value, exact
    assert abs(delta - 0.2e6) <= 0.15e6  # reference decoder-width sweep: 24.4M -> 24.6M


@criterion(5, "FLOP estimates: exact single layers, reference totals, 4x scaling")
def test_flops():
    start = time.monotonic()
    assert conv_macs(3, 3, 1, 1, 1, 4, 4) == 144
    rows = {r.layer: r.flops for r in estimate_flops(ipt_t(), 64, 64).rows if r.flops}
    assert rows["stage1/patch/proj@conv"] == 4 * 4 * 3 * 64 * 16 * 16
    assert rows["stage1/block0/ffn/fc1@conv"] == 64 * 256 * 16 * 16
    assert rows["stage1/block0/attn/qk@matmul"] == 1 * 256 * 64 * 12  # heads*L*dk*L'
    for mk in (ipt_t, ipt_s, ipt_b):
        cfg = mk(num_classes=150)
        got = estimate_flops(cfg, 512, 512).hook_profiler_flops
        target = REFERENCE_GFLOPS[cfg.name]
        assert abs(got - target) / target < 0.25, (cfg.name, got / 1e9)
    small = estimate_flops(ipt_t(), 64, 64).hook_profiler_flops
    large = estimate_flops(ipt_t(), 128, 128).hook_profiler_flops
    assert abs(large - 4 * small) <= 1e-6 * 4 * small  # integer-exact in practice
    assert time.monotonic() - start < 10.0


@criterion(6, "attention matches the brute-force oracle; convexity invariant")
def test_attention_oracle():
    from oracles import attention_loop_oracle, make_init

    attn = IncepMHSA(4, 2, 2, make_init(8))
    x = Tensor(np.random.default_rng(9).standard_normal((1, 4, 4)), dtype="f64")
    got = T.img2seq(attn(T.seq2img(x, 2, 2)))  # 4 query tokens, 3 key/value tokens
    o = attn.reduce(T.seq2img(x, 2, 2))
    assert x.shape[1] <= 6 and o.shape[1] <= 6
    want = attention_loop_oracle(x.data, o.data, attn)
    assert np.abs(got.data - want).max() < 1e-6

    for trial in range(100):
        attn = IncepMHSA(4, 1, 2, make_init(1000 + trial))
        v_const = np.random.default_rng(trial).standard_normal(4)
        attn.wv.data[...] = 0.0
        attn.bv.data[...] = v_const
        attn.wo.data[...] = np.eye(4)
        attn.bo.data[...] = 0.0
        x = Tensor(np.random.default_rng(2000 + trial).standard_normal((1, 16, 4)), dtype="f64")
        out = T.img2seq(attn(T.seq2img(x, 4, 4)))
        assert np.abs(out.data - v_const).max() < 1e-9


@criterion(7, "overfit smoke test on synthetic data")
def test_overfit_smoke():
    start = time.monotonic()
    cfg = micro(num_classes=2)
    tcfg = TrainConfig(base_lr=1e-3, max_iters=300, batch_size=2, crop=(64, 64),
                       scale_range=(1.0, 1.0), flip_prob=0.0, seed=0)
    dataset = make_synth_dataset(10, 64, 64, 2, seed=123)
    result = train(cfg, tcfg, dataset)
    assert result.history[-1] < 0.20 * result.history[0], result.history[::50]
    score = eval_miou(result.model, dataset, tcfg)
    assert score.miou > 0.90, score.miou
    assert time.monotonic() - start < 600.0


@criterion(8, "determinism and persistence")
def test_determinism_and_persistence(tmp_path):
    cfg = micro(num_classes=2)
    dataset = make_synth_dataset(5, 64, 64, 2, seed=6)

    def tc():
        return TrainConfig(base_lr=1e-3, max_iters=6, batch_size=2, crop=(64, 64),
                           scale_range=(1.0, 1.0), flip_prob=0.5, seed=21)

    a = train(cfg, tc(), dataset)
    b = train(cfg, tc(), dataset)
    assert a.history == b.history  # bitwise: same float objects per step

    path = str(tmp_path / "round.ckpt")
    save_training_checkpoint(path, a.model, a.state, 6)
    model = build_model(cfg, seed=1)
    state = init_optim_state(model.parameter_store())
    assert load_training_checkpoint(path, model, state) == 6
    saved = training_state_tensors(a.model, a.state)
    restored = training_state_tensors(model, state)
    for name, arr in saved.items():
        np.testing.assert_array_equal(restored[name], arr, err_msg=name)

    snap = str(tmp_path / "snap.ckpt")
    full = train(cfg, tc(), dataset, snapshot_at=(2, snap))
    resumed = train(cfg, tc(), dataset, resume_from=snap)
    assert resumed.history == full.history[2:]


@criterion(9, "mIoU metric oracle cases")
def test_miou_metric():
    cm = ConfusionMatrix(2)
    cm.update(np.array([0, 0, 1, 1]), np.array([0, 1, 1, 1]))
    miou, per_class = cm.iou()
    assert per_class[0] == pytest.approx(1 / 2, abs=1e-12)
    assert per_class[1] == pytest.approx(2 / 3, abs=1e-12)
    assert miou == pytest.approx(7 / 12, abs=1e-12)

    gt = np.random.default_rng(0).integers(0, 3, (16, 16))
    perfect = ConfusionMatrix(3)
    perfect.update(gt, gt)
    assert perfect.iou()[0] == 1.0

    sparse = ConfusionMatrix(5)
    sparse.update(np.array([0, 1, 0]), np.array([0, 1, 1]))
    miou, per_class = sparse.iou()
    assert all(math.isnan(per_class[c]) for c in (2, 3, 4))
    assert miou == pytest.approx((0.5 + 0.5) / 2, abs=1e-12)
