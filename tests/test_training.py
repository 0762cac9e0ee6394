"""Synthetic data, augmentation, loss, optimizer, metrics, checkpoints and
the training loop."""

import math
import struct
import tracemalloc

import numpy as np
import pytest

from oracles import naive_miou, palette_loops

from incepformer import tensor as T
from incepformer.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from incepformer.config import micro
from incepformer.data import (
    NOISE_AMPLITUDE,
    SegSample,
    augment,
    class_colors,
    generate_regions,
    make_synth_dataset,
    render_label,
)
from incepformer.errors import (
    CheckpointError,
    CheckpointMagicError,
    CheckpointShapeError,
    CheckpointTruncatedError,
    ContractError,
    NumericsError,
)
from incepformer.gradcheck import check_function
from incepformer.metrics import ConfusionMatrix, eval_miou, label_map
from incepformer.model import build_model
from incepformer.tensor import GradTape, Tensor, backward
from incepformer.train import (
    WEIGHT_DECAY,
    TrainConfig,
    adamw_step,
    cross_entropy,
    init_optim_state,
    load_training_checkpoint,
    poly_lr,
    save_training_checkpoint,
    train,
    training_state_tensors,
)


# 28 bytes: magic, one tensor named "w" of rank 3 declaring dims (2^32 - 1)^3.
HOSTILE_CKPT = MAGIC + struct.pack("<IHcB3I", 1, 1, b"w", 3, *[2**32 - 1] * 3)


def tcfg(**kw):
    base = dict(base_lr=1e-3, max_iters=4, batch_size=2, crop=(64, 64),
                scale_range=(1.0, 1.0), flip_prob=0.0, seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestSynthDataset:
    def test_deterministic(self):
        a = make_synth_dataset(4, 32, 32, 3, seed=11)
        b = make_synth_dataset(4, 32, 32, 3, seed=11)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.image, sb.image)
            np.testing.assert_array_equal(sa.label, sb.label)

    def test_labels_in_range(self):
        for s in make_synth_dataset(6, 32, 48, 5, seed=3):
            assert s.label.min() >= 0 and s.label.max() < 5

    def test_rerender_oracle(self):
        # regions drawn from the same per-sample stream must re-render the
        # stored label, and colors must track the label everywhere
        seed, idx, h, w, n_cls = 17, 2, 40, 32, 4
        samples = make_synth_dataset(idx + 1, h, w, n_cls, seed)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 7919, idx]))
        regions = generate_regions(rng, h, w, n_cls)
        label2 = render_label(regions, h, w)
        np.testing.assert_array_equal(samples[idx].label, label2)
        base = class_colors(n_cls)[samples[idx].label]
        diff = np.abs(samples[idx].image - base.transpose(2, 0, 1))
        assert diff.max() <= NOISE_AMPLITUDE + 1e-7

    # 65536 is MAX_NUM_CLASSES: ids up to 16 bits, so six rounds of bits.
    @pytest.mark.parametrize("n_cls", [1, 2, 9, 150, 65536])
    def test_class_colors_equal_loop_oracle(self, n_cls):
        got = class_colors(n_cls)
        assert got.dtype == np.float32 and got.shape == (n_cls, 3)
        assert got.tobytes() == palette_loops(n_cls).tobytes()


class TestAugment:
    def test_output_dims_equal_crop(self):
        cfg = tcfg(crop=(32, 64), scale_range=(0.5, 2.0), flip_prob=0.5)
        sample = make_synth_dataset(1, 48, 48, 3, seed=0)[0]
        for i in range(10):
            out = augment(sample, cfg, np.random.default_rng(i))
            assert out.image.shape == (3, 32, 64)
            assert out.label.shape == (32, 64)

    def test_flip_involution(self):
        cfg = tcfg(crop=(32, 32), flip_prob=1.0)
        sample = make_synth_dataset(1, 32, 32, 3, seed=1)[0]
        once = augment(sample, cfg, np.random.default_rng(0))
        twice = augment(once, cfg, np.random.default_rng(0))
        np.testing.assert_array_equal(twice.image, sample.image)
        np.testing.assert_array_equal(twice.label, sample.label)

    def test_constant_image_crops_constant(self):
        cfg = tcfg(crop=(32, 32))
        sample = SegSample(image=np.full((3, 64, 64), 0.25, dtype=np.float32),
                           label=np.full((64, 64), 1, dtype=np.int32))
        out = augment(sample, cfg, np.random.default_rng(5))
        assert (out.image == 0.25).all() and (out.label == 1).all()

    def test_padding_uses_ignore_index(self):
        cfg = tcfg(crop=(64, 64), scale_range=(0.5, 0.5))
        sample = make_synth_dataset(1, 64, 64, 2, seed=2)[0]
        out = augment(sample, cfg, np.random.default_rng(0))
        assert (out.label == cfg.ignore_index).any()
        assert out.image.shape == (3, 64, 64)

    def test_leaves_upsample_cache_untouched(self):
        # per-sample resize sizes must not fill the model's interpolation cache
        cfg = tcfg(crop=(32, 32), scale_range=(0.5, 2.0))
        sample = make_synth_dataset(1, 48, 48, 3, seed=6)[0]
        T._interp_matrix_cached.cache_clear()  # sizes cached by earlier tests would hide a fill
        for i in range(10):
            augment(sample, cfg, np.random.default_rng(i))
        assert T._interp_matrix_cached.cache_info().currsize == 0

    def test_label_values_preserved_or_ignore(self):
        cfg = tcfg(crop=(32, 32), scale_range=(0.6, 1.7), flip_prob=0.5)
        sample = make_synth_dataset(1, 48, 48, 4, seed=4)[0]
        allowed = set(np.unique(sample.label)) | {cfg.ignore_index}
        for i in range(10):
            out = augment(sample, cfg, np.random.default_rng(i))
            assert set(np.unique(out.label)) <= allowed


class TestCrossEntropy:
    def test_uniform_two_class(self):
        logits = Tensor(np.zeros((1, 2, 2, 2)), dtype="f64")
        labels = np.zeros((1, 2, 2), dtype=np.int64)
        loss = cross_entropy(logits, labels)
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_hand_single_pixel(self):
        logits = Tensor(np.array([1.0, 0.0]).reshape(1, 2, 1, 1), dtype="f64")
        labels = np.zeros((1, 1, 1), dtype=np.int64)
        loss = cross_entropy(logits, labels)
        assert loss.item() == pytest.approx(math.log(1.0 + math.exp(-1.0)), abs=1e-12)
        assert loss.item() == pytest.approx(0.313262, abs=1e-6)

    def test_ignored_pixels_zero_grad(self):
        rng = np.random.default_rng(0)
        logits = Tensor(rng.standard_normal((1, 3, 2, 2)), dtype="f64", requires_grad=True)
        labels = np.array([[[0, 255], [1, 255]]])
        with GradTape() as tape:
            loss = cross_entropy(logits, labels, ignore_index=255)
        backward(loss, tape)
        assert (logits.grad[0, :, 0, 1] == 0).all()
        assert (logits.grad[0, :, 1, 1] == 0).all()
        assert np.abs(logits.grad[0, :, 0, 0]).sum() > 0

    def test_all_ignored_error(self):
        logits = Tensor(np.zeros((1, 2, 1, 1)), dtype="f64")
        with pytest.raises(ContractError, match="ignored"):
            cross_entropy(logits, np.full((1, 1, 1), 255))

    def test_label_out_of_range(self):
        logits = Tensor(np.zeros((1, 2, 1, 1)), dtype="f64")
        with pytest.raises(ContractError, match="label"):
            cross_entropy(logits, np.full((1, 1, 1), 7))

    def test_gradcheck(self):
        rng = np.random.default_rng(1)
        logits = Tensor(rng.standard_normal((2, 3, 2, 2)), dtype="f64", requires_grad=True)
        labels = rng.integers(0, 3, (2, 2, 2))
        labels[0, 0, 0] = 255
        rows = check_function(lambda args: cross_entropy(args[0], labels), [logits], "ce")
        assert all(r.ok for r in rows), [(r.name, r.rel_err) for r in rows]

    @pytest.mark.parametrize("labels", [np.zeros((1, 2, 2)) + 0.5, np.ones((1, 2, 2), dtype=bool)])
    def test_non_integer_labels_rejected(self, labels):
        logits = Tensor(np.zeros((1, 2, 2, 2)), dtype="f64")
        with pytest.raises(ContractError, match="integer dtype"):
            cross_entropy(logits, labels)

    @pytest.mark.parametrize("shape", [(2, 2), (1, 1, 2, 2), (2, 2, 2)])
    def test_labels_not_n_h_w_rejected(self, shape):
        logits = Tensor(np.zeros((1, 2, 2, 2)), dtype="f64")
        with pytest.raises(ContractError) as err:
            cross_entropy(logits, np.zeros(shape, dtype=np.int64))
        assert str((1, 2, 2, 2)) in str(err.value) and str(shape) in str(err.value)

    @pytest.mark.parametrize("n, k, h, w, out_h, out_w, block_rows", [
        (2, 4, 5, 3, 5, 3, 2),      # ratio 1
        (2, 4, 3, 5, 12, 20, 5),    # ratio 4, blocks of 5, 5 and 2 rows
        (2, 4, 3, 4, 7, 10, 3),     # non-integer ratios
        (2, 150, 4, 6, 16, 24, 3),  # K = 150, ratio 4
    ])
    def test_equals_unfused_composition(self, n, k, h, w, out_h, out_w, block_rows, monkeypatch):
        monkeypatch.setattr(T, "BLOCK_BYTES", n * block_rows * k * out_w * 8)
        rng = np.random.default_rng(out_h)
        x = 3.0 * rng.standard_normal((n, k, h, w))
        labels = rng.integers(0, k, (n, out_h, out_w))
        labels[rng.random(labels.shape) < 0.2] = 255
        logits = Tensor(x, dtype="f64", requires_grad=True)
        with GradTape() as tape:
            loss = cross_entropy(logits, labels)
        backward(loss, tape)

        # Unfused: the full upsample, then the textbook log-softmax.  The
        # logits gradient is the upsample's adjoint of d loss / d up.
        ref = Tensor(x, dtype="f64", requires_grad=True)
        with GradTape() as tape:
            up = T.bilinear_upsample(ref, out_h, out_w)
            shifted = up.data - up.data.max(axis=1, keepdims=True)
            logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            mask = labels != 255
            onehot = np.arange(k)[None, :, None, None] == labels[:, None]
            count = mask.sum()
            want = -(logp * onehot).sum() / count
            dup = (np.exp(logp) - onehot) * mask[:, None] / count
            pulled = T.tsum(T.mul(up, Tensor(dup, dtype="f64")))
        backward(pulled, tape)
        assert loss.item() == pytest.approx(want, rel=1e-12, abs=0)
        np.testing.assert_allclose(logits.grad, ref.grad, rtol=0, atol=1e-12)

    def test_gradcheck_upsampled_ragged_blocks(self, monkeypatch):
        # 4x: 3x4 logits to 12x16 labels, blocks of 5, 5 and 2 rows.
        monkeypatch.setattr(T, "BLOCK_BYTES", 2 * 5 * 3 * 16 * 8)
        rng = np.random.default_rng(2)
        logits = Tensor(rng.standard_normal((2, 3, 3, 4)), dtype="f64", requires_grad=True)
        labels = rng.integers(0, 3, (2, 12, 16))
        labels[0, :4] = 255
        rows = check_function(lambda args: cross_entropy(args[0], labels), [logits], "ce")
        assert all(r.ok for r in rows), [(r.name, r.rel_err) for r in rows]

    def test_peak_allocation_below_one_full_plane(self):
        # [1, 150, 64, 64] logits scored against 256x256 labels in f32: the
        # unfused composition holds several [150, 256, 256] planes at once.
        plane = 150 * 256 * 256 * 4
        rng = np.random.default_rng(0)
        logits = Tensor(rng.standard_normal((1, 150, 64, 64)), dtype="f32", requires_grad=True)
        labels = rng.integers(0, 150, (1, 256, 256))
        tracemalloc.start()
        try:
            with GradTape() as tape:
                loss = cross_entropy(logits, labels)
            backward(loss, tape)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert logits.grad.shape == logits.shape
        assert peak < plane, f"peak {peak / 2**20:.1f} MiB"


class TestPolyLR:
    def test_endpoints(self):
        cfg = tcfg(base_lr=0.01, max_iters=100)
        assert poly_lr(0, cfg) == 0.01
        assert poly_lr(100, cfg) == 0.0

    def test_halfway_power_09(self):
        cfg = tcfg(base_lr=1.0, max_iters=100, power=0.9)
        assert poly_lr(50, cfg) == pytest.approx(0.5 ** 0.9, abs=1e-12)
        assert poly_lr(50, cfg) == pytest.approx(0.535887, abs=1e-6)

    def test_clamps_past_max(self):
        cfg = tcfg(max_iters=10)
        assert poly_lr(25, cfg) == 0.0


class TestAdamW:
    def _scalar_store(self, value):
        from incepformer.modules import ParameterStore
        from incepformer.tensor import parameter

        p = parameter(np.array([value]), dtype="f64")
        return ParameterStore([("w", p)]), p

    def test_hand_first_step(self):
        store, p = self._scalar_store(1.0)
        state = init_optim_state(store)
        adamw_step(store, {"w": np.array([1.0])}, state, lr=0.1)
        # reference: decoupled decay, then the efficient Adam formulation,
        # hand arithmetic
        m = 0.1 * 1.0
        v = 0.001 * 1.0
        step_size = 0.1 * math.sqrt(1 - 0.999) / (1 - 0.9)
        want = 1.0 * (1 - 0.1 * WEIGHT_DECAY) - step_size * m / (math.sqrt(v) + 1e-8)
        assert p.data[0] == pytest.approx(want, abs=1e-15)
        assert p.data[0] == pytest.approx(0.8990000316, abs=1e-9)
        assert state.step == 1

    def test_decoupled_decay_shrink_factor(self):
        # A zero gradient leaves zero moments, so only the decay acts.
        store, p = self._scalar_store(4.0)
        state = init_optim_state(store)
        adamw_step(store, {"w": np.zeros(1)}, state, lr=0.1)
        assert p.data[0] == 4.0 * (1 - 0.1 * WEIGHT_DECAY)

    def test_missing_grad_names_parameter(self):
        store, _ = self._scalar_store(1.0)
        state = init_optim_state(store)
        with pytest.raises(ContractError, match="'w'"):
            adamw_step(store, {}, state, lr=0.1)

    def test_hand_iterated_steps(self):
        # poly power=0 (constant lr): three hand-iterated steps on the
        # scalar problem f(w) = w^2
        cfg = tcfg(base_lr=0.1, power=0.0, max_iters=10)
        store, p = self._scalar_store(1.0)
        state = init_optim_state(store)
        w_ref, m_ref, v_ref = 1.0, 0.0, 0.0
        for step in range(1, 4):
            lr = poly_lr(step - 1, cfg)
            assert lr == 0.1  # power 0 keeps it constant until max_iters
            g = 2.0 * p.data[0]
            adamw_step(store, {"w": np.array([g])}, state, lr=lr)
            g_ref = 2.0 * w_ref
            m_ref = 0.9 * m_ref + 0.1 * g_ref
            v_ref = 0.999 * v_ref + 0.001 * g_ref * g_ref
            step_size = 0.1 * math.sqrt(1 - 0.999 ** step) / (1 - 0.9 ** step)
            w_ref = w_ref * (1 - 0.1 * WEIGHT_DECAY) - step_size * m_ref / (math.sqrt(v_ref) + 1e-8)
            assert p.data[0] == pytest.approx(w_ref, abs=1e-14)


class TestMIoU:
    def test_hand_case_7_12(self):
        cm = ConfusionMatrix(2)
        cm.update(np.array([0, 0, 1, 1]), np.array([0, 1, 1, 1]))
        miou, per_class = cm.iou()
        assert per_class[0] == pytest.approx(0.5)
        assert per_class[1] == pytest.approx(2 / 3)
        assert miou == pytest.approx(7 / 12, abs=1e-12)

    def test_perfect_prediction(self):
        gt = np.random.default_rng(0).integers(0, 3, (8, 8))
        cm = ConfusionMatrix(3)
        cm.update(gt, gt)
        assert cm.iou()[0] == 1.0

    def test_complement_prediction(self):
        gt = np.random.default_rng(1).integers(0, 2, (8, 8))
        cm = ConfusionMatrix(2)
        cm.update(gt, 1 - gt)
        assert cm.iou()[0] == 0.0

    def test_absent_classes_excluded(self):
        cm = ConfusionMatrix(4)
        cm.update(np.array([0, 1]), np.array([0, 1]))
        miou, per_class = cm.iou()
        assert miou == 1.0
        assert np.isnan(per_class[2]) and np.isnan(per_class[3])

    def test_total_scored_excludes_ignored(self):
        cm = ConfusionMatrix(2)
        cm.update(np.array([0, 255, 1]), np.array([0, 0, 1]), ignore_index=255)
        assert cm.total_scored == 2

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(2)
        n_cls = 3
        gts, preds = [], []
        cm = ConfusionMatrix(n_cls)
        for _ in range(4):
            gt = rng.integers(0, n_cls, (8, 8))
            gt[rng.random((8, 8)) < 0.1] = 255
            pred = rng.integers(0, n_cls, (8, 8))
            gts.append(gt)
            preds.append(pred)
            cm.update(gt, pred, ignore_index=255)
        assert cm.iou()[0] == pytest.approx(naive_miou(gts, preds, n_cls, 255), abs=1e-12)

    def test_eval_miou_end_to_end(self):
        model = build_model(micro(num_classes=3), seed=0)
        ds = make_synth_dataset(2, 32, 32, 3, seed=1)
        result = eval_miou(model, ds, tcfg())
        # oracle: recompute predictions through the same public forward
        preds = []
        for s in ds:
            logits = model(Tensor(s.image[None], dtype="f32"))
            up = T.bilinear_upsample(logits, 32, 32)
            preds.append(np.argmax(up.data[0], axis=0))
        want = naive_miou([s.label for s in ds], preds, 3, 255)
        assert result.miou == pytest.approx(want, abs=1e-12)
        assert result.confusion.total_scored == 2 * 32 * 32

    def test_empty_dataset_error(self):
        model = build_model(micro(), seed=0)
        with pytest.raises(ContractError):
            eval_miou(model, [], tcfg())

    @pytest.mark.parametrize("k", [1, 3, 8, 13, 150, 300])
    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_label_map_equals_argmax_of_full_upsample(self, k, dtype, monkeypatch):
        # Blocks of 6, 6, 6 and 2 rows; sizes are non-square, and upsampled
        # with factors of 4 and 8 where halves and quarters of small
        # integers tie exactly, so the integer logits check that ties go to
        # the lowest class index.  K = 300 needs class indices above 255.
        monkeypatch.setattr(T, "BLOCK_BYTES", 6 * k * 56 * np.dtype(T.DTYPES[dtype]).itemsize)
        rng = np.random.default_rng(k)
        for logits in (rng.standard_normal((1, k, 5, 7)), rng.integers(-1, 2, (1, k, 5, 7))):
            x = Tensor(logits, dtype=dtype)
            walk = T.row_bands(x.shape, 20, 56, x.dtype)[0]
            assert [r1 - r0 for (r0, r1, _, _), _ in walk(x.data)] == [6, 6, 6, 2]
            full = T.bilinear_upsample(x, 20, 56).data[0]
            np.testing.assert_array_equal(label_map(x.data[0], 20, 56), np.argmax(full, axis=0))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_label_map_rejects_non_finite_logits(self, dtype):
        logits = np.zeros((3, 5, 7), dtype=dtype)
        logits[1, 4, 6] = np.nan
        with pytest.raises(NumericsError, match="label_map"):
            label_map(logits, 20, 28)


class TestCheckpoint:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_rejected_by_name(self, tmp_path, bad):
        # "a/w" [2, 3] of ones, then "b/m1" [4] holding `bad`, built field by field like HOSTILE_CKPT.
        raw = (MAGIC + struct.pack("<I", 2)
               + struct.pack("<H3sB2I", 3, b"a/w", 2, 2, 3) + np.ones(6, dtype="<f4").tobytes()
               + struct.pack("<H4sBI", 4, b"b/m1", 1, 4) + np.array([1, 1, bad, 1], dtype="<f4").tobytes()
               + struct.pack("<Q", 1))
        path = tmp_path / "nan.ckpt"
        path.write_bytes(raw)
        with pytest.raises(CheckpointError, match="'b/m1'.*non-finite"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("bad,dtype", [(np.nan, np.float32), (-np.inf, np.float32), (1e300, np.float64)],
                             ids=["nan", "-inf", "f64-beyond-f32"])
    def test_non_finite_payload_not_saved(self, tmp_path, bad, dtype):
        path = tmp_path / "c.ckpt"
        save_checkpoint(str(path), {"w": np.ones(3, dtype=np.float32)}, 1)
        before = path.read_bytes()
        tensors = {"a/w": np.ones((2, 3), dtype=dtype), "b/m1": np.ones(4, dtype=dtype)}
        tensors["b/m1"][2] = bad
        with pytest.raises(CheckpointError, match=f"'b/m1' holds non-finite .*{str(path)!r}"):
            save_checkpoint(str(path), tensors, 2)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["c.ckpt"]

    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {
            "a/w": rng.standard_normal((3, 4)).astype(np.float32),
            "b/m1": rng.standard_normal(5).astype(np.float32),
        }
        path = str(tmp_path / "x.ckpt")
        save_checkpoint(path, tensors, iteration=42)
        loaded, it = load_checkpoint(path)
        assert it == 42
        assert list(loaded) == list(tensors)
        for k in tensors:
            np.testing.assert_array_equal(loaded[k], tensors[k])

    def test_magic_bytes(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, {"w": np.ones(1, dtype=np.float32)}, 0)
        with open(path, "rb") as fh:
            assert fh.read(8) == b"IPTCKPT1" == MAGIC

    def test_byte_layout(self, tmp_path):
        # independent struct-level parse of the documented layout
        arr = np.arange(6, dtype=np.float32).reshape(2, 3)
        path = str(tmp_path / "l.ckpt")
        save_checkpoint(path, {"t": arr}, iteration=7)
        with open(path, "rb") as fh:
            raw = fh.read()
        off = 8
        (count,) = struct.unpack_from("<I", raw, off); off += 4
        assert count == 1
        (nlen,) = struct.unpack_from("<H", raw, off); off += 2
        assert raw[off : off + nlen] == b"t"; off += nlen
        (rank,) = struct.unpack_from("<B", raw, off); off += 1
        assert rank == 2
        dims = struct.unpack_from("<II", raw, off); off += 8
        assert dims == (2, 3)
        payload = np.frombuffer(raw[off : off + 24], dtype="<f4"); off += 24
        np.testing.assert_array_equal(payload.reshape(2, 3), arr)
        (it,) = struct.unpack_from("<Q", raw, off); off += 8
        assert it == 7 and off == len(raw)

    def test_failed_save_keeps_previous_file(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(str(path), {"w": np.ones(3, dtype=np.float32)}, 1)
        before = path.read_bytes()
        # The second name cannot be encoded, so the save fails after "a" is written.
        bad = {"a": np.zeros(1000, dtype=np.float32), "\ud800": np.zeros(1, dtype=np.float32)}
        with pytest.raises(UnicodeEncodeError):
            save_checkpoint(str(path), bad, 2)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["c.ckpt"]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(CheckpointMagicError):
            load_checkpoint(str(path))

    def test_truncation(self, tmp_path):
        path = str(tmp_path / "t.ckpt")
        save_checkpoint(path, {"w": np.ones(100, dtype=np.float32)}, 0)
        with open(path, "rb") as fh:
            raw = fh.read()
        short = tmp_path / "short.ckpt"
        short.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointTruncatedError):
            load_checkpoint(str(short))

    @pytest.mark.parametrize("tail", [b"\x00junk", "itself"])
    def test_trailing_bytes_rejected(self, tmp_path, tail):
        # Garbage after a valid file, or two checkpoints joined into one.
        path = tmp_path / "t.ckpt"
        save_checkpoint(str(path), {"w": np.ones(3, dtype=np.float32)}, 1)
        raw = path.read_bytes()
        tail = raw if tail == "itself" else tail
        path.write_bytes(raw + tail)
        with pytest.raises(CheckpointError, match=f"^{len(tail)} trailing bytes"):
            load_checkpoint(str(path))

    def test_repeated_tensor_name_rejected(self, tmp_path):
        # Two one-value tensors named "w", built field by field like HOSTILE_CKPT.
        entry = struct.pack("<HcBI", 1, b"w", 1, 1)
        raw = MAGIC + struct.pack("<I", 2) + entry + struct.pack("<f", 1.0) + entry + struct.pack("<f", 2.0)
        path = tmp_path / "dup.ckpt"
        path.write_bytes(raw + struct.pack("<Q", 0))
        with pytest.raises(CheckpointError, match="'w' appears more than once"):
            load_checkpoint(str(path))

    def test_declared_size_beyond_file_rejected(self, tmp_path):
        path = tmp_path / "huge.ckpt"
        path.write_bytes(HOSTILE_CKPT)
        with pytest.raises(CheckpointTruncatedError, match="'w'"):
            load_checkpoint(str(path))

    def test_mismatched_config_names_first_offender(self, tmp_path):
        import dataclasses

        path = str(tmp_path / "m.ckpt")
        model = build_model(micro(), seed=0)
        state = init_optim_state(model.parameter_store())
        save_training_checkpoint(path, model, state, 3)
        other = build_model(dataclasses.replace(micro(), decoder_channels=16), seed=0)
        with pytest.raises(CheckpointShapeError, match="decoder/fuse/weight"):
            load_training_checkpoint(path, other)

    @pytest.mark.parametrize("with_state", [False, True])
    def test_tensor_the_model_lacks_rejected_by_name(self, tmp_path, with_state):
        path = str(tmp_path / "x.ckpt")
        model = build_model(micro(), seed=0)
        state = init_optim_state(model.parameter_store())
        extra = {"stage1/block1/bn1/running_var": np.ones(8, dtype=np.float32)}
        save_checkpoint(path, {**training_state_tensors(model, state), **extra}, 3)
        before = [p.data.copy() for _, p in model.named_parameters()]
        with pytest.raises(CheckpointShapeError, match="'stage1/block1/bn1/running_var'"):
            load_training_checkpoint(path, model, state if with_state else None)
        for b, (_, p) in zip(before, model.named_parameters()):
            np.testing.assert_array_equal(b, p.data)  # rejected before any copy

    def test_moments_of_another_model_rejected_without_state(self, tmp_path):
        # Without a state only the moments of the model's own parameters are skipped.
        path = str(tmp_path / "m.ckpt")
        model = build_model(micro(), seed=0)
        save_checkpoint(path, {**training_state_tensors(model), "stage9/w/m1": np.ones(2, dtype=np.float32)}, 1)
        with pytest.raises(CheckpointShapeError, match="'stage9/w/m1'"):
            load_training_checkpoint(path, model)

    def test_training_round_trip_restores_everything(self, tmp_path):
        path = str(tmp_path / "full.ckpt")
        ds = make_synth_dataset(4, 64, 64, 2, seed=3)
        res = train(micro(num_classes=2), tcfg(max_iters=3), ds, checkpoint_path=path)
        model2 = build_model(micro(num_classes=2), seed=99)
        state2 = init_optim_state(model2.parameter_store())
        it = load_training_checkpoint(path, model2, state2)
        assert it == 3 and state2.step == 3
        for (n1, p1), (n2, p2) in zip(res.model.named_parameters(), model2.named_parameters()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)
        for (n1, b1), (n2, b2) in zip(res.model.named_buffers(), model2.named_buffers()):
            np.testing.assert_array_equal(b1, b2)
        for name in res.state.m:
            np.testing.assert_array_equal(res.state.m[name], state2.m[name])


class TestTrainLoop:
    def test_identical_seeds_identical_histories(self):
        ds = make_synth_dataset(4, 64, 64, 2, seed=1)
        a = train(micro(num_classes=2), tcfg(), ds)
        b = train(micro(num_classes=2), tcfg(), ds)
        assert a.history == b.history

    def test_resume_bitwise(self, tmp_path):
        snap = str(tmp_path / "snap.ckpt")
        ds = make_synth_dataset(4, 64, 64, 2, seed=2)
        full = train(micro(num_classes=2), tcfg(max_iters=6), ds, snapshot_at=(3, snap))
        resumed = train(micro(num_classes=2), tcfg(max_iters=6), ds, resume_from=snap)
        assert resumed.history == full.history[3:]

    def test_loss_finite_and_logged(self):
        ds = make_synth_dataset(4, 64, 64, 2, seed=4)
        logged = []
        res = train(micro(num_classes=2), tcfg(), ds,
                    log=lambda it, lr, loss: logged.append((it, lr, loss)))
        assert all(math.isfinite(v) for v in res.history)
        assert [l[0] for l in logged] == [0, 1, 2, 3]
        assert logged[0][1] == pytest.approx(1e-3)

    def test_non_finite_image_aborts_naming_iteration(self):
        ds = make_synth_dataset(2, 64, 64, 2, seed=6)
        ds[0] = SegSample(image=np.full_like(ds[0].image, np.nan), label=ds[0].label)
        with pytest.raises(NumericsError, match="iteration 0"):
            train(micro(num_classes=2), tcfg(max_iters=1), ds)

    def test_wraparound_batching(self):
        ds = make_synth_dataset(3, 64, 64, 2, seed=5)  # smaller than iters*batch
        res = train(micro(num_classes=2), tcfg(max_iters=3), ds)
        assert len(res.history) == 3

    def test_empty_dataset_rejected(self):
        with pytest.raises(ContractError):
            train(micro(num_classes=2), tcfg(), [])

    def test_crop_divisibility_validated(self):
        from incepformer.errors import ConfigError

        with pytest.raises(ConfigError, match="crop"):
            tcfg(crop=(50, 64)).validate()

    @pytest.mark.parametrize("crop", [(0, 0), (-64, -64)])
    def test_non_positive_crop_rejected(self, crop):
        from incepformer.errors import ConfigError

        with pytest.raises(ConfigError, match="crop"):
            tcfg(crop=crop).validate()

    @pytest.mark.parametrize("field, value", [
        ("base_lr", math.nan), ("base_lr", math.inf), ("base_lr", 0.0),
        ("power", math.nan), ("power", math.inf), ("seed", -1),
    ])
    def test_optimizer_fields_and_seed_validated(self, field, value):
        from incepformer.errors import ConfigError

        with pytest.raises(ConfigError, match=field):
            tcfg(**{field: value}).validate()

    def test_batch_pixels_bounded(self):
        from incepformer.config import MAX_INPUT_SIDE
        from incepformer.errors import ConfigError

        side = MAX_INPUT_SIDE // 4
        tcfg(batch_size=16, crop=(side, side)).validate()
        with pytest.raises(ConfigError, match="batch_size"):
            tcfg(batch_size=17, crop=(side, side)).validate()
        with pytest.raises(ConfigError, match="batch_size"):
            tcfg(batch_size=10**9).validate()

    def test_f32_step_leaves_f32_grads(self):
        ds = make_synth_dataset(2, 64, 64, 2, seed=9)
        res = train(micro(num_classes=2), tcfg(max_iters=1), ds)
        grads = [p.grad for _, p in res.store.items()]
        assert grads and all(g is not None and g.dtype == np.float32 for g in grads)

    def test_f64_training_and_checkpoint_cast(self, tmp_path):
        # train in f64, checkpoint (format-fixed f32), reload into both dtypes
        path = str(tmp_path / "d.ckpt")
        ds = make_synth_dataset(2, 64, 64, 2, seed=8)
        res = train(micro(num_classes=2), tcfg(max_iters=2), ds, dtype="f64",
                    checkpoint_path=path)
        assert next(res.model.parameters()).dtype == np.float64
        assert all(math.isfinite(v) for v in res.history)
        m64 = build_model(micro(num_classes=2), seed=1, dtype="f64")
        load_training_checkpoint(path, m64)
        assert next(m64.parameters()).dtype == np.float64
        m32 = build_model(micro(num_classes=2), seed=1, dtype="f32")
        load_training_checkpoint(path, m32)
        for (_, a), (_, b) in zip(m64.named_parameters(), m32.named_parameters()):
            np.testing.assert_allclose(a.data, b.data, atol=0)  # f32 payload both ways
