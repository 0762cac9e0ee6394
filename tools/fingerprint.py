#!/usr/bin/env python3
"""Bit-level fingerprints of training and eval, for checking that a change
leaves every number the package computes unchanged.

Prints one line per fingerprint:

* ``train()`` at batch 2, seed 3, 64x64 crops with the default scale/flip
  augmentation: the loss of every iteration as ``float.hex``, then the
  SHA-256 of the final checkpoint.  Runs micro f32 x6, micro f64 x3 and
  ipt-t f32 x2 iterations.
* the same for ipt-t f32 x2 at batch 1 and 256x256 crops, where the
  decoder and stage-1 attention record several blocks on the tape.
* the SHA-256 of the eval-mode logits of one image for ipt-t f32 at
  512x512 and micro f64 at 64x64 (BatchNorm eval in both dtypes), and of
  the ipt-t logits' `label_map` at 512x512.  A change to how the forward
  blocks its products moves the logits by float rounding, and so their
  hash, but should leave the labels as they are.
* the SHA-256 of every `emit_report` format of `count_params` and of
  `estimate_flops` at 32x32, 64x96, 512x512 and 1024x2048, for each preset.
* the number of recorded ops and the SHA-256 of the tape gradients of every
  parameter, in store order, for one loss: the loss `incepformer gradcheck`
  checks, as `gradcheck.config_loss` builds it (micro f64, 32x32, batch 2,
  BatchNorm frozen), and the same composition for ipt-t f32 at 512x512,
  batch 1, with BatchNorm statistics updating, where stage-1 attention
  runs 25 query blocks and the decoder 32 row blocks on the tape.

To compare two source trees, run each tree's own copy against its source
(the tool calls into the package) and compare the outputs:

    PYTHONPATH=old/src python3 old/tools/fingerprint.py > old.txt
    PYTHONPATH=new/src python3 new/tools/fingerprint.py > new.txt
    cmp old.txt new.txt

Measured on 2026-10-21, it took 10.5-12.1 s and 966 MiB (ru_maxrss) on a
2-core x86_64 VM (Intel Xeon, numpy 2.4.6 with OpenBLAS 0.3.31), where an
earlier host read 3.4 s; the ipt-t 512x512 tape line sets the peak (without
the two tape lines: 6.5-7.8 s and 521 MiB).
"""

from __future__ import annotations

import hashlib
import os
import tempfile

import numpy as np

from incepformer import TrainConfig, build_model, ipt_t, make_synth_dataset, micro, train
from incepformer.analysis import count_params, emit_report, estimate_flops
from incepformer.config import PRESETS
from incepformer.gradcheck import config_loss
from incepformer.metrics import label_map
from incepformer.tensor import GradTape, Tensor, backward
from incepformer.train import cross_entropy

SEED = 3
RUNS = (
    ("micro-f32", micro(), "f32", 6),
    ("micro-f64", micro(), "f64", 3),
    ("ipt-t-f32", ipt_t(), "f32", 2),
)
ANALYZE_CONFIGS = [mk() for mk in PRESETS.values()]
ANALYZE_SIZES = ((32, 32), (64, 96), (512, 512), (1024, 2048))


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def train_fingerprint(cfg, dtype: str, iters: int, size: int = 64, batch: int = 2) -> str:
    data = make_synth_dataset(4, size, size, cfg.num_classes, SEED)
    tc = TrainConfig(max_iters=iters, batch_size=batch, crop=(size, size), seed=SEED)
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = os.path.join(tmp, "run.ckpt")
        result = train(cfg, tc, data, dtype=dtype, checkpoint_path=ckpt)
        digest = sha256_file(ckpt)
    return " ".join([float(v).hex() for v in result.history] + [digest])


def sha256_array(a: np.ndarray) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


def eval_logits(cfg, dtype: str, size: int) -> np.ndarray:
    model = build_model(cfg, seed=SEED, dtype=dtype)
    model.eval()
    image = make_synth_dataset(1, size, size, cfg.num_classes, SEED)[0].image
    return model(Tensor(image[None], dtype=dtype)).data


def tape_fingerprint(model, loss_fn) -> str:
    """Recorded ops and the SHA-256 of the parameter gradients of `loss_fn()`."""
    with GradTape() as tape:
        loss = loss_fn()
    ops = len(tape)  # backward consumes the tape
    backward(loss, tape)
    digest = hashlib.sha256()
    for _, t in model.parameter_store().items():
        digest.update(t.grad.tobytes())
    return f"{ops} ops {digest.hexdigest()}"


def ipt_t_512_loss():
    """`config_loss` of ipt-t at 512x512 but in f32, at batch 1 and with
    BatchNorm statistics updating."""
    cfg = ipt_t()
    model = build_model(cfg, seed=0, dtype="f32")
    model.train()
    rng = np.random.default_rng(np.random.SeedSequence([0, 42]))
    image = Tensor(rng.uniform(0.0, 1.0, (1, 3, 512, 512)), dtype="f32")
    labels = rng.integers(0, cfg.num_classes, (1, 512, 512))
    return model, lambda: cross_entropy(model(image), labels)


def analyze_fingerprint() -> str:
    digest = hashlib.sha256()
    for cfg in ANALYZE_CONFIGS:
        reports = [count_params(cfg)] + [estimate_flops(cfg, h, w) for h, w in ANALYZE_SIZES]
        for report in reports:
            for fmt in ("json", "csv", "table"):
                digest.update(emit_report(report, fmt))
    return digest.hexdigest()


def main():
    for name, cfg, dtype, iters in RUNS:
        print(f"train {name} x{iters}: {train_fingerprint(cfg, dtype, iters)}", flush=True)
    print(f"train ipt-t-f32 256x256 b1 x2: {train_fingerprint(ipt_t(), 'f32', 2, size=256, batch=1)}",
          flush=True)
    logits = eval_logits(ipt_t(), "f32", 512)
    print(f"eval ipt-t 512x512 logits: {sha256_array(logits)}", flush=True)
    labels = label_map(logits[0], 512, 512).astype(np.int64)
    print(f"eval ipt-t 512x512 labels: {sha256_array(labels)}", flush=True)
    print(f"eval micro-f64 64x64 logits: {sha256_array(eval_logits(micro(), 'f64', 64))}", flush=True)
    print(f"analyze {len(ANALYZE_CONFIGS)} configs: {analyze_fingerprint()}", flush=True)
    print(f"tape micro-f64 32x32 b2 grads: {tape_fingerprint(*config_loss(micro(), 0, 32, 32))}", flush=True)
    print(f"tape ipt-t-f32 512x512 b1 grads: {tape_fingerprint(*ipt_t_512_loss())}", flush=True)


if __name__ == "__main__":
    main()
