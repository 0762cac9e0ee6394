#!/usr/bin/env python3
"""Bit-level fingerprints of training and eval, for checking that a change
leaves every number the package computes unchanged.

Prints one line per fingerprint:

* ``train()`` at batch 2, seed 3, 64x64 crops with the default scale/flip
  augmentation: the loss of every iteration as ``float.hex``, then the
  SHA-256 of the final checkpoint.  Runs micro f32 x6, micro f64 x3,
  micro with overlapping patch embeds f32 x4, micro without biases and with
  the R=1 reduction bypassed f32 x3, and ipt-t f32 x2 iterations.
* the SHA-256 of the ipt-t 512x512 eval-mode logits of one image.

To compare two source trees, run it against each and compare the outputs:

    PYTHONPATH=old/src python3 tools/fingerprint.py > old.txt
    PYTHONPATH=new/src python3 tools/fingerprint.py > new.txt
    cmp old.txt new.txt

It takes about 5 s and 0.5 GiB on a 2-core x86_64 VM.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import tempfile

import numpy as np

from incepformer import TrainConfig, build_model, ipt_t, make_synth_dataset, micro, train
from incepformer.tensor import Tensor

SEED = 3
RUNS = (
    ("micro-f32", micro(), "f32", 6),
    ("micro-f64", micro(), "f64", 3),
    ("micro-overlap-f32", dataclasses.replace(micro(), patch_mode="overlap"), "f32", 4),
    ("micro-nobias-bypass-f32", dataclasses.replace(micro(), with_bias=False, bypass_reduce_r1=True),
     "f32", 3),
    ("ipt-t-f32", ipt_t(), "f32", 2),
)


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def train_fingerprint(cfg, dtype: str, iters: int) -> str:
    data = make_synth_dataset(4, 64, 64, cfg.num_classes, SEED)
    tc = TrainConfig(max_iters=iters, batch_size=2, crop=(64, 64), seed=SEED)
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = os.path.join(tmp, "run.ckpt")
        result = train(cfg, tc, data, dtype=dtype, checkpoint_path=ckpt)
        digest = sha256_file(ckpt)
    return " ".join([float(v).hex() for v in result.history] + [digest])


def eval_fingerprint() -> str:
    cfg = ipt_t()
    model = build_model(cfg, seed=SEED)
    model.eval()
    image = make_synth_dataset(1, 512, 512, cfg.num_classes, SEED)[0].image
    logits = model(Tensor(image[None]))
    return hashlib.sha256(logits.data.tobytes()).hexdigest()


def main():
    for name, cfg, dtype, iters in RUNS:
        print(f"train {name} x{iters}: {train_fingerprint(cfg, dtype, iters)}", flush=True)
    print(f"eval ipt-t 512x512 logits: {eval_fingerprint()}", flush=True)


if __name__ == "__main__":
    main()
