"""tools/fingerprint.py's micro tape line is the tape of the loss that
`incepformer gradcheck` checks, not a copy of it.  Every other line of the
tool is stubbed out, so no training or large model runs."""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np

from incepformer.config import micro
from incepformer.gradcheck import config_loss
from incepformer.tensor import GradTape, backward

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("fingerprint", ROOT / "tools" / "fingerprint.py")
fingerprint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fingerprint)


def test_micro_tape_line_is_the_gradcheck_loss(monkeypatch, capsys):
    monkeypatch.setattr(fingerprint, "train_fingerprint", lambda *a, **k: "-")
    monkeypatch.setattr(fingerprint, "eval_logits", lambda *a: np.zeros((1, 1, 1, 1)))
    monkeypatch.setattr(fingerprint, "label_map", lambda *a: np.zeros(1))
    monkeypatch.setattr(fingerprint, "analyze_fingerprint", lambda: "-")
    monkeypatch.setattr(fingerprint, "ipt_t_512_loss", lambda: config_loss(micro(), 1, 32, 32))
    fingerprint.main()
    lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())

    model, loss_fn = config_loss(micro(), 0, 32, 32)
    with GradTape() as tape:
        loss = loss_fn()
    ops = len(tape)
    backward(loss, tape)
    digest = hashlib.sha256(b"".join(t.grad.tobytes() for _, t in model.parameter_store().items()))
    assert lines["tape micro-f64 32x32 b2 grads"] == f"{ops} ops {digest.hexdigest()}"
