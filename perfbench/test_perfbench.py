"""Tests of the benchmark itself, at micro size, in seconds.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import csv
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for p in (str(ROOT / "src"), str(HERE)):
    if p not in sys.path:
        sys.path.insert(0, p)

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

RUN = HERE / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _cli(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(RUN), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def _micro(name, tmp_path, seed=3):
    w = W.make_workload(name, seed, "micro", tmp_path)
    if w.needs_prepare:
        w.prepare()
    w.setup()
    return w


def test_end_to_end_run_prints_every_metric_and_no_errors():
    proc = _cli("--workload", "all", "--size", "micro", "--seconds", "0.5", "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"]
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert {w["name"] for w in SPEC["workloads"]} <= set(W.WORKLOADS)
    for name in W.WORKLOADS:
        res = summary["workloads"][name]
        assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
        assert list(res["metrics"]) == names
        assert res["failed"] == 0 and res["attempted"] >= W.MIN_UNITS
        assert all(m["value"] > 0 for m in res["metrics"].values())
    for metric in names:
        assert metric in proc.stdout


# Per-layer metrics each workload must move (nonzero) in a traced run.
MAPPED = {
    "train-ipt-t-256": ["tensor.conv2d_dw.bwd_s", "tensor.conv2d_pw.bwd_s", "tensor.conv2d_dense.bwd_s",
                        "tensor.backward.self_s", "model.stage1.bwd_s", "model.EFFN.bwd_s",
                        "train.adamw_s", "train.cross_entropy.bwd_s", "data.augment_s", "data.synth_s",
                        "checkpoint.save_s", "checkpoint.save_bytes", "tensor.peak_traced_mib"],
    "eval-ipt-t-512": ["tensor.conv2d_dw.fwd_s", "tensor.attention.fwd_s", "model.IncepMHSA.fwd_s",
                       "checkpoint.load_s", "metrics.confusion_s", "tensor.gmacs_per_s.attention"],
    "gradcheck-micro-f64": ["gradcheck.fd_eval_s", "gradcheck.tape_pass_s", "tensor.dispatch_us_per_op",
                            "tensor.ops_per_unit"],
}


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(name):
    proc = _cli("--workload", name, "--size", "micro", "--seconds", "0.5", "--seed", "3", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["correct"], proc.stdout[-2000:]
    assert list(res["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    values = {k: v["value"] for k, v in res["metrics"].items()}
    assert values["analysis.mac_mismatch_rows"] == 0
    assert values["trace.overhead_x"] > 0
    for metric in MAPPED[name]:
        assert values[metric] > 0, metric
    out = ROOT / ".perfbench" / "out" / f"{name}-seed3"
    table = json.loads((out / "trace.json").read_text())
    assert table["rows"] and table["meta"]["workload"] == name
    assert next(csv.reader(io.StringIO((out / "trace.csv").read_text())))[0] == "layer"
    assert (out / "trace.txt").read_text().startswith("layer")
    assert (out / "spans.csv").stat().st_size > 0


def _wrong_cross_entropy(monkeypatch):
    ce = W.train_mod.cross_entropy

    def scaled(*a, **kw):
        return W.tensor_mod.scale(ce(*a, **kw), 1.01)

    monkeypatch.setattr(W.train_mod, "cross_entropy", scaled)


def _relu_for_gelu(monkeypatch):
    monkeypatch.setattr(W.tensor_mod, "gelu", W.tensor_mod.relu)


def _wrong_gradient(monkeypatch):
    """Forward unchanged, gradient of every parameter scaled by 1.5."""
    up = W.tensor_mod.bilinear_upsample
    record = W.tensor_mod.record_op

    def planted(x, *a, **kw):
        y = up(x, *a, **kw)
        return record(y.data, (y,), lambda g: (1.5 * g,), "planted")

    monkeypatch.setattr(W.tensor_mod, "bilinear_upsample", planted)


@pytest.mark.parametrize("name, plant", [
    ("train-ipt-t-256", _wrong_cross_entropy),
    ("eval-ipt-t-512", _relu_for_gelu),
    ("gradcheck-micro-f64", _wrong_gradient),
])
def test_planted_wrong_output_raises_error_rate(name, plant, tmp_path, monkeypatch):
    w = _micro(name, tmp_path)
    plant(monkeypatch)
    res = w.run(W.Hooks(), 3, 0.2)
    w.check(res)
    assert res.failed > 0 and res.problems
    assert res.failed <= res.attempted


def test_unplanted_micro_runs_pass(tmp_path):
    for name in W.WORKLOADS:
        w = _micro(name, tmp_path)
        res = w.run(W.Hooks(), 3, 0.2)
        w.check(res)
        assert res.failed == 0 and not res.problems, (name, res.problems)


def test_reference_forward_matches_package_forward(tmp_path):
    w = _micro("eval-ipt-t-512", tmp_path)
    tensors, iteration = reference.read_checkpoint(w.ckpt)
    assert iteration == 1
    model = W.model_mod.build_model(w.cfg, seed=0, dtype="f64")
    W.train_mod.load_training_checkpoint(str(w.ckpt), model)
    model.eval()
    image = w.dataset[0].image
    got = model(W.tensor_mod.Tensor(image[None], dtype="f64")).data[0]
    np.testing.assert_allclose(reference.logits(w.cfg, tensors, image), got, rtol=1e-9, atol=1e-9)


def test_estimate_rows_match_traced_op_shapes_at_ipt_t():
    cfg = W.ipt_t(num_classes=11)
    model = W.model_mod.build_model(cfg).eval()
    x = W.tensor_mod.Tensor(np.zeros((1, 3, 64, 64)), dtype="f32")
    tr = tracing.Tracer(capacity=10_000)
    with tr.installed():
        for k in range(2):
            tr.begin(k)
            model(x)
        tr.end()
    join = tracing.mac_join(tr, tracing._Spans(tr), W.analysis_mod.estimate_flops(cfg, 64, 64))
    assert join and all(m == e for m, e in join.values()), {k: v for k, v in join.items() if v[0] != v[1]}


def test_latency_tail_has_ten_samples_beyond():
    stats = W.latency_stats([float(i) for i in range(20, 0, -1)])
    assert stats["tail"] == 10.0 and stats["tail_percentile"] == 50.0 and stats["samples"] == 20
    assert W.latency_stats([3.0, 1.0, 2.0])["tail"] == 3.0


def test_emit_table_formats():
    rows = [{"layer": "stage1", "class": "Stage", "calls": 1.0, "fwd_ms": 2.5, "bwd_ms": 1.0,
             "macs": 10.0, "est_macs": 10, "gmacs_per_s": 0.004}]
    doc = json.loads(tracing.emit_table(rows, {"workload": "x"}, "json"))
    assert doc["totals"]["macs"] == 10.0
    lines = tracing.emit_table(rows, {}, "csv").splitlines()
    assert lines[0].split(",") == list(tracing.COLUMNS) and lines[-1].startswith("total")
    assert "# workload: x" in tracing.emit_table(rows, {"workload": "x"}, "table")
    with pytest.raises(ValueError):
        tracing.emit_table(rows, {}, "xml")


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gradcheck-micro-f64",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
