"""CLI behavior: subcommands, outputs, exit codes."""

import copy
import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest

import incepformer
from incepformer.analysis import count_params, estimate_flops
from incepformer.checkpoint import MAGIC
from incepformer.cli import run_cli
from incepformer.config import dumps, ipt_s, ipt_t, load_model_config, micro
from incepformer.netpbm import read_image, write_ppm

TINY_CONFIG = {
    "name": "tiny",
    "stages": [
        {"channels": 4, "depth": 1, "reduction": r, "heads": 1, "ffn_ratio": 1}
        for r in (8, 4, 2, 1)
    ],
    "decoder_channels": 8,
    "num_classes": 2,
}


def config_text(value: str, field: str, stage: int | None = None) -> bytes:
    """TINY_CONFIG as JSON with one field set to the raw JSON text `value`."""
    doc = copy.deepcopy(TINY_CONFIG)
    (doc if stage is None else doc["stages"][stage])[field] = "@RAW@"
    return json.dumps(doc).replace('"@RAW@"', value).encode()


def checkpoint_bytes(name: bytes, dims: list[int]) -> bytes:
    return (MAGIC + struct.pack("<IH", 1, len(name)) + name
            + struct.pack(f"<B{len(dims)}I", len(dims), *dims) + b"\0" * 4 + struct.pack("<Q", 0))


INFER = ["infer", "{path}", "--model", "micro", "--out", "{out}"]
ANALYZE = ["analyze", "--model", "{path}"]
EVAL = ["eval", "--model", "micro", "--crop", "64x64", "--checkpoint", "{path}"]

# Each of these once escaped run_cli as a raw Python exception.
HOSTILE_INPUTS = {
    "pgm-dims-not-integers": (INFER, b"P5\nabc 32\n255\n" + bytes(1024), 1),
    "pgm-maxval-not-integer": (INFER, b"P5\n32 32\nzz\n" + bytes(1024), 1),
    "pgm-negative-dims": (INFER, b"P5\n-32 -32\n255\n" + bytes(1024), 1),
    "config-width-not-integer": (ANALYZE, config_text('"abc"', "decoder_channels"), 3),
    "config-stages-not-list": (ANALYZE, config_text("5", "stages"), 3),
    "config-eps-list": (ANALYZE, config_text("[1]", "norm_eps"), 3),
    "config-channels-inf": (ANALYZE, config_text("1e400", "channels", stage=0), 3),
    "config-width-inf": (ANALYZE, config_text("1e400", "decoder_channels"), 3),
    "config-not-utf8": (ANALYZE, b"\xff\xfe{}", 3),
    "config-nested-too-deep": (ANALYZE, b"[" * 100_000, 3),
    "checkpoint-name-not-utf8": (EVAL, checkpoint_bytes(b"\xff\xfe", [1]), 1),
    "checkpoint-rank-too-high": (EVAL, checkpoint_bytes(b"w", [1] * 70), 1),
}


@pytest.fixture
def tiny_config_path(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return str(path)


class TestAnalyzeCommand:
    def test_csv_consistent_with_library(self, capsys):
        assert run_cli(["analyze", "--model", "ipt-t", "--input", "512x512",
                        "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "layer,params,flops"
        total = lines[-1].split(",")
        report = estimate_flops(ipt_t(), 512, 512)
        assert int(total[1]) == report.total_params == count_params(ipt_t()).total_params
        assert int(total[2]) == report.total_flops

    def test_params_only_table(self, capsys):
        assert run_cli(["analyze", "--model", "ipt-b", "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "params (M): 39.7" in out

    def test_json_format(self, capsys):
        assert run_cli(["analyze", "--model", "micro", "--input", "64x64",
                        "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["totals"]["params"] == count_params(micro()).total_params

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "report.csv"
        assert run_cli(["analyze", "--model", "micro", "--format", "csv",
                        "--out", str(path)]) == 0
        assert path.read_bytes().startswith(b"layer,params,flops\n")

    def test_patch_mode_flag_changes_counts(self, capsys):
        run_cli(["analyze", "--model", "micro", "--format", "csv"])
        nonoverlap = capsys.readouterr().out
        run_cli(["analyze", "--model", "micro", "--format", "csv",
                 "--patch-mode", "overlap"])
        overlap = capsys.readouterr().out
        assert nonoverlap != overlap


class TestGradcheckCommand:
    def test_tiny_config_passes(self, tiny_config_path, capsys):
        code = run_cli(["gradcheck", "--model", tiny_config_path, "--dtype", "f64",
                        "--input", "32x32", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "gradient checks passed" in out
        assert "FAIL" not in out


class TestTrainEvalCommands:
    def test_train_logs_and_checkpoint(self, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        log = tmp_path / "loss.csv"
        code = run_cli(["train", "--model", "micro", "--iters", "3", "--batch", "2",
                        "--lr", "1e-3", "--crop", "64x64", "--seed", "3",
                        "--checkpoint", str(ckpt), "--out", str(log)])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        for i, line in enumerate(lines):
            it, lr, loss = line.split(",")
            assert int(it) == i
            float(lr), float(loss)
        assert ckpt.exists()
        assert log.read_text().startswith("iter,lr,loss\n")

    def test_eval_reports_miou(self, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        run_cli(["train", "--model", "micro", "--iters", "2", "--crop", "64x64",
                 "--checkpoint", str(ckpt)])
        capsys.readouterr()
        code = run_cli(["eval", "--model", "micro", "--checkpoint", str(ckpt),
                        "--crop", "64x64"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "class,iou"
        last = out.strip().splitlines()[-1]
        assert last.startswith("miou,")
        assert 0.0 <= float(last.split(",")[1]) <= 1.0

    def test_eval_hostile_checkpoint_exit_code(self, tmp_path, capsys):
        # Dims (2^32 - 1)^3 declared in a 28-byte file must not be allocated.
        path = tmp_path / "huge.ckpt"
        path.write_bytes(MAGIC + struct.pack("<IHcB3I", 1, 1, b"w", 3, *[2**32 - 1] * 3))
        code = run_cli(["eval", "--model", "micro", "--checkpoint", str(path),
                        "--crop", "64x64"])
        assert code == 1
        assert "payload bytes" in capsys.readouterr().err

    def test_train_determinism_across_invocations(self, capsys):
        run_cli(["train", "--model", "micro", "--iters", "2", "--crop", "64x64",
                 "--seed", "7"])
        first = capsys.readouterr().out
        run_cli(["train", "--model", "micro", "--iters", "2", "--crop", "64x64",
                 "--seed", "7"])
        second = capsys.readouterr().out
        assert first == second

    def test_train_determinism_across_processes(self):
        import subprocess
        import sys

        cmd = [sys.executable, "-m", "incepformer.cli", "train", "--model", "micro",
               "--iters", "2", "--crop", "64x64", "--seed", "11"]
        # The child must import the same package as this process, installed or not.
        src = str(Path(incepformer.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        runs = [subprocess.run(cmd, capture_output=True, text=True, env=env) for _ in range(2)]
        assert runs[0].returncode == runs[1].returncode == 0
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout.strip()


class TestInferCommand:
    def test_mask_dims_match_input(self, tmp_path):
        rng = np.random.default_rng(0)
        src = tmp_path / "in.ppm"
        write_ppm(str(src), rng.integers(0, 256, (64, 96, 3)).astype(np.uint8))
        mask = tmp_path / "mask.pgm"
        color = tmp_path / "mask.ppm"
        code = run_cli(["infer", str(src), "--model", "micro",
                        "--out", str(mask), "--color-out", str(color)])
        assert code == 0
        with open(mask, "rb") as fh:
            header = fh.read(32).split(b"\n")
        assert header[0] == b"P5"
        assert header[1] == b"96 64"
        img = read_image(str(color))
        assert img.shape == (3, 64, 96)

    def test_indivisible_image_rejected(self, tmp_path):
        src = tmp_path / "in.ppm"
        write_ppm(str(src), np.zeros((50, 50, 3), dtype=np.uint8))
        assert run_cli(["infer", str(src), "--model", "micro",
                        "--out", str(tmp_path / "m.pgm")]) == 3


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        assert run_cli(["analyze", "--frobnicate"]) == 2

    def test_unknown_subcommand(self):
        assert run_cli(["transmogrify"]) == 2

    def test_invalid_config_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli(["analyze", "--model", str(bad)]) == 3

    def test_semantic_config_error(self, tmp_path):
        doc = dict(TINY_CONFIG)
        doc["stages"] = [dict(s, channels=10, heads=3) for s in TINY_CONFIG["stages"]]
        bad = tmp_path / "sem.json"
        bad.write_text(json.dumps(doc))
        assert run_cli(["analyze", "--model", str(bad)]) == 3

    def test_missing_config_file(self):
        assert run_cli(["analyze", "--model", "/nonexistent/cfg.json"]) == 3

    @pytest.mark.parametrize("case", sorted(HOSTILE_INPUTS))
    def test_hostile_input_file(self, case, tmp_path, capsys):
        argv, payload, code = HOSTILE_INPUTS[case]
        path = tmp_path / "input"
        path.write_bytes(payload)
        assert run_cli([a.format(path=path, out=tmp_path / "mask.pgm") for a in argv]) == code
        assert capsys.readouterr().err.startswith("error: ")


class TestConfigRoundTrip:
    def test_dump_and_reload_preset(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(dumps(ipt_s()))
        assert load_model_config(str(path)) == ipt_s()
