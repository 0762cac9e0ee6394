"""CLI behavior: subcommands, outputs, exit codes."""

import copy
import json
import os
import math
import stat
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import incepformer
from incepformer import cli as cli_mod, tensor as T
from incepformer.analysis import count_params, estimate_flops
from incepformer.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from incepformer.cli import _build_parser, run_cli
from incepformer.config import dumps, ipt_s, ipt_t, load_model_config, micro
from incepformer.errors import ConfigError, ContractError
from incepformer.model import build_model
from incepformer.netpbm import HEADER_BYTES, read_image, write_pgm, write_ppm
from incepformer.tensor import Tensor

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


def with_first_value(raw: bytes, name: str, value: float) -> bytes:
    """Checkpoint bytes `raw` with the first payload value of tensor `name`
    set to `value`, found by walking the documented layout field by field."""
    (count,) = struct.unpack_from("<I", raw, len(MAGIC))
    off = len(MAGIC) + 4
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", raw, off)
        here = raw[off + 2 : off + 2 + nlen].decode()
        rank = raw[off + 2 + nlen]
        dims = struct.unpack_from(f"<{rank}I", raw, off + 3 + nlen)
        off += 3 + nlen + 4 * rank
        if here == name:
            return raw[:off] + struct.pack("<f", value) + raw[off + 4 :]
        off += 4 * math.prod(dims)
    raise KeyError(name)


def run_cli_process(argv: list[str]) -> subprocess.CompletedProcess:
    """`incepformer argv` in a child process that imports the same package
    as this one, installed or not."""
    src = str(Path(incepformer.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-m", "incepformer.cli", *argv],
                          capture_output=True, text=True, env=env)


INFER = ["infer", "{path}", "--model", "micro", "--out", "{out}"]
ANALYZE = ["analyze", "--model", "{path}"]
EVAL = ["eval", "--model", "micro", "--crop", "64x64", "--checkpoint", "{path}"]
TRAIN = ["train", "--model", "{path}", "--iters", "1", "--crop", "64x64"]

# Each of these once escaped run_cli as a raw Python exception, or (the
# huge depths) built or counted blocks for minutes before failing.
HOSTILE_INPUTS = {
    "pgm-dims-not-integers": (INFER, b"P5\nabc 32\n255\n" + bytes(1024), 1),
    "pgm-maxval-not-integer": (INFER, b"P5\n32 32\nzz\n" + bytes(1024), 1),
    "pgm-negative-dims": (INFER, b"P5\n-32 -32\n255\n" + bytes(1024), 1),
    "pgm-oversize-truncated": (INFER, b"P5\n8224 32\n255\n" + bytes(10), 3),
    "pgm-header-too-long": (INFER, b"P5\n#" + b"x" * HEADER_BYTES + b"\n32 32\n255\n" + bytes(1024), 1),
    "config-width-not-integer": (ANALYZE, config_text('"abc"', "decoder_channels"), 3),
    "config-stages-not-list": (ANALYZE, config_text("5", "stages"), 3),
    "config-with-bias-field": (ANALYZE, config_text("true", "with_bias"), 3),
    "config-patch-mode-field": (ANALYZE, config_text('"overlap"', "patch_mode"), 3),
    "config-norm-eps-field": (ANALYZE, config_text("1e-5", "norm_eps"), 3),
    "config-bypass-field": (ANALYZE, config_text("false", "bypass_reduce_r1"), 3),
    "config-int-too-long": (ANALYZE, config_text("1" + "0" * 5000, "decoder_channels"), 3),
    "config-channels-inf": (ANALYZE, config_text("1e400", "channels", stage=0), 3),
    "config-width-inf": (ANALYZE, config_text("1e400", "decoder_channels"), 3),
    "config-not-utf8": (ANALYZE, b"\xff\xfe{}", 3),
    "config-nested-too-deep": (ANALYZE, b"[" * 100_000, 3),
    "config-channels-huge": (TRAIN, config_text("1e18", "channels", stage=0), 3),
    "config-decoder-huge": (TRAIN, config_text("1e12", "decoder_channels"), 3),
    "config-num-classes-huge": (TRAIN, config_text("1e12", "num_classes"), 3),
    "config-depth-huge-train": (TRAIN, config_text("1e9", "depth", stage=0), 3),
    "config-depth-huge-analyze": (ANALYZE, config_text("1e9", "depth", stage=0), 3),
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

    def test_patch_mode_flag_is_usage_error(self):
        # The patch embedding is fixed, and no flag overrides a config field.
        assert run_cli(["analyze", "--model", "micro", "--patch-mode", "overlap"]) == 2


class TestGradcheckCommand:
    def test_dtype_defaults_to_f64(self):
        parser = _build_parser()
        assert parser.parse_args(["gradcheck"]).dtype == "f64"
        assert parser.parse_args(["gradcheck", "--dtype", "f32"]).dtype == "f32"
        for command in ("train", "eval"):
            assert parser.parse_args([command]).dtype == "f32"
        assert not hasattr(parser.parse_args(["analyze"]), "dtype")

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

    @pytest.mark.parametrize("dest,errno_text", [
        ("missing/c.ckpt", "[Errno 2] No such file or directory"),
        ("dir", "[Errno 21] Is a directory"),
    ], ids=["missing-dir", "is-dir"])
    @pytest.mark.parametrize("flag", ["--checkpoint", "--out"])
    def test_missing_destination_directory_fails_before_training(self, flag, dest, errno_text, tmp_path, capsys):
        (tmp_path / "dir").mkdir()
        dest = tmp_path / dest
        assert run_cli(["train", "--iters", "2", flag, str(dest)]) == 1
        out, err = capsys.readouterr()
        assert out == ""  # no iteration ran
        assert err == f"error: {errno_text}: {str(dest)!r}\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "dir"]
        assert list((tmp_path / "dir").iterdir()) == []

    def test_write_error_names_the_given_path(self, tmp_path):
        dest = tmp_path / "missing" / "c.ckpt"
        with pytest.raises(FileNotFoundError) as info:
            save_checkpoint(str(dest), {"w": np.zeros(2, dtype=np.float32)}, 0)
        assert info.value.filename == str(dest) and ".tmp" not in str(info.value)

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

    def test_resume_past_iters_is_config_error(self, tmp_path, capsys):
        # Resumed with --iters 1, a 3-iteration checkpoint once exited 0 and
        # was written back with counter 1 over moments of 3 AdamW steps.
        train_argv = ["train", "--model", "micro", "--crop", "32x32"]
        first = str(tmp_path / "a.ckpt")
        assert run_cli(train_argv + ["--iters", "3", "--checkpoint", first]) == 0
        capsys.readouterr()
        past = tmp_path / "b.ckpt"
        assert run_cli(train_argv + ["--iters", "1", "--resume", first, "--checkpoint", str(past)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "iteration 3" in err
        assert not past.exists()
        at = str(tmp_path / "c.ckpt")
        assert run_cli(train_argv + ["--iters", "3", "--resume", first, "--checkpoint", at]) == 0
        assert load_checkpoint(at)[1] == 3

    def test_eval_table_format_is_usage_error(self, capsys):
        assert run_cli(["eval", "--model", "micro", "--format", "table"]) == 2
        assert "invalid choice: 'table'" in capsys.readouterr().err

    def test_eval_hostile_checkpoint_exit_code(self, tmp_path, capsys):
        # Dims (2^32 - 1)^3 declared in a 28-byte file must not be allocated.
        path = tmp_path / "huge.ckpt"
        path.write_bytes(MAGIC + struct.pack("<IHcB3I", 1, 1, b"w", 3, *[2**32 - 1] * 3))
        code = run_cli(["eval", "--model", "micro", "--checkpoint", str(path),
                        "--crop", "64x64"])
        assert code == 1
        assert "payload bytes" in capsys.readouterr().err

    def test_eval_non_finite_checkpoint_exit_code(self, tmp_path, capsys):
        path = tmp_path / "nan.ckpt"
        assert run_cli(["train", "--model", "micro", "--iters", "1", "--crop", "64x64",
                        "--checkpoint", str(path)]) == 0
        name = next(iter(load_checkpoint(str(path))[0]))
        path.write_bytes(with_first_value(path.read_bytes(), name, math.nan))
        capsys.readouterr()
        assert run_cli(["eval", "--model", "micro", "--checkpoint", str(path), "--crop", "64x64"]) == 1
        assert repr(name) in capsys.readouterr().err

    @pytest.mark.parametrize("value", [-1.0, -1e-5])
    def test_eval_negative_running_variance_exit_code(self, value, tmp_path, capsys):
        # Such a file once loaded and evaluated, the channel's output its beta.
        path = tmp_path / "neg.ckpt"
        assert run_cli(["train", "--model", "micro", "--iters", "1", "--crop", "64x64",
                        "--checkpoint", str(path)]) == 0
        path.write_bytes(with_first_value(path.read_bytes(), "stage1/patch/norm/running_var", value))
        capsys.readouterr()
        assert run_cli(["eval", "--model", "micro", "--checkpoint", str(path), "--crop", "64x64"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "batch_norm2d running variance is negative" in err

    @pytest.mark.parametrize("argv", [
        ["eval", "--model", "micro", "--crop", "32x32", "--checkpoint", "{ckpt}"],
        ["train", "--model", "micro", "--crop", "32x32", "--iters", "2", "--resume", "{ckpt}"],
    ], ids=["eval", "resume"])
    def test_checkpoint_of_deeper_model_rejected(self, argv, tmp_path, capsys):
        # A stage-1 block the model lacks was once dropped without a word.
        doc = json.loads(dumps(micro()))
        doc["stages"][0]["depth"] = 2
        config = tmp_path / "deeper.json"
        config.write_text(json.dumps(doc))
        ckpt = tmp_path / "deeper.ckpt"
        assert run_cli(["train", "--model", str(config), "--crop", "32x32", "--iters", "1",
                        "--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        assert run_cli([a.format(ckpt=ckpt) for a in argv]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "'stage1/block1/" in err

    def test_eval_trailing_bytes_checkpoint_exit_code(self, tmp_path, capsys):
        path = tmp_path / "tail.ckpt"
        assert run_cli(["train", "--model", "micro", "--iters", "1", "--crop", "64x64",
                        "--checkpoint", str(path)]) == 0
        path.write_bytes(path.read_bytes() + b"\x00" * 3)
        capsys.readouterr()
        assert run_cli(["eval", "--model", "micro", "--checkpoint", str(path), "--crop", "64x64"]) == 1
        assert "3 trailing bytes" in capsys.readouterr().err

    def test_train_determinism_across_invocations(self, capsys):
        run_cli(["train", "--model", "micro", "--iters", "2", "--crop", "64x64",
                 "--seed", "7"])
        first = capsys.readouterr().out
        run_cli(["train", "--model", "micro", "--iters", "2", "--crop", "64x64",
                 "--seed", "7"])
        second = capsys.readouterr().out
        assert first == second

    def test_train_determinism_across_processes(self):
        argv = ["train", "--model", "micro", "--iters", "2", "--crop", "64x64", "--seed", "11"]
        runs = [run_cli_process(argv) for _ in range(2)]
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

    def test_mask_is_argmax_of_full_upsample(self, tmp_path):
        # The PGM bytes of the forward, full-size upsample and argmax.
        rng = np.random.default_rng(1)
        src = tmp_path / "in.ppm"
        write_ppm(str(src), rng.integers(0, 256, (64, 96, 3)).astype(np.uint8))
        mask = tmp_path / "mask.pgm"
        assert run_cli(["infer", str(src), "--model", "micro", "--seed", "4", "--out", str(mask)]) == 0
        model = build_model(micro(), seed=4).eval()
        logits = model(Tensor(read_image(str(src))[None], dtype="f32"))
        want = np.argmax(T.bilinear_upsample(logits, 64, 96).data[0], axis=0).astype(np.uint8)
        assert mask.read_bytes() == b"P5\n96 64\n255\n" + want.tobytes()

    def test_more_than_256_classes_fails_before_the_forward(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "wide.json"
        cfg.write_text(json.dumps(dict(TINY_CONFIG, num_classes=300)))
        src = tmp_path / "in.ppm"
        write_ppm(str(src), np.zeros((32, 32, 3), dtype=np.uint8))

        def no_model(*a, **kw):
            raise AssertionError("infer built the model")

        monkeypatch.setattr(cli_mod, "build_model", no_model)
        out = tmp_path / "m.pgm"
        assert run_cli(["infer", str(src), "--model", str(cfg), "--checkpoint", str(tmp_path / "none.ckpt"),
                        "--out", str(out)]) == 1
        assert "more than 256 classes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dest,errno_text", [
        ("missing/m.pnm", "[Errno 2] No such file or directory"),
        ("dir", "[Errno 21] Is a directory"),
    ], ids=["missing-dir", "is-dir"])
    @pytest.mark.parametrize("flag", ["--out", "--color-out"])
    def test_unwritable_output_fails_before_the_model_is_built(self, flag, dest, errno_text, tmp_path,
                                                               monkeypatch, capsys):
        src = tmp_path / "in.ppm"
        write_ppm(str(src), np.zeros((32, 32, 3), dtype=np.uint8))
        (tmp_path / "dir").mkdir()

        def no_model(*a, **kw):
            raise AssertionError("infer built the model")

        monkeypatch.setattr(cli_mod, "build_model", no_model)
        dest = tmp_path / dest
        # A repeated --out takes the last value.
        assert run_cli(["infer", str(src), "--model", "micro", "--out", str(tmp_path / "m.pgm"),
                        flag, str(dest)]) == 1
        assert capsys.readouterr().err == f"error: {errno_text}: {str(dest)!r}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "in.ppm"]

    def test_indivisible_image_rejected(self, tmp_path):
        src = tmp_path / "in.ppm"
        write_ppm(str(src), np.zeros((50, 50, 3), dtype=np.uint8))
        assert run_cli(["infer", str(src), "--model", "micro",
                        "--out", str(tmp_path / "m.pgm")]) == 3

    def test_rejected_header_reads_no_payload(self, tmp_path):
        # A sparse 64 MiB file whose header breaks the input-size rule is
        # rejected without its payload being read.
        path = tmp_path / "wide.pgm"
        header = b"P5 8224 2048 255\n"
        with open(path, "wb") as fh:
            fh.write(header)
            fh.truncate(len(header) + 64 * 2**20)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="width 8224"):
                read_image(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("pad,ok", [(0, False), (1, True)], ids=["at-bound", "inside-bound"])
    def test_header_must_end_within_bound(self, tmp_path, pad, ok):
        # The maxval token ends at byte HEADER_BYTES - pad; the header ends
        # with the one whitespace byte after it.
        body = b"32 32 255"
        header = b"P5" + b" " * (HEADER_BYTES - pad - 2 - len(body)) + body + b"\n"
        path = tmp_path / "in.pgm"
        path.write_bytes(header + bytes(32 * 32))
        if ok:
            assert read_image(str(path)).shape == (3, 32, 32)
        else:
            with pytest.raises(ContractError, match=f"longer than {HEADER_BYTES} bytes"):
                read_image(str(path))

    @pytest.mark.parametrize("writer,shape", [(write_pgm, (1, 2)), (write_ppm, (1, 2, 3))])
    def test_failed_write_keeps_previous_file(self, tmp_path, writer, shape):
        path = tmp_path / "mask.pnm"
        writer(str(path), np.zeros(shape, dtype=np.uint8))
        before = path.read_bytes()
        # None cannot become uint8, so the write fails after the header.
        bad = np.ones(shape, dtype=object)
        bad.flat[0] = None
        with pytest.raises(TypeError):
            writer(str(path), bad)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["mask.pnm"]

    def test_non_regular_output_written_in_place(self, tmp_path):
        # Like /dev/stdout: the FIFO must receive the bytes, not be renamed over.
        fifo = tmp_path / "mask.pgm"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDWR | os.O_NONBLOCK)  # lets the writer open without blocking
        try:
            write_pgm(str(fifo), np.zeros((1, 2), dtype=np.uint8))
            assert stat.S_ISFIFO(os.stat(fifo).st_mode)
            assert os.read(reader, 64) == b"P5\n2 1\n255\n\0\0"
        finally:
            os.close(reader)
        # Like a redirected /dev/stdout: the link stays a link, its target gets the bytes.
        target = tmp_path / "target.pgm"
        target.write_bytes(b"old")
        link = tmp_path / "latest.pgm"
        link.symlink_to(target)
        write_pgm(str(link), np.zeros((1, 2), dtype=np.uint8))
        assert link.is_symlink()
        assert target.read_bytes() == b"P5\n2 1\n255\n\0\0"

    def test_rewrite_keeps_permission_bits(self, tmp_path):
        path = tmp_path / "mask.pgm"
        write_pgm(str(path), np.zeros((1, 2), dtype=np.uint8))
        os.chmod(path, 0o640)
        write_pgm(str(path), np.ones((1, 2), dtype=np.uint8))
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o640
        assert path.read_bytes() == b"P5\n2 1\n255\n\1\1"


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

    @pytest.mark.parametrize("argv", [
        ANALYZE,
        TRAIN,
        ["eval", "--model", "{path}", "--crop", "64x64"],
        ["infer", "{image}", "--model", "{path}", "--out", "{out}"],
    ], ids=["analyze", "train", "eval", "infer"])
    def test_reduction_not_dividing_its_stage_map(self, argv, tmp_path, capsys):
        # Stage 1's map sides are multiples of 8, which 3 does not divide.
        doc = dict(TINY_CONFIG, stages=[dict(s, reduction=r)
                                        for s, r in zip(TINY_CONFIG["stages"], (3, 3, 3, 1))])
        path = tmp_path / "r3331.json"
        path.write_text(json.dumps(doc))
        image = tmp_path / "image.pgm"
        write_pgm(str(image), np.zeros((32, 32), dtype=np.uint8))
        out = tmp_path / "mask.pgm"
        assert run_cli([a.format(path=path, image=image, out=out) for a in argv]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "stages[1].reduction must divide 8" in err
        assert not out.exists()

    def test_missing_config_file(self):
        assert run_cli(["analyze", "--model", "/nonexistent/cfg.json"]) == 3

    @pytest.mark.parametrize("argv", [
        ["train", "--model", "micro", "--iters", "1", "--crop=-64x-64"],
        ["eval", "--model", "micro", "--crop=-64x-64"],
        ["eval", "--model", "micro", "--crop=64x0"],
        ["gradcheck", "--model", "micro", "--input=-32x-32"],
        ["analyze", "--model", "micro", "--input=0x0"],
        ["analyze", "--model", "micro", "--input=-32x-32", "--format", "csv"],
    ], ids=["train-crop-negative", "eval-crop-negative", "eval-crop-zero", "gradcheck-input-negative",
            "analyze-input-zero", "analyze-input-negative"])
    def test_non_positive_size(self, argv, capsys):
        assert run_cli(argv) == 3
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["gradcheck", "--model", "micro", "--input", "33x33"],
        ["eval", "--model", "micro", "--crop", "33x33"],
        ["train", "--model", "micro", "--iters", "1", "--crop", "48x64"],
        ["analyze", "--model", "micro", "--input", "33x33"],
        ["infer", "{image}", "--model", "micro", "--out", "{out}"],
    ], ids=["gradcheck-input", "eval-crop", "train-crop", "analyze-input", "infer-image"])
    def test_size_not_multiple_of_32(self, argv, tmp_path, capsys):
        image = tmp_path / "image.pgm"
        write_pgm(str(image), np.zeros((33, 33), dtype=np.uint8))
        assert run_cli([a.format(image=image, out=tmp_path / "mask.pgm") for a in argv]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "multiples of 32" in err

    # 8224 is the first multiple of 32 past the 8192 bound; the 20-digit
    # sides once reached numpy and raised ValueError.
    @pytest.mark.parametrize("argv", [
        ["train", "--model", "micro", "--iters", "1", "--crop", "8224x32"],
        ["eval", "--model", "micro", "--crop", "32x8224"],
        ["gradcheck", "--model", "micro", "--input", "32x8224"],
        ["analyze", "--model", "micro", "--input", "8224x8224"],
        ["infer", "{image}", "--model", "micro", "--out", "{out}"],
        ["train", "--model", "micro", "--iters", "1", "--crop", "9223372036854775808x32"],
        ["eval", "--model", "micro", "--crop", "99999999999999999968x32"],
        ["gradcheck", "--model", "micro", "--input", "99999999999999999968x32"],
    ], ids=["train-crop", "eval-crop", "gradcheck-input", "analyze-input", "infer-image",
            "train-crop-huge", "eval-crop-huge", "gradcheck-input-huge"])
    def test_size_above_bound(self, argv, tmp_path, capsys):
        image = tmp_path / "image.pgm"
        write_pgm(str(image), np.zeros((32, 8224), dtype=np.uint8))
        out = tmp_path / "mask.pgm"
        assert run_cli([a.format(image=image, out=out) for a in argv]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "up to 8192" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--iters", "1", "--checkpoint", "{out}"],
        ["eval"],
        ["gradcheck"],
        ["infer", "{image}", "--out", "{out}"],
    ], ids=["train", "eval", "gradcheck", "infer"])
    def test_negative_seed(self, argv, tmp_path, capsys):
        image = tmp_path / "image.pgm"
        write_pgm(str(image), np.zeros((32, 32), dtype=np.uint8))
        out = tmp_path / "out"
        assert run_cli([a.format(image=image, out=out) for a in argv] + ["--seed", "-1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--seed" in err
        assert not out.exists()

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_lr_writes_no_checkpoint(self, lr, tmp_path, capsys):
        ckpt = tmp_path / "c.ckpt"
        assert run_cli(["train", "--iters", "1", "--lr", lr, "--checkpoint", str(ckpt)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "base_lr" in err
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_lr_writes_no_checkpoint(self, tmp_path):
        # The step overflows the float32 weights to inf; the checkpoint once
        # written of them made eval exit 1.  A child process, because the
        # overflow warnings are errors in this one.
        ckpt = tmp_path / "c.ckpt"
        run = run_cli_process(["train", "--model", "micro", "--iters", "1", "--batch", "1",
                               "--lr", "1e300", "--checkpoint", str(ckpt)])
        assert run.returncode == 1
        assert "error: tensor 'stage1/patch/proj/weight' holds non-finite" in run.stderr
        assert list(tmp_path.iterdir()) == []

    def test_out_of_memory(self, monkeypatch, capsys):
        def exhausted(*args):
            raise MemoryError("Unable to allocate 16.0 GiB for an array")

        monkeypatch.setattr(cli_mod, "make_synth_dataset", exhausted)
        assert run_cli(["eval", "--crop", "64x64"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and "16.0 GiB" in err

    @pytest.mark.parametrize("flag", [["--seed", "0"], ["--dtype", "f64"]])
    def test_analyze_takes_no_seed_or_dtype(self, flag, capsys):
        assert run_cli(["analyze"] + flag) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

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
