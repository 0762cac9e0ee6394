"""Command-line interface: analyze, gradcheck, train, eval, infer.

Exit codes are stable per error class: 0 success, 1 operation failure
(including gradient-check failures, runtime errors and malformed image or
checkpoint files), 2 usage errors, 3 invalid configuration (a model config,
or a size that breaks the input-size rule).
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

import numpy as np

from .analysis import count_params, emit_report, estimate_flops
from .checkpoint import atomic_write
from .config import PRESETS, check_input_size, load_model_config
from .data import class_colors, make_synth_dataset
from .errors import ConfigError, ContractError, IncepFormerError
from .gradcheck import check_config_gradients, check_op_gradients
from .metrics import eval_miou, label_map
from .model import build_model
from .netpbm import read_image, write_pgm, write_ppm
from .tensor import Tensor
from .train import TrainConfig, load_training_checkpoint, train


def _parse_size(text: str, option: str) -> tuple[int, int]:
    """Parse 'WxH' into (height, width), checked against the input-size rule."""
    try:
        w, h = map(int, text.lower().split("x"))
    except ValueError:
        raise ConfigError(f"{option}: expected a WxH size, got {text!r}") from None
    check_input_size(h, w, option)
    return h, w


def _check_output_paths(*paths):
    """Raise, before any work, the OSError that writing each given path
    would raise late: its parent directory is missing, or the path is a
    directory."""
    for path in filter(None, paths):
        if os.path.isdir(path):
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise OSError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="incepformer", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    model_help = f"preset name ({', '.join(sorted(PRESETS))}) or JSON config path"

    def common(p):
        p.add_argument("--model", default="micro", help=model_help)
        p.add_argument("--seed", type=int, default=0, help="non-negative")

    p = sub.add_parser("analyze", help="parameter counts and FLOP estimates")
    p.add_argument("--model", default="ipt-t", help=model_help)
    p.add_argument("--input", default=None, help="input size WxH for FLOP estimation")
    p.add_argument("--format", choices=("json", "csv", "table"), default="table")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")

    p = sub.add_parser("gradcheck", help="autodiff vs finite-difference comparison")
    # No --dtype: central differences with step FD_STEP meet GRAD_TOL only in f64.
    common(p)
    p.add_argument("--input", default="32x32")

    p = sub.add_parser("train", help="train on the synthetic dataset")
    common(p)
    p.add_argument("--dtype", choices=("f32", "f64"), default="f32")
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--batch", type=int, default=2)
    p.add_argument("--lr", type=float, default=6e-5)
    p.add_argument("--crop", default="64x64")
    p.add_argument("--checkpoint", default=None, help="write the final checkpoint here")
    p.add_argument("--resume", default=None, help="resume from this checkpoint")
    p.add_argument("--out", default=None, help="also write the loss log to this file")

    p = sub.add_parser("eval", help="mIoU on the synthetic dataset")
    common(p)
    p.add_argument("--dtype", choices=("f32", "f64"), default="f32")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--crop", default="64x64", help="synthetic image size WxH")
    p.add_argument("--format", choices=("json", "csv"), default="csv")

    p = sub.add_parser("infer", help="segment a P5/P6 netpbm image")
    p.add_argument("image", help="input image (binary PGM or PPM)")
    common(p)
    p.add_argument("--dtype", choices=("f32", "f64"), default="f32")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--out", required=True, help="class-index mask path (PGM, P5)")
    p.add_argument("--color-out", default=None, help="optional color mask path (PPM, P6)")
    return parser


def _cmd_analyze(args) -> int:
    cfg = load_model_config(args.model)
    if args.input is None:
        report = count_params(cfg)
    else:
        h, w = _parse_size(args.input, "--input")
        report = estimate_flops(cfg, h, w)
    payload = emit_report(report, args.format)
    if args.out:
        with atomic_write(args.out) as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.flush()
    return 0


def _cmd_gradcheck(args) -> int:
    h, w = _parse_size(args.input, "--input")
    cfg = load_model_config(args.model)
    rows = check_op_gradients(seed=args.seed) + check_config_gradients(cfg, args.seed, h, w)
    width = max(len(r.name) for r in rows)
    print(f"{'check':<{width}}  {'rel_err':>12}  {'tol':>8}  status")
    failures = 0
    for r in rows:
        status = "ok" if r.ok else "FAIL"
        failures += 0 if r.ok else 1
        print(f"{r.name:<{width}}  {r.rel_err:>12.3e}  {r.tol:>8.0e}  {status}")
    print(f"# {len(rows) - failures}/{len(rows)} gradient checks passed")
    return 0 if failures == 0 else 1


def _cmd_train(args) -> int:
    cfg = load_model_config(args.model)
    ch, cw = _parse_size(args.crop, "--crop")
    _check_output_paths(args.checkpoint, args.out)  # written only after the last iteration
    tcfg = TrainConfig(base_lr=args.lr, max_iters=args.iters, batch_size=args.batch,
                       crop=(ch, cw), seed=args.seed)
    dataset = make_synth_dataset(16, ch, cw, cfg.num_classes, args.seed)
    lines: list[str] = []

    def log(it, lr, loss):
        line = f"{it},{lr:.8g},{loss:.8g}"
        lines.append(line)
        print(line)

    train(cfg, tcfg, dataset, dtype=args.dtype,
          checkpoint_path=args.checkpoint, resume_from=args.resume, log=log)
    if args.out:
        with atomic_write(args.out) as fh:
            fh.write(("iter,lr,loss\n" + "\n".join(lines) + "\n").encode("utf-8"))
    return 0


def _cmd_eval(args) -> int:
    cfg = load_model_config(args.model)
    ch, cw = _parse_size(args.crop, "--crop")
    model = build_model(cfg, seed=args.seed, dtype=args.dtype)
    if args.checkpoint:
        load_training_checkpoint(args.checkpoint, model)
    dataset = make_synth_dataset(8, ch, cw, cfg.num_classes, args.seed + 1)
    result = eval_miou(model, dataset, TrainConfig())
    if args.format == "json":
        doc = {
            "miou": result.miou,
            "per_class": [None if np.isnan(v) else float(v) for v in result.per_class],
        }
        print(json.dumps(doc, indent=2))
    else:
        print("class,iou")
        for i, v in enumerate(result.per_class):
            print(f"{i},{'' if np.isnan(v) else f'{v:.6f}'}")
        print(f"miou,{result.miou:.6f}")
    return 0


def _cmd_infer(args) -> int:
    cfg = load_model_config(args.model)
    if cfg.num_classes > 256:
        raise ContractError("more than 256 classes cannot be written as 8-bit PGM")
    _check_output_paths(args.out, args.color_out)
    image = read_image(args.image)
    _, h, w = image.shape
    model = build_model(cfg, seed=args.seed, dtype=args.dtype)
    if args.checkpoint:
        load_training_checkpoint(args.checkpoint, model)
    model.eval()
    mask = label_map(model(Tensor(image[None], dtype=args.dtype)).data[0], h, w)
    write_pgm(args.out, mask.astype(np.uint8))
    if args.color_out:
        palette = (class_colors(cfg.num_classes) * 255).astype(np.uint8)
        write_ppm(args.color_out, palette[mask])
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "gradcheck": _cmd_gradcheck,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "infer": _cmd_infer,
}


def run_cli(argv: list[str]) -> int:
    """Run one invocation; returns the exit code instead of exiting."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ConfigError(f"--seed must be non-negative, got {args.seed}")
        return _COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (IncepFormerError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
