"""Declarative model configuration: stage/variant settings and presets.

Configs serialize to a flat JSON document (see `to_dict`).  Presets are
addressable by name ("ipt-t", "ipt-s", "ipt-b", plus "micro" for tests and
gradient checking).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from typing import Sequence

from .errors import ConfigError

PATCH_MODES = ("nonoverlap", "overlap")


@dataclass(frozen=True)
class StageConfig:
    """One encoder stage: width, depth and attention geometry."""

    channels: int
    depth: int
    reduction: int
    heads: int
    ffn_ratio: int

    def validate(self, name: str = "stage"):
        if self.channels < 1:
            raise ConfigError(f"{name}.channels must be positive, got {self.channels}")
        if self.depth < 1:
            raise ConfigError(f"{name}.depth must be >= 1, got {self.depth}")
        if self.reduction < 1:
            raise ConfigError(f"{name}.reduction must be >= 1, got {self.reduction}")
        if self.heads < 1:
            raise ConfigError(f"{name}.heads must be >= 1, got {self.heads}")
        if self.channels % self.heads:
            raise ConfigError(
                f"{name}.channels ({self.channels}) must be divisible by heads ({self.heads})"
            )
        if self.ffn_ratio < 1:
            raise ConfigError(f"{name}.ffn_ratio must be >= 1, got {self.ffn_ratio}")


@dataclass(frozen=True)
class ModelConfig:
    """Full variant description: four stages plus decoder/head settings.

    `with_bias` toggles biases on every convolution and projection;
    `bypass_reduce_r1` switches the R=1 key/value reduction to a plain
    LayerNorm of the input tokens instead of the literal three branches.
    """

    stages: tuple[StageConfig, StageConfig, StageConfig, StageConfig]
    decoder_channels: int
    num_classes: int
    patch_mode: str = "nonoverlap"
    norm_eps: float = 1e-5
    with_bias: bool = True
    bypass_reduce_r1: bool = False
    name: str = "custom"

    def validate(self):
        if len(self.stages) != 4:
            raise ConfigError(f"stages must have exactly 4 entries, got {len(self.stages)}")
        for i, s in enumerate(self.stages, start=1):
            s.validate(f"stages[{i}]")
        if self.decoder_channels < 1:
            raise ConfigError(f"decoder_channels must be positive, got {self.decoder_channels}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.patch_mode not in PATCH_MODES:
            raise ConfigError(f"patch_mode must be one of {PATCH_MODES}, got {self.patch_mode!r}")
        if self.norm_eps < 0:
            raise ConfigError(f"norm_eps must be >= 0, got {self.norm_eps}")

    @property
    def concat_channels(self) -> int:
        return sum(s.channels for s in self.stages)


_STAGE_FIELDS = ("channels", "depth", "reduction", "heads", "ffn_ratio")
# Converter per scalar ModelConfig field; a field left out keeps its default.
_SCALAR_FIELDS = {"decoder_channels": int, "num_classes": int, "patch_mode": str, "norm_eps": float,
                  "with_bias": bool, "bypass_reduce_r1": bool, "name": str}
_MODEL_FIELDS = ("stages", *_SCALAR_FIELDS)


def to_dict(cfg: ModelConfig) -> dict:
    d = asdict(cfg)
    d["stages"] = [asdict(s) for s in cfg.stages]
    return d


def from_dict(d: dict) -> ModelConfig:
    if not isinstance(d, dict):
        raise ConfigError("model config document must be a JSON object")
    unknown = set(d) - set(_MODEL_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(sorted(unknown))}")
    if "stages" not in d:
        raise ConfigError("config field 'stages' is required")
    if not isinstance(d["stages"], list):
        raise ConfigError("config field 'stages' must be a list")
    stages = []
    for i, sd in enumerate(d["stages"], start=1):
        if not isinstance(sd, dict):
            raise ConfigError(f"stages[{i}] must be an object")
        bad = set(sd) - set(_STAGE_FIELDS)
        if bad:
            raise ConfigError(f"stages[{i}]: unknown field(s): {', '.join(sorted(bad))}")
        missing = set(_STAGE_FIELDS) - set(sd)
        if missing:
            raise ConfigError(f"stages[{i}]: missing field(s): {', '.join(sorted(missing))}")
        try:
            stages.append(StageConfig(**{k: int(sd[k]) for k in _STAGE_FIELDS}))
        except (TypeError, ValueError, OverflowError) as e:
            raise ConfigError(f"stages[{i}]: {e}") from e
    for key in ("decoder_channels", "num_classes"):
        if key not in d:
            raise ConfigError(f"config field {key!r} is required")
    values = {}
    for key, conv in _SCALAR_FIELDS.items():
        if key in d:
            try:
                values[key] = conv(d[key])
            except (TypeError, ValueError, OverflowError) as e:
                raise ConfigError(f"config field {key!r}: {e}") from e
    cfg = ModelConfig(stages=tuple(stages), **values)
    cfg.validate()
    return cfg


def dumps(cfg: ModelConfig) -> str:
    return json.dumps(to_dict(cfg), indent=2, sort_keys=False) + "\n"


# Shared geometry of the three standard variants: stage widths, per-stage
# key/value reduction ratios, head counts (head dim 64) and FFN expansion 4.
_CHANNELS = (64, 128, 320, 512)
_REDUCTIONS = (8, 4, 2, 1)
_HEADS = (1, 2, 5, 8)
_FFN_RATIO = 4


def _variant(name: str, depths: Sequence[int], decoder_channels: int, num_classes: int) -> ModelConfig:
    stages = tuple(
        StageConfig(channels=c, depth=d, reduction=r, heads=h, ffn_ratio=_FFN_RATIO)
        for c, d, r, h in zip(_CHANNELS, depths, _REDUCTIONS, _HEADS)
    )
    return ModelConfig(stages=stages, decoder_channels=decoder_channels,
                       num_classes=num_classes, name=name)


def ipt_t(num_classes: int = 150) -> ModelConfig:
    return _variant("ipt-t", (2, 2, 4, 2), 512, num_classes)


def ipt_s(num_classes: int = 150) -> ModelConfig:
    return _variant("ipt-s", (3, 4, 12, 3), 768, num_classes)


def ipt_b(num_classes: int = 150) -> ModelConfig:
    return _variant("ipt-b", (3, 6, 24, 2), 768, num_classes)


def micro(num_classes: int = 4) -> ModelConfig:
    """Desk-scale config for gradient checks and smoke training."""
    stages = tuple(
        StageConfig(channels=8, depth=1, reduction=r, heads=1, ffn_ratio=2)
        for r in _REDUCTIONS
    )
    return ModelConfig(stages=stages, decoder_channels=32, num_classes=num_classes, name="micro")


PRESETS = {"ipt-t": ipt_t, "ipt-s": ipt_s, "ipt-b": ipt_b, "micro": micro}


def load_model_config(path_or_name: str, num_classes: int | None = None) -> ModelConfig:
    """Resolve a preset name, or parse a JSON config file.

    JSON syntax errors report line/column; semantic errors name the field.
    """
    if path_or_name in PRESETS:
        cfg = PRESETS[path_or_name]() if num_classes is None else PRESETS[path_or_name](num_classes)
        return cfg
    try:
        with open(path_or_name, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read model config {path_or_name!r}: {e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"{path_or_name}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    except RecursionError:
        raise ConfigError(f"{path_or_name}: JSON nested too deeply") from None
    cfg = from_dict(doc)
    if num_classes is not None:
        cfg = replace(cfg, num_classes=num_classes)
        cfg.validate()
    return cfg
